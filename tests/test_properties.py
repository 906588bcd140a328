"""Property tests over random parameters for both generators.

Every Lindblad semigroup is trace-norm contractive and its stationary
state is a fixed point, so ||rho(t) - rho_ss||_1 can never grow; the two
propagation routes must agree, and every state must stay a unit-trace,
Hermitian, positive semidefinite matrix. The truncation guard is off: the
properties hold for the truncated generator whatever population reaches
the top levels. At finite temperature every raising channel of the
dressed generator is the adjoint of a lowering one, at the detailed
balance rate of its Bohr frequency, so the dressed stationary state is
the Gibbs state of every level the generator feeds. The dressed split
the microscopic route propagates must equal the assembled superoperator
seen in the dressed basis, and the sectors that the phenomenological
route exponentiates and RK4 steps must be the sparse rotating-frame
superoperator permuted.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jcdiss.dressed import (
    SystemParams,
    dressed_basis_matrix,
    dressed_energies,
    dressed_spectrum,
)
from jcdiss.errors import DegenerateKernelError
from jcdiss.hilbert import QUBIT_E, SpaceSpec
from jcdiss.lindblad import build_liouvillian, sector_labels
from jcdiss.propagate import (
    evolve,
    spectral_decomposition,
    steady_state,
    trace_distance,
)

from conftest import rotating_generator

_TIMES = np.linspace(0.0, 2.0, 6)
_EPS = np.finfo(float).eps


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    delta=st.floats(-3.0, 3.0),
    gamma=st.floats(0.02, 1.9),
    nbar=st.floats(0.0, 0.5),
    n_max=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_routes_agree_and_contract_to_the_steady_state(delta, gamma, nbar, n_max, seed):
    spec = SpaceSpec(n_max)
    params = SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar
    )
    rho0 = _random_state(spec.dim_total, seed)
    for kind in ("microscopic", "phenomenological"):
        liouvillian = build_liouvillian(kind, params, spec)
        spectral = evolve(liouvillian, rho0, _TIMES, truncation_guard=False)
        rk4 = evolve(liouvillian, rho0, _TIMES, method="rk4", truncation_guard=False)
        rho_ss = steady_state(liouvillian)
        distances = []
        for a, b in zip(spectral.states, rk4.states):
            # trace_distance reads one triangle only; compare every entry
            # too (worst measured: 1.1e-12 and 9.2e-13)
            assert trace_distance(a, b) < 1e-6, kind
            assert np.abs(a - b).max() < 1e-6, kind
            for rho in (a, b):
                assert abs(np.trace(rho) - 1.0) < 1e-10, kind
                assert np.abs(rho - rho.conj().T).max() < 1e-10, kind
                assert np.linalg.eigvalsh(rho).min() >= -1e-10, kind
            distances.append(2.0 * trace_distance(a, rho_ss))
        assert np.all(np.diff(distances) <= 1e-10), (kind, distances)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    delta=st.floats(-3.0, 3.0),
    gamma=st.floats(0.02, 1.9),
    nbar=st.floats(0.05, 1.0),
    n_max=st.integers(1, 6),
)
def test_microscopic_channels_pair_in_detailed_balance(delta, gamma, nbar, n_max):
    spec = SpaceSpec(n_max)
    params = SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar
    )
    liouvillian = build_liouvillian("microscopic", params, spec)
    h = liouvillian.hamiltonian
    exc = spec.excitations()
    lowering, raising = [], []
    for rate, j in liouvillian.channels:
        rows, cols = np.nonzero(j)
        step = np.unique(exc[cols] - exc[rows])
        assert step.size == 1 and abs(step[0]) == 1
        (lowering if step[0] == 1 else raising).append((rate, j))

    def bohr(j):
        # energy the jump takes out of the system
        jj = j.conj().T @ j
        return np.trace(jj @ h - j @ j.conj().T @ h).real / np.trace(jj).real

    unpaired = list(range(len(lowering)))
    for up, j_up in raising:
        match = [i for i in unpaired if np.array_equal(j_up, lowering[i][1].conj().T)]
        assert len(match) == 1
        down, j_down = lowering[match[0]]
        nu = bohr(j_down)
        assert up / down == pytest.approx(np.exp(-nu / params.kT), rel=1e-9)
        unpaired.remove(match[0])
    # only the two drains out of |n_max,e> have no raising partner
    top = spec.index(n_max, QUBIT_E)
    assert len(unpaired) == 2
    for i in unpaired:
        _, cols = np.nonzero(lowering[i][1])
        assert np.all(cols == top)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    delta=st.floats(-3.0, 3.0),
    gamma=st.floats(0.02, 1.9),
    nbar=st.floats(0.05, 1.0),
    n_max=st.integers(1, 6),
)
def test_microscopic_steady_state_is_gibbs_below_the_remainder(delta, gamma, nbar, n_max):
    spec = SpaceSpec(n_max)
    params = SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar
    )
    rho = steady_state(build_liouvillian("microscopic", params, spec))
    spectrum = dressed_spectrum(params, spec)
    u = dressed_basis_matrix(spectrum, spec)
    tilde = u.conj().T @ rho @ u
    populations = np.diag(tilde).real
    assert np.abs(tilde - np.diag(np.diag(tilde))).max() <= 1e-12
    # nothing feeds the bare remainder |n_max,e> (the last dressed level),
    # so it holds nothing; the rest is the Gibbs state of their energies
    assert populations[-1] == 0.0
    energies = dressed_energies(spectrum, spec)[:-1]
    gibbs = np.exp(-(energies - energies.min()) / params.kT)
    assert np.abs(populations[:-1] - gibbs / gibbs.sum()).max() <= 1e-12
    closed = SystemParams(omega0=100.0 + delta, omega=100.0, nbar_at_omega=nbar)
    with pytest.raises(DegenerateKernelError):
        steady_state(build_liouvillian("microscopic", closed, spec))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    delta=st.floats(-3.0, 3.0),
    gamma=st.floats(0.02, 1.9),
    nbar=st.floats(0.0, 1.0),
    n_max=st.integers(1, 6),
)
def test_dressed_split_is_the_superoperator_in_the_dressed_basis(delta, gamma, nbar, n_max):
    spec = SpaceSpec(n_max)
    params = SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar
    )
    liouvillian = build_liouvillian("microscopic", params, spec)
    split = liouvillian.dressed
    lmat = liouvillian.matrix.toarray()
    u = dressed_basis_matrix(dressed_spectrum(params, spec), spec)
    # column stacking: vec(U X U^dag) = kron(conj(U), U) vec(X)
    w = np.kron(u.conj(), u)
    tilde = w.conj().T @ lmat @ w
    tol = 1e-12 * np.linalg.norm(lmat, 2)
    dim = spec.dim_total
    pop = np.arange(dim) * (dim + 1)
    coh = np.setdiff1d(np.arange(dim * dim), pop)
    assert np.abs(tilde[np.ix_(pop, coh)]).max() <= tol
    assert np.abs(tilde[np.ix_(coh, pop)]).max() <= tol
    rates = split.coherence_rates().reshape(-1, order="F")[coh]
    assert np.abs(tilde[np.ix_(coh, coh)] - np.diag(rates)).max() <= tol
    assert np.abs(tilde[np.ix_(pop, pop)] - split.rates).max() <= tol


@pytest.mark.parametrize("kind", ["phenomenological", "microscopic"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    delta=st.floats(-3.0, 3.0),
    gamma=st.floats(0.02, 1.9),
    nbar=st.floats(0.0, 1.0),
    n_max=st.integers(1, 6),
)
def test_sectors_are_the_rotating_generator_permuted(kind, delta, gamma, nbar, n_max):
    # the sectors are summed from the triplets by np.bincount, the sparse
    # reference by scipy's COO -> CSR conversion: phenomenological entries
    # have the same bits, microscopic ones sum coinciding triplets in
    # another order (measured at most 0.77 eps times the sector's largest
    # entry over 400 random draws of these ranges, or 1.8e-15)
    spec = SpaceSpec(n_max)
    params = SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar
    )
    liouvillian = build_liouvillian(kind, params, spec)
    reference = rotating_generator(liouvillian)
    generator = reference.toarray()
    tol = 1e-12 * np.linalg.norm(generator, 2)
    dim = spec.dim_total
    labels = sector_labels(spec)
    # sectors k >= 0 as stored, sector -k as the conjugate of sector k on
    # the transposed entries; nothing may couple two sectors
    rebuilt = np.zeros_like(generator)
    seen = []
    for idx, k, matrix in spectral_decomposition(liouvillian).blocks:
        assert np.all(labels[idx] == k)
        want = reference[idx][:, idx].toarray()
        if kind == "phenomenological":
            assert np.array_equal(matrix.view(np.uint64), want.view(np.uint64)), k
        else:
            assert np.abs(matrix - want).max() <= _EPS * np.abs(want).max(), k
        rebuilt[np.ix_(idx, idx)] = matrix
        seen.append(idx)
        if k:
            mirror = (idx % dim) * dim + idx // dim
            rebuilt[np.ix_(mirror, mirror)] = matrix.conj()
            seen.append(mirror)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(dim * dim))
    assert np.abs(rebuilt - generator).max() <= tol

"""Composite-space contract: indexing, operators, states, partial traces."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from jcdiss.dressed import SystemParams
from jcdiss.errors import DimensionError, DomainError, TruncationError
from jcdiss.hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    build_annihilation,
    build_qubit_ops,
    coherent_state,
    coherent_tail,
    default_coherent_n_max,
    density_matrix,
    fock_state,
    hermiticity_defect,
    partial_trace_field,
    partial_trace_qubit,
    single_excitation_state,
)
from jcdiss.lindblad import build_liouvillian
from jcdiss.propagate import evolve


def _number_operator(spec):
    """Field number operator a^dag a on the composite space."""
    nvals = np.arange(spec.dim_field, dtype=float)
    return np.kron(np.diag(nvals).astype(complex), np.eye(2, dtype=complex))


def test_index_contract_qubit_fastest():
    spec = SpaceSpec(n_max=3)
    for n in range(4):
        assert spec.index(n, QUBIT_G) == 2 * n
        assert spec.index(n, QUBIT_E) == 2 * n + 1
        assert spec.levels(2 * n) == (n, QUBIT_G)
        assert spec.levels(2 * n + 1) == (n, QUBIT_E)


def test_index_bounds():
    spec = SpaceSpec(n_max=2)
    with pytest.raises(DimensionError):
        spec.index(3, QUBIT_G)
    with pytest.raises(DimensionError):
        spec.index(0, 2)
    with pytest.raises(DimensionError):
        spec.levels(spec.dim_total)


def test_space_spec_rejects_bad_n_max():
    with pytest.raises(DomainError):
        SpaceSpec(n_max=0)
    with pytest.raises(DomainError):
        SpaceSpec(n_max=2.5)


def test_annihilation_matrix_elements():
    spec = SpaceSpec(n_max=5)
    a = build_annihilation(spec)
    for n in range(1, 6):
        for s in (QUBIT_G, QUBIT_E):
            psi = fock_state(n, s, spec)
            out = a @ psi
            expect = np.sqrt(n) * fock_state(n - 1, s, spec)
            assert np.allclose(out, expect, atol=1e-15)
    # vacuum annihilates
    assert np.allclose(a @ fock_state(0, QUBIT_G, spec), 0.0)


def test_commutator_truncation_structure():
    # [a, a^dag] = 1 everywhere except the top Fock level (finite cutoff)
    spec = SpaceSpec(n_max=6)
    a = build_annihilation(spec)
    comm = a @ a.conj().T - a.conj().T @ a
    diag = np.diag(comm).real
    top_g = spec.index(spec.n_max, QUBIT_G)
    top_e = spec.index(spec.n_max, QUBIT_E)
    for k in range(spec.dim_total):
        if k in (top_g, top_e):
            assert diag[k] == pytest.approx(-spec.n_max)
        else:
            assert diag[k] == pytest.approx(1.0)


def test_number_operator_counts_photons():
    spec = SpaceSpec(n_max=4)
    nop = _number_operator(spec)
    a = build_annihilation(spec)
    assert np.allclose(nop, a.conj().T @ a)


def test_qubit_ops_algebra():
    spec = SpaceSpec(n_max=2)
    ops = build_qubit_ops(spec)
    sz, sp, sm = ops["sigma_z"], ops["sigma_plus"], ops["sigma_minus"]
    assert np.allclose(sp @ sm - sm @ sp, sz)
    psi_e = fock_state(0, QUBIT_E, spec)
    psi_g = fock_state(0, QUBIT_G, spec)
    assert np.allclose(sz @ psi_e, psi_e)
    assert np.allclose(sz @ psi_g, -psi_g)
    assert np.allclose(sm @ psi_e, psi_g)
    assert np.allclose(sm @ psi_g, 0.0)


def test_total_excitation_operator():
    # spec.excitations() is the diagonal of N, whose differences label
    # the sectors of the phenomenological generator
    spec = SpaceSpec(n_max=3)
    exc = np.diag(spec.excitations().astype(complex))
    psi = fock_state(2, QUBIT_E, spec)
    assert np.allclose(exc @ psi, 3.0 * psi)
    ops = build_qubit_ops(spec)
    expected = _number_operator(spec) + 0.5 * (
        np.eye(spec.dim_total) + ops["sigma_z"]
    )
    assert np.allclose(exc, expected)


def test_coherent_state_poisson_weights():
    spec = SpaceSpec(n_max=30)
    alpha = 1.5 + 0.5j
    psi = coherent_state(alpha, QUBIT_G, spec)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
    lam = abs(alpha) ** 2
    for n in range(8):
        amp2 = abs(psi[spec.index(n, QUBIT_G)]) ** 2
        poisson = np.exp(-lam) * lam**n / math.factorial(n)
        assert amp2 == pytest.approx(poisson, rel=1e-9)
    # excited-qubit amplitudes are all zero
    assert np.allclose(psi[1::2], 0.0)


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(3.0, QUBIT_G, SpaceSpec(n_max=9))


def test_coherent_tail_monotone_in_cutoff():
    tails = [coherent_tail(2.0, n_max) for n_max in (4, 8, 16, 32)]
    assert all(tails[i] > tails[i + 1] for i in range(3))
    assert coherent_tail(0.0, 4) == 0.0


def test_coherent_tail_matches_the_regularized_gamma_function():
    # P(X > n_max) = P(n_max + 1, lam), scipy's gammainc, over lam in
    # [0, 1000] and n_max in [0, 120], both branches and the turn between
    # them; the worst relative error is 2.1e-13 (lam = 0.0244, n_max = 89).
    # A tail below the smallest normal double is only held to it
    # absolutely
    lams = np.unique(np.concatenate([
        np.linspace(0.0, 1000.0, 401), np.geomspace(1e-6, 1000.0, 120), np.arange(1.0, 122.0),
    ]))
    tiny = np.finfo(float).tiny
    worst = 0.0
    for lam in lams:
        ref = gammainc(np.arange(1, 122), lam)
        got = np.array([coherent_tail(math.sqrt(lam), n_max) for n_max in range(121)])
        normal = ref >= tiny
        worst = max(worst, float(np.max(np.abs(got - ref)[normal] / ref[normal], initial=0.0)))
        assert np.all(np.abs(got - ref)[~normal] < tiny)
    assert worst <= 1e-12


def test_coherent_tail_does_not_underflow_where_exp_minus_lam_does():
    # exp(-1000) is 0.0; the weight above n_max = 50 is all but 1, so the
    # state is refused instead of passed as a badly truncated one
    assert math.exp(-1000.0) == 0.0
    assert coherent_tail(math.sqrt(1000.0), 50) >= 1.0 - 1e-12
    assert 0.47 < coherent_tail(math.sqrt(1000.0), 1000) < 0.5
    with pytest.raises(TruncationError):
        coherent_state(math.sqrt(1000.0), QUBIT_G, SpaceSpec(n_max=50))


def test_default_coherent_n_max_keeps_tail_small():
    for alpha in (0.5, 1.0, np.sqrt(5.0), 3.0):
        n_max = default_coherent_n_max(alpha)
        assert coherent_tail(alpha, n_max) < 1e-10


def test_single_excitation_state_layout():
    spec = SpaceSpec(n_max=4)
    alpha, beta = 0.6, 0.8j
    psi = single_excitation_state(alpha, beta, spec)
    assert psi[spec.index(0, QUBIT_E)] == alpha
    assert psi[spec.index(1, QUBIT_G)] == beta
    assert np.count_nonzero(psi) == 2


def test_single_excitation_state_normalization_guard():
    spec = SpaceSpec(n_max=4)
    with pytest.raises(DomainError):
        single_excitation_state(1.0, 0.1, spec)


def test_partial_traces_consistent():
    rng = np.random.default_rng(7)
    spec = SpaceSpec(n_max=3)
    d = spec.dim_total
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real

    field = partial_trace_qubit(rho, spec)
    qubit = partial_trace_field(rho, spec)
    assert np.trace(field) == pytest.approx(1.0)
    assert np.trace(qubit) == pytest.approx(1.0)
    # both reductions agree on the total mean excitation bookkeeping
    n_from_field = np.sum(np.arange(spec.dim_field) * np.diag(field).real)
    nop = _number_operator(spec)
    assert n_from_field == pytest.approx(np.trace(nop @ rho).real, abs=1e-12)


def test_partial_trace_of_product_state():
    spec = SpaceSpec(n_max=3)
    psi = fock_state(2, QUBIT_E, spec)
    rho = density_matrix(psi)
    field = partial_trace_qubit(rho, spec)
    qubit = partial_trace_field(rho, spec)
    assert field[2, 2] == pytest.approx(1.0)
    assert qubit[QUBIT_E, QUBIT_E] == pytest.approx(1.0)


def test_hermiticity_defect_and_density_guard():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert hermiticity_defect(rho) == 0.0

    bad = rho.copy()
    bad[0, 1] = 0.1j
    assert hermiticity_defect(bad) == pytest.approx(0.1)

    # evolve admits only Hermitian, unit-trace initial density matrices
    spec = SpaceSpec(n_max=3)
    liouvillian = build_liouvillian(
        "phenomenological", SystemParams(omega0=100.0, omega=100.0, gamma=0.2), spec
    )
    good = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    evolve(liouvillian, good, [0.0, 1.0])
    skew = good.copy()
    skew[0, 1] = 0.1j
    for state in (skew, 1.4 * good):
        with pytest.raises(DomainError):
            evolve(liouvillian, state, [0.0, 1.0])

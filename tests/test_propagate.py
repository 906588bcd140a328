"""Integrators, spectral propagation, steady states, closed-form oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

import jcdiss.propagate as propagate
from jcdiss import _kernels
from jcdiss.errors import (
    DegenerateKernelError,
    DomainError,
    DriftError,
    ParameterError,
    TruncationError,
)
from jcdiss.hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    coherent_state,
    density_matrix,
    fock_state,
    partial_trace_qubit,
    single_excitation_state,
)
from jcdiss.dressed import SystemParams, dressed_spectrum, dressed_vector, ground_vector
from jcdiss.lindblad import Liouvillian, build_liouvillian, unvec, vec
from jcdiss.observables import inversion
from jcdiss.propagate import (
    DRIFT_TOL,
    TRUNCATION_TOL,
    SingleExcitationAmplitudes,
    _expm,
    _grid_step,
    analytic_microscopic,
    analytic_phenomenological,
    default_time_step,
    evolve,
    spectral_decomposition,
    steady_state,
    trace_distance,
)

from conftest import rotating_generator


def _params(delta=0.0, gamma=0.2, nbar=0.0, g=1.0):
    return SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar, g=g
    )


def _null_liouvillian(spec):
    # omega = 1 keeps the rotating frame nonzero for rk4 to unwind while
    # its step rule, which sees omega * N_max, stays at a few thousand steps
    d = spec.dim_total
    return Liouvillian(
        kind="phenomenological",
        spec=spec,
        params=SystemParams(omega0=1.0, omega=1.0),
        hamiltonian=np.zeros((d, d), dtype=complex),
        channels=[],
        matrix=sp.csr_matrix((d * d, d * d), dtype=complex),
    )


def test_null_generator_freezes_the_state():
    spec = SpaceSpec(3)
    rho0 = density_matrix(single_excitation_state(0.6, 0.8, spec))
    times = np.linspace(0.0, 5.0, 11)
    liouvillian = _null_liouvillian(spec)
    for method in ("spectral", "rk4"):
        result = evolve(liouvillian, rho0, times, method=method)
        for state in result.states:
            assert trace_distance(state, rho0) < 1e-12


def test_closed_system_rabi_oscillation():
    # gamma = 0, resonant: excitation swaps as sin^2(gt)
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian("phenomenological", _params(gamma=0.0), spec)
    psi0 = fock_state(0, QUBIT_E, spec)
    times = np.linspace(0.0, 3.0, 61)
    k1g = spec.index(1, QUBIT_G)
    for method in ("spectral", "rk4"):
        result = evolve(liouvillian, psi0, times, method=method)
        p1g = result.states[:, k1g, k1g].real
        assert np.abs(p1g - np.sin(times) ** 2).max() < 1e-8


def test_rk4_matches_microscopic_closed_form():
    spec = SpaceSpec(8)
    params = _params(delta=2.0)
    liouvillian = build_liouvillian("microscopic", params, spec)
    amps = SingleExcitationAmplitudes(alpha=0.6, beta=0.8j)
    psi0 = single_excitation_state(amps.alpha, amps.beta, spec)
    times = np.linspace(0.0, 10.0, 41)
    result = evolve(liouvillian, psi0, times, method="rk4")
    exact = analytic_microscopic(params, amps, times, spec)
    worst = max(trace_distance(a, b) for a, b in zip(result.states, exact))
    assert worst < 1e-8


def test_rk4_step_validation():
    spec = SpaceSpec(3)
    liouvillian = build_liouvillian("microscopic", _params(), spec)
    psi0 = single_excitation_state(1.0, 0.0, spec)
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ParameterError):
        evolve(liouvillian, psi0, np.array([0.0, 2.0, 1.0]), method="rk4")
    with pytest.raises(ParameterError):
        evolve(liouvillian, psi0, times, method="leapfrog")


def test_default_time_step_frames():
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian("microscopic", _params(), spec)
    dt = default_time_step(liouvillian)
    # in-frame width of H - omega N plus the largest decay rate is 4.8
    assert dt == pytest.approx(0.005 / 4.8, rel=1e-12)
    # the rotating frame removes the carrier: far above the 0.005 / omega
    # a lab-frame step would need
    assert dt > 20 * 0.005 / liouvillian.params.omega


def _per_channel_time_step(liouvillian):
    # the rule as first written: one dense J^dag J per channel, of which
    # only the diagonal is read
    h = liouvillian.hamiltonian
    dim = h.shape[0]
    h_frame = np.array(h, dtype=complex)
    h_frame[np.diag_indices(dim)] -= liouvillian.params.omega * liouvillian.spec.excitations()
    msum = np.zeros((dim, dim), dtype=complex)
    for rate, j in liouvillian.channels:
        msum += rate * (j.conj().T @ j)
    evals = np.linalg.eigvalsh(0.5 * (h_frame + h_frame.conj().T))
    decay = float(np.max(np.abs(np.diag(msum)))) if liouvillian.channels else 0.0
    return 0.005 / max(float(evals.max() - evals.min()) + decay, 1e-9)


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.1])
@pytest.mark.parametrize("n_max", [4, 14])
def test_default_time_step_reads_the_decay_off_column_norms(kind, nbar, n_max):
    for delta in (0.0, 2.0, -2.0, 4.0):
        params = _params(delta=delta, nbar=nbar)
        liouvillian = build_liouvillian(kind, params, SpaceSpec(n_max))
        want = _per_channel_time_step(liouvillian)
        got = default_time_step(liouvillian)
        assert abs(got - want) <= 2 * np.spacing(want), (delta, got, want)


def test_spectral_identity_at_t_zero():
    spec = SpaceSpec(5)
    liouvillian = build_liouvillian("microscopic", _params(delta=2.0), spec)
    rho0 = density_matrix(single_excitation_state(0.8, 0.6, spec))
    result = evolve(liouvillian, rho0, np.array([0.0]), method="spectral")
    assert trace_distance(result.states[0], rho0) < 1e-10


def test_expm_matches_scipy():
    # the stepper's own exponential against scipy.linalg.expm: dissipative
    # matrices of 1-norm 1e-3 to 1e3 (none to eight squarings), complex and
    # real, and the sectors of a finite-temperature generator
    rng = np.random.default_rng(5)
    mats = []
    for norm in (1e-3, 1.0, 30.0, 1e3):
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = m - m.conj().T - np.diag(rng.uniform(0.0, 1.0, 12))
        m *= norm / np.abs(m).sum(axis=0).max()
        mats += [m, m.real]
    liouvillian = build_liouvillian("phenomenological", _params(1.0, nbar=0.3), SpaceSpec(6))
    mats += [9.4 * m for _, _, m in spectral_decomposition(liouvillian).blocks]
    for m in mats:
        want = scipy.linalg.expm(m)
        got = _expm(m)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
def test_packed_entries_counts_the_packed_sectors(kind):
    for n_max in range(1, 10):
        liouvillian = build_liouvillian(kind, _params(nbar=0.1), SpaceSpec(n_max))
        decomp = spectral_decomposition(liouvillian)
        assert [idx.size for idx, _, _ in decomp.blocks] == (
            [4 * n_max + 2] + [4 * (n_max + 1 - k) for k in range(1, n_max + 1)] + [1]
        )
        blocks, side = _kernels._packing(decomp).shape
        assert blocks * side * side == _kernels.packed_entries(n_max)


def test_uneven_time_list_matches_expm_multiply():
    # no uniform step fits these times, so both models step from one
    # output time to the next with one expm per distinct gap
    spec = SpaceSpec(8)
    times = np.array([0.0, 0.3, 0.31, 2.0, 7.5])
    assert _grid_step(times) is None
    psi0 = coherent_state(0.5, QUBIT_E, spec)
    exc = spec.excitations()
    for kind in ("microscopic", "phenomenological"):
        liouvillian = build_liouvillian(kind, _params(delta=1.0, nbar=0.1), spec)
        result = evolve(liouvillian, psi0, times, truncation_guard=False)
        generator = rotating_generator(liouvillian)
        v, t_prev = vec(density_matrix(psi0)), 0.0
        for t, rho in zip(times, result.states):
            v = expm_multiply(generator * (t - t_prev), v)
            t_prev = t
            phase = np.exp(-1j * 100.0 * t * exc)
            want = phase[:, None] * unvec(v, spec.dim_total) * phase.conj()[None, :]
            assert np.abs(rho - want).max() <= 1e-12


def _observed(liouvillian, psi0, times, chunk, **kwargs):
    """Concatenated observer stacks, checking that chunks arrive in order."""
    stacks = []

    def observer(i0, tc, stack):
        assert i0 == sum(len(part) for part in stacks)
        assert np.array_equal(tc, times[i0 : i0 + tc.size])
        assert stack.shape == (tc.size,) + psi0.shape * 2
        stacks.append(stack.copy())

    result = evolve(liouvillian, psi0, times, observer=observer, chunk=chunk, **kwargs)
    return np.concatenate(stacks), result.diagnostics


@pytest.mark.parametrize(
    "kind, method",
    [(kind, method) for method in ("spectral", "rk4")
     for kind in ("microscopic", "phenomenological")],
    ids=["microscopic", "phenomenological", "microscopic-rk4", "phenomenological-rk4"],
)
def test_chunk_size_does_not_change_the_observed_series(kind, method):
    spec = SpaceSpec(8)
    liouvillian = build_liouvillian(kind, _params(delta=1.0, nbar=0.1), spec)
    psi0 = coherent_state(0.5, QUBIT_E, spec)
    times = np.linspace(0.0, 10.0, 37)
    ref_states, ref_diag = _observed(liouvillian, psi0, times, None, method=method)
    assert ref_states.shape[0] == times.size
    for chunk in (1, 3):
        states, diag = _observed(liouvillian, psi0, times, chunk, method=method)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(inversion(states, spec), inversion(ref_states, spec))
        # dt and steps_total included on rk4
        assert diag == ref_diag


@pytest.mark.parametrize("method", ["spectral", "rk4"])
def test_truncation_error_names_the_first_time_whatever_the_chunk(method):
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian("microscopic", _params(nbar=2.0), spec)
    psi0 = fock_state(1, QUBIT_E, spec)
    times = np.linspace(0.0, 1.0, 41)
    free = evolve(liouvillian, psi0, times, method=method, truncation_guard=False)
    top = [spec.index(n, s) for n in (4, 3) for s in (QUBIT_G, QUBIT_E)]
    first = int(np.argmax(free.states[:, top, top].real.sum(axis=1) > 1e-6))
    assert first > 0
    messages = set()
    for chunk in (1, 3, 8, None):
        with pytest.raises(TruncationError) as info:
            evolve(
                liouvillian, psi0, times, method=method,
                observer=lambda *args: None, chunk=chunk,
            )
        messages.add(str(info.value))
    assert len(messages) == 1
    assert f"t={times[first]:.6g};" in messages.pop()


_SOURCES = {"spectral": "_dressed_stacks", "rk4": "_rk4_stacks"}


def _replay(monkeypatch, method, stack):
    """Make the stack source of method hand out the given stack, chunk
    by chunk, instead of propagating."""

    def source(*args):
        times, chunk = args[2], args[-1]
        for start in range(0, times.size, chunk):
            yield start, times[start : start + chunk], stack[start : start + chunk].copy()

    monkeypatch.setattr(propagate, _SOURCES[method], source)


@pytest.mark.parametrize("method", ["spectral", "rk4"])
@pytest.mark.parametrize(
    "truncated_at, drifted_at, error",
    [(2, 5, TruncationError), (5, 2, DriftError), (3, 3, DriftError), (None, 6, DriftError)],
)
def test_the_earliest_failing_state_names_the_error_whatever_the_chunk(
    monkeypatch, method, truncated_at, drifted_at, error
):
    # every route's stacks pass the one guard loop of evolve: the state
    # that fails first decides the error, DriftError at a tie
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian("microscopic", _params(), spec)
    psi0 = fock_state(0, QUBIT_G, spec)
    times = np.linspace(0.0, 1.0, 9)
    stack = np.repeat(density_matrix(psi0)[None], times.size, axis=0)
    if truncated_at is not None:
        top = spec.index(spec.n_max, QUBIT_E)
        stack[truncated_at, top, top] = 2 * TRUNCATION_TOL
        stack[truncated_at, 0, 0] -= 2 * TRUNCATION_TOL
    stack[drifted_at, 0, 0] += 2 * DRIFT_TOL
    first = drifted_at if truncated_at is None else min(truncated_at, drifted_at)
    _replay(monkeypatch, method, stack)
    messages = set()
    for chunk in (1, 3, 8, None):
        with pytest.raises(error) as info:
            evolve(liouvillian, psi0, times, method=method, chunk=chunk)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert f"t={times[first]:.6g}" in messages.pop()


@pytest.mark.parametrize(
    "value", [2 * DRIFT_TOL, np.nan, np.inf, -np.inf, complex(0.0, np.nan)]
)
@pytest.mark.parametrize("index", [(0, 0), (5, 2), (2, 5), (9, 9)])
def test_a_drifted_or_nonfinite_state_is_a_drift_error(index, value):
    # a trace drift or Hermiticity defect beyond DRIFT_TOL, and a NaN or
    # inf anywhere: NaN fails every comparison, so the guard asks whether
    # a state is within the tolerance, never whether it is beyond it
    spec = SpaceSpec(4)
    guards = propagate._StackGuards(spec, truncation_guard=False)
    rho = density_matrix(fock_state(0, QUBIT_G, spec))
    stack = np.repeat(rho[None], 4, axis=0)
    stack[2][index] = value
    times = np.array([0.0, 0.5, 1.5, 2.0])
    with pytest.raises(DriftError, match=r"at t=1\.5 "):
        guards.check(stack, times)
    assert guards.diagnostics() == {
        "trace_drift_max": 0.0, "herm_defect_max": 0.0, "top_population_max": 0.0,
    }


def test_truncation_guard():
    spec = SpaceSpec(3)
    params = _params(nbar=2.0)
    liouvillian = build_liouvillian("microscopic", params, spec)
    psi0 = fock_state(2, QUBIT_E, spec)
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(TruncationError):
        evolve(liouvillian, psi0, times, method="spectral")
    result = evolve(liouvillian, psi0, times, method="spectral", truncation_guard=False)
    assert result.diagnostics["top_population_max"] > 1e-6


def test_observer_streaming_skips_state_storage():
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian("microscopic", _params(), spec)
    psi0 = single_excitation_state(1.0, 0.0, spec)
    times = np.linspace(0.0, 2.0, 7)
    seen = []
    result = evolve(
        liouvillian, psi0, times, observer=lambda i0, tc, stack: seen.extend(tc)
    )
    assert result.states is None
    assert seen == list(times)


def test_steady_state_zero_t_microscopic_is_ground():
    spec = SpaceSpec(6)
    liouvillian = build_liouvillian("microscopic", _params(delta=2.0), spec)
    rho_ss = steady_state(liouvillian)
    k = spec.index(0, QUBIT_G)
    assert rho_ss[k, k].real > 1.0 - 1e-10
    assert np.linalg.norm(liouvillian.apply(rho_ss)) < 1e-9


def test_steady_state_weak_coupling_phenomenological_is_vacuum():
    spec = SpaceSpec(4)
    params = _params(gamma=0.005, g=0.01)
    liouvillian = build_liouvillian("phenomenological", params, spec)
    rho_ss = steady_state(liouvillian)
    field = partial_trace_qubit(rho_ss, spec)
    assert field[0, 0].real > 1.0 - 1e-9


def test_steady_state_thermal_field_near_decoupling():
    # at exactly g = 0 the qubit decouples and the kernel degenerates;
    # just above it the unique steady state carries the thermal field
    nbar = 0.5
    params = _params(gamma=1e-3, g=1e-3, nbar=nbar)
    spec = SpaceSpec(25)
    with pytest.raises(DegenerateKernelError):
        steady_state(
            build_liouvillian("phenomenological", _params(g=0.0, nbar=nbar), spec)
        )
    liouvillian = build_liouvillian("phenomenological", params, spec)
    rho_ss = steady_state(liouvillian)
    field = np.diag(partial_trace_qubit(rho_ss, spec)).real
    n_mean = float(np.sum(np.arange(spec.dim_field) * field))
    assert abs(n_mean - nbar) < 1e-6


def _steady_state_by_scipy(liouvillian):
    """steady_state's kernel through scipy.linalg.eig and eigvals: the same
    eigenvalue magnitudes, the same kernel pick and normalisation."""
    dim = liouvillian.dim
    gamma = liouvillian.params.gamma
    split = getattr(liouvillian, "dressed", None)
    if split is not None:
        w, vmat = scipy.linalg.eig(split.rates)
        coherences = split.coherence_rates()[~np.eye(dim, dtype=bool)]
        k = propagate._kernel_index(np.abs(np.concatenate([w, coherences])), gamma)
        rho = split.to_bare(np.diag(vmat[:, k]).astype(complex))
    else:
        decomp = spectral_decomposition(liouvillian)
        (idx, _, sector0), others = decomp.blocks[0], decomp.blocks[1:]
        w, vmat = scipy.linalg.eig(sector0)
        shifted = [np.abs(scipy.linalg.eigvals(m) - 1j * decomp.omega * k) for _, k, m in others]
        k = propagate._kernel_index(np.abs(np.concatenate([w] + shifted + shifted)), gamma)
        v = np.zeros(dim * dim, dtype=complex)
        v[idx] = vmat[:, k]
        rho = unvec(v, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.1])
@pytest.mark.parametrize("delta", [0.0, 1.5, 4.0])
def test_steady_state_matches_the_scipy_eig_route(kind, nbar, delta):
    # numpy's and scipy's geev agree to the last bit at one BLAS thread;
    # at two, the phenomenological states at nbar = 0.1 differ by up to
    # 7.6e-21 in an entry (n_max 10), the others not at all. The bound is
    # the project's "same outputs" bound
    liouvillian = build_liouvillian(kind, _params(delta=delta, gamma=0.1, nbar=nbar), SpaceSpec(10))
    gap = np.abs(steady_state(liouvillian) - _steady_state_by_scipy(liouvillian)).max()
    assert gap <= 1e-12


def test_damped_oscillator_kernel_is_thermal():
    # independent construction: bare-cavity generator on the field space
    # alone; its kernel must be the Bose-weighted diagonal state
    nbar = 0.5
    gamma = 1.0
    dim = 30
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)

    def dissipator(j):
        jj = j.conj().T @ j
        return np.kron(j.conj(), j) - 0.5 * (
            np.kron(np.eye(dim), jj) + np.kron(jj.T, np.eye(dim))
        )

    lsup = gamma * (nbar + 1.0) * dissipator(a) + gamma * nbar * dissipator(
        a.conj().T
    )
    w, v = np.linalg.eig(lsup)
    k = int(np.argmin(np.abs(w)))
    rho = v[:, k].reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    n_mean = float(np.sum(np.arange(dim) * np.diag(rho).real))
    assert abs(n_mean - nbar) < 1e-9
    ratios = np.diag(rho).real[1:6] / np.diag(rho).real[:5]
    assert np.allclose(ratios, nbar / (nbar + 1.0), atol=1e-9)


def test_amplitude_normalization_guard():
    with pytest.raises(DomainError):
        SingleExcitationAmplitudes(alpha=1.0, beta=0.5)


def test_analytic_microscopic_limits():
    spec = SpaceSpec(6)
    params = _params(delta=0.0)
    amps = SingleExcitationAmplitudes(alpha=1.0, beta=0.0)
    psi0 = single_excitation_state(1.0, 0.0, spec)

    at0 = analytic_microscopic(params, amps, np.array([0.0]), spec)[0]
    assert trace_distance(at0, density_matrix(psi0)) < 1e-12

    late = analytic_microscopic(params, amps, np.array([400.0]), spec)[0]
    k = spec.index(0, QUBIT_G)
    assert late[k, k].real > 1.0 - 1e-10

    # resonant alpha = 1: both dressed populations are e^{-gamma t/2}/2
    spectrum = dressed_spectrum(params, spec)
    ep = dressed_vector(spectrum, spec, 0, +1)
    em = dressed_vector(spectrum, spec, 0, -1)
    for t in (0.5, 2.0, 7.0):
        rho = analytic_microscopic(params, amps, np.array([t]), spec)[0]
        expected = 0.5 * np.exp(-0.5 * params.gamma * t)
        assert np.vdot(ep, rho @ ep).real == pytest.approx(expected, abs=1e-12)
        assert np.vdot(em, rho @ em).real == pytest.approx(expected, abs=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_analytic_phenomenological_limits():
    spec = SpaceSpec(6)
    amps = SingleExcitationAmplitudes(alpha=0.6, beta=-0.8j)
    psi0 = single_excitation_state(amps.alpha, amps.beta, spec)

    params = _params(delta=1.5)
    at0 = analytic_phenomenological(params, amps, np.array([0.0]), spec)[0]
    assert trace_distance(at0, density_matrix(psi0)) < 1e-12

    # gamma = 0 limit: matches unitary propagation of the same generator
    closed = _params(delta=1.5, gamma=0.0)
    liouvillian = build_liouvillian("phenomenological", closed, spec)
    times = np.linspace(0.0, 8.0, 33)
    numeric = evolve(liouvillian, psi0, times, method="spectral")
    exact = analytic_phenomenological(closed, amps, times, spec)
    worst = max(trace_distance(a, b) for a, b in zip(numeric.states, exact))
    assert worst < 1e-9


def test_descriptions_disagree_on_ground_state_filling():
    # resonant decay from |0,e>: the bare-damping form modulates the
    # ground-state population, the dressed form does not
    spec = SpaceSpec(6)
    params = _params(delta=0.0, gamma=0.2)
    amps = SingleExcitationAmplitudes(alpha=1.0, beta=0.0)
    times = np.linspace(0.0, 20.0, 401)
    k = spec.index(0, QUBIT_G)
    p0_micro = analytic_microscopic(params, amps, times, spec)[:, k, k].real
    p0_pheno = analytic_phenomenological(params, amps, times, spec)[:, k, k].real
    assert np.abs(p0_micro - p0_pheno).max() > 0.01


def test_microscopic_ground_population_is_monotone():
    rng = np.random.default_rng(5)
    spec = SpaceSpec(6)
    times = np.linspace(0.0, 30.0, 301)
    k = spec.index(0, QUBIT_G)
    for delta in (0.0, 2.0, -3.0):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        amps = SingleExcitationAmplitudes(
            alpha=complex(v[0], v[1]), beta=complex(v[2], v[3])
        )
        params = _params(delta=delta)
        p0 = analytic_microscopic(params, amps, times, spec)[:, k, k].real
        assert np.all(np.diff(p0) >= -1e-9)
        # the two envelope exponentials are literally monotone
        spectrum = dressed_spectrum(params, spec)
        for rate in (spectrum.s[0] ** 2, spectrum.c[0] ** 2):
            env = np.exp(-params.gamma * rate * times)
            assert np.all(np.diff(env) < 0)


def test_trace_distance_basics():
    spec = SpaceSpec(2)
    r1 = density_matrix(fock_state(0, QUBIT_G, spec))
    r2 = density_matrix(fock_state(1, QUBIT_E, spec))
    assert trace_distance(r1, r1) == 0.0
    assert trace_distance(r1, r2) == pytest.approx(1.0)


def test_trace_distance_of_a_stack_is_each_pair_bit_for_bit():
    # one batched eigvalsh over the stack gives every pair exactly the
    # value it takes on its own; a single pair stays a Python float
    rng = np.random.default_rng(23)
    for dim, count in ((2, 5), (9, 40), (18, 200)):
        shape = (count, dim, dim)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = a + a.conj().transpose(0, 2, 1)
        sigma = b + b.conj().transpose(0, 2, 1)
        stack = trace_distance(rho, sigma)
        assert stack.shape == (count,)
        pairs = [trace_distance(r, s) for r, s in zip(rho, sigma)]
        assert all(type(d) is float for d in pairs)
        assert stack.tolist() == pairs


def _looped_microscopic(params, amps, times, spec):
    # the per-time loop analytic_microscopic broadcasts over the grid
    spectrum = dressed_spectrum(params, spec)
    c0, s0 = spectrum.c[0], spectrum.s[0]
    om0 = spectrum.Omega[0]
    gamma = params.gamma
    ap = c0 * amps.alpha + s0 * amps.beta
    am = -s0 * amps.alpha + c0 * amps.beta
    e0 = ground_vector(spec)
    ep = dressed_vector(spectrum, spec, 0, +1)
    em = dressed_vector(spectrum, spec, 0, -1)
    p00 = np.outer(e0, e0.conj())
    ppp = np.outer(ep, ep.conj())
    pmm = np.outer(em, em.conj())
    ppm = np.outer(ep, em.conj())
    states = np.empty((times.size, spec.dim_total, spec.dim_total), dtype=complex)
    for i, t in enumerate(times):
        pp = abs(ap) ** 2 * np.exp(-gamma * s0 ** 2 * t)
        pm = abs(am) ** 2 * np.exp(-gamma * c0 ** 2 * t)
        coh = ap * np.conj(am) * np.exp((-1j * om0 - 0.5 * gamma) * t)
        rho = (1.0 - pp - pm) * p00 + pp * ppp + pm * pmm
        rho += coh * ppm + np.conj(coh) * ppm.conj().T
        states[i] = rho
    return states


def _looped_phenomenological(params, amps, times, spec):
    # the per-time loop analytic_phenomenological broadcasts over the grid
    lam = 0.5 * params.omega - 0.25j * params.gamma
    mu = 0.5 * params.delta + 0.25j * params.gamma
    nu = np.sqrt(mu * mu + params.g * params.g + 0j)
    alpha, beta = complex(amps.alpha), complex(amps.beta)
    ke = np.zeros(spec.dim_total, dtype=complex)
    ke[spec.index(0, QUBIT_E)] = 1.0
    kg1 = np.zeros(spec.dim_total, dtype=complex)
    kg1[spec.index(1, QUBIT_G)] = 1.0
    vac = ground_vector(spec)
    pvac = np.outer(vac, vac.conj())
    states = np.empty((times.size, spec.dim_total, spec.dim_total), dtype=complex)
    for i, t in enumerate(times):
        cosnt = np.cos(nu * t)
        if abs(nu) * abs(t) < 1e-8 or abs(nu) < 1e-14:
            sincnt = t * (1.0 - (nu * t) ** 2 / 6.0)
        else:
            sincnt = np.sin(nu * t) / nu
        phase = np.exp(-1j * lam * t)
        a_t = phase * (cosnt * alpha - 1j * sincnt * (mu * alpha + params.g * beta))
        b_t = phase * (cosnt * beta - 1j * sincnt * (params.g * alpha - mu * beta))
        psi = a_t * ke + b_t * kg1
        rho = np.outer(psi, psi.conj())
        rho += (1.0 - abs(a_t) ** 2 - abs(b_t) ** 2) * pvac
        states[i] = rho
    return states


_MODEL_PARAMS = [(0.0, 0.2, 1.0), (-2.5, 0.2, 1.0), (1.5, 0.0, 1.0)]


@pytest.mark.parametrize("closed, looped, delta, gamma, g", [
    (analytic_microscopic, _looped_microscopic, *case) for case in _MODEL_PARAMS
] + [
    (analytic_phenomenological, _looped_phenomenological, *case)
    for case in _MODEL_PARAMS + [(0.0, 0.0, 0.0)]
])
def test_closed_forms_match_their_per_time_loops(closed, looped, delta, gamma, g):
    # t = 0 and 1e-9 take the sinc series, and so does every time of the
    # decoupled phenomenological case (nu = 0), where the dressed form is
    # not defined
    spec = SpaceSpec(4)
    params = _params(delta=delta, gamma=gamma, g=g)
    times = np.concatenate([[0.0, 1e-9], np.linspace(0.0, 30.0, 61)[1:]])
    rng = np.random.default_rng(41)
    for _ in range(4):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        amps = SingleExcitationAmplitudes(complex(v[0], v[1]), complex(v[2], v[3]))
        got = closed(params, amps, times, spec)
        want = looped(params, amps, times, spec)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("times", [
    np.linspace(0.0, 12.0, 41), np.array([0.5, 1.0, 2.5, 2.5, 7.0]),
], ids=["uniform", "uneven"])
def test_second_evolve_on_one_generator_takes_no_expm(monkeypatch, kind, times):
    # the step exponentials live on the generator's owner (DressedSplit or
    # SpectralDecomposition), so a repeated grid reuses every one of them
    spec = SpaceSpec(5)
    liouvillian = build_liouvillian(kind, _params(delta=1.0, nbar=0.2), spec)
    calls = []
    expm = propagate._expm

    def counting(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(propagate, "_expm", counting)
    def run(n):
        psi0 = fock_state(n, QUBIT_E, spec)
        return evolve(liouvillian, psi0, times, truncation_guard=False).states

    first = run(1)
    assert calls
    calls.clear()
    second, again = run(0), run(1)
    assert calls == []
    assert np.array_equal(again, first)
    assert not np.array_equal(second, first)


def _scatter_assembly(decomp, steppers, times):
    """propagate_vec as one fancy-index scatter per sector and side: the
    reference its single gather must reproduce bit for bit."""
    dim = decomp.dim
    flat = np.empty((times.size, dim * dim), dtype=complex)
    for (idx, k, _), stepper in zip(decomp.blocks, steppers):
        values = stepper.take(times.size).T
        if k:
            values *= np.exp(-1j * (decomp.omega * k) * times)[:, None]
            flat[:, idx] = values.conj()
        flat[:, (idx % dim) * dim + idx // dim] = values
    return flat.reshape(times.size, dim, dim)


@pytest.mark.parametrize("n_max, nbar, times", [
    (29, 0.0, np.linspace(0.0, 6.0, 83)),
    (10, 0.3, np.linspace(0.4, 9.0, 50)),
    (10, 0.3, np.array([0.0, 0.7, 0.7, 3.1, 8.0])),
], ids=["widest", "thermal", "uneven"])
def test_propagate_vec_gathers_what_the_scatters_placed(n_max, nbar, times):
    spec = SpaceSpec(n_max)
    liouvillian = build_liouvillian("phenomenological", _params(delta=0.5, nbar=nbar), spec)
    decomp = spectral_decomposition(liouvillian)
    v0 = vec(density_matrix(coherent_state(0.6 + 0.3j, QUBIT_E, spec)))

    def steppers():
        return [
            propagate._Stepper(matrix, v0[idx], times, decomp.exps.setdefault(k, {}))
            for idx, k, matrix in decomp.blocks
        ]

    gathered, scattered = steppers(), steppers()
    for start in range(0, times.size, 16):
        tc = times[start : start + 16]
        got = decomp.propagate_vec(gathered, tc)
        want = _scatter_assembly(decomp, scattered, tc)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stepper_matches_explicit_eight_column_stepping_on_every_sector():
    # every sector at n_max = 29 (up to 118 wide) steps each later group of
    # 8 output times as one product with expm(gen 8 h), whatever counts the
    # states are taken in
    spec = SpaceSpec(29)
    decomp = spectral_decomposition(build_liouvillian("phenomenological", _params(), spec))
    times = np.linspace(0.0, 6.0, 83)
    h = propagate._grid_step(times)
    width = propagate._TIME_GROUP
    rng = np.random.default_rng(3)
    assert max(matrix.shape[0] for _, _, matrix in decomp.blocks) == 118
    for idx, k, matrix in decomp.blocks:
        v0 = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
        exps = {}
        stepper = propagate._Stepper(matrix, v0, times, exps)
        got = np.concatenate([stepper.take(n) for n in (5, 13, times.size - 18)], axis=1)
        group = np.zeros((idx.size, width), dtype=complex)
        group[:, 0] = v0
        for c in range(1, width):
            group[:, c] = exps[h] @ group[:, c - 1]
        want = [group]
        while sum(g.shape[1] for g in want) < times.size:
            want.append(exps[width * h] @ want[-1])
        want = np.concatenate(want, axis=1)[:, : times.size]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k

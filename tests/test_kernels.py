"""RK4 on the shared sectors: the rotating-frame generator and the
stepper, held to the staged k1..k4 loop on the sparse reference."""

import numpy as np
import pytest
from scipy.linalg import expm

from jcdiss import _kernels
from jcdiss.hilbert import QUBIT_E, QUBIT_G, SpaceSpec, fock_state
from jcdiss.dressed import SystemParams
from jcdiss.lindblad import build_liouvillian, unvec, vec
from jcdiss.propagate import evolve, spectral_decomposition

from conftest import rotating_generator


def _liouvillian(kind="microscopic", nbar=0.3):
    params = SystemParams(
        omega0=102.0, omega=100.0, gamma=0.2, nbar_at_omega=nbar
    )
    return build_liouvillian(kind, params, SpaceSpec(4))


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.5])
def test_rotating_generator_matches_structured_generator(kind, nbar):
    # L_rot vec(rho) = vec(-i[H - omega N, rho] + D[rho])
    liouvillian = _liouvillian(kind, nbar)
    rho = _random_state(liouvillian.dim, 17)
    n_op = np.diag(liouvillian.spec.excitations().astype(complex))
    omega = liouvillian.params.omega
    want = liouvillian.apply(rho) + 1j * omega * (n_op @ rho - rho @ n_op)
    got = unvec(rotating_generator(liouvillian) @ vec(rho), liouvillian.dim)
    assert np.abs(got - want).max() < 1e-12


def _staged_rk4(generator, rho, dt, n_steps):
    # the classical four-stage loop; rk4_advance applies its step matrix
    v = rho.flatten(order="F")
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n_steps):
        k1 = generator @ v
        k2 = generator @ (v + half * k1)
        k3 = generator @ (v + half * k2)
        k4 = generator @ (v + dt * k3)
        v += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v.reshape(rho.shape, order="F")


def _source(liouvillian, rho):
    """An RK4Source of the sectors of liouvillian, started at rho, and the
    vec indices of the values it hands out."""
    decomp = spectral_decomposition(liouvillian)
    source = _kernels.RK4Source(decomp, vec(rho), [])
    return source, np.concatenate([idx for idx, _, _ in decomp.blocks])


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.5])
def test_advance_matches_staged_rk4(kind, nbar):
    # the sectors' step matrices and their powers regroup the stages'
    # arithmetic on the whole sparse generator: rounding only. Each gap
    # is held to the loop on the calls that step with P(dt) and on those
    # that apply P(dt)^n_steps; (7e-3, 200) builds its power on call 1,
    # the other gaps of more than one step on call 2
    liouvillian = _liouvillian(kind, nbar)
    reference = rotating_generator(liouvillian)
    rho = _random_state(liouvillian.dim, 5)
    source, idx = _source(liouvillian, rho)
    power_calls = {}
    for dt, n_steps in ((1e-3, 1), (1e-3, 50), (7e-3, 200), (0.02, 13)):
        want = vec(_staged_rk4(reference, rho, dt, n_steps))[idx]
        for call in (1, 2):
            got = _kernels.rk4_advance(source, source.v, dt, n_steps)
            got = got.ravel()[source.packing.rows]
            gap = source.gaps[dt, n_steps]
            assert gap.calls == call
            assert gap.repeat == (n_steps if call < gap.power_call else 1)
            assert np.abs(got - want).max() < 1e-13 * np.abs(want).max(), (
                dt, n_steps, call
            )
        power_calls[n_steps] = gap.power_call
    assert power_calls == {1: 1, 50: 2, 200: 1, 13: 2}


def test_evolve_builds_one_step_matrix_per_gap_length(monkeypatch):
    # every gap of a linspace grid from t = 0 is read as its one step
    builds = []
    build = _kernels._step_polynomial

    def counted(generator, dt):
        builds.append(dt)
        return build(generator, dt)

    monkeypatch.setattr(_kernels, "_step_polynomial", counted)
    liouvillian = _liouvillian(nbar=0.0)
    times = np.linspace(0.0, 6.0, 601)
    assert len(set(np.diff(times))) > 1
    psi0 = fock_state(1, QUBIT_E, liouvillian.spec)
    evolve(liouvillian, psi0, times, method="rk4")
    assert len(builds) == 1


def _counted_powering(monkeypatch):
    builds = []
    powering = _kernels._powering

    def counted(step, n):
        builds.append((step, n))
        return powering(step, n)

    monkeypatch.setattr(_kernels, "_powering", counted)
    return builds


def test_power_built_once_on_a_gaps_first_or_second_call(monkeypatch):
    builds = _counted_powering(monkeypatch)
    liouvillian = _liouvillian(nbar=0.0)
    sectors = len(spectral_decomposition(liouvillian).blocks)
    source, _ = _source(liouvillian, _random_state(liouvillian.dim, 3))
    v = source.v
    # a short gap met once builds nothing, nor does one of zero or one step;
    # zero steps give back the packed values as they are
    for dt, n_steps in ((1e-3, 40), (1e-3, 41), (2e-3, 40)):
        _kernels.rk4_advance(source, v, dt, n_steps)
    for _ in range(3):
        assert np.array_equal(_kernels.rk4_advance(source, v, 1e-3, 0), v)
        _kernels.rk4_advance(source, v, 4e-3, 1)
    assert builds == []

    # a short gap builds the power on its second call, exactly once per sector
    for call in range(1, 9):
        _kernels.rk4_advance(source, v, 3e-3, 40)
        assert len(builds) == (0 if call == 1 else sectors), call
    gap = source.gaps[3e-3, 40]
    assert gap.power_call == 2 and gap.repeat == 1
    assert {n for _, n in builds} == {40}

    # a gap whose steps cost more than its power builds it on its first call
    builds.clear()
    _kernels.rk4_advance(source, v, 1e-4, 4000)
    assert len(builds) == sectors
    assert source.gaps[1e-4, 4000].repeat == 1

    # a linspace grid repeats its few gaps: one build each at most
    builds.clear()
    times = np.linspace(0.0, 6.0, 601)
    psi0 = fock_state(1, QUBIT_E, liouvillian.spec)
    evolve(liouvillian, psi0, times, method="rk4")
    assert sectors <= len(builds) <= sectors * len(set(np.diff(times)))
    assert len({id(step) for step, _ in builds}) == len(builds)


def test_rotating_frame_shifts_only_the_diagonal():
    # each sector is the superoperator's block plus i omega k on its diagonal
    liouvillian = _liouvillian()
    matrix = liouvillian.matrix
    omega = liouvillian.params.omega
    for idx, k, block in spectral_decomposition(liouvillian).blocks:
        shift = block - matrix[idx][:, idx].toarray()
        assert np.abs(shift - 1j * omega * k * np.eye(idx.size)).max() < 1e-12


def test_frame_phases():
    # closed system at omega = 100: the fast optical phases of the output
    # come only from unwinding the rotating frame
    spec = SpaceSpec(3)
    params = SystemParams(omega0=100.0, omega=100.0)
    liouvillian = build_liouvillian("phenomenological", params, spec)
    psi0 = (fock_state(0, QUBIT_G, spec) + fock_state(1, QUBIT_G, spec)) / np.sqrt(2)
    rho0 = np.outer(psi0, psi0.conj())
    times = np.linspace(0.0, 0.5, 6)
    result = evolve(liouvillian, psi0, times, method="rk4")
    for t, rho in zip(times, result.states):
        u = expm(-1j * liouvillian.hamiltonian * t)
        assert np.abs(rho - u @ rho0 @ u.conj().T).max() < 1e-9

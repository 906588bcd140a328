"""RK4 on the shared superoperator: the rotating-frame generator and the
stepper, held to the staged k1..k4 loop it replaces."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from jcdiss import _kernels
from jcdiss.errors import DimensionError
from jcdiss.hilbert import QUBIT_E, QUBIT_G, SpaceSpec, fock_state
from jcdiss.dressed import SystemParams
from jcdiss.lindblad import build_liouvillian, unvec, vec
from jcdiss.propagate import evolve


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
    got = unvec(_kernels.rotating_generator(liouvillian) @ vec(rho), liouvillian.dim)
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


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.5])
def test_advance_matches_staged_rk4(kind, nbar):
    # the step matrix and its power regroup the stages' arithmetic:
    # rounding only, measured at most 1.8e-14 relative over these cases.
    # Each (dt, n_steps) is called until it has applied P(dt)^n_steps
    liouvillian = _liouvillian(kind, nbar)
    generator = _kernels.rotating_generator(liouvillian)
    rho = _random_state(liouvillian.dim, 5)
    for dt, n_steps in ((1e-3, 1), (1e-3, 50), (7e-3, 200), (0.02, 13)):
        want = _staged_rk4(generator, rho, dt, n_steps)
        for call in range(32):
            gap = generator.__dict__.get("_rk4_gaps", {}).get((dt, n_steps))
            by_power = gap is not None and gap.power is not None
            got = _kernels.rk4_advance(generator, rho, dt, n_steps)
            assert np.abs(got - want).max() < 1e-13 * np.abs(want).max(), (
                dt, n_steps, call
            )
            if by_power:
                break
        assert by_power, (dt, n_steps)


def test_evolve_builds_one_step_matrix_per_gap_length(monkeypatch):
    builds = []
    build = _kernels._step_polynomial

    def counted(generator, dt):
        builds.append(dt)
        return build(generator, dt)

    monkeypatch.setattr(_kernels, "_step_polynomial", counted)
    liouvillian = _liouvillian(nbar=0.0)
    times = np.linspace(0.0, 6.0, 601)
    psi0 = fock_state(1, QUBIT_E, liouvillian.spec)
    evolve(liouvillian, psi0, times, method="rk4")
    assert 1 <= len(builds) <= len(set(np.diff(times)))
    assert len(set(builds)) == len(builds)


def test_power_paid_for_by_recurring_gaps(monkeypatch):
    builds = []
    powering = _kernels._powering

    def counted(step, n):
        # keeps step alive, so id(step) names its gap; records the prices
        prices = []
        builds.append((step, n, prices))
        products = powering(step, n)
        while True:
            try:
                price = next(products)
            except StopIteration as done:
                return done.value
            prices.append(price)
            yield price

    monkeypatch.setattr(_kernels, "_powering", counted)
    liouvillian = _liouvillian(nbar=0.0)
    generator = _kernels.rotating_generator(liouvillian)
    rho = _random_state(liouvillian.dim, 3)
    for dt, n_steps in ((1e-3, 40), (1e-3, 41), (2e-3, 40)):
        _kernels.rk4_advance(generator, rho, dt, n_steps)
    assert builds == []

    # a recurring gap starts one build and spends on it no more
    # multiplications than its stepping took before it was done
    for calls in range(1, 65):
        _kernels.rk4_advance(generator, rho, 3e-3, 40)
        gap = generator._rk4_gaps[3e-3, 40]
        if gap.power is not None:
            break
    assert gap.power is not None and len(builds) == 1
    step_nnz = _kernels._step_polynomial(generator, 3e-3).nnz
    assert 0 < sum(builds[0][2]) <= (calls - 1) * 40 * step_nnz
    assert gap.power.nnz <= 40 * step_nnz

    # a linspace grid repeats its few gaps: one build each at most
    builds.clear()
    times = np.linspace(0.0, 6.0, 601)
    psi0 = fock_state(1, QUBIT_E, liouvillian.spec)
    evolve(liouvillian, psi0, times, method="rk4")
    assert 1 <= len(builds) <= len(set(np.diff(times)))
    assert len({id(step) for step, _, _ in builds}) == len(builds)


def test_power_denser_than_its_steps_is_dropped():
    # three random entries a row: P holds up to 1 + 3 + ... + 3^4 = 121
    # entries a row, P^2 fills most of each 484-entry row
    rng = np.random.default_rng(11)
    dim_super = 22 * 22
    rows = np.repeat(np.arange(dim_super), 3)
    cols = rng.integers(0, dim_super, rows.size)
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    generator = sp.csr_matrix((vals, (rows, cols)), shape=(dim_super,) * 2)
    rho = _random_state(22, 9)
    want = _staged_rk4(generator, rho, 1e-2, 2)
    for _ in range(64):
        got = _kernels.rk4_advance(generator, rho, 1e-2, 2)
        assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
        gap = generator._rk4_gaps[1e-2, 2]
        if gap.bank is None:
            break
    # the finished power was dropped, never to be built again
    assert gap.bank is None and gap.power is None
    step = gap.step
    assert _kernels._step_polynomial(generator, 1e-2).nnz == step.nnz
    assert (step @ step).nnz > 2 * step.nnz
    _kernels.rk4_advance(generator, rho, 1e-2, 2)
    assert gap.bank is None and gap.power is None and gap.step is step


def test_rotating_frame_shifts_only_the_diagonal():
    liouvillian = _liouvillian()
    exc = liouvillian.spec.excitations()
    shift = (_kernels.rotating_generator(liouvillian) - liouvillian.matrix).toarray()
    want = 1j * liouvillian.params.omega * (exc[:, None] - exc[None, :])
    assert np.abs(shift - np.diag(want.reshape(-1, order="F"))).max() < 1e-12


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


def test_advance_leaves_input_untouched():
    liouvillian = _liouvillian()
    generator = _kernels.rotating_generator(liouvillian)
    rho = np.eye(liouvillian.dim, dtype=complex) / liouvillian.dim
    before = rho.copy()
    _kernels.rk4_advance(generator, rho, 1e-3, 10)
    assert np.array_equal(rho, before)


def test_kernel_dimension_guards():
    liouvillian = _liouvillian()
    generator = _kernels.rotating_generator(liouvillian)
    d = liouvillian.dim
    for bad in (
        np.zeros((3, 3), dtype=complex),
        np.zeros(d * d, dtype=complex),
        np.zeros((d * 2, d // 2), dtype=complex),
    ):
        with pytest.raises(DimensionError):
            _kernels.rk4_advance(generator, bad, 1e-3, 1)

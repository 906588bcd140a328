"""RK4 on the shared superoperator: the rotating-frame generator and the
stepper."""

import numpy as np
import pytest
from scipy.linalg import expm

from jcdiss import _kernels
from jcdiss.errors import DimensionError
from jcdiss.hilbert import QUBIT_G, SpaceSpec, fock_state
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

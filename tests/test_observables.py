"""Scalar observables, entanglement measures, and the phase-space map."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from jcdiss.errors import DimensionError, DomainError, SubspaceLeakError
from jcdiss.hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    build_annihilation,
    coherent_state,
    density_matrix,
    fock_state,
    single_excitation_state,
)
from jcdiss import observables
from jcdiss.dressed import SystemParams
from jcdiss.lindblad import build_liouvillian
from jcdiss.observables import (
    OBSERVABLES,
    HusimiGridSpec,
    concurrence,
    field_entropy,
    field_moments,
    ground_population,
    husimi_q,
    inversion,
    mean_photon,
    p_mean,
    p_var,
    purity,
    q_mean,
    q_var,
)
from jcdiss.propagate import evolve


def test_registry_is_complete():
    expected = {
        "inversion", "mean_photon", "purity", "field_entropy", "concurrence",
        "ground_population", "q_mean", "p_mean", "q_var", "p_var",
    }
    assert set(OBSERVABLES) == expected
    assert all(callable(f) for f in OBSERVABLES.values())


def test_scalars_on_fock_states():
    spec = SpaceSpec(5)
    rho = density_matrix(fock_state(3, QUBIT_E, spec))
    assert inversion(rho, spec) == pytest.approx(1.0)
    assert mean_photon(rho, spec) == pytest.approx(3.0)
    assert purity(rho, spec) == pytest.approx(1.0)
    assert ground_population(rho, spec) == 0.0

    rho_g = density_matrix(fock_state(0, QUBIT_G, spec))
    assert inversion(rho_g, spec) == pytest.approx(-1.0)
    assert ground_population(rho_g, spec) == pytest.approx(1.0)


def test_purity_of_uniform_mixture():
    spec = SpaceSpec(3)
    rho = 0.5 * (
        density_matrix(fock_state(0, QUBIT_G, spec))
        + density_matrix(fock_state(1, QUBIT_E, spec))
    )
    assert purity(rho, spec) == pytest.approx(0.5)


def test_field_entropy_of_thermal_field():
    spec = SpaceSpec(40)
    nbar = 0.7
    p = (nbar / (nbar + 1.0)) ** np.arange(spec.dim_field) / (nbar + 1.0)
    rho = np.zeros((spec.dim_total, spec.dim_total), dtype=complex)
    for n in range(spec.dim_field):
        k = spec.index(n, QUBIT_G)
        rho[k, k] = p[n]
    rho /= np.trace(rho).real
    expected = (nbar + 1.0) * np.log(nbar + 1.0) - nbar * np.log(nbar)
    assert field_entropy(rho, spec) == pytest.approx(expected, abs=1e-6)


def test_field_entropy_of_pure_product_state():
    spec = SpaceSpec(30)
    rho = density_matrix(coherent_state(1.5, QUBIT_G, spec))
    assert field_entropy(rho, spec) < 1e-10


def test_concurrence_on_reference_states():
    spec = SpaceSpec(4)
    assert concurrence(density_matrix(fock_state(0, QUBIT_E, spec)), spec) == 0.0
    bell = single_excitation_state(np.sqrt(0.5), np.sqrt(0.5), spec)
    assert concurrence(density_matrix(bell), spec) == pytest.approx(1.0, abs=1e-12)
    # closed-system evolution reaches maximal entanglement at gt = pi/4
    psi = single_excitation_state(np.cos(np.pi / 4), -1j * np.sin(np.pi / 4), spec)
    assert concurrence(density_matrix(psi), spec) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(13)
    spec = SpaceSpec(4)
    psi = single_excitation_state(0.48 + 0.6j, 0.64j, spec)
    rho = density_matrix(psi)
    base = concurrence(rho, spec)

    # random qubit unitary acting locally cannot change the measure
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (h + h.conj().T)
    u2 = expm(1j * h)
    u = np.kron(np.eye(spec.dim_field, dtype=complex), u2)
    rotated = u @ rho @ u.conj().T
    # the spin-flip eigenproblem is only accurate to ~1e-8 for clustered roots
    assert concurrence(rotated, spec) == pytest.approx(base, abs=1e-6)


def test_concurrence_subspace_guard():
    spec = SpaceSpec(4)
    with pytest.raises(SubspaceLeakError):
        concurrence(density_matrix(fock_state(2, QUBIT_G, spec)), spec)


def test_quadratures_of_vacuum_and_coherent_states():
    spec = SpaceSpec(35)
    vac = density_matrix(fock_state(0, QUBIT_G, spec))
    assert q_mean(vac, spec) == 0.0
    assert p_mean(vac, spec) == 0.0
    assert q_var(vac, spec) == pytest.approx(0.25)
    assert p_var(vac, spec) == pytest.approx(0.25)

    alpha = np.sqrt(5.0)
    rho = density_matrix(coherent_state(alpha, QUBIT_G, spec))
    assert q_mean(rho, spec) == pytest.approx(alpha, abs=1e-9)
    assert p_mean(rho, spec) == pytest.approx(0.0, abs=1e-12)
    assert q_var(rho, spec) == pytest.approx(0.25, abs=1e-9)
    assert p_var(rho, spec) == pytest.approx(0.25, abs=1e-9)

    rot = density_matrix(coherent_state(1.2j, QUBIT_G, spec))
    assert q_mean(rot, spec) == pytest.approx(0.0, abs=1e-12)
    assert p_mean(rot, spec) == pytest.approx(1.2, abs=1e-9)


def test_quadrature_spiral_of_decoupled_cavity():
    # g = 0: the field mean follows alpha e^{(-i omega - gamma/2) t}
    spec = SpaceSpec(15)
    params = SystemParams(omega0=100.0, omega=100.0, gamma=0.2, g=0.0)
    liouvillian = build_liouvillian("phenomenological", params, spec)
    psi0 = coherent_state(1.0, QUBIT_G, spec)
    times = np.linspace(0.0, 3.0, 31)
    result = evolve(liouvillian, psi0, times, method="spectral")
    mean = np.exp((-1j * params.omega - 0.5 * params.gamma) * times)
    for rho, m in zip(result.states, mean):
        assert q_mean(rho, spec) == pytest.approx(m.real, abs=1e-6)
        assert p_mean(rho, spec) == pytest.approx(m.imag, abs=1e-6)


def test_uncertainty_product_bound_on_random_states():
    rng = np.random.default_rng(23)
    spec = SpaceSpec(6)
    d = spec.dim_total
    for _ in range(20):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert q_var(rho, spec) * p_var(rho, spec) >= 1.0 / 16.0 - 1e-12


def _random_states(rng, spec, count, support=None):
    """Random full-rank density matrices on the first `support` basis
    states (all of them by default)."""
    d = spec.dim_total
    m = support or d
    g = rng.normal(size=(count, m, m)) + 1j * rng.normal(size=(count, m, m))
    states = np.zeros((count, d, d), dtype=complex)
    states[:, :m, :m] = g @ np.swapaxes(g, -2, -1).conj()
    return states / np.trace(states, axis1=1, axis2=2).real[:, None, None]


def test_observables_on_a_stack_equal_the_per_state_values():
    rng = np.random.default_rng(31)
    spec = SpaceSpec(5)
    d = spec.dim_total
    full = _random_states(rng, spec, 6)
    # concurrence needs states inside the one-photon subspace
    low = _random_states(rng, spec, 6, support=4)
    for name, fn in OBSERVABLES.items():
        stack = low if name == "concurrence" else full
        per_state = [fn(rho, spec) for rho in stack]
        assert all(isinstance(value, float) for value in per_state), name
        values = fn(stack, spec)
        assert values.shape == (6,), name
        assert np.array_equal(values, per_state), name
        grid = fn(stack.reshape(2, 3, d, d), spec)
        assert np.array_equal(grid, np.reshape(per_state, (2, 3))), name


def test_field_moments_match_dense_traces():
    rng = np.random.default_rng(37)
    spec = SpaceSpec(7)
    states = _random_states(rng, spec, 5)
    a = build_annihilation(spec)
    ea, ea2, en = field_moments(states, spec)
    for k, rho in enumerate(states):
        assert abs(ea[k] - np.trace(a @ rho)) < 1e-13
        assert abs(ea2[k] - np.trace(a @ a @ rho)) < 1e-13
        assert abs(en[k] - np.trace(a.conj().T @ a @ rho).real) < 1e-13
    with pytest.raises(DimensionError):
        field_moments(states[:, :-1, :-1], spec)


def test_husimi_vacuum_and_bound():
    spec = SpaceSpec(6)
    vac = density_matrix(fock_state(0, QUBIT_G, spec))
    grid = HusimiGridSpec(extent=5.0, n_points=101)
    out = husimi_q(vac, spec, grid)
    mid = grid.n_points // 2
    assert out.values[mid, mid] == pytest.approx(1.0 / np.pi, abs=1e-12)
    assert out.values.max() <= 1.0 / np.pi + 1e-9
    assert np.all(out.values >= 0.0)


def test_husimi_coherent_gaussian_and_mass():
    spec = SpaceSpec(25)
    alpha0 = 1.0 + 0.5j
    rho = density_matrix(coherent_state(alpha0, QUBIT_G, spec))
    grid = HusimiGridSpec(extent=abs(alpha0) + 4.5, n_points=121)
    out = husimi_q(rho, spec, grid)
    # integral of Q over the grid approximates the trace
    assert out.mass == pytest.approx(1.0, abs=0.02)
    # pointwise Gaussian law Q = exp(-|alpha - alpha0|^2)/pi
    xs, ys = np.meshgrid(out.x, out.y)
    expected = np.exp(-np.abs(xs + 1j * ys - alpha0) ** 2) / np.pi
    assert np.abs(out.values - expected).max() < 1e-6


def test_husimi_coverage_warning():
    spec = SpaceSpec(25)
    rho = density_matrix(coherent_state(2.0, QUBIT_G, spec))
    with pytest.warns(UserWarning):
        husimi_q(rho, spec, HusimiGridSpec(extent=1.0, n_points=41))


def _husimi_and_warnings(rho, spec, grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = husimi_q(rho, spec, grid)
    return out, len(caught)


def test_husimi_stack_matches_one_call_per_state_with_one_table(monkeypatch):
    spec = SpaceSpec(20)
    states = [
        density_matrix(coherent_state(alpha, QUBIT_G, spec))
        for alpha in (0.0, 1.0 - 1.5j)
    ]
    # a mixed state with coherences on the lowest 12 levels
    m = np.zeros((spec.dim_total, spec.dim_total), dtype=complex)
    parts = np.random.default_rng(3).normal(size=(2, 12, 12))
    m[:12, :12] = parts[0] + 1j * parts[1]
    states.append(m @ m.conj().T / np.trace(m @ m.conj().T).real)
    # a Fock state whose ring crosses the edge of the grid
    states.append(density_matrix(fock_state(20, QUBIT_E, spec)))
    stack = np.array(states)
    grid = HusimiGridSpec(extent=4.5, n_points=31)

    builds = []
    table = observables._coherent_table
    monkeypatch.setattr(observables, "_coherent_table",
                        lambda *args: builds.append(args) or table(*args))
    out, warned = _husimi_and_warnings(stack, spec, grid)
    assert len(builds) == 1 and len(out) == len(states)
    singles = [_husimi_and_warnings(rho, spec, grid) for rho in states]
    assert len(builds) == 1 + len(states)
    # the coverage warning is per state: the Fock state's only
    assert warned == sum(n for _, n in singles) == 1
    for grid_k, (one, _) in zip(out, singles):
        assert np.array_equal(grid_k.values, one.values)
        assert grid_k.mass == one.mass
        assert np.array_equal(grid_k.x, one.x) and np.array_equal(grid_k.y, one.y)
    # a stack of stacks comes back in C order
    nested, _ = _husimi_and_warnings(stack.reshape(2, 2, *stack.shape[1:]), spec, grid)
    assert [g.mass for g in nested] == [g.mass for g in out]


def test_husimi_grid_validation():
    with pytest.raises(DomainError):
        HusimiGridSpec(extent=0.0)
    with pytest.raises(DomainError):
        HusimiGridSpec(extent=3.0, n_points=1)

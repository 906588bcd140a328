"""Rate tables, jump operators, and the two Lindblad generators."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from jcdiss.errors import BohrFrequencyError, DomainError
from jcdiss.hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    build_annihilation,
    density_matrix,
    fock_state,
    single_excitation_state,
)
from jcdiss.dressed import (
    SystemParams,
    build_jc_hamiltonian,
    dressed_basis_matrix,
    dressed_energies,
    dressed_spectrum,
)
from jcdiss.lindblad import (
    build_liouvillian,
    build_rate_table,
    ladder_weights,
    rate_table_columns,
    thermal_occupation,
    unvec,
    vec,
)


def _params(delta=0.0, gamma=0.2, nbar=0.0):
    return SystemParams(
        omega0=100.0 + delta, omega=100.0, gamma=gamma, nbar_at_omega=nbar
    )


def test_thermal_occupation_values():
    assert thermal_occupation(5.0, 0.0) == 0.0
    kT = 2.0
    nu = 3.0
    assert thermal_occupation(nu, kT) == pytest.approx(1.0 / (np.exp(1.5) - 1.0))
    with pytest.raises(DomainError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        thermal_occupation(-1.0, 1.0)


def test_thermal_occupation_vanishes_without_overflow_warning():
    # nu/kT = 2000 overflows expm1 to inf; the occupation is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thermal_occupation(1000.0, 0.5) == 0.0


def test_vec_unvec_column_stacking():
    rho = np.arange(16, dtype=complex).reshape(4, 4)
    v = vec(rho)
    # column stacking: v[i + dim*j] = rho[i, j]
    for i in range(4):
        for j in range(4):
            assert v[i + 4 * j] == rho[i, j]
    assert np.array_equal(unvec(v, 4), rho)
    # the defining identity vec(A X B) = kron(B^T, A) vec(X)
    rng = np.random.default_rng(3)
    a, x, b = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
    assert np.allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x))


def test_zero_temperature_rates_reduce_exactly():
    for delta in (0.0, 2.0, 4.0):
        table = build_rate_table(
            _params(delta=delta), dressed_spectrum(_params(delta=delta), SpaceSpec(10))
        )
        gamma = 0.2
        assert table.gamma1 == gamma and table.gamma2 == gamma
        assert np.all(table.gamma3 == gamma)
        assert np.all(table.gamma4 == gamma)
        assert np.all(table.gamma5 == gamma)
        assert np.all(table.gamma6 == gamma)
        assert table.gtilde1 == 0.0 and table.gtilde2 == 0.0
        for arr in (table.gtilde3, table.gtilde4, table.gtilde5, table.gtilde6):
            assert np.all(arr == 0.0)


@pytest.mark.parametrize("nbar", [0.1, 1.0])
def test_detailed_balance_every_slot(nbar):
    params = _params(delta=2.0, nbar=nbar)
    table = build_rate_table(params, dressed_spectrum(params, SpaceSpec(12)))
    kT = params.kT
    pairs = [
        (table.gtilde1, table.gamma1, table.nu1),
        (table.gtilde2, table.gamma2, table.nu2),
        (table.gtilde3, table.gamma3, table.nu3),
        (table.gtilde4, table.gamma4, table.nu4),
        (table.gtilde5, table.gamma5, table.nu5),
        (table.gtilde6, table.gamma6, table.nu6),
    ]
    for up, down, nu in pairs:
        assert np.all(np.abs(up / down - np.exp(-np.asarray(nu) / kT)) < 1e-12)


def test_bohr_frequencies_positive_in_regime():
    params = _params(delta=4.0, nbar=0.5)
    table = build_rate_table(params, dressed_spectrum(params, SpaceSpec(20)))
    assert table.nu1 > 0 and table.nu2 > 0
    for arr in (table.nu3, table.nu4, table.nu5, table.nu6):
        assert np.all(np.asarray(arr) > 0)


def test_bohr_frequency_guard_fires_outside_regime():
    # omega0 = omega = 1 with g = 1 drives nu2 = (omega0+omega-Omega_0)/2 to 0
    params = SystemParams(omega0=1.0, omega=1.0, gamma=0.01)
    with pytest.raises(BohrFrequencyError):
        build_rate_table(params, dressed_spectrum(params, SpaceSpec(4)))


def test_ladder_weights_match_dressed_matrix_elements():
    # a_n, b_n and the (+,-) cross weight d_n are matrix elements of the
    # raw annihilation operator between explicit dressed vectors
    from jcdiss.dressed import dressed_vector

    spec = SpaceSpec(8)
    params = _params(delta=3.0)
    spectrum = dressed_spectrum(params, spec)
    a_op = build_annihilation(spec)
    a, b, d = ladder_weights(spectrum)
    for n in range(spectrum.n_manifolds - 1):
        ep_lo = dressed_vector(spectrum, spec, n, +1)
        em_lo = dressed_vector(spectrum, spec, n, -1)
        ep_hi = dressed_vector(spectrum, spec, n + 1, +1)
        em_hi = dressed_vector(spectrum, spec, n + 1, -1)
        assert np.vdot(ep_lo, a_op @ ep_hi).real == pytest.approx(a[n], abs=1e-12)
        assert np.vdot(em_lo, a_op @ em_hi).real == pytest.approx(b[n], abs=1e-12)
        assert np.vdot(ep_lo, a_op @ em_hi).real == pytest.approx(d[n], abs=1e-12)


def test_cross_weights_coincide_on_resonance():
    # at delta = 0 the two cross elements (+,-) and (-,+) are equal, so a
    # single weight d_n serves both cross channels
    from jcdiss.dressed import dressed_vector

    spec = SpaceSpec(8)
    spectrum = dressed_spectrum(_params(delta=0.0), spec)
    a_op = build_annihilation(spec)
    _, _, d = ladder_weights(spectrum)
    for n in range(spectrum.n_manifolds - 1):
        em_lo = dressed_vector(spectrum, spec, n, -1)
        ep_hi = dressed_vector(spectrum, spec, n + 1, +1)
        assert np.vdot(em_lo, a_op @ ep_hi).real == pytest.approx(d[n], abs=1e-12)


def test_jump_operators_lower_excitation_by_one():
    # every jump, boundary drains included, is nonzero and lowers the
    # excitation by one, on and off resonance
    spec = SpaceSpec(6)
    exc = spec.excitations()
    for delta in (0.0, 1.0, -2.0):
        liouvillian = build_liouvillian("microscopic", _params(delta=delta), spec)
        for _, j in liouvillian.channels:
            rows, cols = np.nonzero(np.abs(j) > 1e-14)
            assert rows.size > 0
            assert np.all(exc[cols] - exc[rows] == 1)


def test_zero_temperature_channel_count():
    # two ground-manifold jumps, four ladder jumps per n and the two
    # boundary drains, none with a raising partner
    for n_max in (1, 2, 6):
        liouvillian = build_liouvillian("microscopic", _params(), SpaceSpec(n_max))
        assert len(liouvillian.channels) == 4 * n_max


def test_rate_table_columns_shape():
    params = _params(nbar=0.3)
    table = build_rate_table(params, dressed_spectrum(params, SpaceSpec(6)))
    columns = rate_table_columns(table)
    header = (
        ["n", "a_n", "b_n", "d_n"]
        + [f"gamma{i}" for i in range(1, 7)]
        + [f"gtilde{i}" for i in range(1, 7)]
    )
    assert list(columns) == header
    assert table.n_ladder == 5
    assert all(np.shape(col) == (5,) for col in columns.values())
    assert np.array_equal(columns["n"], np.arange(5))
    assert np.all(columns["gamma1"] == table.gamma1)
    assert np.array_equal(columns["gtilde4"], table.gtilde4)


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.4])
def test_liouvillian_trace_preserving(kind, nbar):
    spec = SpaceSpec(5)
    liouvillian = build_liouvillian(kind, _params(delta=2.0, nbar=nbar), spec)
    # Tr L[rho] = 0 for all rho <=> the trace functional is a left null vector
    w = vec(np.eye(liouvillian.dim, dtype=complex))
    assert np.abs(w @ liouvillian.matrix).max() < 1e-11


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
def test_apply_matches_superoperator_matrix(kind):
    rng = np.random.default_rng(11)
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian(kind, _params(delta=1.0, nbar=0.2), spec)
    d = liouvillian.dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    direct = liouvillian.apply(rho)
    via_matrix = unvec(liouvillian.matrix @ vec(rho), d)
    assert np.abs(direct - via_matrix).max() < 1e-12
    # hermiticity preservation
    assert np.abs(direct - direct.conj().T).max() < 1e-12


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
def test_spectrum_in_left_half_plane(kind):
    spec = SpaceSpec(4)
    liouvillian = build_liouvillian(kind, _params(delta=2.0, nbar=0.3), spec)
    w = np.linalg.eigvals(liouvillian.matrix.toarray())
    assert w.real.max() < 1e-10


def test_microscopic_zero_t_has_no_raising_channels():
    spec = SpaceSpec(5)
    liouvillian = build_liouvillian("microscopic", _params(nbar=0.0), spec)
    exc = spec.excitations()
    for _, j in liouvillian.channels:
        rows, cols = np.nonzero(np.abs(j) > 1e-14)
        assert np.all(exc[cols] - exc[rows] == 1)


def test_finite_t_adds_adjoint_channels():
    spec = SpaceSpec(5)
    cold = build_liouvillian("microscopic", _params(nbar=0.0), spec)
    warm = build_liouvillian("microscopic", _params(nbar=0.3), spec)
    # each non-boundary channel gains an upward partner
    n_cold = len(cold.channels)
    assert len(warm.channels) == 2 * (n_cold - 2) + 2


def test_single_excitation_sector_is_invariant_at_zero_t():
    spec = SpaceSpec(6)
    liouvillian = build_liouvillian("microscopic", _params(delta=2.0), spec)
    psi = single_excitation_state(0.6, 0.8, spec)
    rho = density_matrix(psi)
    out = liouvillian.apply(rho)
    sector = {
        spec.index(0, QUBIT_G),
        spec.index(0, QUBIT_E),
        spec.index(1, QUBIT_G),
    }
    rows, cols = np.nonzero(np.abs(out) > 1e-13)
    assert set(rows).issubset(sector) and set(cols).issubset(sector)


def test_gibbs_state_is_stationary_for_microscopic():
    spec = SpaceSpec(14)
    params = _params(delta=0.0, gamma=0.2, nbar=0.1)
    liouvillian = build_liouvillian("microscopic", params, spec)
    spectrum = dressed_spectrum(params, spec)
    u = dressed_basis_matrix(spectrum, spec)
    e = dressed_energies(spectrum, spec)
    w = np.exp(-(e - e.min()) / params.kT)
    gibbs = (u * w) @ u.conj().T
    gibbs /= np.trace(gibbs).real
    resid = np.linalg.norm(liouvillian.apply(gibbs))
    assert resid < 1e-6 * params.gamma


def test_phenomenological_channel_structure():
    spec = SpaceSpec(4)
    a = build_annihilation(spec)
    cold = build_liouvillian("phenomenological", _params(gamma=0.3), spec)
    assert len(cold.channels) == 1
    rate, j = cold.channels[0]
    assert rate == pytest.approx(0.3)
    assert np.array_equal(j, a)

    warm = build_liouvillian("phenomenological", _params(gamma=0.3, nbar=0.5), spec)
    assert len(warm.channels) == 2
    rates = sorted(r for r, _ in warm.channels)
    assert rates == [pytest.approx(0.15), pytest.approx(0.45)]


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        build_liouvillian("semiclassical", _params(), SpaceSpec(3))


def test_superoperator_is_sparse_csr():
    liouvillian = build_liouvillian("microscopic", _params(), SpaceSpec(5))
    assert sp.issparse(liouvillian.matrix)
    d = liouvillian.dim
    assert liouvillian.matrix.shape == (d * d, d * d)
    assert liouvillian.dim_super == d * d


def _kron_sum_superoperator(hamiltonian, channels):
    # the sum of one sp.kron per term that _assemble_superoperator replaces
    dim = hamiltonian.shape[0]
    hs = sp.csr_matrix(hamiltonian)
    eye = sp.identity(dim, dtype=complex, format="csr")
    lsup = -1j * (sp.kron(eye, hs, format="csr") - sp.kron(hs.T, eye, format="csr"))
    msum = sp.csr_matrix((dim, dim), dtype=complex)
    for rate, j in channels:
        js = sp.csr_matrix(j)
        js.eliminate_zeros()
        lsup = lsup + rate * sp.kron(js.conj(), js, format="csr")
        msum = msum + rate * (js.conj().T @ js)
    lsup = lsup - 0.5 * sp.kron(eye, msum, format="csr")
    lsup = lsup - 0.5 * sp.kron(msum.T, eye, format="csr")
    lsup = sp.csr_matrix(lsup)
    lsup.sort_indices()
    return lsup


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.4])
@pytest.mark.parametrize("n_max", [2, 8])
def test_one_pass_assembly_matches_the_kron_sum(kind, nbar, n_max):
    # same pattern once explicit zeros are dropped on both sides; the
    # entries differ only by the order coinciding terms are summed in
    liouvillian = build_liouvillian(kind, _params(delta=1.5, nbar=nbar), SpaceSpec(n_max))
    got = liouvillian.matrix
    want = _kron_sum_superoperator(liouvillian.hamiltonian, liouvillian.channels)
    assert got.format == "csr" and got.has_canonical_format
    got, want = got.copy(), want.copy()
    got.eliminate_zeros()
    want.eliminate_zeros()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    scale = np.abs(want.data).max()
    assert np.abs(got.data - want.data).max() <= 4 * np.finfo(float).eps * scale

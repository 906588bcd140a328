"""End-to-end acceptance gate.

Eleven numbered criteria, one test and one printed verdict line each
(run with -s to see them). Tolerances are part of the contract and are
asserted, not just reported.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import find_peaks, hilbert

from jcdiss.hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    coherent_state,
    fock_state,
    partial_trace_qubit,
    single_excitation_state,
)
from jcdiss.dressed import (
    SystemParams,
    dressed_basis_matrix,
    dressed_energies,
    dressed_spectrum,
)
from jcdiss.lindblad import build_liouvillian, build_rate_table, unvec, vec
from jcdiss.observables import inversion, p_mean, purity, q_mean
from jcdiss.propagate import (
    SingleExcitationAmplitudes,
    analytic_microscopic,
    analytic_phenomenological,
    evolve,
    steady_state,
    trace_distance,
)

GAMMA = 0.2
DELTAS = (0.0, 2.0, -2.0, 4.0)


def _params(delta=0.0, gamma=GAMMA, nbar=0.0, g=1.0):
    return SystemParams(
        omega0=100.0, omega=100.0 - delta, gamma=gamma, nbar_at_omega=nbar, g=g
    )


def _random_amplitudes(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return SingleExcitationAmplitudes(complex(v[0], v[1]), complex(v[2], v[3]))


def _verdict(number, text):
    print(f"PASS criterion {number:>2}: {text}")


def _oracle_sweep(analytic, tol):
    """20 randomized combinations, spectral route; returns the worst trace
    distance and the worst entrywise |difference|."""
    rng = np.random.default_rng(2026)
    spec = SpaceSpec(8)
    times = np.linspace(0.0, 40.0, 200)
    trials = [_random_amplitudes(rng) for _ in range(5)]
    kind = (
        "microscopic"
        if analytic is analytic_microscopic
        else "phenomenological"
    )
    worst, worst_entry = 0.0, 0.0
    for delta in DELTAS:
        params = _params(delta)
        liouvillian = build_liouvillian(kind, params, spec)
        for amps in trials:
            psi0 = single_excitation_state(amps.alpha, amps.beta, spec)
            numeric = evolve(liouvillian, psi0, times, method="spectral")
            closed = analytic(params, amps, times, spec)
            worst = max(
                worst,
                max(
                    trace_distance(numeric.states[i], closed[i])
                    for i in range(times.size)
                ),
            )
            worst_entry = max(
                worst_entry, float(np.abs(numeric.states - closed).max())
            )
            if max(worst, worst_entry) >= tol:
                return worst, worst_entry
    return worst, worst_entry


def test_criterion_01_microscopic_oracle_equivalence():
    start = time.monotonic()
    worst, worst_entry = _oracle_sweep(analytic_microscopic, 1e-7)
    assert worst < 1e-7
    assert worst_entry < 1e-7  # measured 1.4e-14

    # one fixed-step run goes through the same gate
    spec = SpaceSpec(8)
    params = _params(2.0)
    amps = SingleExcitationAmplitudes(1.0, 0.0)
    times = np.linspace(0.0, 40.0, 200)
    liouvillian = build_liouvillian("microscopic", params, spec)
    psi0 = single_excitation_state(amps.alpha, amps.beta, spec)
    numeric = evolve(liouvillian, psi0, times, method="rk4")
    closed = analytic_microscopic(params, amps, times, spec)
    worst_rk4 = max(
        trace_distance(numeric.states[i], closed[i]) for i in range(times.size)
    )
    assert worst_rk4 < 1e-7
    worst_rk4_entry = float(np.abs(numeric.states - closed).max())
    assert worst_rk4_entry < 1e-7  # measured 4.2e-13
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _verdict(
        1,
        f"dressed-generator evolution vs closed form: worst trace distance "
        f"{worst:.2e} (spectral), {worst_rk4:.2e} (rk4), {elapsed:.1f} s < 10 s",
    )


def test_criterion_02_phenomenological_oracle_equivalence():
    worst, worst_entry = _oracle_sweep(analytic_phenomenological, 1e-6)
    assert worst < 1e-6
    assert worst_entry < 1e-6  # measured 1.2e-14
    _verdict(
        2,
        f"bare-damping evolution vs closed form: worst trace distance "
        f"{worst:.2e} < 1e-6 (no discrepancy report needed)",
    )


def test_criterion_03_purity_minimum_landmark():
    spec = SpaceSpec(8)
    liouvillian = build_liouvillian("microscopic", _params(0.0), spec)
    psi0 = fock_state(0, QUBIT_E, spec)
    times = np.linspace(0.0, 12.0, 2401)
    values = np.empty(times.size)

    def observer(i0, tc, stack):
        values[i0 : i0 + tc.size] = purity(stack, spec)

    evolve(liouvillian, psi0, times, observer=observer)
    i_min = int(np.argmin(values))
    t_min = times[i_min]
    p_min = values[i_min]
    assert abs(t_min - 6.931) <= 0.05
    assert abs(p_min - 0.500) <= 1e-3
    _verdict(
        3,
        f"purity minimum at gt = {t_min:.3f} (target 6.931 +- 0.05), "
        f"value {p_min:.4f} (target 0.500 +- 1e-3)",
    )


def test_criterion_04_zero_temperature_rate_reduction():
    spec = SpaceSpec(10)
    for delta in (0.0, 2.0, 4.0):
        params = _params(delta)
        table = build_rate_table(params, dressed_spectrum(params, spec))
        scalars = (table.gamma1, table.gamma2)
        arrays = (table.gamma3, table.gamma4, table.gamma5, table.gamma6)
        assert all(v == GAMMA for v in scalars)
        assert all(np.all(arr == GAMMA) for arr in arrays)
        assert table.gtilde1 == 0.0 and table.gtilde2 == 0.0
        for arr in (table.gtilde3, table.gtilde4, table.gtilde5, table.gtilde6):
            assert np.all(arr == 0.0)
    _verdict(
        4,
        "zero-temperature rates reduce exactly: every downward slot equals "
        "gamma, every upward slot equals 0, all manifolds, deltas {0, 2, 4}",
    )


def test_criterion_05_detailed_balance():
    spec = SpaceSpec(12)
    worst = 0.0
    for nbar in (0.1, 1.0):
        params = _params(2.0, nbar=nbar)
        table = build_rate_table(params, dressed_spectrum(params, spec))
        kT = params.kT
        for up, down, nu in (
            (table.gtilde1, table.gamma1, table.nu1),
            (table.gtilde2, table.gamma2, table.nu2),
            (table.gtilde3, table.gamma3, table.nu3),
            (table.gtilde4, table.gamma4, table.nu4),
            (table.gtilde5, table.gamma5, table.nu5),
            (table.gtilde6, table.gamma6, table.nu6),
        ):
            dev = np.abs(
                np.asarray(up) / np.asarray(down)
                - np.exp(-np.asarray(nu) / kT)
            )
            worst = max(worst, float(np.max(dev)))
    assert worst <= 1e-12
    _verdict(
        5,
        f"thermal detailed balance per slot: worst |gtilde/gamma - "
        f"exp(-nu/kT)| = {worst:.2e} <= 1e-12 for nbar in {{0.1, 1.0}}",
    )


def test_criterion_06_steady_states():
    # (a) zero temperature: the factorized ground state
    spec = SpaceSpec(6)
    rho_ss = steady_state(build_liouvillian("microscopic", _params(2.0), spec))
    fidelity = rho_ss[0, 0].real
    assert fidelity > 1.0 - 1e-8

    # (b) finite temperature: Gibbs state is stationary on complete manifolds
    spec_g = SpaceSpec(30)
    params_g = _params(0.0, nbar=1.0)
    liouvillian_g = build_liouvillian("microscopic", params_g, spec_g)
    spectrum = dressed_spectrum(params_g, spec_g)
    u = dressed_basis_matrix(spectrum, spec_g)
    energies = dressed_energies(spectrum, spec_g)
    w = np.exp(-(energies - energies.min()) / params_g.kT)
    gibbs = (u * w) @ u.conj().T
    gibbs /= np.trace(gibbs).real
    resid = np.linalg.norm(liouvillian_g.apply(gibbs))
    assert resid < 1e-6 * params_g.gamma

    # (c) weak coupling: the bare-damping steady state carries the thermal field
    nbar = 0.5
    params_w = SystemParams(
        omega0=100.0, omega=100.0, gamma=1e-3, g=1e-3, nbar_at_omega=nbar
    )
    spec_w = SpaceSpec(25)
    rho_w = steady_state(build_liouvillian("phenomenological", params_w, spec_w))
    field = np.diag(partial_trace_qubit(rho_w, spec_w)).real
    n_mean = float(np.sum(np.arange(spec_w.dim_field) * field))
    assert abs(n_mean - nbar) < 1e-6
    _verdict(
        6,
        f"steady states: ground fidelity 1-{1.0 - fidelity:.1e}, Gibbs "
        f"residual {resid:.2e} < 1e-6*gamma, weak-coupling field "
        f"<n> = {n_mean:.8f} (target {nbar} +- 1e-6)",
    )


def _inversion_series(gamma, times, n_max=29):
    params = _params(0.0, gamma=gamma)
    kind = "phenomenological" if gamma == 0.0 else "microscopic"
    spec = SpaceSpec(n_max)
    liouvillian = build_liouvillian(kind, params, spec)
    psi0 = coherent_state(np.sqrt(5.0), QUBIT_G, spec)
    values = np.empty(times.size)

    def observer(i0, tc, stack):
        values[i0 : i0 + tc.size] = inversion(stack, spec)

    evolve(liouvillian, psi0, times, observer=observer)
    return values


def test_criterion_07_collapse_and_revival():
    t_r = 2.0 * np.pi * np.sqrt(5.0)
    times = np.linspace(0.0, 20.0, 2000)
    closed = _inversion_series(0.0, times)

    envelope = np.abs(hilbert(closed - closed.mean()))
    dt = times[1] - times[0]
    width = max(1, int(round(3.0 / dt)))
    kernel = np.ones(width) / width
    smooth = np.convolve(envelope, kernel, mode="same")
    t_peak = times[int(np.argmax(smooth))]
    assert abs(t_peak - 14.05) <= 1.0

    damped = _inversion_series(0.1, times)
    window = (times >= t_r - 3.0) & (times <= t_r + 3.0)
    p2p_closed = np.ptp(closed[window])
    p2p_damped = np.ptp(damped[window])
    ratio = p2p_damped / p2p_closed
    assert ratio < 0.5
    _verdict(
        7,
        f"revival envelope peaks at gt = {t_peak:.2f} (target 14.05 +- 1.0); "
        f"damping gamma = 0.1 suppresses the revival to {100 * ratio:.0f}% "
        f"of the closed-system swing (< 50% required)",
    )


def test_criterion_08_detuning_ordering_at_gt_10():
    spec = SpaceSpec(6)
    t = np.array([10.0])
    excited = SingleExcitationAmplitudes(1.0, 0.0)
    photon = SingleExcitationAmplitudes(0.0, 1.0)

    p0 = {
        (name, delta): analytic_microscopic(
            _params(delta), amps, t, spec
        )[0, 0, 0].real
        for name, amps in (("excited", excited), ("photon", photon))
        for delta in (0.0, 4.0)
    }
    assert p0[("excited", 4.0)] < p0[("excited", 0.0)]
    assert p0[("photon", 4.0)] > p0[("photon", 0.0)]
    _verdict(
        8,
        f"detuning slows the qubit decay and speeds the photon path: "
        f"P0(|0,e>, d=4) = {p0[('excited', 4.0)]:.4f} < "
        f"{p0[('excited', 0.0)]:.4f} and P0(|1,g>, d=4) = "
        f"{p0[('photon', 4.0)]:.4f} > {p0[('photon', 0.0)]:.4f}",
    )


def test_criterion_09_physicality_suite(golden_runs):
    worst = {
        "trace_drift_max": 0.0,
        "herm_defect_max": 0.0,
        "min_eigenvalue": np.inf,
        "uncertainty_product_min": np.inf,
    }
    for name, (manifest, _) in golden_runs.items():
        inv = manifest["invariants"]
        assert inv["trace_drift_max"] < 1e-9, name
        assert inv["herm_defect_max"] < 1e-10, name
        assert inv["min_eigenvalue"] > -1e-8, name
        assert inv["uncertainty_product_min"] >= 1.0 / 16.0 - 1e-10, name
        worst["trace_drift_max"] = max(
            worst["trace_drift_max"], inv["trace_drift_max"]
        )
        worst["herm_defect_max"] = max(
            worst["herm_defect_max"], inv["herm_defect_max"]
        )
        worst["min_eigenvalue"] = min(
            worst["min_eigenvalue"], inv["min_eigenvalue"]
        )
        worst["uncertainty_product_min"] = min(
            worst["uncertainty_product_min"], inv["uncertainty_product_min"]
        )
    _verdict(
        9,
        f"all {len(golden_runs)} golden scenarios physical: trace drift "
        f"<= {worst['trace_drift_max']:.1e}, hermiticity defect <= "
        f"{worst['herm_defect_max']:.1e}, min eigenvalue >= "
        f"{worst['min_eigenvalue']:.1e}, uncertainty product >= "
        f"{worst['uncertainty_product_min']:.6f}",
    )


def test_criterion_10_brute_force_superoperator_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(41)
    spec = SpaceSpec(2)
    d = spec.dim_total
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0).real
    times = np.linspace(0.0, 10.0, 21)

    worst, worst_entry = 0.0, 0.0
    for kind in ("microscopic", "phenomenological"):
        liouvillian = build_liouvillian(kind, _params(1.0, nbar=0.2), spec)
        result = evolve(
            liouvillian, rho0, times, method="spectral", truncation_guard=False
        )
        prop = expm(liouvillian.matrix.toarray() * (times[1] - times[0]))
        v = vec(rho0)
        for i in range(times.size):
            want = unvec(v, d)
            worst = max(worst, trace_distance(result.states[i], want))
            worst_entry = max(worst_entry, np.abs(result.states[i] - want).max())
            v = prop @ v
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert worst_entry < 1e-9  # measured 2.5e-14
    assert elapsed < 1.0
    _verdict(
        10,
        f"spectral propagation vs scaling-and-squaring exponential at "
        f"n_max = 2: worst trace distance {worst:.2e} < 1e-9 in "
        f"{elapsed * 1000:.0f} ms",
    )


def _radial_reversals(kind, times, spec, params, psi0):
    qs = np.empty(times.size)
    ps = np.empty(times.size)
    liouvillian = build_liouvillian(kind, params, spec)

    def observer(i0, tc, stack):
        qs[i0 : i0 + tc.size] = q_mean(stack, spec)
        ps[i0 : i0 + tc.size] = p_mean(stack, spec)

    evolve(liouvillian, psi0, times, observer=observer)
    r = np.hypot(qs, ps)
    floor = 0.05 * r[0]
    peaks, _ = find_peaks(r, prominence=floor)
    dips, _ = find_peaks(-r, prominence=floor)
    return peaks.size + dips.size


def test_criterion_11_phase_space_smoothness_contrast():
    # the field amplitude of the dressed description spirals inward
    # monotonically; the bare-damping description makes it breathe. The
    # contrast is counted as radial direction reversals with at least 5%
    # of the initial radius in prominence.
    t_r = 2.0 * np.pi * np.sqrt(5.0)
    times = np.linspace(0.0, 2.0 * t_r, 3000)
    spec = SpaceSpec(29)
    params = _params(0.0, gamma=0.1)
    psi0 = coherent_state(np.sqrt(5.0), QUBIT_G, spec)

    micro = _radial_reversals("microscopic", times, spec, params, psi0)
    pheno = _radial_reversals("phenomenological", times, spec, params, psi0)
    assert micro < pheno
    _verdict(
        11,
        f"field-amplitude direction reversals over [0, 2 t_r]: "
        f"{micro} (dressed) < {pheno} (bare damping)",
    )

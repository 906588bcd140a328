"""Scenario runner: config validation, outputs, determinism, exit codes."""

import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

import jcdiss.lindblad
import jcdiss.propagate
from jcdiss import _blas, _kernels, _malloc, cli
from jcdiss.dressed import SystemParams
from jcdiss.errors import ConfigError, DriftError, TruncationError
from jcdiss.lindblad import build_liouvillian, unvec, vec
from jcdiss.propagate import (
    SingleExcitationAmplitudes,
    analytic_microscopic,
    evolve,
    steady_state,
    trace_distance,
)
from jcdiss.hilbert import QUBIT_E, QUBIT_G, SpaceSpec, coherent_state, density_matrix
from jcdiss.observables import OBSERVABLES

from conftest import REPO_ROOT, load_scenario, read_csv, rotating_generator


def _tiny_raw(**overrides):
    raw = {
        "description": "tiny test scenario",
        "params": {"omega0": 100.0, "omega": 100.0, "gamma": 0.2},
        "model": "microscopic",
        "initial_state": {"kind": "single_excitation", "alpha": 1.0, "beta": 0.0},
        "t_max": 5.0,
        "n_points": 51,
        "n_max": 8,
        "observables": ["ground_population", "purity"],
        "output": "unused",
    }
    raw.update(overrides)
    return raw


def _write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.pop("params"), "params"),
        (lambda r: r.__setitem__("t_max", -1.0), "t_max"),
        (lambda r: r.__setitem__("n_points", 1), "n_points"),
        (lambda r: r.__setitem__("model", "hybrid"), "model"),
        (lambda r: r.__setitem__("observables", ["entropy_of_motion"]),
         "observables"),
        (lambda r: (r.__setitem__("detunings", [0.0, 0.0]), r["params"].pop("omega")),
         "detunings"),
        (lambda r: r.__setitem__("initial_state", {"alpha": 1.0}), "initial_state"),
        (lambda r: r.__setitem__("method", "euler"), "method"),
        (lambda r: r.__setitem__("frobnicate", 1), "frobnicate"),
        (lambda r: r.__setitem__("dt", 0.01), "dt"),
        (lambda r: r["params"].__setitem__("gamma", "strong"), "gamma"),
        (lambda r: r.__setitem__(
            "husimi", {"times": [2.0, 1.0], "extent": 3.0}), "husimi"),
    ],
)
def test_config_validation_names_the_field(mutate, fragment):
    raw = _tiny_raw()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(raw, source="inline")
    assert fragment in str(err.value)


def test_detunings_conflict_with_explicit_cavity_frequency():
    raw = _tiny_raw(detunings=[0.0, 2.0])
    with pytest.raises(ConfigError) as err:
        cli.parse_config(raw, source="inline")
    assert "detunings" in str(err.value) or "omega" in str(err.value)


@pytest.mark.parametrize("detunings, message", [
    ([1.0, 1.0000001], "detunings[1]: 1.0000001 has the file tag '_delta1' of detunings[0]"),
    ([2.0, 0.0, -0.0], "detunings[2]: -0.0 equals detunings[1]"),
], ids=["one-tag", "signed-zero"])
def test_detunings_whose_file_tags_collide_exit_2_and_make_no_directory(
    tmp_path, capsys, detunings, message
):
    # 1.0 and 1.0000001 both wrote ground_population_delta1.csv, the second
    # over the first, and the manifest listed that file twice; 0.0 and -0.0
    # are one detuning under two tags
    raw = _tiny_raw(n_points=11, detunings=detunings)
    del raw["params"]["omega"]
    out = str(tmp_path / "out")
    assert cli.main(["evolve", _write_config(tmp_path, raw), "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


def test_detunings_fan_out_sets_cavity_frequency():
    raw = _tiny_raw(detunings=[0.0, 2.0, -2.0])
    del raw["params"]["omega"]
    config = cli.parse_config(raw, source="inline")
    jobs = cli._jobs(config)
    assert [tag for tag, _ in jobs] == ["_delta0", "_delta2", "_delta-2"]
    for (_, params), delta in zip(jobs, (0.0, 2.0, -2.0)):
        assert params.delta == pytest.approx(delta)
        assert params.omega0 == 100.0


def test_quadratures_alias_expands():
    raw = _tiny_raw(observables=["quadratures"])
    config = cli.parse_config(raw, source="inline")
    assert config.observables == ("q_mean", "p_mean", "q_var", "p_var")


def test_config_hash_ignores_key_order():
    raw = _tiny_raw()
    shuffled = {k: raw[k] for k in reversed(list(raw))}
    a = cli.parse_config(raw, source="a").sha256()
    b = cli.parse_config(shuffled, source="b").sha256()
    assert a == b and len(a) == 64


# ---------------------------------------------------------------------------
# outputs


def test_series_csv_round_trip(tmp_path):
    header = ["gt", "value"]
    gt = np.linspace(0.0, np.pi, 7)
    vals = np.array([1.0, -1e-17, 2.0 / 3.0, np.pi, 1e300, 5e-324, -0.0])
    path = tmp_path / "series.csv"
    cli._write_csv(str(path), header, [gt, vals])
    back = read_csv(str(path))
    assert np.array_equal(back["gt"], gt)
    assert np.array_equal(back["value"], vals)


def _write_csv_reference(path, header, columns):
    """Every cell through '%.17g', row by row: the bytes _write_csv must
    reproduce for any input."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    cells = zip(*(np.asarray(col).tolist() for col in columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in cells)


def _float_from_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# values whose text or bit pattern a distinct-value writer could confuse
_SPECIAL_FLOATS = (
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    _float_from_bits(0x7FF8000000000001),  # NaN with a payload
    _float_from_bits(0xFFF0000000000001),  # negative signalling NaN
    5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 1.0 / 3.0, 1e300,
)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(width=64))


def _bits(value):
    return int(np.array([value]).view(np.uint64)[0])


@st.composite
def _csv_columns(draw):
    """1-5 columns of 1-40 rows: all distinct, with repeats, or integers."""
    n_rows = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("distinct", "repeats", "integers")))
        rows = dict(min_size=n_rows, max_size=n_rows)
        if kind == "integers":
            values = draw(st.lists(st.integers(-(2**53) + 1, 2**53 - 1), **rows))
            columns.append(np.array(values, dtype=np.int64))
        elif kind == "repeats":
            pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), **rows))))
        else:
            columns.append(np.array(draw(st.lists(_FLOATS, unique_by=_bits, **rows))))
    return columns


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(columns=_csv_columns())
@example(columns=[np.array([-0.0]), np.array([np.nan]), np.array([3], dtype=np.int64)])
@example(columns=[np.array([0.0, -0.0, 0.0, -0.0]), np.array([1.5, 2.5, 3.5, 4.5])])
def test_write_csv_matches_formatting_every_cell(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    cli._write_csv(str(tmp_path / "csv"), header, columns)
    _write_csv_reference(str(tmp_path / "reference"), header, columns)
    assert (tmp_path / "csv").read_bytes() == (tmp_path / "reference").read_bytes()


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_write_csv_in_blocks_matches_formatting_every_cell(tmp_path, monkeypatch, block_rows):
    # values that recur in several blocks, and blocks that end mid-column
    monkeypatch.setattr(cli, "_CSV_ROWS", block_rows)
    specials = np.array(_SPECIAL_FLOATS * 2)
    columns = [specials, specials[::-1].copy(), np.arange(specials.size, dtype=np.int64)]
    header = ["a", "b", "n"]
    cli._write_csv(str(tmp_path / "csv"), header, columns)
    _write_csv_reference(str(tmp_path / "reference"), header, columns)
    assert (tmp_path / "csv").read_bytes() == (tmp_path / "reference").read_bytes()


def test_write_csv_holds_one_block_of_text(tmp_path):
    # 200,000 rows of 3 columns are 4.8 MB of float64; formatting every
    # cell before writing any peaked at 12 times that
    rows = 200_000
    rng = np.random.default_rng(7)
    columns = [np.linspace(0.0, 50.0, rows), rng.normal(size=rows), rng.normal(size=rows)]
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "long.csv"), ["gt", "value", "value_phenomenological"],
                       columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 3 * rows, peak


def _tiny_config(tmp_path, out="out", **overrides):
    config = cli.parse_config(_tiny_raw(**overrides), source="inline")
    return replace(config, output=str(tmp_path / out))


def test_run_scenario_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cli.run_scenario(_tiny_config(tmp_path, "run1"))
    cli.run_scenario(_tiny_config(tmp_path, "run2"))
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_structure(tmp_path):
    manifest = cli.run_scenario(_tiny_config(tmp_path))
    assert manifest["command"] == "evolve"
    assert manifest["model"] == "microscopic"
    assert manifest["n_max"] == 8
    assert "backend" not in manifest
    assert len(manifest["config_sha256"]) == 64
    assert manifest["files"] == ["ground_population.csv", "purity.csv"]
    entry = manifest["jobs"][0]["models"]["microscopic"]
    assert entry["method"] == "spectral"
    assert entry["fallback_to_rk4"] is False
    assert "backend" not in entry and "frame" not in entry
    for key in (
        "trace_drift_max", "herm_defect_max", "top_population_max",
        "min_eigenvalue", "uncertainty_product_min",
    ):
        assert key in entry and key in manifest["invariants"]


def test_microscopic_route_never_assembles(tmp_path, monkeypatch):
    # the dressed split carries evolve and steady; the superoperator and
    # its sector split are only built on demand
    def refuse(*args, **kwargs):
        raise AssertionError("superoperator assembled on the microscopic route")

    monkeypatch.setattr(jcdiss.lindblad, "_assemble_superoperator", refuse)
    monkeypatch.setattr(jcdiss.propagate, "spectral_decomposition", refuse)
    spec = SpaceSpec(8)
    params = SystemParams(omega0=101.0, omega=100.0, gamma=0.2, nbar_at_omega=0.1)
    liouvillian = build_liouvillian("microscopic", params, spec)
    assert liouvillian.dim_super == spec.dim_total ** 2
    psi0 = coherent_state(0.5, QUBIT_E, spec)
    result = evolve(liouvillian, psi0, np.linspace(0.0, 3.0, 13), method="spectral")
    assert result.method == "spectral"
    steady_state(liouvillian)
    manifest = cli.run_scenario(_tiny_config(tmp_path, "evolve"))
    assert manifest["jobs"][0]["models"]["microscopic"]["fallback_to_rk4"] is False
    cli.run_steady(_tiny_config(tmp_path, "steady"))
    with pytest.raises(AssertionError):
        liouvillian.matrix


def _assert_large_coherent_run_needs_no_fallback(kind):
    # alpha = 4 at n_max = 60 and T = 0: the eigenvectors of either
    # generator amplify rounding by about 1e13; neither spectral route
    # uses eigenvectors, so the run stays spectral and exact
    spec = SpaceSpec(60)
    params = SystemParams(omega0=100.0, omega=100.0, gamma=0.2)
    liouvillian = build_liouvillian(kind, params, spec)
    psi0 = coherent_state(4.0, QUBIT_G, spec)
    times = np.linspace(0.0, 2.0, 5)
    states = []
    entry = cli._observed_run(
        liouvillian, psi0, times, "spectral", lambda i0, tc, stack: states.extend(stack)
    )
    assert entry["fallback_to_rk4"] is False
    assert entry["method"] == "spectral"

    generator = rotating_generator(liouvillian)
    reference = expm_multiply(
        generator, vec(density_matrix(psi0)), start=0.0, stop=2.0, num=5
    )
    exc = spec.excitations()
    for t, rho, v in zip(times, states, reference):
        phase = np.exp(-1j * params.omega * t * exc)
        want = phase[:, None] * unvec(v, spec.dim_total) * phase.conj()[None, :]
        # trace_distance reads one triangle only; compare every entry too
        assert trace_distance(rho, want) <= 1e-9
        assert np.abs(rho - want).max() <= 1e-9


def test_large_coherent_microscopic_run_needs_no_fallback():
    _assert_large_coherent_run_needs_no_fallback("microscopic")


def test_large_coherent_phenomenological_run_needs_no_fallback():
    _assert_large_coherent_run_needs_no_fallback("phenomenological")


def test_scenario_with_nothing_to_do_is_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_scenario(_tiny_config(tmp_path, observables=[]))


def test_evolve_writes_series_and_snapshots_like_husimi(tmp_path):
    snapshots = {"times": [0.0, 2.5], "extent": 3.0, "n_points": 11}
    both = cli.run_scenario(_tiny_config(tmp_path, "evolve", husimi=snapshots))
    only = cli.run_husimi(_tiny_config(tmp_path, "husimi", husimi=snapshots))
    assert only["command"] == "husimi"
    assert (tmp_path / "husimi" / "husimi_manifest.json").exists()
    snap_files = ["husimi_microscopic_t0.csv", "husimi_microscopic_t1.csv"]
    assert only["files"] == snap_files
    series_files = ["ground_population.csv", "purity.csv"]
    assert both["files"] == sorted(series_files + snap_files)
    for name in snap_files:
        evolve_csv = (tmp_path / "evolve" / name).read_bytes()
        assert evolve_csv == (tmp_path / "husimi" / name).read_bytes()
    entry = both["jobs"][0]["models"]["microscopic"]
    assert entry["husimi"] == only["jobs"][0]["models"]["microscopic"]["husimi"]


# ---------------------------------------------------------------------------
# the physicality audit

# smallest eigenvalue of each state, one row per stack; stacks 2, 4 and 6
# lower the running minimum, the last one to -1e-6 once it has settled
_AUDIT_STACK_MINIMA = (
    (4e-3, 8e-3, 6e-3),
    (6e-3, 9e-3, 7e-3),
    (5e-3, 2e-3, 9e-3),
    (3e-3, 5e-3, 4e-3),
    (8e-3, 1e-3, 6e-3),
    (2e-3, 3e-3, 5e-3),
    (4e-3, -1e-6, 7e-3),
    (1e-3, 2e-3, 5e-4),
    (9e-3, 6e-3, 3e-3),
)
_AUDIT_LOWERING_STACKS = 4  # the first stack and the three above


def _stack_with_minima(rng, minima, dim):
    """Random Hermitian states, one per entry of minima, each with that
    smallest eigenvalue and the rest in [0.05, 0.2]."""
    states = []
    for low in minima:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(z)
        evals = np.concatenate([[low], rng.uniform(0.05, 0.2, dim - 1)])
        states.append((u * evals) @ u.conj().T)
    return np.array(states)


def _counting_eigvalsh(monkeypatch):
    """Replace np.linalg.eigvalsh by a counting wrapper; returns the
    original and the list its calls are appended to."""
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return eigvalsh, calls


def test_audit_records_the_eigvalsh_minimum_and_skips_certified_stacks(monkeypatch):
    spec = SpaceSpec(4)
    rng = np.random.default_rng(7)
    stacks = [_stack_with_minima(rng, m, spec.dim_total) for m in _AUDIT_STACK_MINIMA]
    eigvalsh, calls = _counting_eigvalsh(monkeypatch)
    audit = cli._StateAudit(spec)
    for i, stack in enumerate(stacks):
        audit.inspect(stack)
        seen = np.concatenate(stacks[: i + 1])
        assert audit.min_eigenvalue == eigvalsh(seen)[:, 0].min()
    assert audit.min_eigenvalue == pytest.approx(-1e-6, rel=1e-9)
    # a stack that cannot lower the minimum never reaches eigvalsh
    assert len(calls) == _AUDIT_LOWERING_STACKS


@pytest.mark.parametrize("index, value", [
    ((3, 1), np.nan), ((2, 2), np.nan), ((7, 0), np.inf), ((5, 4), -np.inf),
])
def test_audit_hands_a_nonfinite_stack_to_eigvalsh(monkeypatch, index, value):
    # the LAPACK Cholesky factors a NaN without failing; the audit must
    # still pass the stack on to eigvalsh, which refuses it as before
    spec = SpaceSpec(4)
    rng = np.random.default_rng(3)
    audit = cli._StateAudit(spec)
    audit.inspect(_stack_with_minima(rng, (1e-3, 2e-3), spec.dim_total))
    _, calls = _counting_eigvalsh(monkeypatch)
    stack = _stack_with_minima(rng, (5e-3, 6e-3), spec.dim_total)
    stack[1][index] = value
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        audit.inspect(stack)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["microscopic", "phenomenological"])
@pytest.mark.parametrize("nbar", [0.0, 0.1])
def test_observed_run_minimum_matches_eigvalsh_of_every_state(monkeypatch, kind, nbar):
    # 1601 states of dim 26 make several stacks (9 of at most 192 at
    # STACK_BYTES), so every one after the first is offered to the
    # certificate; a certified state may sit below the recorded minimum
    # by the Cholesky backward error (about dim*eps); the gap measured
    # 0.0 in all four cases
    spec = SpaceSpec(12)
    params = SystemParams(omega0=100.0, omega=100.0, gamma=0.2, nbar_at_omega=nbar)
    liouvillian = build_liouvillian(kind, params, spec)
    psi0 = coherent_state(1.0, QUBIT_E, spec)
    times = np.linspace(0.0, 20.0, 1601)
    certify = cli._StateAudit._certified
    verdicts = []

    def counted(self, rho):
        verdicts.append(certify(self, rho))
        return verdicts[-1]

    monkeypatch.setattr(cli._StateAudit, "_certified", counted)
    stacks = []
    entry = cli._observed_run(
        liouvillian, psi0, times, "spectral", lambda i0, tc, stack: stacks.append(i0)
    )
    assert len(stacks) == 9
    assert verdicts == [False] + [True] * (len(stacks) - 1)
    states = evolve(liouvillian, psi0, times).states
    reference = np.linalg.eigvalsh(states)[:, 0].min()
    assert abs(entry["min_eigenvalue"] - reference) <= 1e-15


def test_steady_outputs(tmp_path):
    raw = _tiny_raw(
        model="both",
        observables=["mean_photon"],
        n_max=12,
    )
    raw["params"]["nbar_at_omega"] = 0.1
    config = cli.parse_config(raw, source="inline")
    manifest = cli.run_steady(replace(config, output=str(tmp_path / "out")))
    for kind in ("microscopic", "phenomenological"):
        entry = manifest["jobs"][0]["models"][kind]
        n_mean = entry["observables"]["mean_photon"]
        assert abs(n_mean - 0.1) < 1e-3
        table = read_csv(str(tmp_path / "out" / entry["file"]))
        assert table["population"].sum() == pytest.approx(1.0, abs=1e-9)
        assert table["population"].min() > -1e-10
        assert np.array_equal(table["fock_n"], table["k"] // 2)


def test_rates_outputs_zero_temperature(tmp_path, scenario_dir):
    config = load_scenario("ground_state_detuning")
    manifest = cli.run_rates(replace(config, output=str(tmp_path / "out")))
    assert manifest["files"] == [
        "rates_delta0.csv", "rates_delta2.csv", "rates_delta4.csv"
    ]
    for job in manifest["jobs"]:
        assert job["kT"] == 0.0
        table = read_csv(str(tmp_path / "out" / job["file"]))
        for i in range(1, 7):
            assert np.all(table[f"gamma{i}"] == 0.2)
            assert np.all(table[f"gtilde{i}"] == 0.0)


def test_oracle_report_passes(tmp_path):
    config = load_scenario("oracle_single_excitation")
    report = cli.compare_analytic(replace(config, output=str(tmp_path / "out")))
    assert report["passed"] is True
    assert "flagged" not in report
    assert report["n_trials"] == 6
    for kind in ("microscopic", "phenomenological"):
        assert report["worst_trace_distance"][kind] < 1e-6
        assert report["worst_entry_error"][kind] < 1e-6
    assert (tmp_path / "out" / "oracle_report.json").exists()


def test_oracle_rejects_wrong_initial_state(tmp_path):
    config = _tiny_config(
        tmp_path, initial_state={"kind": "fock", "n": 1, "qubit_level": "ground"}
    )
    with pytest.raises(ConfigError):
        cli.compare_analytic(config)


# ---------------------------------------------------------------------------
# golden-run content


def test_ground_population_series_match_closed_form(golden_runs):
    manifest, out = golden_runs["ground_state_detuning"]
    config = load_scenario("ground_state_detuning")
    spec = SpaceSpec(n_max=manifest["n_max"])
    amps = SingleExcitationAmplitudes(alpha=1.0, beta=0.0)
    for tag, params in cli._jobs(config):
        table = read_csv(os.path.join(out, f"ground_population{tag}.csv"))
        assert np.all(np.diff(table["value"]) > -1e-9)
        exact = analytic_microscopic(params, amps, table["gt"], spec)
        p0 = exact[:, 0, 0].real
        assert np.abs(table["value"] - p0).max() < 1e-7


def test_revival_scenario_keeps_models_close_at_revival(golden_runs):
    manifest, out = golden_runs["coherent_revival_two_models"]
    table = read_csv(os.path.join(out, "mean_photon.csv"))
    i = int(np.argmin(np.abs(table["gt"] - 14.05)))
    diff = abs(table["value"][i] - table["value_phenomenological"][i])
    assert diff < 0.1


def test_husimi_snapshot_files(golden_runs):
    manifest, out = golden_runs["husimi_snapshots_two_models"]
    for kind in ("microscopic", "phenomenological"):
        index = manifest["jobs"][0]["models"][kind]["husimi"]
        assert len(index) == 4
        for snap in index:
            assert snap["mass"] == pytest.approx(1.0, abs=0.02)
            table = read_csv(os.path.join(out, snap["file"]))
            assert table["q"].size == 121 * 121
            assert table["q"].max() <= 1.0 / np.pi + 1e-9
            assert table["q"].min() >= 0.0


def test_detuning_jobs_write_one_csv_per_delta(golden_runs):
    manifest, out = golden_runs["inversion_detuning"]
    assert manifest["files"] == [
        "inversion_delta0.csv", "inversion_delta2.csv", "inversion_delta4.csv"
    ]
    assert [job["delta"] for job in manifest["jobs"]] == [0.0, 2.0, 4.0]


# ---------------------------------------------------------------------------
# exit codes


def test_main_success(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    code = cli.main(["evolve", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "wrote 2 data file(s)" in capsys.readouterr().out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_main_rejects_bad_config(tmp_path, capsys):
    raw = _tiny_raw()
    raw["t_max"] = 0.0
    path = _write_config(tmp_path, raw)
    assert cli.main(["evolve", path, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_rejects_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["evolve", missing, "--out", str(tmp_path / "out")]) == 2


_TINY_TEXT = json.dumps(_tiny_raw(n_points=11))


@pytest.mark.parametrize("content, reason", [
    (_TINY_TEXT.replace('"tiny', '"\xff tiny').encode("latin-1"), "'utf-8' codec"),
    (_TINY_TEXT.replace('"n_max": 8', '"n_max": ' + "9" * 5000).encode(), "4300 digits"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
], ids=["not-utf8", "long-integer", "deep-nesting"])
def test_malformed_scenario_file_exits_2_and_makes_no_directory(
    tmp_path, capsys, content, reason
):
    # each raised past load_config (UnicodeDecodeError, ValueError,
    # RecursionError) and left the command with exit 1 and a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = str(tmp_path / "out")
    assert cli.main(["evolve", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: invalid JSON (") and reason in err
    assert err.count("\n") == 1
    assert not os.path.exists(out)


def test_main_validates_flags_like_the_file(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    out = str(tmp_path / "out")
    assert cli.main(["evolve", path, "--out", out, "--nmax", "0"]) == 2
    assert "n_max" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["evolve", "steady", "rates", "oracle"])
@pytest.mark.parametrize("param, value", [
    ("gamma", -0.1), ("g", -1.0), ("nbar_at_omega", -0.5),
])
def test_out_of_range_parameter_exits_2_and_makes_no_directory(
    tmp_path, capsys, command, param, value
):
    # every job's SystemParams is built before the output directory; the
    # oracle checks ranges before its zero-temperature rule
    raw = _tiny_raw(n_points=11)
    raw["params"][param] = value
    path = _write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: params: ") and f"{param} must be nonnegative" in err
    assert not os.path.exists(out)


def _set_nonfinite(raw, field, value):
    """Put value in one numeric field of a tiny scenario that has that field."""
    raw["husimi"] = {"times": [0.0, 1.0], "extent": 4.0, "n_points": 11}
    if field == "detunings":
        del raw["params"]["omega"]
        raw["detunings"] = [0.0, value]
    elif field == "initial_state.alpha":
        raw["initial_state"] = {"kind": "coherent", "alpha": [value, 0.0],
                                "qubit_level": "ground"}
    elif field == "husimi.times":
        raw["husimi"]["times"] = [value]
    elif "." in field:
        block, key = field.split(".")
        raw[block][key] = value
    else:
        raw[field] = value
    return raw


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("command, field", [
    ("rates", "params.g"), ("evolve", "params.g"), ("evolve", "params.gamma"),
    ("steady", "params.nbar_at_omega"), ("evolve", "params.omega0"),
    ("evolve", "params.omega"), ("evolve", "t_max"), ("evolve", "detunings"),
    ("evolve", "initial_state.alpha"), ("husimi", "husimi.times"),
    ("husimi", "husimi.extent"),
])
def test_nonfinite_number_exits_2_and_makes_no_directory(
    tmp_path, capsys, command, field, value
):
    # json reads NaN, Infinity and -Infinity; none is a valid scenario number
    path = _write_config(tmp_path, _set_nonfinite(_tiny_raw(n_points=11), field, value))
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert field in err and "finite" in err
    assert not os.path.exists(out)


def test_integer_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    raw = _tiny_raw(n_points=11)
    raw["params"]["gamma"] = 10**400
    out = str(tmp_path / "out")
    assert cli.main(["evolve", _write_config(tmp_path, raw), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: params.gamma: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, model", [
    ("evolve", "microscopic"), ("evolve", "both"), ("steady", "microscopic"),
    ("husimi", "microscopic"), ("oracle", "microscopic"), ("oracle", "both"),
    ("rates", "microscopic"), ("rates", "phenomenological"),
])
def test_zero_coupling_without_a_dressed_spectrum_exits_2_and_makes_no_directory(
    tmp_path, capsys, command, model
):
    # g = 0 is the decoupled limit of the phenomenological model; the
    # dressed spectrum (microscopic model, rate table) has none
    raw = _tiny_raw(n_points=11, model=model, husimi={"times": [0.0]})
    raw["params"]["g"] = 0.0
    path = _write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "config error: params.g: the dressed spectrum requires g > 0\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("field, value", [
    ("observables", [["inversion"]]),
    ("initial_state", {"kind": "fock", "n": 1, "qubit_level": ["ground"]}),
    ("initial_state", {"kind": "coherent", "alpha": 1.0, "qubit_level": {"x": 1}}),
])
def test_unhashable_name_is_a_config_error(tmp_path, capsys, field, value):
    # a list or object where a name belongs is not looked up in a table
    path = _write_config(tmp_path, _tiny_raw(n_points=11, **{field: value}))
    out = str(tmp_path / "out")
    assert cli.main(["evolve", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert not os.path.exists(out)


_SINGLE_EXCITATION = {"kind": "single_excitation", "alpha": 1.0, "beta": 0.0}


@pytest.mark.parametrize("command, field, value, message", [
    ("oracle", "seed", -1, "seed: must be nonnegative"),
    ("evolve", "seed", -20260818, "seed: must be nonnegative"),
    ("oracle", "seed", 1.5, "seed: expected an integer, got 1.5"),
    ("oracle", "description", {"x": 1}, "description: expected a string, got {'x': 1}"),
    ("evolve", "description", 7, "description: expected a string, got 7"),
])
def test_seed_and_description_are_checked_before_the_run(
    tmp_path, capsys, command, field, value, message
):
    # a negative seed reached np.random.default_rng in the oracle, and an
    # object description was written through str
    raw = _tiny_raw(n_points=11, oracle={"n_trials": 2}, **{field: value})
    path = _write_config(tmp_path, raw, "inline.json")
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, initial_state, field", [
    ("evolve", {"kind": "fock", "n": 1, "qubit_level": "ground", "alpha": 3.0}, "alpha"),
    ("evolve", {"kind": "fock", "n": 1, "qubit_level": "ground", "nn": 7}, "nn"),
    ("evolve", {"kind": "coherent", "alpha": 0.5, "qubit_level": "ground", "n": 2}, "n"),
    ("steady", {"kind": "coherent", "alpha": 0.5, "qubit_level": "ground", "beta": 0.0},
     "beta"),
    ("oracle", {**_SINGLE_EXCITATION, "qubit_level": "ground"}, "qubit_level"),
    ("oracle", {**_SINGLE_EXCITATION, "n": 0}, "n"),
])
def test_unknown_initial_state_field_exits_2_and_makes_no_directory(
    tmp_path, capsys, command, initial_state, field
):
    raw = _tiny_raw(n_points=11, initial_state=initial_state)
    path = _write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out]) == 2
    kind = initial_state["kind"]
    assert capsys.readouterr().err == (
        f"config error: initial_state: unknown fields ['{field}'] for kind '{kind}'\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, initial_state, n_max, key", [
    ("evolve", {"kind": "coherent", "alpha": 1e200, "qubit_level": "ground"}, 8, "alpha"),
    ("evolve", {"kind": "coherent", "alpha": [0.0, 1e200], "qubit_level": "ground"},
     None, "alpha"),
    ("evolve", {**_SINGLE_EXCITATION, "alpha": 1e200}, 8, "alpha"),
    ("oracle", {**_SINGLE_EXCITATION, "beta": [-1e200, 0.0]}, 8, "beta"),
])
def test_amplitude_whose_square_overflows_exits_2_and_makes_no_directory(
    tmp_path, capsys, command, initial_state, n_max, key
):
    # |alpha|^2 raised OverflowError in the coherent state's default n_max
    # or Poisson tail, and in the single-excitation norm check
    raw = _tiny_raw(n_points=11, initial_state=initial_state, n_max=n_max)
    if n_max is None:
        del raw["n_max"]
    path = _write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: initial_state.{key}: |{key}|^2 is not a finite double, "
        f"got {initial_state[key]!r}\n"
    )
    assert not os.path.exists(out)


# bytes of one stack of the tiny job (n_max 8, dim 18)
_TINY_STACK_BYTES = jcdiss.propagate.stack_states(18, cli.STACK_BYTES) * 16 * 18 * 18


@pytest.mark.parametrize("command, initial_state, argv, n_max_text", [
    ("evolve", {"kind": "coherent", "alpha": 1e4, "qubit_level": "ground"}, [], "100060010"),
    ("evolve", {"kind": "coherent", "alpha": 1e150, "qubit_level": "ground"}, [],
     "9.99e+299"),
    ("evolve", {"kind": "coherent", "alpha": 0.5, "qubit_level": "ground"},
     ["--nmax", "1000000000000"], "1000000000000"),
    ("oracle", _SINGLE_EXCITATION, ["--nmax", "1000000000000"], "1000000000000"),
], ids=["alpha-1e4", "alpha-1e150", "nmax-flag", "oracle-nmax-flag"])
def test_run_whose_stack_exceeds_available_memory_exits_2_and_makes_no_directory(
    tmp_path, capsys, monkeypatch, command, initial_state, argv, n_max_text
):
    # the coherent state's default n_max has no bound of its own; the
    # available-memory reading is substituted, so nothing is allocated
    monkeypatch.setattr(cli, "_available_memory", lambda: 8 << 30)
    raw = _tiny_raw(n_points=11, initial_state=initial_state)
    del raw["n_max"]
    path = _write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert cli.main([command, path, "--out", out, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: n_max: one stack of 8 states at n_max {n_max_text} ")
    assert err.endswith(" bytes, more than the 8589934592 bytes of available memory\n")
    assert err.count("\n") == 1
    assert not os.path.exists(out)


def test_memory_check_admits_a_run_whose_stack_just_fits(tmp_path, capsys, monkeypatch):
    # one stack is stack_states(dim, STACK_BYTES) states of 16 dim^2 bytes
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    out = str(tmp_path / "out")
    monkeypatch.setattr(cli, "_available_memory", lambda: _TINY_STACK_BYTES - 1)
    assert cli.main(["evolve", path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: n_max: one stack of 400 states at n_max 8 takes "
        f"{_TINY_STACK_BYTES} bytes, more than the {_TINY_STACK_BYTES - 1} bytes "
        "of available memory\n"
    )
    assert not os.path.exists(out)
    monkeypatch.setattr(cli, "_available_memory", lambda: _TINY_STACK_BYTES)
    assert cli.main(["evolve", path, "--out", out]) == 0


@pytest.mark.parametrize("command, overrides, available, message", [
    ("oracle", {"n_points": 2_000_000}, 8 << 30,
     "n_points: the store of 2000000 numeric and as many closed-form states at n_max 8 "
     "takes 20736000000 bytes"),
    ("husimi", {"husimi": {"times": [0.0], "n_points": 200_000}}, 8 << 30,
     "husimi.n_points: the 200000 x 200000 grid of phase space takes 640000000000 bytes"),
    ("husimi", {"husimi": {"times": [0.0], "n_points": 10_000}}, 8 << 30,
     "husimi.n_points: the coherent-state table of the 10000 x 10000 grid at n_max 8 "
     "takes 14400000000 bytes"),
    ("husimi", {"husimi": {"times": [0.0] * 401}}, _TINY_STACK_BYTES,
     f"husimi.times: the store of 401 snapshot states at n_max 8 takes {401 * 16 * 18 * 18} "
     "bytes"),
    ("evolve", {"n_points": 600_000_000}, 8 << 30,
     "n_points: the store of 2 series of 600000000 times takes 9600000000 bytes"),
    # 16 packed blocks of 120 x 120 at n_max 29, 16 bytes an entry per cached gap
    ("evolve", {"method": "rk4", "n_max": 29, "n_points": 1601}, 100_000_000,
     "method: the step blocks of 64 cached RK4 gaps at n_max 29 takes 235929600 bytes"),
    ("husimi", {"method": "rk4", "n_max": 29, "husimi": {"times": [0.0, 1.0, 2.0]}},
     4_000_000,
     "method: the step blocks of 2 cached RK4 gaps at n_max 29 takes 7372800 bytes"),
    ("oracle", {"method": "rk4", "n_max": 29, "n_points": 101}, 100_000_000,
     "method: the step blocks of 64 cached RK4 gaps at n_max 29 takes 235929600 bytes"),
], ids=["oracle-states", "husimi-grid", "husimi-table", "snapshots", "series",
        "rk4-series-gaps", "rk4-snapshot-gaps", "rk4-oracle-gaps"])
def test_run_whose_largest_array_exceeds_available_memory_exits_2(
    tmp_path, capsys, monkeypatch, command, overrides, available, message
):
    # the reading is substituted; a run that got past the check would stop
    # at its output directory, before it allocates anything
    def refuse(*args, **kwargs):
        raise AssertionError("the run got past the memory check")

    monkeypatch.setattr(cli, "_available_memory", lambda: available)
    monkeypatch.setattr(cli.os, "makedirs", refuse)
    path = _write_config(tmp_path, _tiny_raw(**{"n_points": 11, **overrides}))
    assert cli.main([command, path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {message}, more than the {available} bytes of available memory\n"
    )


def test_memory_check_prices_the_rk4_step_blocks_of_the_real_sectors():
    # one packed stack of step blocks per cached gap; the spectral route
    # caches no step blocks
    raw = _tiny_raw(model="both", n_points=11)
    spec = SpaceSpec(8)
    liouvillian = build_liouvillian("phenomenological", SystemParams(100.0, 100.0), spec)
    decomp = jcdiss.propagate.spectral_decomposition(liouvillian)
    step = _kernels._packing(decomp).stack(_kernels._step_polynomial(decomp, 1e-3))
    for method, want in (("spectral", []), ("rk4", [10 * step.nbytes])):
        config = cli.parse_config({**raw, "method": method})
        got = [needed for field, _, needed in cli._allocations(config, "evolve", spec)
               if field == "method"]
        assert got == want, method


def test_memory_check_is_skipped_without_a_reading(monkeypatch):
    if os.path.exists("/proc/meminfo"):
        assert cli._available_memory() > 0
    monkeypatch.setattr(cli, "_available_memory", lambda: None)
    cli._require_run_fits(cli.parse_config(_tiny_raw()), "evolve", SpaceSpec(10**300))


def test_zero_coupling_runs_the_phenomenological_model(tmp_path):
    raw = _tiny_raw(n_points=11, model="phenomenological")
    raw["params"]["g"] = 0
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli.main(["evolve", path, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_method_flag_keeps_the_file_hash(tmp_path):
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    out = tmp_path / "out"
    assert cli.main(["evolve", path, "--out", str(out), "--method", "rk4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "rk4"
    assert manifest["jobs"][0]["models"]["microscopic"]["method"] == "rk4"
    assert manifest["config_sha256"] == cli.load_config(path).sha256()


def test_main_reports_physics_guard(tmp_path, capsys):
    raw = _tiny_raw(
        initial_state={"kind": "fock", "n": 3, "qubit_level": "excited"},
        n_max=4,
        observables=["mean_photon"],
    )
    path = _write_config(tmp_path, raw)
    assert cli.main(["evolve", path, "--out", str(tmp_path / "out")]) == 3
    assert "TruncationError" in capsys.readouterr().err


@pytest.mark.parametrize("method, source", [
    ("spectral", "_dressed_stacks"), ("rk4", "_rk4_stacks"),
])
def test_main_reports_a_nonfinite_state_as_a_drift_error(
    tmp_path, capsys, monkeypatch, method, source
):
    # a NaN in one state stops the run at evolve's guard, with exit 3 and
    # one line, before the audit could hand the stack to eigvalsh
    produce = getattr(jcdiss.propagate, source)

    def poisoned(*args):
        for start, tc, stack in produce(*args):
            if start <= 7 < start + tc.size:
                stack[7 - start, 3, 2] = np.nan
            yield start, tc, stack

    eigvalsh = np.linalg.eigvalsh

    def finite_only(a, *args, **kwargs):
        assert np.isfinite(a).all()
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(jcdiss.propagate, source, poisoned)
    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    code = cli.main(["evolve", path, "--out", str(tmp_path / "out"), "--method", method])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("physics guard: DriftError: ") and " at t=3.5 " in err


def test_main_reports_oracle_mismatch(tmp_path, capsys, monkeypatch):
    def corrupted(params, amps, times, spec):
        d = spec.dim_total
        out = np.zeros((times.size, d, d), dtype=complex)
        out[:, 0, 0] = 1.0
        return out

    monkeypatch.setattr(cli, "analytic_microscopic", corrupted)
    raw = _tiny_raw(t_max=4.0, n_points=9, n_max=6)
    raw["oracle"] = {"n_trials": 0}
    path = _write_config(tmp_path, raw)
    assert cli.main(["oracle", path, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "oracle mismatch" in err
    # the partial report still lands on disk for the post-mortem
    report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert report["runs"][-1]["max_trace_distance"] > 1e-6


def test_small_phenomenological_oracle_mismatch_exits_4(tmp_path, monkeypatch):
    # no downgrade: a closed form off by 1e-5 in trace distance fails the run
    exact = cli.analytic_phenomenological

    def shifted(params, amps, times, spec):
        out = exact(params, amps, times, spec)
        out[:, 0, 0] += 1e-5
        out[:, 1, 1] -= 1e-5
        return out

    monkeypatch.setattr(cli, "analytic_phenomenological", shifted)
    raw = _tiny_raw(model="phenomenological", t_max=4.0, n_points=9, n_max=6)
    raw["oracle"] = {"n_trials": 0}
    path = _write_config(tmp_path, raw)
    assert cli.main(["oracle", path, "--out", str(tmp_path / "out")]) == 4
    report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert report["runs"][-1]["max_trace_distance"] == pytest.approx(1e-5, rel=1e-3)
    assert "flagged" not in report


def test_oracle_mismatch_in_one_triangle_exits_4(tmp_path, monkeypatch):
    # trace_distance reads the lower triangle only; an error confined to
    # the upper one is caught by the entrywise bound
    exact = cli.analytic_microscopic

    def upper_shifted(params, amps, times, spec):
        out = exact(params, amps, times, spec)
        out[:, 0, 1] += 1e-3
        return out

    monkeypatch.setattr(cli, "analytic_microscopic", upper_shifted)
    raw = _tiny_raw(t_max=4.0, n_points=9, n_max=6)
    raw["oracle"] = {"n_trials": 0}
    path = _write_config(tmp_path, raw)
    assert cli.main(["oracle", path, "--out", str(tmp_path / "out")]) == 4
    report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert report["runs"][-1]["max_trace_distance"] < 1e-6
    assert report["runs"][-1]["max_entry_error"] == pytest.approx(1e-3, rel=1e-6)
    assert report["worst_entry_error"]["microscopic"] == pytest.approx(1e-3, rel=1e-6)


def test_console_module_entry(tmp_path):
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    out = subprocess.run(
        [sys.executable, "-m", "jcdiss.cli", "evolve", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "evolve: wrote" in out.stdout


def test_benchmark_trace_sites_resolve():
    # the benchmark's traced mode wraps these names at run time; one that
    # no longer resolves would turn its layer metric null
    path = os.path.join(REPO_ROOT, "jcbench", "tracer.py")
    module_spec = importlib.util.spec_from_file_location("jcbench_tracer", path)
    tracer = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracer)
    for name, sites in tracer.SITES.items():
        for owner, attr in sites:
            target = tracer._resolve(owner)
            assert callable(getattr(target, attr, None)), (name, owner, attr)
    for name in tracer.OBSERVABLE_NAMES:
        assert name in OBSERVABLES, name


_TRACED_RUN = """
import json, sys
import tracer as tracing
from jcdiss import cli
config, out, dump = sys.argv[1:]
trace = tracing.Tracer()
trace.install()
span = trace.command()
code = cli.main(["evolve", config, "--method", "rk4", "--out", out])
trace.end_command(span)
trace.dump(dump)
sys.exit(code)
"""


def test_benchmark_tracer_counts_the_rk4_steps(tmp_path):
    # the traced mode counts rk4_advance's fourth argument as steps; run in
    # a child process so that its wrappers stay out of this one
    raw = _tiny_raw(n_points=11, model="both")
    path = _write_config(tmp_path, raw)
    out, dump = tmp_path / "out", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "jcbench")]
    ))
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, path, str(out), str(dump)],
        capture_output=True, text=True, env=env,
    )
    assert child.returncode == 0, child.stderr
    trace = json.loads(dump.read_text())
    assert trace["missing"] == [] and trace["broken"] == []
    models = json.loads((out / "manifest.json").read_text())["jobs"][0]["models"]
    assert sorted(models) == ["microscopic", "phenomenological"]
    steps = sum(entry["steps_total"] for entry in models.values())
    assert steps > 0 and trace["counters"]["rk4_steps"] == steps
    assert trace["counters"]["states"] == len(models) * raw["n_points"]


def test_benchmark_records_share_their_keys():
    # every BENCH_<n>.json at the root is one JSON object with these keys
    names = sorted(n for n in os.listdir(REPO_ROOT)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    assert names
    for name in names:
        with open(os.path.join(REPO_ROOT, name), encoding="utf-8") as fh:
            record = json.load(fh)
        missing = {"change", "command", "machine", "method", "runs", "summary"} - set(record)
        assert not missing, (name, sorted(missing))


# ---------------------------------------------------------------------------
# one OpenBLAS per process

_COMMANDS_RUN = """
import json, os, sys
from jcdiss import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(1)
maps = "/proc/self/maps"
libraries = None
if os.path.exists(maps):
    with open(maps) as fh:
        libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
print(json.dumps({"modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "openblas": libraries}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # every command runs on numpy alone: the sectors are summed from COO
    # triplets and RK4 steps them, so no command loads scipy.sparse, and
    # scipy.linalg would map scipy's own OpenBLAS build, and its thread
    # pool, into the process
    coherent = _tiny_raw(
        model="both",
        initial_state={"kind": "coherent", "alpha": [0.4, 0.2], "qubit_level": "excited"},
        n_points=11,
        observables=["inversion", "mean_photon"],
        husimi={"times": [0.0, 1.0], "extent": 3.0, "n_points": 9},
    )
    fock = _tiny_raw(model="both", initial_state={"kind": "fock", "n": 2, "qubit_level": "ground"})
    fock["params"]["nbar_at_omega"] = 0.1
    oracle = _tiny_raw(model="both", n_points=11, oracle={"n_trials": 2}, seed=5)
    paths = {name: _write_config(tmp_path, raw, f"{name}.json")
             for name, raw in (("coherent", coherent), ("fock", fock), ("oracle", oracle))}
    commands = [
        ["evolve", paths["coherent"]],
        ["evolve", paths["coherent"], "--method", "rk4"],
        ["husimi", paths["coherent"]],
        ["steady", paths["fock"]],
        ["rates", paths["fock"]],
        ["oracle", paths["oracle"]],
    ]
    argv = [cmd + ["--out", str(tmp_path / f"out{i}")] for i, cmd in enumerate(commands)]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    child = subprocess.run([sys.executable, "-c", _COMMANDS_RUN, json.dumps(argv)],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert loaded["modules"] == []
    if loaded["openblas"] is not None:
        assert len(loaded["openblas"]) == 1, loaded["openblas"]


# ---------------------------------------------------------------------------
# two models side by side

_SIDE_BY_SIDE_RUN = """
import sys
from jcdiss import cli
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    if cli.main(["evolve", config, "--out", out]) != 0:
        sys.exit(1)
"""


def test_two_model_job_gives_each_model_its_single_model_bytes(tmp_path):
    # the phenomenological model runs on a worker thread beside the
    # microscopic one; in a child process whose OpenBLAS starts at two
    # threads (main pins it to one for the command), every column,
    # snapshot and manifest entry is that of the model run alone, and a
    # second run repeats every byte
    raw = _tiny_raw(
        model="both",
        detunings=[0.0, 1.5],
        initial_state={"kind": "coherent", "alpha": [0.9, 0.3], "qubit_level": "excited"},
        n_max=24,
        t_max=6.0,
        n_points=49,
        observables=["inversion", "mean_photon"],
        husimi={"times": [0.0, 2.5], "extent": 3.0, "n_points": 9},
    )
    del raw["params"]["omega"]
    runs = {}
    argv = []
    for name, model in (("both", "both"), ("again", "both"),
                        ("microscopic", "microscopic"),
                        ("phenomenological", "phenomenological")):
        runs[name] = tmp_path / name
        argv += [_write_config(tmp_path, {**raw, "model": model}, f"{name}.json"),
                 str(runs[name])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    child = subprocess.run([sys.executable, "-c", _SIDE_BY_SIDE_RUN, *argv],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr

    names = sorted(os.listdir(runs["both"]))
    assert names == sorted(os.listdir(runs["again"]))
    for name in names:
        assert (runs["both"] / name).read_bytes() == (runs["again"] / name).read_bytes()

    manifest = json.loads((runs["both"] / "manifest.json").read_text())
    for column, kind in ((1, "microscopic"), (2, "phenomenological")):
        alone = json.loads((runs[kind] / "manifest.json").read_text())
        for job, job_alone in zip(manifest["jobs"], alone["jobs"]):
            assert json.dumps(job["models"][kind]) == json.dumps(job_alone["models"][kind])
        for name in alone["files"]:
            text = (runs[kind] / name).read_text().splitlines()
            if name.startswith("husimi_"):
                assert (runs["both"] / name).read_text().splitlines() == text
                continue
            rows = (runs["both"] / name).read_text().splitlines()
            assert [row.split(",")[column] for row in rows[1:]] == [
                row.split(",")[1] for row in text[1:]
            ]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n_max = 26 sectors k <= 2 are 100 or more wide, where OpenBLAS's
    # threaded zgesv (the Pade denominator of the sector exponentials)
    # gives other bits than its one-thread path: without the pin the
    # variances, a Husimi map and the manifest move. main runs every
    # command at one thread, so a process that starts at two writes the
    # same bytes
    evolve = _tiny_raw(
        model="both",
        initial_state={"kind": "coherent", "alpha": [1.5, 0.5], "qubit_level": "excited"},
        n_max=26,
        t_max=6.0,
        n_points=57,
        observables=["inversion", "mean_photon", "q_var", "p_var"],
        husimi={"times": [0.0, 2.5], "extent": 3.0, "n_points": 9},
    )
    oracle = _tiny_raw(model="both", n_max=26, n_points=11, oracle={"n_trials": 2}, seed=5)
    paths = {name: _write_config(tmp_path, raw, f"{name}.json")
             for name, raw in (("evolve", evolve), ("oracle", oracle))}
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = tmp_path / f"threads{threads}"
        argv = [[command, paths[command], "--out", str(runs[threads] / command)]
                for command in ("evolve", "oracle")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        child = subprocess.run([sys.executable, "-c", _COMMANDS_RUN, json.dumps(argv)],
                               capture_output=True, text=True, env=env)
        assert child.returncode == 0, child.stderr
    files = sorted(p.relative_to(runs["1"]) for p in runs["1"].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(runs["2"]) for p in runs["2"].rglob("*") if p.is_file())
    assert any(f.name == "oracle_report.json" for f in files)
    assert any(f.name.startswith("husimi_") for f in files)
    for name in files:
        assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name


def test_every_model_thread_runs_blas_at_one_thread_and_main_restores_the_count(
    tmp_path, monkeypatch
):
    controls = _blas.controls()
    if not controls:
        pytest.skip("this process maps no OpenBLAS")
    counts = [get() for get, _ in controls]
    seen = []
    real = cli.evolve

    def evolve(liouvillian, *args, **kwargs):
        seen.append((liouvillian.kind, threading.get_ident(), [get() for get, _ in controls]))
        return real(liouvillian, *args, **kwargs)

    def fail(*args, **kwargs):
        raise RuntimeError("not a package error")

    try:
        for _, set_ in controls:
            set_(2)
        monkeypatch.setattr(cli, "evolve", evolve)
        path = _write_config(tmp_path, _side_by_side_raw())
        assert cli.main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
        assert sorted(kind for kind, _, _ in seen) == ["microscopic", "phenomenological"]
        assert len({thread for _, thread, _ in seen}) == 2
        assert all(inside == [1] * len(controls) for _, _, inside in seen)
        assert [get() for get, _ in controls] == [2] * len(controls)

        monkeypatch.setattr(cli, "evolve", fail)
        with pytest.raises(RuntimeError):
            cli.main(["evolve", path, "--out", str(tmp_path / "raised")])
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


# n_points of a tiny two-model job (n_max 8, dim 18) whose series takes
# two stacks: the fewest output times that run its models side by side
_SIDE_BY_SIDE_POINTS = jcdiss.propagate.stack_states(18, cli.STACK_BYTES) + 1


def _side_by_side_raw():
    """The tiny two-model job of _SIDE_BY_SIDE_POINTS times, checked to
    run side by side, so that a test of the worker thread fails here and
    not in a wait for a model that runs in sequence."""
    raw = _tiny_raw(model="both", n_points=_SIDE_BY_SIDE_POINTS)
    assert cli._side_by_side(cli.parse_config(raw), SpaceSpec(raw["n_max"]))
    return raw


def _evolve_that_fails(monkeypatch, failures):
    """Replace cli.evolve by one that raises failures[kind] for the models
    named there, and runs the real evolve for the others. The
    phenomenological failure is raised before the microscopic one, so a
    microscopic error that wins is not a matter of timing. Returns the
    list of (kind, thread ident) of every call."""
    real = cli.evolve
    phenomenological_failed = threading.Event()
    calls = []

    def evolve(liouvillian, *args, **kwargs):
        kind = liouvillian.kind
        calls.append((kind, threading.get_ident()))
        if kind not in failures:
            return real(liouvillian, *args, **kwargs)
        if kind == "microscopic" and "phenomenological" in failures:
            assert phenomenological_failed.wait(timeout=60)
        try:
            raise failures[kind]
        finally:
            if kind == "phenomenological":
                phenomenological_failed.set()

    monkeypatch.setattr(cli, "evolve", evolve)
    return calls


@pytest.mark.parametrize("failures, reported", [
    ({"microscopic": TruncationError("raise n_max"),
      "phenomenological": DriftError("trace drift")}, "TruncationError: raise n_max"),
    ({"phenomenological": DriftError("trace drift")}, "DriftError: trace drift"),
], ids=["microscopic-wins", "phenomenological-only"])
def test_a_failed_model_of_two_is_reported_like_the_sequential_run(
    tmp_path, capsys, monkeypatch, failures, reported
):
    _evolve_that_fails(monkeypatch, failures)
    threads = threading.active_count()
    path = _write_config(tmp_path, _side_by_side_raw())
    code = cli.main(["evolve", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"physics guard: {reported}\n"
    assert threading.active_count() == threads


def test_a_single_model_job_starts_no_thread(tmp_path, monkeypatch):
    calls = _evolve_that_fails(monkeypatch, {})

    def refuse(*args, **kwargs):
        raise AssertionError("a single-model job started a thread")

    path = _write_config(tmp_path, _tiny_raw(model="phenomenological", n_points=11))
    monkeypatch.setattr(cli.threading, "Thread", refuse)
    assert cli.main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
    assert calls == [("phenomenological", threading.get_ident())]
    monkeypatch.undo()

    calls = _evolve_that_fails(monkeypatch, {})
    path = _write_config(tmp_path, _side_by_side_raw(), "both.json")
    assert cli.main(["evolve", path, "--out", str(tmp_path / "both")]) == 0
    threads = dict(calls)
    assert threads["microscopic"] == threading.get_ident()
    assert threads["phenomenological"] != threading.get_ident()


@pytest.mark.parametrize("overrides", [
    {"n_points": _SIDE_BY_SIDE_POINTS - 1},
    {"n_points": 2, "observables": [], "husimi": {"times": [0.0, 1.0, 2.0, 3.0]}},
    {"n_points": _SIDE_BY_SIDE_POINTS - 1, "husimi": {"times": [0.0, 1.0]}},
], ids=["series", "snapshots", "series-and-snapshots"])
def test_a_two_model_job_of_one_stack_per_run_starts_no_thread(
    tmp_path, monkeypatch, overrides
):
    # a run of each model fits one stack: only the models' set-up would
    # overlap, so they run in sequence on this thread
    calls = _evolve_that_fails(monkeypatch, {})

    def refuse(*args, **kwargs):
        raise AssertionError("a two-model job of one stack per run started a thread")

    path = _write_config(tmp_path, _tiny_raw(model="both", **overrides))
    monkeypatch.setattr(cli.threading, "Thread", refuse)
    assert cli.main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
    runs = 1 + ("husimi" in overrides) - (overrides.get("observables") == [])
    main = threading.get_ident()
    assert calls == [("microscopic", main)] * runs + [("phenomenological", main)] * runs


@pytest.mark.parametrize("name, side_by_side", [
    ("coherent_revival_two_models", True),
    ("quadrature_variances_two_models", True),
    ("husimi_snapshots_two_models", False),
])
def test_golden_two_model_jobs_run_side_by_side_only_past_one_stack(name, side_by_side):
    # coherent_series's jobs (1601 and 5620 times at n_max 29, 32 to a
    # stack) still run side by side; phase_space's 4 snapshot times do not
    config = load_scenario(name)
    assert config.model == "both"
    assert cli._side_by_side(config, SpaceSpec(config.n_max)) is side_by_side


# ---------------------------------------------------------------------------
# freed memory kept in the process


def _fake_libc(monkeypatch, result=1, missing=False):
    """Replace the C library by one whose mallopt records its calls and
    returns result (or that has no mallopt); returns the list of calls."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result

    libc = types.SimpleNamespace() if missing else types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(_malloc, "_libc", lambda: libc)
    return calls


# mallopt(M_MMAP_THRESHOLD = -3, 32 MiB), then mallopt(M_TRIM_THRESHOLD = -1,
# 64 MiB): the largest values of glibc's own dynamic thresholds
_THRESHOLDS = [(-3, 33554432), (-1, 67108864)]


@pytest.mark.parametrize("raised, code", [
    (None, 0),
    (ConfigError("params.g: refused"), 2),
    (DriftError("trace drift"), 3),
], ids=["exit-0", "exit-2", "exit-3"])
def test_main_sets_both_thresholds_before_the_runner_runs(
    tmp_path, monkeypatch, capsys, raised, code
):
    calls = _fake_libc(monkeypatch)
    seen = []

    def runner(config):
        seen.append(list(calls))
        if raised is not None:
            raise raised
        return {"files": []}

    monkeypatch.setitem(cli._RUNNERS, "evolve", runner)
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    assert cli.main(["evolve", path, "--out", str(tmp_path / "out")]) == code
    assert seen == [_THRESHOLDS]
    assert calls == _THRESHOLDS


@pytest.mark.parametrize("missing, result, want", [
    (True, 1, []),
    (False, 0, _THRESHOLDS[:1]),
], ids=["no-mallopt", "mallopt-refuses"])
def test_allocator_is_left_as_it_is_without_a_mallopt_that_takes_the_threshold(
    tmp_path, monkeypatch, missing, result, want
):
    # a refused mmap threshold is not followed by the trim threshold, so
    # the process never holds one without the other
    calls = _fake_libc(monkeypatch, result=result, missing=missing)
    assert _malloc.keep_freed_memory() is False
    assert calls == want
    out = tmp_path / "out"
    path = _write_config(tmp_path, _tiny_raw(n_points=11))
    assert cli.main(["evolve", path, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert calls == want * 2


_REPEAT_RUN = """
import json, resource, sys
from jcdiss import cli
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if cli.main(sys.argv[1:]) != 0:
        sys.exit(1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_a_repeated_command_takes_no_page_faults(tmp_path):
    # fock4_zero_temperature (n_max 14, three jobs of 801 states): glibc's
    # dynamic thresholds hand its freed stacks back to the kernel, and the
    # second identical run took 6-8k minor faults to take them back
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    argv = ["evolve", os.path.join(REPO_ROOT, "scenarios", "fock4_zero_temperature.json"),
            "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    child = subprocess.run([sys.executable, "-c", _REPEAT_RUN, *argv],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    first, second = json.loads(child.stdout.splitlines()[-1])
    assert second < 100, (first, second)


def test_outputs_do_not_depend_on_earlier_commands_in_the_process(tmp_path):
    # freed heap blocks and fresh page-aligned mappings place arrays at
    # other addresses; a two-model evolve after husimi and oracle in one
    # process writes the bytes it writes alone
    raw = _tiny_raw(
        model="both",
        initial_state={"kind": "coherent", "alpha": [0.9, 0.3], "qubit_level": "excited"},
        n_max=24,
        t_max=6.0,
        n_points=49,
        observables=["inversion", "mean_photon", "q_var"],
        husimi={"times": [0.0, 2.5], "extent": 3.0, "n_points": 9},
    )
    path = _write_config(tmp_path, raw)
    evolve = ["evolve", path]
    earlier = [
        ["husimi", os.path.join(REPO_ROOT, "scenarios", "husimi_snapshots_two_models.json")],
        ["oracle", os.path.join(REPO_ROOT, "scenarios", "oracle_single_excitation.json")],
    ]
    runs = {}
    for name, commands in (("after", earlier + [evolve]), ("alone", [evolve])):
        runs[name] = tmp_path / name
        argv = [cmd + ["--out", str(runs[name] / str(i))] for i, cmd in enumerate(commands)]
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        child = subprocess.run([sys.executable, "-c", _COMMANDS_RUN, json.dumps(argv)],
                               capture_output=True, text=True, env=env)
        assert child.returncode == 0, child.stderr
    after, alone = runs["after"] / "2", runs["alone"] / "0"
    names = sorted(os.listdir(alone))
    assert "manifest.json" in names and any(n.startswith("husimi_") for n in names)
    assert sorted(os.listdir(after)) == names
    for name in names:
        assert (after / name).read_bytes() == (alone / name).read_bytes(), name

"""Each independent check passes on real outputs and rejects a perturbed one.

Run from the root of a checkout: python3 -m pytest jcbench/test_checks.py
It runs every workload once (about 40 s), then perturbs copies of the
outputs. A CSV column is shifted by 1e-6 unless a test says otherwise.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

import checks
import run

sys.path.insert(0, run.SRC)   # checks.expm_states builds generators with jcdiss.lindblad

SHIFT = 1e-6


@pytest.fixture(scope="module")
def outputs():
    """One round per workload, run lazily: workload -> Run."""
    done = {}
    base = os.path.join(run.WORK, f"test-{os.getpid()}")

    def get(workload):
        if workload not in done:
            bench = run.Run(workload, 7, os.path.join(base, workload))
            result = bench.spawn("time", "test")
            assert result["codes"] == [0] * len(bench.operations)
            done[workload] = bench
        return done[workload]

    yield get
    shutil.rmtree(base, ignore_errors=True)


def _copy(bench, scenario, tmp_path):
    """Scenario dict whose outputs are a private copy."""
    raw = dict(bench.scenarios[scenario][1])
    target = tmp_path / scenario
    shutil.copytree(raw["output"], target)
    raw["output"] = str(target)
    return raw


def _shift(raw, filename, column, delta, rows=slice(None)):
    path = os.path.join(raw["output"], filename)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data[rows, header.index(column)] += delta
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def _edit_json(raw, filename, edit):
    path = os.path.join(raw["output"], filename)
    payload = checks.read_json(path)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _rng():
    return np.random.default_rng(3)


def test_manifest_invariants(outputs, tmp_path):
    raw = _copy(outputs("coherent_series"), "coherent_revival_two_models", tmp_path)
    assert checks.check_manifest(raw, "manifest.json", "spectral") == []

    def edit(manifest):
        manifest["jobs"][0]["models"]["microscopic"]["top_population_max"] = 2e-6

    _edit_json(raw, "manifest.json", edit)
    assert checks.check_manifest(raw, "manifest.json", "spectral")


@pytest.mark.parametrize("name", ["q_var", "p_var"])
def test_coherent_initial_rows(outputs, tmp_path, name):
    raw = _copy(outputs("coherent_series"), "quadrature_variances_two_models", tmp_path)
    assert checks.check_initial_rows(raw, ["q_var", "p_var"]) == []
    _shift(raw, f"{name}.csv", "value", SHIFT)
    assert checks.check_initial_rows(raw, ["q_var", "p_var"])


def test_mean_photon_initial_row(outputs, tmp_path):
    raw = _copy(outputs("coherent_series"), "coherent_revival_two_models", tmp_path)
    assert checks.check_initial_rows(raw, ["inversion", "mean_photon"]) == []
    _shift(raw, "mean_photon.csv", "value_phenomenological", SHIFT)
    assert checks.check_initial_rows(raw, ["inversion", "mean_photon"])


def test_uncertainty_bound(outputs, tmp_path):
    raw = _copy(outputs("coherent_series"), "quadrature_variances_two_models", tmp_path)
    assert checks.check_uncertainty(raw) == []
    _shift(raw, "q_var.csv", "value", -SHIFT)
    assert checks.check_uncertainty(raw)


def test_excitation_balance(outputs, tmp_path):
    raw = _copy(outputs("coherent_series"), "coherent_revival_two_models", tmp_path)
    assert checks.check_excitation_balance(raw) == []
    # a step in <n> half way through breaks the balance from there on
    rows = slice(raw["n_points"] // 2, None)
    _shift(raw, "mean_photon.csv", "value_phenomenological", SHIFT, rows)
    assert checks.check_excitation_balance(raw)


@pytest.mark.parametrize("name", ["inversion", "mean_photon"])
def test_coherent_against_expm(outputs, tmp_path, name):
    raw = _copy(outputs("coherent_series"), "coherent_revival_two_models", tmp_path)
    names = ["inversion", "mean_photon"]
    assert checks.check_expm(raw, names, _rng()) == []
    _shift(raw, f"{name}.csv", "value", SHIFT)
    assert checks.check_expm(raw, names, _rng())


def test_fock_against_expm(outputs, tmp_path):
    raw = _copy(outputs("fock_entropy"), "fock4_low_temperature", tmp_path)
    names = ["inversion", "purity", "field_entropy"]
    assert checks.check_expm(raw, names, _rng()) == []
    _shift(raw, "field_entropy_delta2.csv", "value", SHIFT)
    assert checks.check_expm(raw, names, _rng())


@pytest.mark.parametrize("scenario,name", [
    ("ground_state_detuning", "ground_population"),
    ("inversion_detuning", "inversion"),
    ("purity_detuning", "purity"),
    ("field_entropy_detuning", "field_entropy"),
])
def test_single_excitation_closed_form(outputs, tmp_path, scenario, name):
    raw = _copy(outputs("fock_entropy"), scenario, tmp_path)
    assert checks.check_closed_form(raw, [name], checks.SPECTRAL_TOL) == []
    _shift(raw, f"{name}_delta4.csv", "value", SHIFT)
    assert checks.check_closed_form(raw, [name], checks.SPECTRAL_TOL)


def test_concurrence_closed_form(outputs, tmp_path):
    raw = _copy(outputs("fock_entropy"), "concurrence_detuning", tmp_path)
    assert checks.check_closed_form(raw, ["concurrence"], checks.SPECTRAL_TOL) == []
    _shift(raw, "concurrence_delta0.csv", "value", SHIFT, slice(1, None))
    assert checks.check_closed_form(raw, ["concurrence"], checks.SPECTRAL_TOL)


def test_fock_initial_rows(outputs, tmp_path):
    raw = _copy(outputs("fock_entropy"), "fock4_zero_temperature", tmp_path)
    names = ["inversion", "purity", "field_entropy"]
    assert checks.check_initial_rows(raw, names) == []
    _shift(raw, "inversion_delta0.csv", "value", -SHIFT)
    assert checks.check_initial_rows(raw, names)


@pytest.mark.parametrize("name,delta", [
    ("field_entropy", -SHIFT), ("purity", SHIFT), ("concurrence", -SHIFT),
])
def test_bounds(outputs, tmp_path, name, delta):
    scenario = {"field_entropy": "fock4_zero_temperature", "purity": "fock4_zero_temperature",
                "concurrence": "concurrence_detuning"}[name]
    raw = _copy(outputs("fock_entropy"), scenario, tmp_path)
    assert checks.check_bounds(raw, [name]) == []
    # t = 0 sits on the bound: entropy 0, purity 1, concurrence 0
    _shift(raw, f"{name}_delta0.csv", "value", delta, slice(0, 1))
    assert checks.check_bounds(raw, [name])


def test_steady_gibbs(outputs, tmp_path):
    raw = _copy(outputs("fock_entropy"), "fock4_low_temperature", tmp_path)
    assert checks.check_steady(raw) == []
    _shift(raw, "steady_microscopic_delta0.csv", "population", SHIFT)
    assert checks.check_steady(raw)


@pytest.mark.parametrize("column", ["gamma3", "gtilde5", "d_n"])
def test_rates(outputs, tmp_path, column):
    raw = _copy(outputs("fock_entropy"), "fock4_low_temperature", tmp_path)
    assert checks.check_rates(raw) == []
    _shift(raw, "rates_delta2.csv", column, SHIFT)
    assert checks.check_rates(raw)


@pytest.mark.parametrize("filename,rows,problem", [
    ("husimi_microscopic_t0.csv", slice(1, None), "at t=0"),
    ("husimi_phenomenological_t2.csv", slice(0, 1), "mass"),
])
def test_husimi(outputs, tmp_path, filename, rows, problem):
    raw = _copy(outputs("phase_space"), "husimi_snapshots_two_models", tmp_path)
    assert checks.check_husimi(raw, _rng()) == []
    _shift(raw, filename, "q", SHIFT, rows)
    assert any(problem in p for p in checks.check_husimi(raw, _rng()))


def test_husimi_later_map_against_expm(outputs, tmp_path):
    raw = _copy(outputs("phase_space"), "husimi_snapshots_two_models", tmp_path)
    rng = _rng()
    later = int(rng.integers(1, len(raw["husimi"]["times"])))
    # shift every point and correct the manifest mass, so only the expm
    # comparison can notice
    _shift(raw, f"husimi_microscopic_t{later}.csv", "q", SHIFT)
    extent, n = raw["husimi"]["extent"], raw["husimi"]["n_points"]
    dx = 2 * extent / (n - 1)

    def edit(manifest):
        manifest["jobs"][0]["models"]["microscopic"]["husimi"][later]["mass"] += (
            SHIFT * n * n * dx * dx)

    _edit_json(raw, "husimi_manifest.json", edit)
    problems = checks.check_husimi(raw, _rng())
    assert problems and all("expm_multiply" in p for p in problems)


def test_second_route_closed_form(outputs, tmp_path):
    raw = _copy(outputs("second_route"), "ground_state_detuning", tmp_path)
    assert checks.check_closed_form(raw, ["ground_population"], checks.SECOND_ROUTE_TOL) == []
    # the fixed-step route is held to 1e-6, so the shift must exceed it
    _shift(raw, "ground_population_delta2.csv", "value", 2 * SHIFT)
    assert checks.check_closed_form(raw, ["ground_population"], checks.SECOND_ROUTE_TOL)


@pytest.mark.parametrize("edit", [
    lambda report: report.update(passed=False),
    lambda report: report["worst_trace_distance"].update(microscopic=2e-6),
    lambda report: report.update(seed=report["seed"] + 1),
])
def test_oracle_report(outputs, tmp_path, edit):
    raw = _copy(outputs("second_route"), "oracle_single_excitation", tmp_path)
    assert checks.check_oracle(raw) == []
    _edit_json(raw, "oracle_report.json", edit)
    assert checks.check_oracle(raw)

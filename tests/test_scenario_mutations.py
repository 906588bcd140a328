"""Mutated golden scenarios through the command line.

Each mutant of a Fock or single-excitation golden deletes a field, gives
a field a value of another type, or pushes a value out of range; so does
each mutant of a small snapshot block grafted onto a Fock golden and run
by the husimi command. Run through main, it either succeeds or fails
fast with a documented exit code (2 configuration, 3 physics guard, 4
oracle mismatch) and one line on stderr, and a configuration error
leaves no output directory.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jcdiss import cli

from conftest import SCENARIO_DIR

GOLDENS = (
    "ground_state_detuning",
    "inversion_detuning",
    "purity_detuning",
    "field_entropy_detuning",
    "concurrence_detuning",
    "fock4_zero_temperature",
    "fock4_low_temperature",
    "oracle_single_excitation",
)

# values of other types than a field's own
_OTHER_VALUES = ("text", [1.5], {"x": 1}, None, True, 2.5, 3)


# each pushes a value out of range: (path, value) pairs to set
_OUT_OF_RANGE = {
    "n_max": [(("n_max",), 0)],
    "gamma": [(("params", "gamma"), -0.1)],
    "t_max": [(("t_max",), 0.0)],
    "t_max_negative": [(("t_max",), -1.0)],
    "observable": [(("observables",), ["bogus"])],
    "g": [(("params", "g"), 0.0), (("model",), "microscopic")],
    "concurrence": [
        (("initial_state",), {"kind": "fock", "n": 3, "qubit_level": "excited"}),
        (("observables",), ["concurrence"]),
    ],
}


def _load(name):
    with open(os.path.join(SCENARIO_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _paths(raw):
    """Every field a mutant may touch; output is replaced by --out."""
    paths = [(key,) for key in raw if key != "output"]
    for key in ("params", "initial_state"):
        paths += [(key, sub) for sub in raw[key]]
    return paths


def _field_mutations(raw):
    paths = _paths(raw)
    deletions = st.sampled_from(paths).map(lambda path: ("delete", path))

    def swaps_of(path):
        own = raw
        for key in path:
            own = own[key]
        others = [v for v in _OTHER_VALUES if type(v) is not type(own)]
        return st.sampled_from(others).map(lambda value: ("swap", path, value))

    swaps = st.sampled_from(paths).flatmap(swaps_of)
    ranges = st.sampled_from(sorted(_OUT_OF_RANGE)).map(lambda name: ("range", name))
    return st.one_of(deletions, swaps, ranges)


def _mutants():
    return st.sampled_from(GOLDENS).flatmap(
        lambda name: st.tuples(st.just(name), _field_mutations(_load(name)))
    )


def _apply(raw, mutation):
    kind, *rest = mutation
    if kind == "range":
        edits = _OUT_OF_RANGE[rest[0]]
    elif kind == "swap":
        edits = [tuple(rest)]
    else:
        edits = [(rest[0], None)]
    for path, value in edits:
        owner = raw
        for key in path[:-1]:
            owner = owner[key]
        if kind == "delete":
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
    return raw


def _assert_runs_or_fails_fast(tmp_path, command, raw, case):
    work = tempfile.mkdtemp(dir=tmp_path)
    path = os.path.join(work, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = os.path.join(work, "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, path, "--out", out])
    assert code in (0, 2, 3, 4), (case, code)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "Traceback" not in lines[0], (case, lines)
    if code == 2:
        assert not os.path.exists(out), (case, err.getvalue())


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_mutants())
@example(case=("ground_state_detuning", ("range", "g")))
@example(case=("oracle_single_excitation", ("range", "g")))
@example(case=("fock4_zero_temperature", ("swap", ("initial_state", "qubit_level"), [1.5])))
def test_mutated_golden_runs_or_fails_fast(tmp_path, case):
    name, mutation = case
    raw = _apply(_load(name), mutation)
    command = "oracle" if name == "oracle_single_excitation" else "evolve"
    _assert_runs_or_fails_fast(tmp_path, command, raw, case)


# the snapshot block grafted onto a Fock golden for the husimi command
_HUSIMI_BASE = "fock4_zero_temperature"
_HUSIMI_BLOCK = {"times": [0.0, 1.0], "extent": 4.0, "n_points": 21}

_NONFINITE = (float("nan"), float("inf"), float("-inf"))

# each sets one field of the block out of range
_HUSIMI_OUT_OF_RANGE = (
    [("times", [1.0, 0.0])],
    [("times", [-1.0, 0.0])],
    [("times", [])],
    [("extent", 0.0)],
    [("extent", -4.0)],
    [("n_points", 1)],
    [("n_points", 21.0)],
    [("n_points", True)],
    [("bogus", 1)],
    *([("times", [0.0, v])] for v in _NONFINITE),
    *([("extent", v)] for v in _NONFINITE),
)


def _husimi_mutations():
    keys = sorted(_HUSIMI_BLOCK)
    deletions = st.sampled_from(keys).map(lambda key: ("delete", key))

    def swaps_of(key):
        others = [v for v in _OTHER_VALUES if type(v) is not type(_HUSIMI_BLOCK[key])]
        return st.sampled_from(others).map(lambda value: ("set", [(key, value)]))

    swaps = st.sampled_from(keys).flatmap(swaps_of)
    ranges = st.sampled_from(_HUSIMI_OUT_OF_RANGE).map(lambda edits: ("set", edits))
    return st.one_of(deletions, swaps, ranges)


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=_husimi_mutations())
@example(mutation=("set", [("times", [float("nan")])]))
@example(mutation=("set", [("times", [float("inf")])]))
@example(mutation=("set", [("times", [float("-inf")])]))
@example(mutation=("set", [("extent", float("nan"))]))
@example(mutation=("set", [("extent", float("inf"))]))
@example(mutation=("set", [("extent", float("-inf"))]))
def test_mutated_snapshot_block_runs_or_fails_fast(tmp_path, mutation):
    block = dict(_HUSIMI_BLOCK)
    if mutation[0] == "delete":
        del block[mutation[1]]
    else:
        block.update(mutation[1])
    raw = _load(_HUSIMI_BASE)
    raw["husimi"] = block
    _assert_runs_or_fails_fast(tmp_path, "husimi", raw, mutation)

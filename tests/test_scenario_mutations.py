"""Mutated golden scenarios through the command line.

The mutations come from the scenario schema (cli._SCHEMA): each mutant
of a golden deletes a field or a list entry, gives one of them a value
of another type or a value its row's range or choices refuse, or adds a
field that no row names. A few rules that span fields or belong to the
physics are kept by hand (_CROSS_FIELD). So are the mutants of a small
snapshot block grafted onto a Fock golden and run by the husimi command.
Run through main, a mutant either succeeds or fails fast with a
documented exit code (2 configuration, 3 physics guard, 4 oracle
mismatch) and one line on stderr, and a configuration error leaves no
output directory.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jcdiss import cli

from conftest import SCENARIO_DIR

# the commands each golden's mutants run: those the golden itself runs,
# except that the coherent series goldens (0.5-1.6 s an evolve) run only
# steady and rates, which parse and expand the same scenario in 0.06 s;
# the cheap husimi golden keeps evolve and husimi for the coherent and
# two-model fields
_SERIES_AND_ORACLE = ("evolve", "oracle", "steady", "rates")
_SERIES = ("evolve", "steady", "rates")
_CHEAP = ("steady", "rates")
COMMANDS = {
    "ground_state_detuning": _SERIES_AND_ORACLE,
    "inversion_detuning": _SERIES_AND_ORACLE,
    "purity_detuning": _SERIES_AND_ORACLE,
    "field_entropy_detuning": _SERIES_AND_ORACLE,
    "concurrence_detuning": _SERIES_AND_ORACLE,
    "fock4_zero_temperature": _SERIES,
    "fock4_low_temperature": _SERIES,
    "oracle_single_excitation": ("oracle", "steady", "rates"),
    "husimi_snapshots_two_models": ("evolve", "husimi", "steady", "rates"),
    "coherent_revival_two_models": _CHEAP,
    "coherent_detuning_sweep": _CHEAP,
    "quadrature_means_two_models": _CHEAP,
    "quadrature_variances_two_models": _CHEAP,
}

# values of other types than a field's own
_OTHER_VALUES = ("text", [1.5], {"x": 1}, None, True, 2.5, 3)

_NONFINITE = (float("nan"), float("inf"), float("-inf"))

# rules the table cannot express, each as (path, value) pairs to set
_CROSS_FIELD = {
    "gamma": [(("params", "gamma"), -0.1)],
    "g": [(("params", "g"), 0.0), (("model",), "microscopic")],
    "concurrence": [
        (("initial_state",), {"kind": "fock", "n": 3, "qubit_level": "excited"}),
        (("observables",), ["concurrence"]),
    ],
    "norm": [(("initial_state",), {"kind": "single_excitation", "alpha": 0.6, "beta": 0.6})],
    "detuning_tags": [(("detunings",), [1.0, 1.0000001])],
    "omega_with_detunings": [(("params", "omega"), 100.0), (("detunings",), [0.0])],
}


def _load(name):
    with open(os.path.join(SCENARIO_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _get(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _present(raw, path):
    for key in path:
        if not isinstance(raw, dict) or key not in raw:
            return False
        raw = raw[key]
    return True


def _out_of_range(row):
    """Values of a row's kind (one item of a list row) that its range or
    choices refuse."""
    if row.kind == "enum":
        return ["bogus"]
    if row.kind == "amplitude":
        return [1e200, [0.0, -1e200], *_NONFINITE]
    if row.range == "nonempty":
        return [""]
    values = list(_NONFINITE) if row.kind == "number" else []
    if row.range:
        op, bound = row.range.split()
        bound = int(bound) if row.kind == "int" else float(bound)
        values += [bound, bound - 1] if op == ">" else [bound - 1]
    return values


def _edits(raw, path, values):
    """Delete the field or entry at path, or set it to a value of another
    type or to one of values."""
    own = _get(raw, path)
    swaps = [v for v in _OTHER_VALUES if type(v) is not type(own)]
    return [("delete", path, None)] + [("set", path, v) for v in swaps + list(values)]


def _schema_mutations(raw, prefix=()):
    """Every (kind, path, value) mutation the schema gives for the fields
    under prefix that raw has, list entries included, and a field no row
    names in each object; output is replaced by --out."""
    mutations = []
    objects = [prefix]
    for row in cli._SCHEMA.values():
        path = tuple(row.path.split("."))
        if path[: len(prefix)] != prefix or path == prefix or row.path == "output":
            continue
        if not _present(raw, path):
            continue
        if row.kind == "object":
            objects.append(path)
        if row.items is None:
            mutations += _edits(raw, path, _out_of_range(row))
            continue
        mutations += _edits(raw, path, [[]] if row.items else [])
        for i in range(len(_get(raw, path))):
            mutations += _edits(raw, path + (i,), _out_of_range(row))
    return mutations + [("set", path + ("bogus",), 1) for path in objects]


def _mutants():
    def of_golden(name):
        mutations = _schema_mutations(_load(name))
        cases = st.one_of(
            st.sampled_from(mutations),
            st.sampled_from(sorted(_CROSS_FIELD)).map(lambda key: ("range", key)),
        )
        return st.tuples(st.just(name), st.sampled_from(COMMANDS[name]), cases)

    return st.sampled_from(sorted(COMMANDS)).flatmap(of_golden)


def _apply(raw, mutation):
    kind, *rest = mutation
    edits = _CROSS_FIELD[rest[0]] if kind == "range" else [tuple(rest)]
    for path, value in edits:
        owner = _get(raw, path[:-1])
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
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_mutants())
@example(case=("ground_state_detuning", "evolve", ("range", "g")))
@example(case=("oracle_single_excitation", "oracle", ("range", "g")))
@example(case=("fock4_zero_temperature", "evolve",
               ("set", ("initial_state", "qubit_level"), [1.5])))
@example(case=("husimi_snapshots_two_models", "husimi", ("set", ("husimi", "times", 1), -1.0)))
@example(case=("coherent_revival_two_models", "rates", ("set", ("detunings",), [2.0, 2.0])))
@example(case=("quadrature_means_two_models", "steady", ("set", ("observables", 1), "bogus")))
def test_mutated_golden_runs_or_fails_fast(tmp_path, case):
    name, command, mutation = case
    _assert_runs_or_fails_fast(tmp_path, command, _apply(_load(name), mutation), case)


# the snapshot block grafted onto a Fock golden for the husimi command
_HUSIMI_BASE = "fock4_zero_temperature"
_HUSIMI_BLOCK = {"times": [0.0, 1.0], "extent": 4.0, "n_points": 21}

# the block's rule that spans its entries
_HUSIMI_CROSS_FIELD = [("set", ("husimi", "times"), [1.0, 0.0])]


def _husimi_mutations():
    mutations = _schema_mutations({"husimi": _HUSIMI_BLOCK}, ("husimi",))
    return st.sampled_from(mutations + _HUSIMI_CROSS_FIELD)


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=_husimi_mutations())
@example(mutation=("set", ("husimi", "times"), [float("nan")]))
@example(mutation=("set", ("husimi", "times"), [float("inf")]))
@example(mutation=("set", ("husimi", "times"), [float("-inf")]))
@example(mutation=("set", ("husimi", "extent"), float("nan")))
@example(mutation=("set", ("husimi", "extent"), float("inf")))
@example(mutation=("set", ("husimi", "extent"), float("-inf")))
def test_mutated_snapshot_block_runs_or_fails_fast(tmp_path, mutation):
    raw = _load(_HUSIMI_BASE)
    raw["husimi"] = copy.deepcopy(_HUSIMI_BLOCK)
    _assert_runs_or_fails_fast(tmp_path, "husimi", _apply(raw, mutation), mutation)

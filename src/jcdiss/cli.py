"""Declarative scenario runner and command line interface.

A scenario file is a JSON object naming the physical parameters, the
dissipation model, the initial state, the time grid, and the outputs
to produce. Running it yields one CSV per requested series plus a JSON
manifest holding the configuration hash and the physicality-invariant
summary, so every exported dataset is reproducible from its config
alone. All times are dimensionless (in units of 1/g) and all CSV
numbers are written with full double precision ('%.17g'), which makes
repeated runs byte-identical on one platform.

Subcommands:
    evolve  <config>   time-series CSVs (+ phase-space snapshots if present)
    steady  <config>   stationary-state populations and observables
    husimi  <config>   phase-space snapshot CSVs only
    oracle  <config>   closed-form comparison report (single excitation)
    rates   <config>   transition-channel rate table CSVs

Exit codes: 0 success, 2 config error, 3 physics-guard error, 4 oracle
mismatch.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from ._blas import one_thread
from ._malloc import keep_freed_memory
from .dressed import SystemParams, dressed_spectrum
from .errors import (
    ConfigError,
    JcdissError,
    OracleMismatchError,
    ParameterError,
    PhysicsGuardError,
)
from .hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    coherent_state,
    default_coherent_n_max,
    fock_state,
    single_excitation_state,
)
from ._kernels import packed_entries
from .lindblad import build_liouvillian, build_rate_table, rate_table_columns
from .observables import (
    OBSERVABLES,
    HusimiGridSpec,
    husimi_q,
    quadrature_variances,
)
from .propagate import (
    STACK_BYTES,
    SingleExcitationAmplitudes,
    analytic_microscopic,
    analytic_phenomenological,
    evolve,
    rk4_gap_count,
    stack_states,
    steady_state,
    trace_distance,
)

_MODELS = ("microscopic", "phenomenological")
_QUBIT_LEVELS = {"ground": QUBIT_G, "excited": QUBIT_E}
_QUADRATURE_GROUP = ("q_mean", "p_mean", "q_var", "p_var")
_ORACLE_TOL = 1e-6


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the typed values of _SCHEMA with its defaults
    filled in, plus the raw dict it was parsed from (kept verbatim for
    hashing into the manifest)."""

    description: str
    params: dict
    detunings: Optional[tuple]
    model: str
    initial_state: dict
    t_max: float
    n_points: int
    method: str
    n_max: Optional[int]
    observables: tuple
    husimi: Optional[dict]
    oracle: dict
    output: str
    seed: int
    raw: dict

    def sha256(self):
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """One row of the scenario schema.

    kind is "number" (finite), "int", "amplitude" (a number or [re, im]
    pair whose |.|^2 is a finite double), "string", "enum" (one of
    choices) or "object" (the rows below path). items is None for one
    value, or the least length of a list of values of the kind. range
    bounds a number ("> b" or ">= b", for each item of a list) or asks a
    string to be "nonempty". default is _REQUIRED, or the value of an
    absent field: None leaves it absent, and an object's {} is parsed.
    kinds names the initial_state kinds that take the field."""

    path: str
    kind: str
    default: object = None
    range: str = ""
    choices: tuple = ()
    items: Optional[int] = None
    kinds: tuple = ()
    key: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "key", self.path.rpartition(".")[2])


_SCHEMA = {
    row.path: row
    for row in (
        _Field("description", "string", ""),
        _Field("params", "object", _REQUIRED),
        _Field("params.omega0", "number", _REQUIRED),
        # required without detunings, refused with them
        _Field("params.omega", "number"),
        _Field("params.g", "number", SystemParams.g),
        _Field("params.gamma", "number", SystemParams.gamma),
        _Field("params.nbar_at_omega", "number", SystemParams.nbar_at_omega),
        _Field("detunings", "number", items=1),
        _Field("model", "enum", "microscopic", choices=_MODELS + ("both",)),
        _Field("initial_state", "object", _REQUIRED),
        _Field("initial_state.kind", "enum", _REQUIRED,
               choices=("fock", "coherent", "single_excitation")),
        _Field("initial_state.n", "int", _REQUIRED, ">= 0", kinds=("fock",)),
        _Field("initial_state.alpha", "amplitude", _REQUIRED,
               kinds=("coherent", "single_excitation")),
        _Field("initial_state.beta", "amplitude", _REQUIRED,
               kinds=("single_excitation",)),
        _Field("initial_state.qubit_level", "enum", _REQUIRED,
               choices=tuple(_QUBIT_LEVELS), kinds=("fock", "coherent")),
        _Field("t_max", "number", _REQUIRED, "> 0"),
        _Field("n_points", "int", _REQUIRED, ">= 2"),
        _Field("method", "enum", "spectral", choices=("spectral", "rk4")),
        # absent: default_n_max of the initial state
        _Field("n_max", "int", None, ">= 1"),
        _Field("observables", "enum", (), choices=(*sorted(OBSERVABLES), "quadratures"),
               items=0),
        _Field("husimi", "object"),
        _Field("husimi.times", "number", _REQUIRED, ">= 0", items=1),
        # absent: _default_extent of the initial state
        _Field("husimi.extent", "number", None, "> 0"),
        _Field("husimi.n_points", "int", HusimiGridSpec.n_points, ">= 2"),
        _Field("oracle", "object", {}),
        _Field("oracle.n_trials", "int", 0, ">= 0"),
        _Field("output", "string", "out", "nonempty"),
        _Field("seed", "int", 0, ">= 0"),
    )
}

# the rows of each object, in table order ("" is the top level)
_ROWS = {}
for _row in _SCHEMA.values():
    _ROWS.setdefault(_row.path.rpartition(".")[0], []).append(_row)


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _is_finite_number(value):
    """A JSON number other than a bool, NaN, +-Infinity (which Python's
    json module accepts) or an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _amplitude(value, path):
    """A number or [re, im] pair as a complex whose |.|^2, which the
    state's norm and Poisson tail take, is a finite double."""
    if _is_finite_number(value):
        z = complex(value)
    elif (isinstance(value, list) and len(value) == 2
          and all(map(_is_finite_number, value))):
        z = complex(value[0], value[1])
    else:
        raise ConfigError(
            f"{path}: expected a finite number or [re, im] pair, got {value!r}"
        )
    try:
        finite = math.isfinite(abs(z) ** 2)
    except OverflowError:
        finite = False
    if not finite:
        key = path.rpartition(".")[2]
        raise ConfigError(f"{path}: |{key}|^2 is not a finite double, got {value!r}")
    return z


_EXPECTED = {"number": "a finite number", "int": "an integer", "string": "a string"}
_RANGE_WORDS = {"> 0": "must be positive", ">= 0": "must be nonnegative",
                "nonempty": "must not be empty"}


def _check_range(value, rng, path):
    if rng == "nonempty":
        inside = len(value) > 0
    else:
        op, bound = rng.split()
        inside = value > float(bound) if op == ">" else value >= float(bound)
    if not inside:
        words = _RANGE_WORDS.get(rng) or f"must be at least {rng.split()[1]}"
        raise ConfigError(f"{path}: {words}")


def _one(row, value, path):
    """One value of a row's kind, in its range. The messages are built
    only on failure: this runs for every field of every scenario."""
    kind = row.kind
    if kind == "amplitude":
        return _amplitude(value, path)
    if kind == "object":
        _expect(isinstance(value, dict), path, "expected an object")
        return _object(value, row.path, path)
    if kind == "number":
        valid = _is_finite_number(value)
    elif kind == "int":
        valid = isinstance(value, int) and not isinstance(value, bool)
    else:
        valid = isinstance(value, str) and (kind == "string" or value in row.choices)
    if not valid:
        expected = _EXPECTED.get(kind) or f"one of {list(row.choices)}"
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if kind == "number":
        value = float(value)
    if row.range:
        _check_range(value, row.range, path)
    return value


def _field(obj, row):
    """A row's typed value in obj, or its default."""
    if row.key not in obj:
        _expect(row.default is not _REQUIRED, row.path, "missing required field")
        if row.kind == "object" and row.default is not None:
            return _object(row.default, row.path, row.path)
        return row.default
    value = obj[row.key]
    if row.items is None:
        return _one(row, value, row.path)
    if not (isinstance(value, list) and len(value) >= row.items):
        raise ConfigError(
            f"{row.path}: expected a {'non-empty ' * bool(row.items)}list, got {value!r}"
        )
    return tuple(_one(row, item, f"{row.path}[{i}]") for i, item in enumerate(value))


def _object(obj, prefix, where):
    """The typed fields of the object whose rows are _ROWS[prefix]; a
    kind field, which comes first, selects the rows of its kind."""
    rows = _ROWS[prefix]
    kind = _field(obj, rows[0]) if rows[0].key == "kind" else None
    rows = [row for row in rows if not row.kinds or kind in row.kinds]
    unknown = set(obj) - {row.key for row in rows}
    if unknown:
        of_kind = f" for kind {kind!r}" if kind else ""
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}{of_kind}")
    return {row.key: _field(obj, row) for row in rows}


def _file_tag(delta):
    """What a detuning's output files are named by."""
    return f"_delta{delta:g}"


def parse_config(raw, source="<config>"):
    """Validate a raw scenario dict against _SCHEMA; every complaint
    carries the offending field path. The rules that span fields follow
    the table."""
    _expect(isinstance(raw, dict), source, "top level must be a JSON object")
    values = _object(raw, "", source)

    detunings = values["detunings"]
    if detunings is None:
        _expect(values["params"]["omega"] is not None, "params.omega",
                "missing required field")
    else:
        _expect(
            values["params"]["omega"] is None,
            "params.omega",
            "conflicts with detunings (omega is derived as omega0 - detuning)",
        )
        tags = {}
        for i, delta in enumerate(detunings):
            # equal values first: 0.0 and -0.0 have two tags
            j = detunings.index(delta)
            _expect(j == i, f"detunings[{i}]", f"{delta!r} equals detunings[{j}]")
            j = tags.setdefault(_file_tag(delta), i)
            _expect(j == i, f"detunings[{i}]",
                    f"{delta!r} has the file tag {_file_tag(delta)!r} of detunings[{j}]")

    init = values["initial_state"]
    if init["kind"] == "single_excitation":
        _expect(
            abs(abs(init["alpha"]) ** 2 + abs(init["beta"]) ** 2 - 1.0) <= 1e-9,
            "initial_state",
            "|alpha|^2 + |beta|^2 must be 1",
        )

    husimi = values["husimi"]
    if husimi is not None:
        times = husimi["times"]
        _expect(list(times) == sorted(times), "husimi.times", "must be nondecreasing")

    observables = []
    for name in values["observables"]:
        for sub in _QUADRATURE_GROUP if name == "quadratures" else (name,):
            if sub not in observables:
                observables.append(sub)
    values["observables"] = tuple(observables)

    return ScenarioConfig(**values, raw=raw)


def load_config(path, overrides=None):
    """Parse a scenario file. overrides maps top-level fields to values
    that replace the file's (the command-line flags); they pass the same
    validation, and the config hash stays that of the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # ValueError: malformed JSON, bytes that are not UTF-8, or an integer
    # of more digits than int() converts; RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    source = os.path.basename(path)
    config = parse_config(raw, source=source)
    if not overrides:
        return config
    return replace(parse_config({**raw, **overrides}, source=source), raw=raw)


# ---------------------------------------------------------------------------
# scenario expansion


def _system_params(config, delta):
    values = dict(config.params)
    if config.detunings is not None:
        values["omega"] = values["omega0"] - delta
    try:
        return SystemParams(**values)
    except ParameterError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _jobs(config):
    """One job per detuning (models run inside the job so merged columns
    share one grid). Tags name the output files."""
    if config.detunings is None:
        return [("", _system_params(config, None))]
    return [(_file_tag(d), _system_params(config, d)) for d in config.detunings]


def _require_coupling(config, command):
    """g = 0 is the decoupled limit of the phenomenological model only: a
    command that needs the dressed spectrum (rates, or any with the
    microscopic model) rejects it before its output directory exists."""
    dressed = command == "rates" or "microscopic" in _models(config)
    if dressed and config.params["g"] == 0:
        raise ConfigError("params.g: the dressed spectrum requires g > 0")


def _models(config):
    if config.model == "both":
        return list(_MODELS)
    return [config.model]


def default_n_max(initial_state):
    kind = initial_state["kind"]
    if kind == "coherent":
        return default_coherent_n_max(initial_state["alpha"])
    if kind == "fock":
        return initial_state["n"] + 10
    return 8


def _resolve_n_max(config):
    if config.n_max is not None:
        return config.n_max
    return default_n_max(config.initial_state)


def build_initial_state(config, spec):
    init = config.initial_state
    kind = init["kind"]
    if kind == "fock":
        return fock_state(init["n"], _QUBIT_LEVELS[init["qubit_level"]], spec)
    if kind == "coherent":
        return coherent_state(init["alpha"], _QUBIT_LEVELS[init["qubit_level"]], spec)
    return single_excitation_state(init["alpha"], init["beta"], spec)


def _default_extent(initial_state):
    kind = initial_state["kind"]
    if kind == "coherent":
        return abs(initial_state["alpha"]) + 4.0
    if kind == "fock":
        return float(np.sqrt(initial_state["n"])) + 4.0
    return 5.0


# ---------------------------------------------------------------------------
# output helpers


# _write_csv formats and writes this many rows at a time
_CSV_ROWS = 1 << 12


def _write_csv(path, header, columns):
    """All cells as '%.17g': full round-trip precision, byte-stable.

    The rows go out in blocks of _CSV_ROWS, so the text held at once is
    that of one block, whatever the length of the series. In a block,
    each column goes through a float64 copy (integer columns too, whose
    text is unchanged below 2**53), each of its distinct values is
    formatted once, the text is placed by index, and the block is
    written by one string format. Values are told apart by bit pattern,
    so -0.0 and 0.0, and NaNs of different payloads, each keep their own
    text: the bytes are those of formatting every cell."""
    columns = [np.asarray(col) for col in columns]
    rows = min(len(col) for col in columns)
    row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _CSV_ROWS):
            stop = min(start + _CSV_ROWS, rows)
            cells = []
            for col in columns:
                values = np.array(col[start:stop], dtype=np.float64)
                distinct, where = np.unique(values.view(np.uint64), return_inverse=True)
                text = list(map("%.17g".__mod__, distinct.view(np.float64).tolist()))
                cells.append(np.array(text, dtype=object)[where])
            block = np.stack(cells, axis=1)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merge_invariants(summary, update):
    for key in ("trace_drift_max", "herm_defect_max", "top_population_max"):
        summary[key] = max(summary.get(key, 0.0), update[key])
    for key in ("min_eigenvalue", "uncertainty_product_min"):
        summary[key] = min(summary.get(key, np.inf), update[key])


# ---------------------------------------------------------------------------
# the runner loop


def _available_memory():
    """MemAvailable of /proc/meminfo in bytes, or None where there is none."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _digits(n):
    """A nonnegative int of any size: in full up to 15 digits, else its
    three leading digits and its exponent."""
    text = str(n)
    return text if len(text) <= 15 else f"{text[0]}.{text[1:3]}e+{len(text) - 1}"


def _allocations(config, command, spec):
    """(field, what, bytes) for the largest arrays of the command, from
    sizes the scenario fixes: one stack of states for every command, the
    oracle's stored and closed-form states, and a series run's snapshot
    states, Husimi grid, coherent-state table and stored series; and on
    the RK4 route of a command that propagates, the packed step matrices
    of the gaps its run with the most caches (_kernels.packed_entries per
    gap, rk4_gap_count gaps). Exact in Python ints, whatever the size of
    n_max."""
    state = 16 * spec.dim_total**2
    stack = stack_states(spec.dim_total, STACK_BYTES)
    at = f"at n_max {_digits(spec.n_max)}"
    points = _digits(config.n_points)
    yield "n_max", f"one stack of {stack} states {at}", stack * state
    if command == "oracle":
        yield ("n_points",
               f"the store of {points} numeric and as many closed-form states {at}",
               2 * config.n_points * state)
    if config.method == "rk4" and command in ("evolve", "husimi", "oracle"):
        # a linspace grid has the distinct spans of its first three times
        head = np.linspace(0.0, config.t_max, min(config.n_points, 3))
        grids = [head] if command == "oracle" or config.observables else []
        if command != "oracle" and config.husimi is not None:
            grids.append(np.asarray(config.husimi["times"], dtype=float))
        gaps = max(rk4_gap_count(times) for times in grids)
        yield ("method", f"the step blocks of {gaps} cached RK4 gap{'s' * (gaps != 1)} {at}",
               16 * gaps * packed_entries(spec.n_max))
    if command not in ("evolve", "husimi"):
        return
    models = len(_models(config))
    if config.husimi is not None:
        snaps = len(config.husimi["times"]) * models
        side = config.husimi["n_points"]
        grid = f"{_digits(side)} x {_digits(side)} grid"
        yield "husimi.times", f"the store of {snaps} snapshot states {at}", snaps * state
        yield "husimi.n_points", f"the {grid} of phase space", 16 * side**2
        yield ("husimi.n_points", f"the coherent-state table of the {grid} {at}",
               16 * side**2 * spec.dim_field)
    series = len(config.observables) * models
    yield ("n_points", f"the store of {series} series of {points} times",
           8 * series * config.n_points)


def _require_run_fits(config, command, spec):
    """ConfigError unless each of the command's _allocations fits in the
    available memory."""
    available = _available_memory()
    if available is None:
        return
    for field, what, needed in _allocations(config, command, spec):
        if needed > available:
            raise ConfigError(
                f"{field}: {what} takes {_digits(needed)} bytes, more than the "
                f"{_digits(available)} bytes of available memory"
            )


def _prepare(config, command):
    """Resolved truncation and space of a run; creates the output
    directory once the run's largest arrays are known to fit in memory.
    Callers build their _jobs first, so that a parameter out of range
    leaves no directory behind."""
    n_max = _resolve_n_max(config)
    spec = SpaceSpec(n_max=n_max)
    _require_run_fits(config, command, spec)
    os.makedirs(config.output, exist_ok=True)
    return n_max, spec


def _output_times(config):
    return np.linspace(0.0, config.t_max, config.n_points)


def _base_manifest(config, n_max, command):
    return {
        "command": command,
        "description": config.description,
        "config_sha256": config.sha256(),
        "version": __version__,
        "model": config.model,
        "method": config.method,
        "n_max": n_max,
        "t_max": config.t_max,
        "n_points": config.n_points,
        "seed": config.seed,
    }


def _job_entry(tag, params, **fields):
    return {"tag": tag or None, "delta": params.delta, "omega": params.omega,
            **fields}


def _run_jobs(config, command, job):
    """The loop of every command but oracle: job(config, tag, params,
    spec) -> (files, entry) once per detuning, collected into the
    command's manifest."""
    jobs = _jobs(config)
    _require_coupling(config, command)
    n_max, spec = _prepare(config, command)
    results = [job(config, tag, params, spec) for tag, params in jobs]
    manifest = _base_manifest(config, n_max, command)
    manifest["jobs"] = [entry for _, entry in results]
    manifest["files"] = sorted(name for files, _ in results for name in files)
    return manifest


def _write_manifest(config, manifest):
    """Write manifest.json (evolve) or <command>_manifest.json."""
    command = manifest["command"]
    name = "manifest.json" if command == "evolve" else f"{command}_manifest.json"
    _write_json(os.path.join(config.output, name), manifest)
    return manifest


# ---------------------------------------------------------------------------
# evolve and husimi


class _StateAudit:
    """Per-state physicality bookkeeping shared by all run modes."""

    def __init__(self, spec):
        self.spec = spec
        self.min_eigenvalue = np.inf
        self.uncertainty_product_min = np.inf

    def inspect(self, rho):
        """Fold a state, or a stack of states (..., dim, dim), into the
        smallest eigenvalue and quadrature uncertainty product seen.

        Once a minimum m is recorded, a stack is first offered to one
        batched Cholesky of rho - m*I. If every factor exists, no state
        of the stack lies below m by more than the factorisation's
        backward error (about dim*eps*||rho||), so the stack cannot
        lower the minimum and skips eigvalsh. Every other stack, the
        first included, takes eigvalsh. min_eigenvalue is thus the
        smallest eigenvalue of the stacks that could not be certified.
        Both read the lower triangle of rho only, so evolve's
        Hermiticity guard is the only place that conjugates a stack; it
        also refuses a non-finite state before evolve's observer sees it."""
        rho = np.asarray(rho)
        if not self._certified(rho):
            evals = np.linalg.eigvalsh(rho)
            self.min_eigenvalue = min(self.min_eigenvalue, float(evals[..., 0].min()))
        q_var, p_var = quadrature_variances(rho, self.spec)
        product = float(np.min(q_var * p_var))
        self.uncertainty_product_min = min(self.uncertainty_product_min, product)

    def _certified(self, rho):
        """True if a Cholesky factor of rho - m*I exists for every state."""
        m = self.min_eigenvalue
        if not np.isfinite(m):
            return False
        dim = rho.shape[-1]
        shifted = rho.copy()
        # rho - m*I by shifting the diagonal of a copy: a third of the cost
        # of subtracting m*np.eye(dim) from the whole stack
        shifted.reshape(-1, dim * dim)[:, :: dim + 1] -= m
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
        # the LAPACK factorisation passes NaN through instead of failing;
        # a NaN or inf in the lower triangle always reaches the diagonal
        return bool(np.isfinite(np.diagonal(factor, axis1=-2, axis2=-1)).all())


def _observed_run(liouvillian, state, times, method, observe):
    """Evolve one model in stacks, hand every chunk of output states to
    observe(i0, t_chunk, rho_stack) and audit it; returns the model's
    manifest entry."""
    audit = _StateAudit(liouvillian.spec)

    def observer(i0, tc, stack):
        observe(i0, tc, stack)
        audit.inspect(stack)

    result = evolve(liouvillian, state, times, method=method, observer=observer)
    diag = result.diagnostics
    return {
        "method": result.method,
        # always false since the spectral route refuses no generator; the
        # key stays because jcbench/checks.py reads it
        "fallback_to_rk4": False,
        "dt": diag.get("dt"),
        "steps_total": diag.get("steps_total"),
        "trace_drift_max": diag["trace_drift_max"],
        "herm_defect_max": diag["herm_defect_max"],
        "top_population_max": diag["top_population_max"],
        "min_eigenvalue": audit.min_eigenvalue,
        "uncertainty_product_min": audit.uncertainty_product_min,
    }


def _evolve_series(liouvillian, state, times, names, method):
    """One model, one grid: the requested observables at every time."""
    spec = liouvillian.spec
    values = {name: np.empty(times.size) for name in names}

    def observe(i0, tc, stack):
        for name in names:
            values[name][i0 : i0 + tc.size] = OBSERVABLES[name](stack, spec)

    return values, _observed_run(liouvillian, state, times, method, observe)


def _model_run(config, kind, params, spec, state, times):
    """Evolve one model of a job: its series values (None without
    observables), its snapshot states as (i0, t_chunk, stack) chunks, and
    its manifest entry. The Liouvillian lives only as long as this call."""
    liouvillian = build_liouvillian(kind, params, spec)
    values = model_entry = None
    snapshots = []
    if config.observables:
        values, model_entry = _evolve_series(
            liouvillian, state, times, config.observables, config.method
        )
    if config.husimi is not None:
        snap_times = np.asarray(config.husimi["times"])
        snap_entry = _observed_run(
            liouvillian, state, snap_times, config.method,
            lambda i0, tc, stack: snapshots.append((i0, tc, stack)),
        )
        if model_entry is None:
            model_entry = snap_entry
        else:
            _merge_invariants(model_entry, snap_entry)
    return values, snapshots, model_entry


def _run_lengths(config):
    """Output times of each run of one model: its series, its snapshots."""
    runs = [config.n_points] if config.observables else []
    if config.husimi is not None:
        runs.append(len(config.husimi["times"]))
    return runs


def _side_by_side(config, spec):
    """Whether a two-model job runs its models side by side: only when a
    run of one model (its series or its snapshots) takes more than one
    stack. With fewer output times only the models' set-up would
    overlap, and the two set-ups contend."""
    return (
        len(_models(config)) == 2
        and max(_run_lengths(config)) > stack_states(spec.dim_total, STACK_BYTES)
    )


def _run_models(models, run, side_by_side):
    """[run(kind) for kind in models]. Side by side, the second model runs
    on one worker thread while this thread runs the first; the worker is
    joined before anything is raised, and an error of the first model
    wins over one of the second, as it would in sequence."""
    if not side_by_side:
        return [run(kind) for kind in models]
    second = {}

    def work():
        try:
            second["result"] = run(models[1])
        except BaseException as exc:  # raised on this thread after the join
            second["error"] = exc

    worker = threading.Thread(target=work, name=f"jcdiss-{models[1]}")
    worker.start()
    try:
        first = run(models[0])
    finally:
        worker.join()
    if "error" in second:
        raise second["error"]
    return [first, second["result"]]


def _husimi_files(config, kind, tag, spec, snapshots):
    """Snapshot CSVs for one model's states at the requested times, and
    their manifest index."""
    block = config.husimi
    extent = block["extent"] or _default_extent(config.initial_state)
    grid = HusimiGridSpec(extent=extent, n_points=block["n_points"])
    xs, ys = (axis.ravel() for axis in np.meshgrid(*grid.axes()))
    files = []
    index = []
    for i0, tc, stack in snapshots:
        maps = husimi_q(stack, spec, grid)
        for i, t, phase_grid in zip(range(i0, i0 + tc.size), tc, maps):
            name = f"husimi_{kind}{tag}_t{i}.csv"
            _write_csv(
                os.path.join(config.output, name),
                ["re_alpha", "im_alpha", "q"],
                [xs, ys, phase_grid.values.ravel()],
            )
            files.append(name)
            index.append({"file": name, "gt": t, "mass": phase_grid.mass})
    return files, index


def _run_evolve_job(config, tag, params, spec):
    """The models of a job run side by side or in sequence
    (_side_by_side, _run_models); the Husimi maps, their warnings and
    every write follow on this thread in model order, microscopic first."""
    times = _output_times(config)
    psi0 = build_initial_state(config, spec)
    models = _models(config)
    runs = _run_models(
        models,
        lambda kind: _model_run(config, kind, params, spec, psi0, times),
        _side_by_side(config, spec),
    )
    files = []
    entry = _job_entry(tag, params, models={})
    for kind, (_, snapshots, model_entry) in zip(models, runs):
        entry["models"][kind] = model_entry
        if config.husimi is not None:
            snap_files, model_entry["husimi"] = _husimi_files(
                config, kind, tag, spec, snapshots
            )
            files.extend(snap_files)

    # one column per model, microscopic first
    header = ["gt", "value", "value_phenomenological"][: 1 + len(models)]
    for name in config.observables:
        csv_name = f"{name}{tag}.csv"
        columns = [times] + [values[name] for values, _, _ in runs]
        _write_csv(os.path.join(config.output, csv_name), header, columns)
        files.append(csv_name)

    entry["files"] = sorted(files)
    return files, entry


def _run_evolve(config, command):
    """Every series and snapshot the scenario declares; the manifest
    also folds the invariants of every model of every job."""
    manifest = _run_jobs(config, command, _run_evolve_job)
    invariants = {}
    for entry in manifest["jobs"]:
        for model_entry in entry["models"].values():
            _merge_invariants(invariants, model_entry)
    manifest["invariants"] = invariants
    return _write_manifest(config, manifest)


def run_scenario(config):
    """Run every series and snapshot the scenario declares and write
    manifest.json; returns the manifest dict."""
    if not config.observables and config.husimi is None:
        raise ConfigError(
            "observables: nothing to do (no observables and no snapshot block)"
        )
    return _run_evolve(config, "evolve")


def run_husimi(config):
    """The scenario's phase-space snapshots only, with
    husimi_manifest.json."""
    if config.husimi is None:
        raise ConfigError("husimi: snapshot block missing from the scenario")
    return _run_evolve(replace(config, observables=()), "husimi")


# ---------------------------------------------------------------------------
# steady


def _steady_job(config, tag, params, spec):
    entry = _job_entry(tag, params, models={})
    files = []
    ks = np.arange(spec.dim_total)
    for kind in _models(config):
        rho = steady_state(build_liouvillian(kind, params, spec))
        name = f"steady_{kind}{tag}.csv"
        _write_csv(
            os.path.join(config.output, name),
            ["k", "fock_n", "qubit", "population"],
            [ks, ks // 2, ks % 2, np.real(np.diag(rho))],
        )
        files.append(name)
        values = {
            obs: float(OBSERVABLES[obs](rho, spec)) for obs in config.observables
        }
        entry["models"][kind] = {"file": name, "observables": values}
    entry["files"] = sorted(files)
    return files, entry


def run_steady(config):
    return _write_manifest(config, _run_jobs(config, "steady", _steady_job))


# ---------------------------------------------------------------------------
# oracle


def _oracle_trials(config):
    init = config.initial_state
    trials = [SingleExcitationAmplitudes(init["alpha"], init["beta"])]
    rng = np.random.default_rng(config.seed)
    for _ in range(config.oracle["n_trials"]):
        v = rng.normal(size=4)
        v = v / np.linalg.norm(v)
        trials.append(
            SingleExcitationAmplitudes(complex(v[0], v[1]), complex(v[2], v[3]))
        )
    return trials


def compare_analytic(config):
    """Propagate single-excitation scenarios numerically and compare with
    the closed-form solutions; the report carries the worst trace
    distance and the worst entrywise |difference| per model. Either one
    above the tolerance raises OracleMismatchError after the report so
    far is written. trace_distance reads one triangle of each state, so
    the entrywise bound is what sees the other.
    """
    init = config.initial_state
    if init["kind"] != "single_excitation":
        raise ConfigError(
            "initial_state.kind: the oracle comparison needs a "
            "single_excitation initial state"
        )
    # the ranges first, so that a negative nbar_at_omega is reported as such
    jobs = _jobs(config)
    _require_coupling(config, "oracle")
    if config.params["nbar_at_omega"]:
        raise ConfigError(
            "params.nbar_at_omega: the closed forms hold at zero temperature only"
        )
    n_max, spec = _prepare(config, "oracle")
    times = _output_times(config)
    out = config.output
    trials = _oracle_trials(config)
    analytic_for = {
        "microscopic": analytic_microscopic,
        "phenomenological": analytic_phenomenological,
    }

    report = _base_manifest(config, n_max, "oracle")
    report["tolerance"] = _ORACLE_TOL
    report["n_trials"] = len(trials)
    report["runs"] = []
    worst = {kind: 0.0 for kind in _models(config)}
    worst_entry = dict(worst)

    for tag, params in jobs:
        for kind in _models(config):
            liouvillian = build_liouvillian(kind, params, spec)
            for trial, amps in enumerate(trials):
                psi0 = single_excitation_state(amps.alpha, amps.beta, spec)
                numeric = evolve(liouvillian, psi0, times, method=config.method)
                closed = analytic_for[kind](params, amps, times, spec)
                dists = trace_distance(numeric.states, closed)
                entry_error = float(np.abs(numeric.states - closed).max())
                run_entry = {
                    "model": kind,
                    "delta": params.delta,
                    "trial": trial,
                    "max_trace_distance": float(dists.max()),
                    "max_entry_error": entry_error,
                }
                worst[kind] = max(worst[kind], float(dists.max()))
                worst_entry[kind] = max(worst_entry[kind], entry_error)
                report["runs"].append(run_entry)
                if dists.max() > _ORACLE_TOL or entry_error > _ORACLE_TOL:
                    report["worst_trace_distance"] = worst
                    report["worst_entry_error"] = worst_entry
                    _write_json(os.path.join(out, "oracle_report.json"), report)
                    raise OracleMismatchError(
                        f"{kind} delta={params.delta:g} trial {trial}: "
                        f"trace distance {dists.max():.3e}, entry error "
                        f"{entry_error:.3e}; the bound is {_ORACLE_TOL:.0e}"
                    )

    report["worst_trace_distance"] = worst
    report["worst_entry_error"] = worst_entry
    report["passed"] = True
    report["files"] = ["oracle_report.json"]
    _write_json(os.path.join(out, "oracle_report.json"), report)
    return report


# ---------------------------------------------------------------------------
# rates


def _rates_job(config, tag, params, spec):
    table = build_rate_table(params, dressed_spectrum(params, spec))
    columns = rate_table_columns(table)
    name = f"rates{tag}.csv"
    _write_csv(os.path.join(config.output, name), list(columns), list(columns.values()))
    entry = _job_entry(tag, params, kT=table.kT, n_ladder=table.n_ladder, file=name)
    return [name], entry


def run_rates(config):
    return _write_manifest(config, _run_jobs(config, "rates", _rates_job))


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jcdiss",
        description="Scenario runner for the damped qubit-cavity simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "run the scenario's time series and snapshots"),
        ("steady", "export the stationary state"),
        ("husimi", "export phase-space snapshots only"),
        ("oracle", "compare numerics against the closed forms"),
        ("rates", "export the transition-rate table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="scenario JSON file")
        cmd.add_argument("--out", help="output directory (overrides the scenario)")
        cmd.add_argument("--method", choices=_SCHEMA["method"].choices,
                         help="propagation method override")
        cmd.add_argument("--nmax", type=int, help="truncation override")
    return parser


_RUNNERS = {
    "evolve": run_scenario,
    "steady": run_steady,
    "husimi": run_husimi,
    "oracle": compare_analytic,
    "rates": run_rates,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    flags = {"output": args.out, "method": args.method, "n_max": args.nmax}
    overrides = {key: value for key, value in flags.items() if value is not None}
    # freed stacks stay in the process for the next one to reuse, instead
    # of going back to the kernel and faulting in again
    keep_freed_memory()
    try:
        config = load_config(args.config, overrides)
        # every BLAS call on the thread that makes it: outputs that do not
        # depend on the thread count, and no pool spinning beside a model's
        # worker thread
        with one_thread():
            manifest = _RUNNERS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4
    except PhysicsGuardError as exc:
        print(f"physics guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except JcdissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = manifest.get("files") or []
    print(f"{args.command}: wrote {len(out)} data file(s)")
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

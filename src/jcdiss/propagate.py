"""Time evolution, steady states, and closed-form single-excitation solutions.

Two propagation routes are provided and kept deliberately independent so
they can cross-check each other:

* spectral: exact matrix-exponential steps over the output grid, with
  no eigenvectors. The microscopic generator is propagated in the
  dressed frame, where dressed populations follow a dim x dim rate
  matrix and every dressed coherence decays on its own
  (lindblad.DressedSplit). Any other generator is split into the sectors
  of fixed excitation difference k = N_row - N_col of its rotating-frame
  superoperator, and the sectors k >= 0 are stepped; sector -k is their
  adjoint. The rate matrix and the sectors go through one stepper
  (_Stepper), and
* rk4: classical fixed-step fourth-order integration of the same
  dense sectors, of either generator, in the frame rotating at the
  cavity frequency where the step-size requirement is set by the
  coupling and detuning scales instead of the optical frequency. Each
  step applies the RK4 step polynomial P(h) of every sector k >= 0,
  built once per distinct span of the output grid (_spans; one on a
  uniform grid); a gap of n steps is one product with P(h)^n from its
  first call if its steps cost more than that power, and from its
  second call otherwise (_kernels.RK4Source).

Both routes take their sectors from spectral_decomposition, which sums
the generator's COO triplets (lindblad.superoperator_triplets) into
dense blocks with numpy; no route needs scipy. Both start from the
state at t = 0. The sector values of rk4, and of the spectral route of
a generator without a DressedSplit, go through
SpectralDecomposition.propagate_vec (_sector_stacks), the one place
that applies their frame phases and assembles lab-frame states from
them.

Each route is a source of stacks of lab-frame states, and evolve runs
one loop over the source it picks: guards, then store or observe.

The closed-form solutions cover the single-excitation sector at zero
temperature for both generators and serve as first-principles oracles.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DefectiveLiouvillianError,
    DegenerateKernelError,
    DimensionError,
    DomainError,
    DriftError,
    ParameterError,
    TruncationError,
)
from .hilbert import QUBIT_E, QUBIT_G, hermiticity_defect
from .dressed import dressed_spectrum, dressed_vector, ground_vector
from .lindblad import sector_labels, superoperator_triplets, unvec, vec
from . import _kernels


def _as_density(state, dim):
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if state.shape[0] != dim:
            raise DimensionError(f"state length {state.shape[0]}, expected {dim}")
        return np.outer(state, state.conj())
    if state.shape != (dim, dim):
        raise DimensionError(f"state shape {state.shape}, expected ({dim}, {dim})")
    rho = np.array(state, dtype=complex)
    if hermiticity_defect(rho) > 1e-10:
        raise DomainError("initial state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise DomainError("initial state does not have unit trace")
    return rho


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1d array")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ParameterError("times must be nonnegative and nondecreasing")
    return times


@dataclass
class EvolutionResult:
    """Output of evolve: sampled times, optional states, and diagnostics.

    states has shape (n_times, dim, dim) when evolve was given no
    observer, and is None otherwise. diagnostics records the trace drift
    and hermiticity defect maxima of the states as handed out, the
    largest combined population seen in the top two Fock levels, and
    rk4's dt and steps_total (dt is None on the spectral route).
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    method: str
    diagnostics: dict = field(default_factory=dict)


# largest population the truncation guard lets the top two Fock levels hold
TRUNCATION_TOL = 1e-6
# largest trace drift and Hermiticity defect the guards let a state have
DRIFT_TOL = 1e-7
# steady_state: bound on ||L[rho]||_F, and the kernel gap in units of gamma
STEADY_RESIDUAL_TOL = 1e-9
DEGENERACY_RATIO = 1e-8

# byte budget of one stack of states evaluated and checked together
STACK_BYTES = 2 << 20
# a uniform grid is stepped in whole groups of this many output times
_TIME_GROUP = 8
# a grid is uniform when every time is within this many ulps of t0 + i h
_GRID_ULPS = 8
# [13/13] Pade coefficients b_j = (26 - j)! / (j! (13 - j)!) and the largest
# 1-norm that approximant takes unscaled (Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005))
_PADE13 = [
    math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j)) for j in range(14)
]
_THETA13 = 5.371920351148152


def _expm(a):
    """exp(a) by scaling and squaring of the [13/13] Pade approximant,
    on numpy's BLAS only, so that a jcdiss process maps no scipy LAPACK.
    The tests hold this function to scipy.linalg.expm."""
    norm = np.abs(a).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    e = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        e = e @ e
    return e


def _grid_step(times):
    """Step h of a uniform grid, whose every time is within a few ulps of
    t0 + i h (linspace makes them so), or None for any other grid."""
    n = times.size
    if n < 2 or times[-1] == times[0]:
        return None
    h = (times[-1] - times[0]) / (n - 1)
    off = np.abs(times - (times[0] + h * np.arange(n))).max()
    return h if off <= _GRID_ULPS * np.spacing(times[-1]) else None


class _Stepper:
    """v(t) = expm(gen t) v0 at consecutive output times, handed out in
    order by take(count); no eigenvectors are needed.

    On a uniform grid of step h (see _grid_step) the times come in groups
    of _TIME_GROUP: the first group is stepped column by column with
    expm(gen h), and every later one is expm(gen _TIME_GROUP h) times the
    one before, one product of fixed width. Any other grid is stepped
    from one output time to the next with one expm per distinct gap.
    Either way a state is bit-identical whatever counts it is taken in.

    exps memoises expm(gen span) by span. It belongs to the owner of gen
    (SpectralDecomposition.exps[k] for sector k, DressedSplit.exps for
    the population rates), so every stepper on gen shares it: a second
    evolve on the same grid takes no expm.
    """

    def __init__(self, gen, v0, times, exps):
        self.gen = gen
        self.exps = exps
        self.times = times
        self.step = step = _grid_step(times)
        self.taken = 0
        self.dtype = np.result_type(gen, v0)
        v = self._exp(times[0]) @ v0 if times[0] > 0 else v0
        if step is None:
            self.v = v
            return
        unit = self._exp(step)
        self.group = np.zeros((v.size, _TIME_GROUP), self.dtype)
        self.group[:, 0] = v
        for c in range(1, min(_TIME_GROUP, times.size)):
            self.group[:, c] = unit @ self.group[:, c - 1]
        self.index = 0
        if times.size > _TIME_GROUP:
            self.jump = self._exp(_TIME_GROUP * step)

    def _exp(self, span):
        e = self.exps.get(span)
        if e is None:
            e = self.exps[span] = _expm(self.gen * span)
        return e

    def take(self, count):
        """The next count states, as the columns of a new array."""
        start, stop = self.taken, self.taken + count
        self.taken = stop
        if self.step is None:
            out = np.empty((self.v.size, count), self.dtype)
            for i in range(start, stop):
                if i > 0:
                    self.v = self._exp(self.times[i] - self.times[i - 1]) @ self.v
                out[:, i - start] = self.v
            return out
        parts = []
        i = start
        while i < stop:
            j, c = divmod(i, _TIME_GROUP)
            if j > self.index:
                self.group = self.jump @ self.group
                self.index = j
            n = min(_TIME_GROUP - c, stop - i)
            parts.append(self.group[:, c : c + n])
            i += n
        return np.concatenate(parts, axis=1)


@dataclass
class SpectralDecomposition:
    """Sectors k = N_row - N_col >= 0 of the rotating-frame generator.

    blocks holds one (indices, k, matrix) per sector, in ascending k from
    0: the vec indices r + c*dim of its entries rho[r, c], ascending, and
    the dense sector of the rotating-frame generator on them. Sector -k
    is the adjoint of sector k, so its entries are the conjugates of
    their transposes and are not stepped. The spectral route of the
    phenomenological generator exponentiates the blocks, and RK4 steps
    them (_kernels.RK4Source) on either generator. The names
    SpectralDecomposition, blocks, _decomp, spectral_decomposition and
    propagate_vec stay for jcbench/tracer.py, which times and counts
    these sites.
    """

    dim: int
    omega: float
    blocks: list
    # sector k -> _Stepper's memo of expm(matrix span) by span
    exps: dict = field(default_factory=dict, repr=False)
    # where each entry of a state comes from in propagate_vec's source row
    # [values of every sector | conjugates of those of k > 0], by C-order
    # flat index; and the sector k of each value of k > 0
    gather: np.ndarray = field(init=False, repr=False)
    orders: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.dim
        idx = np.concatenate([block[0] for block in self.blocks])
        sizes = [block[0].size for block in self.blocks]
        self.orders = np.repeat([k for _, k, _ in self.blocks[1:]], sizes[1:])
        self.gather = np.empty(dim * dim, dtype=np.intp)
        # vec index r + c*dim is the C-order flat index of rho[c, r]
        self.gather[(idx % dim) * dim + idx // dim] = np.arange(idx.size)
        self.gather[idx[sizes[0]:]] = idx.size + np.arange(self.orders.size)

    def propagate_vec(self, steppers, times):
        """The next len(times) states of the steppers, a stack of shape
        (len(times), dim, dim) in the lab frame: sector k takes its frame
        phase exp(-i omega k t) at each time t, and one gather places
        every entry."""
        n = times.size
        upper = self.orders.size  # values of the sectors k > 0
        total = self.gather.size - upper  # values of every sector
        source = np.empty((n, total + upper), dtype=complex)
        source[:, :total] = np.concatenate([s.take(n) for s in steppers]).T
        frequencies = self.omega * np.arange(len(self.blocks))
        values = source[:, total - upper : total]
        values *= np.exp(np.outer(times, -1j * frequencies))[:, self.orders]
        np.conjugate(values, out=source[:, total:])
        return source.take(self.gather, axis=1).reshape(n, self.dim, self.dim)


def spectral_decomposition(liouvillian):
    """Split the rotating-frame generator into its sectors k >= 0; cached
    on the Liouvillian.

    H conserves the excitation number N and every jump moves it by one
    on both sides of rho, so k = N_row - N_col is conserved and the
    split is exact. Each sector is summed straight from the generator's
    COO triplets, plus the frame shift i omega k on its diagonal, by one
    np.bincount over the sectors' concatenated entries: coinciding
    triplets add up in their order, and the shift comes last.
    """
    cached = getattr(liouvillian, "_decomp", None)
    if cached is not None:
        return cached
    sector = sector_labels(liouvillian.spec)
    omega = float(liouvillian.params.omega)
    # the stable sort keeps each sector's indices ascending
    order = np.argsort(sector, kind="stable")
    order = order[sector[order] >= 0]
    bounds = np.searchsorted(sector[order], np.arange(sector.max() + 2))
    sizes = np.diff(bounds)
    offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
    # the place of each vec index within its sector
    place = np.empty(sector.size, dtype=np.intp)
    place[order] = np.arange(order.size) - np.repeat(bounds[:-1], sizes)
    rows, cols, vals = superoperator_triplets(liouvillian.hamiltonian, liouvillian.channels)
    rows = np.concatenate([rows, order])
    cols = np.concatenate([cols, order])
    vals = np.concatenate([vals, 1j * omega * sector[order]])
    label = sector[rows]
    keep = (label >= 0) & (label == sector[cols])
    rows, cols, vals, label = rows[keep], cols[keep], vals[keep], label[keep]
    flat = offsets[label] + place[rows] * sizes[label] + place[cols]
    entries = np.empty(offsets[-1], dtype=complex)
    entries.real = np.bincount(flat, weights=vals.real, minlength=offsets[-1])
    entries.imag = np.bincount(flat, weights=vals.imag, minlength=offsets[-1])
    blocks = [
        (order[start:stop], k, entries[offsets[k] : offsets[k + 1]].reshape(stop - start, -1))
        for k, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    decomp = SpectralDecomposition(dim=liouvillian.dim, omega=omega, blocks=blocks)
    liouvillian._decomp = decomp
    return decomp


def _top_indices(spec):
    """Basis indices of the top two Fock levels, in summation order."""
    return [
        spec.index(level, s)
        for level in (spec.n_max, spec.n_max - 1)
        for s in (QUBIT_G, QUBIT_E)
    ]


class _StackGuards:
    """The guards of every route's stacks, with the running maxima of trace
    drift, Hermiticity defect and top-of-ladder population evolve reports."""

    def __init__(self, spec, truncation_guard):
        self.top_idx = _top_indices(spec)
        self.truncation_guard = truncation_guard
        self.drift_max = 0.0
        self.herm_max = 0.0
        self.top_max = 0.0

    def check(self, stack, tc):
        """Fold the stack into the running maxima, or raise at its earliest
        failing state: DriftError when the trace drift |Re tr - 1| + |Im tr|
        or the Hermiticity defect is not within DRIFT_TOL (a non-finite
        state never is), TruncationError when the top two Fock levels hold
        more than TRUNCATION_TOL. DriftError wins at one state."""
        tr = np.trace(stack, axis1=1, axis2=2)
        drift = np.abs(tr.real - 1.0) + np.abs(tr.imag)
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN defect
            herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        top = stack[:, self.top_idx, self.top_idx].real.sum(axis=1)
        drifted = ~((drift <= DRIFT_TOL) & (herm <= DRIFT_TOL))
        failed = (drifted | (top > TRUNCATION_TOL)) if self.truncation_guard else drifted
        if failed.any():
            k = int(np.argmax(failed))
            if drifted[k]:
                raise DriftError(
                    f"trace drift {drift[k]:.3e}, hermiticity defect {herm[k]:.3e} "
                    f"at t={tc[k]:.6g} (tolerance {DRIFT_TOL:.1e})"
                )
            raise TruncationError(
                f"top two Fock levels hold {top[k]:.3e} population at "
                f"t={tc[k]:.6g}; raise n_max (tolerance {TRUNCATION_TOL:.1e})"
            )
        self.drift_max = max(self.drift_max, float(drift.max()))
        self.herm_max = max(self.herm_max, float(herm.max()))
        self.top_max = max(self.top_max, float(top.max()))

    def diagnostics(self):
        return {
            "trace_drift_max": self.drift_max,
            "herm_defect_max": self.herm_max,
            "top_population_max": self.top_max,
        }


def stack_states(dim, stack_bytes):
    """How many dim x dim states evolve puts in a stack of about
    stack_bytes: whole time groups, so that every stack starts a group of
    _Stepper."""
    return max(1, stack_bytes // (16 * dim * dim) // _TIME_GROUP) * _TIME_GROUP


def evolve(
    liouvillian,
    state,
    times,
    method="spectral",
    observer: Optional[Callable] = None,
    truncation_guard=True,
    chunk=None,
):
    """Propagate a state through the generator and sample it at times.

    method "spectral" (_dressed_stacks, or _sector_stacks on _Steppers
    for a generator without a DressedSplit) or "rk4" (_sector_stacks on
    an RK4Source) makes stacks of
    `chunk` states, by default as many as fit in STACK_BYTES. Each stack
    passes the guards of _StackGuards (DriftError beyond DRIFT_TOL,
    TruncationError beyond TRUNCATION_TOL unless truncation_guard is
    off), then is stored, or handed to observer(i0, t_chunk, rho_stack):
    rho_stack[k] is the state at t_chunk[k], the (i0 + k)-th output time.
    """
    times = _check_times(times)
    rho0 = _as_density(state, liouvillian.dim)
    dim = liouvillian.dim
    if chunk is None:
        chunk = stack_states(dim, STACK_BYTES)
    if method == "spectral":
        stepping = {"dt": None}
        if getattr(liouvillian, "dressed", None) is not None:
            stacks = _dressed_stacks(liouvillian, rho0, times, chunk)
        else:
            decomp = spectral_decomposition(liouvillian)
            v0 = vec(rho0)
            sources = [
                _Stepper(matrix, v0[idx], times, decomp.exps.setdefault(k, {}))
                for idx, k, matrix in decomp.blocks
            ]
            stacks = _sector_stacks(decomp, sources, times, chunk)
    elif method == "rk4":
        dt = default_time_step(liouvillian)
        gaps = _rk4_gaps(times, dt)
        stepping = {"dt": dt, "steps_total": sum(n for _, n in gaps)}
        decomp = spectral_decomposition(liouvillian)
        sources = [_kernels.RK4Source(decomp, vec(rho0), gaps)]
        stacks = _sector_stacks(decomp, sources, times, chunk)
    else:
        raise ParameterError(f"unknown method {method!r}")
    guards = _StackGuards(liouvillian.spec, truncation_guard)
    states = np.empty((times.size, dim, dim), complex) if observer is None else None
    for start, tc, stack in stacks:
        guards.check(stack, tc)
        if observer is None:
            states[start : start + tc.size] = stack
        else:
            observer(start, tc, stack)
    return EvolutionResult(
        times=times,
        states=states,
        method=method,
        diagnostics={**guards.diagnostics(), **stepping},
    )


def _sector_stacks(decomp, sources, times, chunk):
    """(start, t_chunk, stack) from sources of the values of the sectors
    of decomp: one _Stepper per sector, or one RK4Source for them all."""
    for start in range(0, times.size, chunk):
        tc = times[start : start + chunk]
        yield start, tc, decomp.propagate_vec(sources, tc)


def _dressed_stacks(liouvillian, rho0, times, chunk):
    """(start, t_chunk, stack) in the dressed frame.

    The populations of U^T rho0 U are stepped by a _Stepper on the rate
    matrix, which needs no eigenvectors (those of the T = 0 cascade are
    binomial and ill-conditioned). Each coherence rho~_jk(0) is carried by
    a_j conj(a_k) and by the frame phase exp(-i omega (N_j - N_k) t),
    where a_j = exp((-i eps_j - decay_j / 2) t) with eps_j = E_j -
    omega (N_j - 1/2) the level's small energy in the frame rotating at
    omega: dim + 2 N_max + 1 exponentials per time, and no phase of
    order omega t is rounded per level. The stack is turned back by the
    2x2 pair rotations of U. Every state is computed the same way
    whatever the chunk.
    """
    split = liouvillian.dressed
    omega = liouvillian.params.omega
    exc = liouvillian.spec.excitations()
    tilde0 = split.to_dressed(rho0)
    dim = tilde0.shape[0]
    diag = np.arange(dim)
    populations = _Stepper(split.rates, tilde0[diag, diag].real, times, split.exps)
    tilde0[diag, diag] = 0.0
    level = -1j * (split.energies - omega * (exc - 0.5)) - 0.5 * split.decay
    orders = omega * np.arange(-exc.max(), exc.max() + 1)
    shift = exc[:, None] - exc[None, :] + exc.max()
    for start in range(0, times.size, chunk):
        tc = times[start : start + chunk]
        a = np.exp(tc[:, None] * level)
        stack = a[:, :, None] * tilde0
        stack *= a.conj()[:, None, :]
        stack[:, diag, diag] = populations.take(tc.size).T
        stack *= np.exp(-1j * np.outer(tc, orders))[:, shift]
        # rebinding frees the dressed stack before the caller sees the state
        stack = split.to_bare(stack)
        yield start, tc, stack


def default_time_step(liouvillian):
    """RK4 step in the rotating frame: 0.005 / f, where f is the in-frame
    spectral width of H - omega N plus the largest decay rate, which is
    what the integrator actually has to resolve there (detuning,
    coupling, decay)."""
    h = liouvillian.hamiltonian
    dim = h.shape[0]
    h_frame = np.array(h, dtype=complex)
    exc = liouvillian.spec.excitations()
    h_frame[np.diag_indices(dim)] -= liouvillian.params.omega * exc
    evals = np.linalg.eigvalsh(0.5 * (h_frame + h_frame.conj().T))
    spread = float(evals.max() - evals.min()) if dim > 1 else 0.0
    # the decay rate of basis state c, the diagonal entry c of
    # sum_k rate_k J_k^dag J_k, is sum_k rate_k sum_r |J_k[r, c]|^2
    channels = liouvillian.channels
    decay = float(np.max(sum(rate * (np.abs(j) ** 2).sum(axis=0) for rate, j in channels)))
    return 0.005 / max(spread + decay, 1e-9)


def _spans(times):
    """The span from the time before to each output time, from t = 0 to
    the first: on a uniform grid (_grid_step) every later span is its
    step h, so that the grid has one; else the exact differences."""
    spans = np.diff(times, prepend=0.0)
    step = _grid_step(times)
    if step is not None:
        spans[1:] = step
    return spans


def rk4_gap_count(times):
    """The gaps an RK4 run on times caches: its distinct nonzero spans
    (_spans), at most _kernels._MAX_GAPS."""
    spans = _spans(times)
    return min(_kernels._MAX_GAPS, np.unique(spans[spans > 0]).size)


def _rk4_gaps(times, dt):
    """(h, n) per output time: n equal RK4 steps of size h no longer than
    dt cross its span (_spans); n = 0 at t = 0 and at a repeated time."""
    gaps = []
    for span in _spans(times):
        n = max(1, math.ceil(span / dt - 1e-12)) if span > 0 else 0
        gaps.append((span / n if n else 0.0, n))
    return gaps


def steady_state(liouvillian):
    """Unique stationary state of the generator.

    The kernel is located among the generator's eigenvalues: those of
    the DressedSplit's population rates and coherence rates when the
    generator has one, those of every sector k and -k of
    spectral_decomposition otherwise, in the lab frame; the kernel
    vector comes from the sector k = 0. The second smallest eigenvalue
    magnitude must clear
    DEGENERACY_RATIO * gamma or DegenerateKernelError is raised (a
    degenerate kernel means the stationary state is not unique, e.g. at
    g = 0 where the qubit decouples). The returned state is Hermitized,
    normalized, and checked to satisfy ||L[rho]||_F < STEADY_RESIDUAL_TOL.
    """
    dim = liouvillian.dim
    gamma = getattr(liouvillian.params, "gamma", 0.0)
    split = getattr(liouvillian, "dressed", None)
    if split is not None:
        w, vmat = np.linalg.eig(split.rates)
        coherences = split.coherence_rates()[~np.eye(dim, dtype=bool)]
        k = _kernel_index(np.abs(np.concatenate([w, coherences])), gamma)
        # a coherence kernel would be traceless, rejected below
        p = vmat[:, k] if k < dim else np.zeros(dim)
        rho = split.to_bare(np.diag(p).astype(complex))
    else:
        decomp = spectral_decomposition(liouvillian)
        (idx, _, sector0), others = decomp.blocks[0], decomp.blocks[1:]
        w, vmat = np.linalg.eig(sector0)
        # sector -k has the conjugate eigenvalues of sector k
        shifted = [np.abs(np.linalg.eigvals(m) - 1j * decomp.omega * k) for _, k, m in others]
        k = _kernel_index(np.abs(np.concatenate([w] + shifted + shifted)), gamma)
        v = np.zeros(dim * dim, dtype=complex)
        # a kernel outside sector 0 would be traceless, rejected below
        if k < w.size:
            v[idx] = vmat[:, k]
        rho = unvec(v, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise DegenerateKernelError("kernel vector is traceless; no physical stationary state")
    rho /= tr
    resid = np.linalg.norm(liouvillian.apply(rho))
    if resid > STEADY_RESIDUAL_TOL:
        raise DefectiveLiouvillianError(
            f"stationary-state residual ||L[rho]||_F = {resid:.3e} exceeds "
            f"{STEADY_RESIDUAL_TOL:.1e}"
        )
    return rho


def _kernel_index(mags, gamma):
    """Index of the one eigenvalue magnitude in mags within
    DEGENERACY_RATIO * gamma of zero (the largest magnitude stands in for
    gamma when it is 0); DegenerateKernelError if there is none or more
    than one."""
    order = np.argsort(mags, kind="stable")
    m0, m1 = mags[order[0]], mags[order[1]]
    scale = gamma if gamma > 0 else mags.max() or 1.0
    thresh = DEGENERACY_RATIO * scale
    if m1 <= thresh:
        raise DegenerateKernelError(
            f"two eigenvalues within {thresh:.3e} of zero "
            f"(|w0|={m0:.3e}, |w1|={m1:.3e}): stationary state is not unique"
        )
    if m0 > thresh:
        raise DegenerateKernelError(
            f"no eigenvalue near zero (smallest |w| = {m0:.3e}); "
            "the generator has no stationary state in this representation"
        )
    return order[0]


@dataclass(frozen=True)
class SingleExcitationAmplitudes:
    """Initial amplitudes alpha on |0,e> and beta on |1,g> (unit norm)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"|alpha|^2 + |beta|^2 = {norm!r}, expected 1")


def analytic_microscopic(params, amps, times, spec):
    """Closed-form dressed-generator evolution in the single-excitation
    sector at zero temperature.

    The initial state alpha|0,e> + beta|1,g> decomposes onto the n = 0
    dressed doublet with amplitudes A+ = c0 alpha + s0 beta and
    A- = -s0 alpha + c0 beta. Each dressed population decays at the rate
    of its own emission channel (gamma s0^2 for the upper, gamma c0^2 for
    the lower state), the doublet coherence decays at their mean gamma/2
    while precessing at the splitting, and the lost population lands in
    the ground state without generating coherences to it.
    """
    if params.nbar_at_omega != 0:
        raise DomainError("closed-form solution requires zero temperature")
    times = _check_times(times)
    spectrum = dressed_spectrum(params, spec)
    c0, s0 = spectrum.c[0], spectrum.s[0]
    om0 = spectrum.Omega[0]
    gamma = params.gamma
    ap = c0 * amps.alpha + s0 * amps.beta
    am = -s0 * amps.alpha + c0 * amps.beta

    e0 = ground_vector(spec)
    ep = dressed_vector(spectrum, spec, 0, +1)
    em = dressed_vector(spectrum, spec, 0, -1)
    p00 = np.outer(e0, e0.conj())
    ppp = np.outer(ep, ep.conj())
    pmm = np.outer(em, em.conj())
    ppm = np.outer(ep, em.conj())

    # one value per time, broadcast against the dim x dim projectors
    t = times[:, None, None]
    pp = abs(ap) ** 2 * np.exp(-gamma * s0 ** 2 * t)
    pm = abs(am) ** 2 * np.exp(-gamma * c0 ** 2 * t)
    coh = ap * np.conj(am) * np.exp((-1j * om0 - 0.5 * gamma) * t)
    states = (1.0 - pp - pm) * p00 + pp * ppp + pm * pmm
    states += coh * ppm + np.conj(coh) * ppm.conj().T
    return states


def analytic_phenomenological(params, amps, times, spec):
    """Closed-form bare-damping evolution in the single-excitation sector
    at zero temperature.

    The sector amplitudes follow a 2x2 non-Hermitian Hamiltonian whose
    traceless part has complex Rabi frequency nu = sqrt(mu^2 + g^2) with
    mu = delta/2 + i gamma/4; the population lost from the sector
    accumulates in |0,g>.
    """
    if params.nbar_at_omega != 0:
        raise DomainError("closed-form solution requires zero temperature")
    times = _check_times(times)
    lam = 0.5 * params.omega - 0.25j * params.gamma
    mu = 0.5 * params.delta + 0.25j * params.gamma
    nu = np.sqrt(mu * mu + params.g * params.g + 0j)

    alpha, beta = complex(amps.alpha), complex(amps.beta)
    ke = np.zeros(spec.dim_total, dtype=complex)
    ke[spec.index(0, QUBIT_E)] = 1.0
    kg1 = np.zeros(spec.dim_total, dtype=complex)
    kg1[spec.index(1, QUBIT_G)] = 1.0
    vac = ground_vector(spec)
    pvac = np.outer(vac, vac.conj())

    nut = nu * times
    cosnt = np.cos(nut)
    # sin(nu t)/nu, by its series where nu t is too small to divide by
    sincnt = times * (1.0 - nut ** 2 / 6.0)
    far = (abs(nu) * np.abs(times) >= 1e-8) & (abs(nu) >= 1e-14)
    sincnt[far] = np.sin(nut[far]) / nu
    phase = np.exp(-1j * lam * times)
    a_t = phase * (cosnt * alpha - 1j * sincnt * (mu * alpha + params.g * beta))
    b_t = phase * (cosnt * beta - 1j * sincnt * (params.g * alpha - mu * beta))
    psi = a_t[:, None] * ke + b_t[:, None] * kg1
    states = psi[:, :, None] * psi.conj()[:, None, :]
    states += (1.0 - abs(a_t) ** 2 - abs(b_t) ** 2)[:, None, None] * pvac
    return states


def trace_distance(rho, sigma):
    """T(rho, sigma) = (1/2) ||rho - sigma||_1 for Hermitian arguments:
    a float for one pair of matrices, an array of one value per pair for
    two stacks (..., dim, dim), by one batched eigvalsh of the
    differences. eigvalsh reads the lower triangle of each difference
    only, so an error confined to the upper triangle goes unseen."""
    diff = np.asarray(rho) - np.asarray(sigma)
    dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist

"""Time evolution, steady states, and closed-form single-excitation solutions.

Two propagation routes are provided and kept deliberately independent so
they can cross-check each other:

* spectral: for the microscopic generator, propagate in the dressed
  frame, where dressed populations follow a dim x dim rate matrix and
  every dressed coherence decays on its own (lindblad.DressedSplit); for
  any other generator, eigendecompose the vectorized generator once
  (block by block, exploiting conservation of the excitation-number
  difference between bra and ket indices), expand the initial state over
  the eigenvectors once per run, and evaluate rho(t) = V exp(w t) V^-1
  vec(rho0). Either way states come a stack at a time, and
* rk4: classical fixed-step fourth-order integration of the same sparse
  superoperator, in the frame rotating at the cavity frequency where the
  step-size requirement is set by the coupling and detuning scales
  instead of the optical frequency.

The closed-form solutions cover the single-excitation sector at zero
temperature for both generators and serve as first-principles oracles.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse.csgraph as csgraph

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
from .lindblad import unvec, vec
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
    observer, and is None otherwise. diagnostics records raw
    (pre-correction) trace drift and hermiticity defect maxima, the
    largest combined population seen in the top two Fock levels, and
    method details.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    method: str
    diagnostics: dict = field(default_factory=dict)


AMPLIFICATION_LIMIT = 1e10
# largest population the truncation guard lets the top two Fock levels hold
TRUNCATION_TOL = 1e-6
# steady_state: bound on ||L[rho]||_F, and the kernel gap in units of gamma
STEADY_RESIDUAL_TOL = 1e-9
DEGENERACY_RATIO = 1e-8

# byte budget of one stack of states evaluated and checked together
STACK_BYTES = 8 << 20
# propagate_vec evaluates times in whole groups of this many columns
_TIME_GROUP = 8


@dataclass
class SpectralDecomposition:
    """Blockwise eigendecomposition of a vectorized Lindblad generator.

    blocks is a list of (indices, eigenvalues, V, lu) with lu the LU
    factorization of V for solving mode amplitudes.
    """

    dim: int
    blocks: list

    def expand(self, v0):
        """Mode amplitudes of v0 over the blocks it touches.

        The expansion of v0 over each block's eigenvectors is required to
        be numerically benign: if sum_k |V||c| exceeds AMPLIFICATION_LIMIT
        times the state norm, cancellation would eat the accuracy budget
        and DefectiveLiouvillianError asks the caller to integrate
        instead. This is the operative form of the "numerically
        diagonalizable" precondition: a near-Jordan structure shows up as
        a divergent coefficient vector for generic states.

        Blocks of equal size are stacked so that propagate_vec handles
        each size in one batched step: the result is a list of
        (indices, eigenvalues, V, c) with shapes (m, n), (m, n),
        (m, n, n) and (m, n) for m blocks of size n.
        """
        groups = {}
        norm0 = np.linalg.norm(v0)
        for idx, w, vmat, lu in self.blocks:
            vb = v0[idx]
            if not np.any(vb):
                continue
            coef = sla.lu_solve(lu, vb)
            amp = np.linalg.norm(np.abs(vmat) @ np.abs(coef)) / max(norm0, 1e-300)
            if not np.isfinite(amp) or amp > AMPLIFICATION_LIMIT:
                raise DefectiveLiouvillianError(
                    f"eigenvector expansion amplifies the state by {amp:.3e} "
                    f"(limit {AMPLIFICATION_LIMIT:.1e}) in a block of size "
                    f"{idx.size}: near-degenerate Jordan structure; "
                    "fall back to the rk4 integrator"
                )
            groups.setdefault(idx.size, []).append((idx, w, vmat, coef))
        return [tuple(np.stack(part) for part in zip(*terms)) for terms in groups.values()]

    def propagate_vec(self, expansion, times):
        """States rho(t) = sum_b V_b (c_b e^{w_b t}) of an expansion, as a
        stack of shape (len(times), dim, dim).

        The times are padded to a whole number of groups of _TIME_GROUP
        so that BLAS evaluates every state on its full-width kernels: a
        state comes out bit-identical whatever chunk it was computed in.
        """
        times = np.asarray(times, dtype=float)
        k = times.size
        padded = np.resize(times, -(-k // _TIME_GROUP) * _TIME_GROUP)
        out = np.zeros((self.dim * self.dim, padded.size), dtype=complex)
        for idx, w, vmat, coef in expansion:
            modes = coef[..., None] * np.exp(w[..., None] * padded)
            out[idx] = vmat @ modes
        # column-stacked vec: row r + c*dim of out is rho[r, c]
        stack = out.reshape(self.dim, self.dim, padded.size).transpose(2, 1, 0)
        return np.ascontiguousarray(stack[:k])


def spectral_decomposition(liouvillian):
    """Block-diagonalize the generator; cached on the Liouvillian.

    Blocks are the connected components of the symmetrized sparsity
    pattern of the superoperator; for the generators built here they
    coincide with sectors of fixed bra-ket excitation difference, so the
    split is exact.
    """
    cached = getattr(liouvillian, "_decomp", None)
    if cached is not None:
        return cached
    lmat = liouvillian.matrix.tocsr()
    pattern = (abs(lmat) + abs(lmat.T)).astype(bool)
    n_comp, labels = csgraph.connected_components(pattern, directed=False)
    # one symmetric permutation makes every component a contiguous
    # diagonal block; the stable sort keeps each block's indices ascending
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n_comp))))
    permuted = lmat[order][:, order]
    blocks = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        idx = order[start:stop]
        sub = permuted[start:stop, start:stop].toarray()
        w, vmat = sla.eig(sub)
        lu = sla.lu_factor(vmat)
        blocks.append((idx, w, vmat, lu))
    decomp = SpectralDecomposition(dim=liouvillian.dim, blocks=blocks)
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
    """Trace drift, Hermiticity defect and top-of-ladder population of
    stacks of states, with the running maxima evolve reports."""

    def __init__(self, spec, truncation_guard):
        self.top_idx = _top_indices(spec)
        self.truncation_guard = truncation_guard
        self.drift_max = 0.0
        self.herm_max = 0.0
        self.top_max = 0.0

    def drift(self, stack):
        """Per-state trace drift |Re tr - 1| + |Im tr| and Hermiticity
        defect, folded into the running maxima."""
        tr = np.trace(stack, axis1=1, axis2=2)
        drift = np.abs(tr.real - 1.0) + np.abs(tr.imag)
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        self.drift_max = max(self.drift_max, float(drift.max()))
        self.herm_max = max(self.herm_max, float(herm.max()))
        return drift, herm

    def truncation(self, stack, tc):
        """Raise TruncationError at the first time whose top two Fock
        levels hold more than the tolerance."""
        top = stack[:, self.top_idx, self.top_idx].real.sum(axis=1)
        if self.truncation_guard:
            bad = np.flatnonzero(top > TRUNCATION_TOL)
            if bad.size:
                k = bad[0]
                raise TruncationError(
                    f"top two Fock levels hold {top[k]:.3e} population at "
                    f"t={tc[k]:.6g}; raise n_max (tolerance {TRUNCATION_TOL:.1e})"
                )
        self.top_max = max(self.top_max, float(top.max()))

    def diagnostics(self):
        return {
            "trace_drift_max": self.drift_max,
            "herm_defect_max": self.herm_max,
            "top_population_max": self.top_max,
        }


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

    observer(i0, t_chunk, rho_stack) is called on consecutive chunks of
    the requested times in order: rho_stack[k] is the state at
    t_chunk[k], the (i0 + k)-th output time. The spectral route makes
    chunks of `chunk` states (by default as many as fit in STACK_BYTES);
    the rk4 route hands out one state at a time. States are stored only
    when no observer is given. method is "spectral" or "rk4". The
    truncation guard aborts the run if the top two Fock levels ever hold
    more than TRUNCATION_TOL of the population.
    """
    times = _check_times(times)
    rho0 = _as_density(state, liouvillian.dim)
    if method == "spectral":
        return evolve_spectral(liouvillian, rho0, times, observer, truncation_guard, chunk)
    if method == "rk4":
        return evolve_rk4(liouvillian, rho0, times, observer, truncation_guard)
    raise ParameterError(f"unknown method {method!r}")


def evolve_spectral(
    liouvillian, rho0, times, observer=None, truncation_guard=True, chunk=None
):
    """Spectral propagation at arbitrary times.

    A generator with a DressedSplit is propagated in the dressed frame
    (see _dressed_stacks) and needs no eigenvectors; any other is
    expanded over its block eigendecomposition, whose conditioning the
    amplification gate of SpectralDecomposition.expand bounds once per
    run."""
    dim = liouvillian.dim
    if chunk is None:
        # whole time groups, so that only the last chunk is padded
        per_state = 16 * dim * dim
        chunk = max(1, STACK_BYTES // per_state // _TIME_GROUP) * _TIME_GROUP
    if getattr(liouvillian, "dressed", None) is not None:
        stacks = _dressed_stacks(liouvillian, rho0, times, chunk)
    else:
        stacks = _decomposed_stacks(spectral_decomposition(liouvillian), rho0, times, chunk)
    guards = _StackGuards(liouvillian.spec, truncation_guard)
    states = np.empty((times.size, dim, dim), complex) if observer is None else None
    for start, tc, stack in stacks:
        guards.drift(stack)
        guards.truncation(stack, tc)
        if observer is None:
            states[start : start + tc.size] = stack
        else:
            observer(start, tc, stack)
    return EvolutionResult(
        times=times,
        states=states,
        method="spectral",
        diagnostics={**guards.diagnostics(), "dt": None},
    )


def _decomposed_stacks(decomp, rho0, times, chunk):
    """(start, t_chunk, stack) from the block eigendecomposition; the
    expansion (and its amplification gate) happens before the first
    chunk is handed out."""
    expansion = decomp.expand(vec(rho0))
    for start in range(0, times.size, chunk):
        tc = times[start : start + chunk]
        yield start, tc, decomp.propagate_vec(expansion, tc)


def _dressed_stacks(liouvillian, rho0, times, chunk):
    """(start, t_chunk, stack) in the dressed frame.

    The populations of U^T rho0 U are stepped once over the whole grid
    with one expm(rates * dt) per distinct gap, which needs no
    eigenvectors (those of the T = 0 cascade are binomial and
    ill-conditioned). Each coherence rho~_jk(0) is carried by
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
    populations = _population_series(split.rates, tilde0[diag, diag].real, times)
    tilde0[diag, diag] = 0.0
    level = -1j * (split.energies - omega * (exc - 0.5)) - 0.5 * split.decay
    orders = omega * np.arange(-exc.max(), exc.max() + 1)
    shift = exc[:, None] - exc[None, :] + exc.max()
    for start in range(0, times.size, chunk):
        tc = times[start : start + chunk]
        a = np.exp(tc[:, None] * level)
        stack = a[:, :, None] * tilde0
        stack *= a.conj()[:, None, :]
        stack[:, diag, diag] = populations[start : start + tc.size]
        stack *= np.exp(-1j * np.outer(tc, orders))[:, shift]
        # rebinding frees the dressed stack before the caller sees the state
        stack = split.to_bare(stack)
        yield start, tc, stack


def _population_series(rates, p0, times):
    """p(t) = expm(rates * t) p0 at every time, stepped from one output
    time to the next with one matrix exponential per distinct gap."""
    steps = {}
    out = np.empty((times.size, p0.size))
    p = sla.expm(rates * times[0]) @ p0 if times[0] > 0 else p0
    out[0] = p
    for i in range(1, times.size):
        gap = times[i] - times[i - 1]
        if gap not in steps:
            steps[gap] = sla.expm(rates * gap)
        p = steps[gap] @ p
        out[i] = p
    return out


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
    msum = np.zeros((dim, dim), dtype=complex)
    for rate, j in liouvillian.channels:
        msum += rate * (j.conj().T @ j)
    evals = np.linalg.eigvalsh(0.5 * (h_frame + h_frame.conj().T))
    spread = float(evals.max() - evals.min()) if dim > 1 else 0.0
    decay = float(np.max(np.abs(np.diag(msum)))) if liouvillian.channels else 0.0
    return 0.005 / max(spread + decay, 1e-9)


def evolve_rk4(liouvillian, rho0, times, observer=None, truncation_guard=True):
    """Fixed-step RK4 propagation with exact landing on each output time.

    Between consecutive outputs the interval is split into equal steps no
    longer than default_time_step. At each output the raw trace and
    hermiticity drifts are checked against 1e-7 (DriftError beyond that)
    and recorded, then the state is resymmetrized and renormalized
    before being handed out to the observer as a stack of one.
    """
    dt = default_time_step(liouvillian)
    dim = liouvillian.dim
    generator = _kernels.rotating_generator(liouvillian)
    omega = float(liouvillian.params.omega)
    exc = liouvillian.spec.excitations()
    guards = _StackGuards(liouvillian.spec, truncation_guard)
    states = np.empty((times.size, dim, dim), complex) if observer is None else None
    steps_total = 0

    # integrate in the rotating frame; outputs are unwound to the lab frame
    ph0 = np.exp(-1j * omega * times[0] * exc)
    rho = (ph0.conj()[:, None] * rho0) * ph0[None, :]
    t_prev = times[0]

    for i, t in enumerate(times):
        if t > t_prev:
            span = t - t_prev
            n = max(1, math.ceil(span / dt - 1e-12))
            h = span / n
            rho = _kernels.rk4_advance(generator, rho, h, n)
            steps_total += n
            t_prev = t

        drift, herm = guards.drift(rho[None])
        if drift[0] > 1e-7:
            raise DriftError(f"trace drifted by {drift[0]:.3e} at t={t:.6g}")
        if herm[0] > 1e-7:
            raise DriftError(f"hermiticity defect {herm[0]:.3e} at t={t:.6g}")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real

        ph = np.exp(-1j * omega * t * exc)
        rho_lab = ((ph[:, None] * rho) * ph.conj()[None, :])[None]
        guards.truncation(rho_lab, times[i : i + 1])
        if observer is None:
            states[i] = rho_lab[0]
        else:
            observer(i, times[i : i + 1], rho_lab)

    return EvolutionResult(
        times=times,
        states=states,
        method="rk4",
        diagnostics={**guards.diagnostics(), "dt": dt, "steps_total": steps_total},
    )


def steady_state(liouvillian):
    """Unique stationary state of the generator.

    The kernel is located among the generator's eigenvalues: those of
    the DressedSplit's population rates and coherence rates when the
    generator has one, those of the spectral decomposition otherwise.
    The second smallest eigenvalue magnitude must clear
    DEGENERACY_RATIO * gamma or DegenerateKernelError is raised (a
    degenerate kernel means the stationary state is not unique, e.g. at
    g = 0 where the qubit decouples). The returned state is Hermitized,
    normalized, and checked to satisfy ||L[rho]||_F < STEADY_RESIDUAL_TOL.
    """
    dim = liouvillian.dim
    gamma = getattr(liouvillian.params, "gamma", 0.0)
    split = getattr(liouvillian, "dressed", None)
    if split is not None:
        w, vmat = sla.eig(split.rates)
        coherences = split.coherence_rates()[~np.eye(dim, dtype=bool)]
        k = _kernel_index(np.abs(np.concatenate([w, coherences])), gamma)
        # a coherence kernel would be traceless, rejected below
        p = vmat[:, k] if k < dim else np.zeros(dim)
        rho = split.to_bare(np.diag(p).astype(complex))
    else:
        decomp = spectral_decomposition(liouvillian)
        k = _kernel_index(np.abs(np.concatenate([b[1] for b in decomp.blocks])), gamma)
        for idx, w, vmat, _ in decomp.blocks:
            if k < w.size:
                break
            k -= w.size
        v = np.zeros(dim * dim, dtype=complex)
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

    states = np.empty((times.size, spec.dim_total, spec.dim_total), dtype=complex)
    for i, t in enumerate(times):
        pp = abs(ap) ** 2 * np.exp(-gamma * s0 ** 2 * t)
        pm = abs(am) ** 2 * np.exp(-gamma * c0 ** 2 * t)
        coh = ap * np.conj(am) * np.exp((-1j * om0 - 0.5 * gamma) * t)
        rho = (1.0 - pp - pm) * p00 + pp * ppp + pm * pmm
        rho += coh * ppm + np.conj(coh) * ppm.conj().T
        states[i] = rho
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

    states = np.empty((times.size, spec.dim_total, spec.dim_total), dtype=complex)
    for i, t in enumerate(times):
        cosnt = np.cos(nu * t)
        if abs(nu) * abs(t) < 1e-8 or abs(nu) < 1e-14:
            sincnt = t * (1.0 - (nu * t) ** 2 / 6.0)
        else:
            sincnt = np.sin(nu * t) / nu
        phase = np.exp(-1j * lam * t)
        a_t = phase * (cosnt * alpha - 1j * sincnt * (mu * alpha + params.g * beta))
        b_t = phase * (cosnt * beta - 1j * sincnt * (params.g * alpha - mu * beta))
        psi = a_t * ke + b_t * kg1
        rho = np.outer(psi, psi.conj())
        rho += (1.0 - abs(a_t) ** 2 - abs(b_t) ** 2) * pvac
        states[i] = rho
    return states


def trace_distance(rho, sigma):
    """T(rho, sigma) = (1/2) ||rho - sigma||_1 for Hermitian arguments."""
    diff = np.asarray(rho) - np.asarray(sigma)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

"""Scalar observables and phase-space functions of composite states.

Every entry of OBSERVABLES takes a state of shape (dim, dim) and returns
a float, or a stack of states of shape (..., dim, dim) and returns an
array of shape (...), one value per state.

Quadratures follow q = (a + a^dag)/2, p = (a - a^dag)/(2i), so a coherent
state |alpha> sits at (Re alpha, Im alpha), the vacuum has variance 1/4 in
each quadrature, and the uncertainty bound is var(q) var(p) >= 1/16.
Entropies use the natural logarithm.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SubspaceLeakError
from .hilbert import check_operator_stack, partial_trace_qubit

_ENTROPY_FLOOR = 1e-14


def _values(x):
    """A float for a single state, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _diag_real(rho):
    return np.diagonal(rho, axis1=-2, axis2=-1).real


def _weighted_sum(x, w):
    """sum_k x[..., k] w[k], rounded the same way for one state or a stack
    (a matrix-vector product would not be)."""
    return np.sum(x * w, axis=-1)


def inversion(rho, spec):
    """<sigma_z>: +1 for the excited qubit level, -1 for the ground level."""
    rho = check_operator_stack(rho, spec)
    signs = np.where(np.arange(spec.dim_total) % 2 == 1, 1.0, -1.0)
    return _values(_weighted_sum(_diag_real(rho), signs))


def mean_photon(rho, spec):
    """<a^dag a>."""
    rho = check_operator_stack(rho, spec)
    levels = np.arange(spec.dim_total) // 2
    return _values(_weighted_sum(_diag_real(rho), levels))


def purity(rho, spec):
    """Tr rho^2 (Frobenius norm squared for Hermitian states)."""
    rho = check_operator_stack(rho, spec)
    flat = rho.reshape(rho.shape[:-2] + (-1,))
    return _values(np.einsum("...k,...k->...", flat.conj(), flat).real)


def ground_population(rho, spec):
    """Population of the joint ground state |0,g>."""
    rho = check_operator_stack(rho, spec)
    return _values(rho[..., 0, 0].real)


def field_entropy(rho, spec):
    """Von Neumann entropy of the reduced field state."""
    rho = check_operator_stack(rho, spec)
    rf = partial_trace_qubit(rho, spec)
    evals = np.linalg.eigvalsh(0.5 * (rf + np.swapaxes(rf, -2, -1).conj()))
    # eigenvalues at or below the floor contribute 1 * log 1 = 0
    evals = np.where(evals > _ENTROPY_FLOOR, evals, 1.0)
    return _values(-np.sum(evals * np.log(evals), axis=-1))


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
# largest population outside the one-photon subspace that concurrence accepts
LEAK_TOL = 1e-6


def concurrence(rho, spec):
    """Qubit-field concurrence on the two-level field subspace {0, 1}.

    The state is projected onto span{|0,g>, |0,e>, |1,g>, |1,e>} and
    renormalized; SubspaceLeakError is raised if more than LEAK_TOL of
    the population lies outside (the measure is only meaningful for
    states confined to at most one photon). The projected 4x4 problem is
    the standard two-qubit concurrence.
    """
    rho = check_operator_stack(rho, spec)
    sub = np.array(rho[..., :4, :4])
    leak = 1.0 - np.trace(sub, axis1=-2, axis2=-1).real
    bad = np.flatnonzero(leak >= LEAK_TOL)
    if bad.size:
        raise SubspaceLeakError(
            f"{leak.flat[bad[0]]:.3e} of the population lies outside the "
            f"one-photon subspace (tolerance {LEAK_TOL:.1e})"
        )
    sub = 0.5 * (sub + np.swapaxes(sub, -2, -1).conj())
    sub /= np.trace(sub, axis1=-2, axis2=-1).real[..., None, None]
    flipped = _YY @ sub.conj() @ _YY
    evals = np.linalg.eigvals(sub @ flipped).real
    evals = np.sqrt(np.clip(evals, 0.0, None))
    evals = np.sort(evals, axis=-1)[..., ::-1]
    c = evals[..., 0] - evals[..., 1] - evals[..., 2] - evals[..., 3]
    return _values(np.maximum(0.0, c))


def field_moments(rho, spec):
    """<a>, <a^2> and <a^dag a> of a state or stack of states.

    a = a_field (x) 1 maps |n+1, s> to sqrt(n+1) |n, s>, so tr(a rho)
    reads the -2 sub-diagonal of rho and tr(a^2 rho) the -4 sub-diagonal:
    O(dim) work per state.
    """
    rho = check_operator_stack(rho, spec)
    n = np.arange(spec.dim_total) // 2
    w1 = np.sqrt(n[:-2] + 1.0)
    w2 = np.sqrt(n[:-4] + 1.0) * np.sqrt(n[:-4] + 2.0)
    ea = _weighted_sum(np.diagonal(rho, offset=-2, axis1=-2, axis2=-1), w1)
    ea2 = _weighted_sum(np.diagonal(rho, offset=-4, axis1=-2, axis2=-1), w2)
    return ea, ea2, mean_photon(rho, spec)


def q_mean(rho, spec):
    ea, _, _ = field_moments(rho, spec)
    return _values(ea.real)


def p_mean(rho, spec):
    ea, _, _ = field_moments(rho, spec)
    return _values(ea.imag)


def quadrature_variances(rho, spec):
    """var(q) and var(p) from one evaluation of the field moments."""
    ea, ea2, en = field_moments(rho, spec)
    q2 = 0.25 * (2.0 * ea2.real + 2.0 * en + 1.0)
    p2 = 0.25 * (-2.0 * ea2.real + 2.0 * en + 1.0)
    return q2 - ea.real ** 2, p2 - ea.imag ** 2


def q_var(rho, spec):
    return _values(quadrature_variances(rho, spec)[0])


def p_var(rho, spec):
    return _values(quadrature_variances(rho, spec)[1])


@dataclass(frozen=True)
class HusimiGridSpec:
    """Square phase-space grid: n_points per axis over [-extent, extent]."""

    extent: float
    n_points: int = 121

    def __post_init__(self):
        if self.extent <= 0:
            raise DomainError("grid extent must be positive")
        if self.n_points < 2:
            raise DomainError("grid needs at least 2 points per axis")

    def axes(self):
        x = np.linspace(-self.extent, self.extent, self.n_points)
        return x, x.copy()


@dataclass(frozen=True)
class PhaseGrid:
    """Husimi function samples: values[i, j] = Q(x[j] + i y[i])."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    mass: float


# share of the Husimi mass below which the grid is reported as too small
COVERAGE_TOL = 0.98


def _coherent_table(x, y, dim_field):
    """<n|alpha> for every grid point alpha = x[j] + i y[i] (row-major)
    and n < dim_field: shape (n_points**2, dim_field)."""
    ax, ay = np.meshgrid(x, y)
    alpha = (ax + 1j * ay).ravel()
    v = np.empty((alpha.size, dim_field), dtype=complex)
    v[:, 0] = np.exp(-0.5 * np.abs(alpha) ** 2)
    for n in range(1, dim_field):
        v[:, n] = v[:, n - 1] * alpha / np.sqrt(n)
    return v


def husimi_q(rho, spec, grid):
    """Husimi function Q(alpha) = <alpha| rho_f |alpha> / pi of the reduced
    field state on a square grid.

    rho is one state (dim, dim), which gives one PhaseGrid, or a stack
    (..., dim, dim), which gives a list of PhaseGrids in the stack's C
    order. The coherent-state table is built once per call and serves
    every state of the stack; the product with each state is taken one
    state at a time, so the values are those of one call per state.

    Coherent-state amplitudes are evaluated exactly on the truncated
    space (no renormalization), which keeps the integral of Q equal to
    the trace of the truncated state. A warning is emitted for each
    state whose grid captures less than COVERAGE_TOL of its total mass.
    """
    rho = check_operator_stack(rho, spec)
    nf = spec.dim_field
    rfs = partial_trace_qubit(rho, spec).reshape(-1, nf, nf)
    x, y = grid.axes()
    v = _coherent_table(x, y, nf)
    vc = v.conj()
    dx = x[1] - x[0]

    grids = []
    for rf in rfs:
        # no name holds the product, so one state's is freed before the next
        q = np.einsum("kn,kn->k", vc @ rf, v).real / np.pi
        q = np.clip(q, 0.0, 1.0 / np.pi + 1e-12)
        values = q.reshape(grid.n_points, grid.n_points)
        mass = float(values.sum() * dx * dx)
        if mass < COVERAGE_TOL:
            warnings.warn(
                f"phase-space grid captures only {mass:.4f} of the state; "
                "increase the extent",
                stacklevel=2,
            )
        grids.append(PhaseGrid(x=x, y=y, values=values, mass=mass))
    return grids[0] if rho.ndim == 2 else grids


OBSERVABLES = {
    "inversion": inversion,
    "mean_photon": mean_photon,
    "purity": purity,
    "field_entropy": field_entropy,
    "concurrence": concurrence,
    "ground_population": ground_population,
    "q_mean": q_mean,
    "p_mean": p_mean,
    "q_var": q_var,
    "p_var": p_var,
}

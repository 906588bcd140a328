"""Composite qubit-field Hilbert space: indexing, operators, states.

Basis ordering contract
-----------------------
The composite index is k = 2*n + s with Fock level n in [0, n_max] and
qubit level s (0 = g, 1 = e). The qubit index varies fastest, so a
product operator F (field) x Q (qubit) is ``np.kron(F, Q)``. States and
operators are plain numpy arrays; the helpers below validate shapes and
physical properties instead of wrapping them in classes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, TruncationError

QUBIT_G = 0
QUBIT_E = 1


@dataclass(frozen=True)
class SpaceSpec:
    """Truncated composite space with Fock levels 0..n_max and one qubit.

    Parameters
    ----------
    n_max : int
        Highest retained Fock level, at least 1.
    """

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise DomainError(f"n_max must be an integer >= 1, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def dim_field(self):
        return self.n_max + 1

    @property
    def dim_total(self):
        return 2 * (self.n_max + 1)

    def index(self, n, s):
        """Composite basis index of |n, s>, with s = 0 (g) or 1 (e)."""
        if not 0 <= n <= self.n_max:
            raise DimensionError(f"Fock level {n} outside [0, {self.n_max}]")
        if s not in (QUBIT_G, QUBIT_E):
            raise DimensionError(f"qubit level must be 0 (g) or 1 (e), got {s}")
        return 2 * n + s

    def levels(self, k):
        """Inverse of index: composite index k -> (n, s)."""
        if not 0 <= k < self.dim_total:
            raise DimensionError(f"index {k} outside [0, {self.dim_total})")
        return k // 2, k % 2

    def excitations(self):
        """Total excitation number n + s per basis index, as an int array."""
        ks = np.arange(self.dim_total)
        return ks // 2 + ks % 2


def check_operator_shape(op, spec):
    op = np.asarray(op)
    d = spec.dim_total
    if op.shape != (d, d):
        raise DimensionError(f"operator shape {op.shape} != ({d}, {d})")
    return op


def check_operator_stack(op, spec):
    """Like check_operator_shape, for one operator or a stack (..., d, d)."""
    op = np.asarray(op)
    d = spec.dim_total
    if op.ndim < 2 or op.shape[-2:] != (d, d):
        raise DimensionError(f"operator shape {op.shape} != (..., {d}, {d})")
    return op


def build_annihilation(spec):
    """Field annihilation operator a (x) 1 on the composite space.

    Satisfies [a, a^dag] = 1 on every Fock level below n_max; the top
    level row is truncated.
    """
    n = np.arange(1, spec.dim_field)
    a_field = np.diag(np.sqrt(n).astype(complex), k=1)
    return np.kron(a_field, np.eye(2, dtype=complex))


def build_qubit_ops(spec):
    """Qubit operators on the composite space.

    Returns
    -------
    dict with keys "sigma_z", "sigma_plus", "sigma_minus". Conventions:
    sigma_z|e> = +|e>, sigma_minus|e> = |g>, so [sigma_plus, sigma_minus]
    equals sigma_z.
    """
    eye_f = np.eye(spec.dim_field, dtype=complex)
    sz = np.diag([-1.0 + 0j, 1.0 + 0j])
    sminus = np.zeros((2, 2), dtype=complex)
    sminus[QUBIT_G, QUBIT_E] = 1.0
    return {
        "sigma_z": np.kron(eye_f, sz),
        "sigma_plus": np.kron(eye_f, sminus.conj().T),
        "sigma_minus": np.kron(eye_f, sminus),
    }


def fock_state(n, qubit_level, spec):
    """Product state |n> (x) |s| as a composite state vector."""
    psi = np.zeros(spec.dim_total, dtype=complex)
    psi[spec.index(n, qubit_level)] = 1.0
    return psi


def coherent_tail(alpha, n_max):
    """Exact Poisson tail weight P(X > n_max), X ~ Poisson(|alpha|^2).

    Above the mean the tail is summed outward from its first term; at or
    below it, it is 1 minus the head, summed inward from its last term.
    The sum starts from that term, exp(m log lam - lam - lgamma(m + 1)),
    so it does not underflow where exp(-lam) alone does (lam > 745)."""
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    tail = n_max + 1 > lam
    m = n_max + 1 if tail else n_max
    term = math.exp(m * math.log(lam) - lam - math.lgamma(m + 1))
    total = 0.0
    k = m
    # terms fall away from the mode on either side; stop once one no longer
    # changes the sum
    while term > total * 1e-17:
        total += term
        if tail:
            k += 1
            term *= lam / k
        else:
            term *= k / lam
            k -= 1
    return total if tail else 1.0 - total


def default_coherent_n_max(alpha):
    """Truncation level keeping the Poisson tail far below the run guards.

    Mean plus six standard deviations plus a flat margin; for the photon
    numbers treated here the discarded weight is < 1e-10.
    """
    lam = abs(alpha) ** 2
    return int(np.ceil(lam + 6.0 * np.sqrt(lam) + 10.0))


# Poisson tail above n_max a truncated coherent state may discard
COHERENT_TAIL_TOL = 1e-10
# allowed |alpha|^2 + |beta|^2 - 1 of a single-excitation state
NORM_TOL = 1e-12


def coherent_state(alpha, qubit_level, spec):
    """Truncated, renormalized coherent state |alpha> (x) |s|.

    Raises TruncationError when the discarded Poisson tail above n_max
    is not below COHERENT_TAIL_TOL (checked analytically, not by summation).
    """
    tail = coherent_tail(alpha, spec.n_max)
    if tail >= COHERENT_TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha|^2 = {abs(alpha)**2:.6g} has tail weight "
            f"{tail:.3e} above n_max = {spec.n_max} (tolerance {COHERENT_TAIL_TOL:.1e})"
        )
    amps = np.zeros(spec.dim_field, dtype=complex)
    amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, spec.dim_field):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    amps /= np.linalg.norm(amps)
    qubit = np.zeros(2, dtype=complex)
    qubit[qubit_level] = 1.0
    return np.kron(amps, qubit)


def single_excitation_state(alpha, beta, spec):
    """alpha |0,e> + beta |1,g>; coefficients must be normalized."""
    norm2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm2 - 1.0) > NORM_TOL:
        raise DomainError(f"|alpha|^2 + |beta|^2 = {norm2} is not 1 within {NORM_TOL}")
    psi = np.zeros(spec.dim_total, dtype=complex)
    psi[spec.index(0, QUBIT_E)] = alpha
    psi[spec.index(1, QUBIT_G)] = beta
    return psi


def density_matrix(psi):
    """Outer product |psi><psi| for a state vector."""
    psi = np.asarray(psi)
    return np.outer(psi, psi.conj())


def partial_trace_qubit(rho, spec):
    """Trace out the qubit; returns the reduced field matrix (dim_field),
    or a stack of them for a stack of states (..., dim, dim)."""
    rho = check_operator_stack(rho, spec)
    f = spec.dim_field
    return np.einsum("...msns->...mn", rho.reshape(rho.shape[:-2] + (f, 2, f, 2)))


def partial_trace_field(rho, spec):
    """Trace out the field; returns the reduced qubit matrix (2 x 2)."""
    rho = check_operator_shape(rho, spec)
    f = spec.dim_field
    return np.einsum("nsnt->st", rho.reshape(f, 2, f, 2))


def hermiticity_defect(rho):
    """Largest absolute entry of rho - rho^dag."""
    rho = np.asarray(rho)
    return float(np.abs(rho - rho.conj().T).max())

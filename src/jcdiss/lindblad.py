"""Dissipators and Liouvillian superoperators for the damped system.

Two generators are built on the same composite space:

* microscopic: jumps between dressed states with Bohr-frequency-resolved
  rates (the weak-coupling generator derived in the dressed basis), and
* phenomenological: bare-cavity damping D(a) (plus D(a^dag) at finite
  temperature) bolted onto the coupled Hamiltonian.

Superoperators use column-stacking vectorization: vec(A X B) =
kron(B^T, A) vec(X), with vec(X) = X.flatten(order="F").
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BohrFrequencyError, DomainError
from .hilbert import QUBIT_E, build_annihilation
from .dressed import (
    build_jc_hamiltonian,
    dressed_spectrum,
    dressed_vector,
    ground_vector,
)


def thermal_occupation(nu, kT):
    """Bose occupation 1 / (exp(nu/kT) - 1) of a Bohr frequency or an
    array of them; 0 at zero temperature.

    nu must be positive: the bath spectrum is only sampled at positive
    Bohr frequencies.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0.0):
        raise DomainError(f"thermal occupation needs nu > 0, got {nu}")
    occupation = np.zeros_like(nu) if kT == 0.0 else 1.0 / np.expm1(nu / kT)
    return occupation if occupation.ndim else float(occupation)


@dataclass(frozen=True)
class RateTable:
    """Downward (gamma*) and upward (gtilde*) rates of the dressed generator.

    Slots 1 and 2 (ground-manifold transitions) are scalars; slots 3..6
    are arrays over the ladder index n = 0..n_max-2, describing jumps from
    manifold n+1 down to manifold n. nu* hold the Bohr frequencies the
    bath is sampled at; a, b, d are the dressed matrix-element weights.
    """

    kT: float
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    nu1: float
    nu2: float
    nu3: np.ndarray
    nu4: np.ndarray
    nu5: np.ndarray
    nu6: np.ndarray
    gamma1: float
    gamma2: float
    gamma3: np.ndarray
    gamma4: np.ndarray
    gamma5: np.ndarray
    gamma6: np.ndarray
    gtilde1: float
    gtilde2: float
    gtilde3: np.ndarray
    gtilde4: np.ndarray
    gtilde5: np.ndarray
    gtilde6: np.ndarray

    @property
    def n_ladder(self):
        return len(self.a)


def ladder_weights(spectrum):
    """Weights a_n, b_n, d_n for jumps from manifold n+1 to manifold n."""
    c = spectrum.c
    s = spectrum.s
    n = np.arange(spectrum.n_manifolds - 1, dtype=float)
    r1 = np.sqrt(n + 1.0)
    r2 = np.sqrt(n + 2.0)
    cn, cn1 = c[:-1], c[1:]
    sn, sn1 = s[:-1], s[1:]
    a = cn * cn1 * r1 + sn * sn1 * r2
    b = sn * sn1 * r1 + cn * cn1 * r2
    d = sn * cn1 * r2 - cn * sn1 * r1
    return a, b, d


def build_rate_table(params, spectrum):
    """Bath rates for every dressed transition, at the bath temperature
    fixed by params.nbar_at_omega.

    All Bohr-frequency arguments must be positive (they stop being
    positive only far outside the weak-coupling regime); otherwise
    BohrFrequencyError identifies the offending slot and manifold.
    """
    gamma = params.gamma
    kT = params.kT
    omega = params.omega
    omega0 = params.omega0
    om = spectrum.Omega
    a, b, d = ladder_weights(spectrum)

    nu1 = 0.5 * (omega0 + omega + om[0])
    nu2 = 0.5 * (omega0 + omega - om[0])
    dom = 0.5 * (om[1:] - om[:-1])
    som = 0.5 * (om[1:] + om[:-1])
    nu3 = omega + dom
    nu4 = omega - dom
    nu5 = omega + som
    nu6 = omega - som

    for slot, nu in (("nu1", nu1), ("nu2", nu2)):
        if nu <= 0:
            raise BohrFrequencyError(f"{slot} = {nu:.6g} is not positive")
    for slot, nu in (("nu3", nu3), ("nu4", nu4), ("nu5", nu5), ("nu6", nu6)):
        bad = np.nonzero(nu <= 0)[0]
        if bad.size:
            raise BohrFrequencyError(
                f"{slot}[n={bad[0]}] = {nu[bad[0]]:.6g} is not positive"
            )

    def down(nu):
        return (1.0 + thermal_occupation(nu, kT)) * gamma

    def up(nu):
        return thermal_occupation(nu, kT) * gamma

    return RateTable(
        kT=kT,
        a=a,
        b=b,
        d=d,
        nu1=nu1,
        nu2=nu2,
        nu3=nu3,
        nu4=nu4,
        nu5=nu5,
        nu6=nu6,
        gamma1=down(nu1),
        gamma2=down(nu2),
        gamma3=down(nu3),
        gamma4=down(nu4),
        gamma5=down(nu5),
        gamma6=down(nu6),
        gtilde1=up(nu1),
        gtilde2=up(nu2),
        gtilde3=up(nu3),
        gtilde4=up(nu4),
        gtilde5=up(nu5),
        gtilde6=up(nu6),
    )


def rate_table_columns(table):
    """Columns of the exported rate table keyed by their CSV header, one
    row per ladder index n: n, a_n, b_n, d_n, gamma1..gamma6 and
    gtilde1..gtilde6 (the ground-manifold rates 1 and 2 repeat on every
    row)."""
    rows = table.n_ladder
    columns = {"n": np.arange(rows), "a_n": table.a, "b_n": table.b, "d_n": table.d}
    for prefix in ("gamma", "gtilde"):
        for i in range(1, 7):
            name = f"{prefix}{i}"
            columns[name] = np.broadcast_to(getattr(table, name), (rows,))
    return columns


def vec(rho):
    """Column-stacking vectorization."""
    return np.asarray(rho).flatten(order="F")


def unvec(v, dim):
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


@dataclass
class Liouvillian:
    """A Lindblad generator with both superoperator and structured forms.

    matrix is the sparse dim_super x dim_super superoperator (column
    stacking); both propagation routes step it. hamiltonian and channels
    [(rate, jump operator)] carry the structured form used by apply and
    by the RK4 step-size rule.
    """

    kind: str
    spec: object
    params: object
    hamiltonian: np.ndarray
    channels: list
    matrix: sp.csr_matrix
    _decomp: object = field(default=None, repr=False, compare=False)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def dim_super(self):
        return self.matrix.shape[0]

    def dense(self):
        return self.matrix.toarray()

    def apply(self, rho):
        """L[rho] from the structured form (matrix-shaped in and out)."""
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        for rate, j in self.channels:
            jr = j @ rho
            out += rate * (jr @ j.conj().T)
            jj = j.conj().T @ j
            out -= 0.5 * rate * (jj @ rho + rho @ jj)
        return out


def _assemble_superoperator(hamiltonian, channels):
    dim = hamiltonian.shape[0]
    hs = sp.csr_matrix(hamiltonian)
    eye = sp.identity(dim, dtype=complex, format="csr")
    lsup = -1j * (sp.kron(eye, hs, format="csr") - sp.kron(hs.T, eye, format="csr"))
    msum = sp.csr_matrix((dim, dim), dtype=complex)
    for rate, j in channels:
        js = sp.csr_matrix(j)
        js.eliminate_zeros()
        lsup = lsup + rate * sp.kron(js.conj(), js, format="csr")
        msum = msum + rate * (js.conj().T @ js)
    lsup = lsup - 0.5 * sp.kron(eye, msum, format="csr")
    lsup = lsup - 0.5 * sp.kron(msum.T, eye, format="csr")
    lsup = sp.csr_matrix(lsup)
    lsup.sort_indices()
    return lsup


def _dressed_channels(params, spectrum, spec):
    """(rate, jump) list of the dressed generator.

    Every transition is a jump weight * |lower><upper| with a downward
    and an upward rate. The two ground-manifold jumps and the four ladder
    jumps per n take their weights and rates from the RateTable. Last
    come the two drains out of the bare remainder |n_max,e> (weights
    c*sqrt(n_max) and -s*sqrt(n_max) into manifold n_max-1), downward
    only, at the flat-bath rate of their own Bohr frequency; they keep
    the truncated generator free of an artificial dark state, and their
    effect on any admissible run is bounded by the top-population guard.
    Each jump enters at its downward rate and, at finite temperature,
    its adjoint at the upward rate, so detailed balance holds channel by
    channel.
    """
    table = build_rate_table(params, spectrum)
    manifolds = range(spectrum.n_manifolds)
    plus = [dressed_vector(spectrum, spec, n, +1) for n in manifolds]
    minus = [dressed_vector(spectrum, spec, n, -1) for n in manifolds]
    e0 = ground_vector(spec)
    transitions = [
        (table.gamma1, table.gtilde1, spectrum.s[0], e0, plus[0]),
        (table.gamma2, table.gtilde2, spectrum.c[0], e0, minus[0]),
    ]
    for n in range(table.n_ladder):
        transitions += [
            (table.gamma3[n], table.gtilde3[n], table.a[n], plus[n], plus[n + 1]),
            (table.gamma4[n], table.gtilde4[n], table.b[n], minus[n], minus[n + 1]),
            (table.gamma5[n], table.gtilde5[n], table.d[n], minus[n], plus[n + 1]),
            (table.gamma6[n], table.gtilde6[n], table.d[n], plus[n], minus[n + 1]),
        ]
    if params.gamma > 0:
        top = np.zeros(spec.dim_total, dtype=complex)
        top[spec.index(spec.n_max, QUBIT_E)] = 1.0
        nm = spectrum.n_manifolds - 1
        root = np.sqrt(float(spec.n_max))
        for weight, lower, target in (
            (spectrum.c[nm] * root, plus[nm], spectrum.eps_plus[nm]),
            (-spectrum.s[nm] * root, minus[nm], spectrum.eps_minus[nm]),
        ):
            nu = spectrum.eps_top - target
            drain = (1.0 + thermal_occupation(nu, params.kT)) * params.gamma
            transitions.append((drain, 0.0, weight, lower, top))

    channels = []
    for down, up, weight, lower, upper in transitions:
        jump = weight * np.outer(lower, upper.conj())
        if down != 0.0:
            channels.append((down, jump))
        if up != 0.0:
            channels.append((up, jump.conj().T))
    return channels


def _bare_channels(params, spec):
    """(rate, jump) list of bare-cavity damping: gamma (nbar+1) D(a) plus
    gamma nbar D(a^dag), with nbar = nbar_at_omega."""
    a = build_annihilation(spec)
    nbar = params.nbar_at_omega
    channels = []
    if params.gamma > 0:
        channels.append((params.gamma * (nbar + 1.0), a))
        if nbar > 0:
            channels.append((params.gamma * nbar, a.conj().T.copy()))
    return channels


def build_liouvillian(kind, params, spec):
    """The Lindblad generator L[rho] = -i[H, rho] + sum_k rate_k D(J_k)
    on the composite space, with H the coupled Hamiltonian and the
    channels of the given kind: "microscopic" (jumps between dressed
    states with Bohr-resolved rates) or "phenomenological" (bare-cavity
    damping)."""
    if kind == "microscopic":
        channels = _dressed_channels(params, dressed_spectrum(params, spec), spec)
    elif kind == "phenomenological":
        channels = _bare_channels(params, spec)
    else:
        raise DomainError(f"unknown Liouvillian kind {kind!r}")
    h = build_jc_hamiltonian(params, spec)
    return Liouvillian(
        kind=kind,
        spec=spec,
        params=params,
        hamiltonian=h,
        channels=channels,
        matrix=_assemble_superoperator(h, channels),
    )


def trace_functional(dim):
    """Row vector w with w @ vec(rho) = Tr rho (left null vector of L)."""
    return vec(np.eye(dim, dtype=complex))

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
from typing import NamedTuple, Optional

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


def rate_table_rows(table):
    """Rows (n, a_n, b_n, d_n, gamma1..gamma6, gtilde1..gtilde6) for export."""
    rows = []
    for n in range(table.n_ladder):
        rows.append(
            (
                n,
                table.a[n],
                table.b[n],
                table.d[n],
                table.gamma1,
                table.gamma2,
                table.gamma3[n],
                table.gamma4[n],
                table.gamma5[n],
                table.gamma6[n],
                table.gtilde1,
                table.gtilde2,
                table.gtilde3[n],
                table.gtilde4[n],
                table.gtilde5[n],
                table.gtilde6[n],
            )
        )
    return rows


class JumpChannel(NamedTuple):
    """One lowering operator of the dressed generator.

    slot names the rate it pairs with ("gamma1".."gamma6", or "boundary"
    for the truncation-edge drain); n is the ladder index (None for the
    ground-manifold and boundary channels); operator carries the dressed
    matrix-element weight, so the Lindblad term is rate * D(operator).
    """

    slot: str
    n: Optional[int]
    operator: np.ndarray


def build_jump_operators(spectrum, spec):
    """All lowering jumps of the dressed generator on the composite space.

    Two ground-manifold jumps (weights s0, c0), four ladder jumps per
    n = 0..n_max-2 (weights a_n, b_n, d_n, d_n), and two "boundary" drains
    out of the bare remainder |n_max,e> (weights c*sqrt(n_max) and
    -s*sqrt(n_max) into manifold n_max-1). The boundary drains keep the
    truncated generator free of an artificial dark state; their effect on
    any admissible run is bounded by the top-population guard. Raising
    counterparts are the adjoints.
    """
    e0 = ground_vector(spec)
    a, b, d = ladder_weights(spectrum)
    chans = []

    def outer(lo, hi):
        return np.outer(lo, hi.conj())

    ep0 = dressed_vector(spectrum, spec, 0, +1)
    em0 = dressed_vector(spectrum, spec, 0, -1)
    chans.append(JumpChannel("gamma1", None, spectrum.s[0] * outer(e0, ep0)))
    chans.append(JumpChannel("gamma2", None, spectrum.c[0] * outer(e0, em0)))

    for n in range(spectrum.n_manifolds - 1):
        ep_lo = dressed_vector(spectrum, spec, n, +1)
        em_lo = dressed_vector(spectrum, spec, n, -1)
        ep_hi = dressed_vector(spectrum, spec, n + 1, +1)
        em_hi = dressed_vector(spectrum, spec, n + 1, -1)
        chans.append(JumpChannel("gamma3", n, a[n] * outer(ep_lo, ep_hi)))
        chans.append(JumpChannel("gamma4", n, b[n] * outer(em_lo, em_hi)))
        chans.append(JumpChannel("gamma5", n, d[n] * outer(em_lo, ep_hi)))
        chans.append(JumpChannel("gamma6", n, d[n] * outer(ep_lo, em_hi)))

    top = np.zeros(spec.dim_total, dtype=complex)
    top[spec.index(spec.n_max, QUBIT_E)] = 1.0
    nm = spectrum.n_manifolds - 1
    ep_nm = dressed_vector(spectrum, spec, nm, +1)
    em_nm = dressed_vector(spectrum, spec, nm, -1)
    root = np.sqrt(float(spec.n_max))
    chans.append(JumpChannel("boundary", None, spectrum.c[nm] * root * outer(ep_nm, top)))
    chans.append(JumpChannel("boundary", None, -spectrum.s[nm] * root * outer(em_nm, top)))
    return chans


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


def build_microscopic_liouvillian(params, spectrum, spec):
    """Dressed-basis generator: dressed jumps with Bohr-resolved rates.

    Downward channels use gamma_i(nu); at finite temperature each channel
    gains its upward (adjoint) partner with gtilde_i(nu), so detailed
    balance holds channel by channel. The boundary drains are downward
    only.
    """
    table = build_rate_table(params, spectrum)
    jumps = build_jump_operators(spectrum, spec)

    def slot_rates(slot, n):
        if slot == "gamma1":
            return table.gamma1, table.gtilde1
        if slot == "gamma2":
            return table.gamma2, table.gtilde2
        if slot == "gamma3":
            return table.gamma3[n], table.gtilde3[n]
        if slot == "gamma4":
            return table.gamma4[n], table.gtilde4[n]
        if slot == "gamma5":
            return table.gamma5[n], table.gtilde5[n]
        if slot == "gamma6":
            return table.gamma6[n], table.gtilde6[n]
        raise ValueError(slot)

    channels = []
    kT = params.kT
    for ch in jumps:
        if ch.slot == "boundary":
            # flat-bath downward rate at the true Bohr frequency; weight is
            # already inside the operator
            if params.gamma > 0:
                nu = spectrum.eps_top - _target_energy(spectrum, spec, ch.operator)
                rate = (1.0 + thermal_occupation(nu, kT)) * params.gamma
                channels.append((rate, ch.operator))
            continue
        down, up = slot_rates(ch.slot, ch.n)
        if down != 0.0:
            channels.append((down, ch.operator))
        if up != 0.0:
            channels.append((up, ch.operator.conj().T))

    h = build_jc_hamiltonian(params, spec)
    matrix = _assemble_superoperator(h, channels)
    return Liouvillian(
        kind="microscopic",
        spec=spec,
        params=params,
        hamiltonian=h,
        channels=channels,
        matrix=matrix,
    )


def _target_energy(spectrum, spec, op):
    # dressed energy the boundary drain |e_{nm,+/-}><top| lands on
    nm = spectrum.n_manifolds - 1
    ep = dressed_vector(spectrum, spec, nm, +1)
    overlap = abs(np.vdot(ep, op[:, spec.index(spec.n_max, QUBIT_E)]))
    if overlap > 1e-12:
        return spectrum.eps_plus[nm]
    return spectrum.eps_minus[nm]


def build_phenomenological_liouvillian(params, spec):
    """Bare-cavity damping added to the coupled Hamiltonian.

    L[rho] = -i[H, rho] + gamma (nbar+1) D(a) + gamma nbar D(a^dag), with
    nbar = nbar_at_omega.
    """
    a = build_annihilation(spec)
    nbar = params.nbar_at_omega
    channels = []
    if params.gamma > 0:
        channels.append((params.gamma * (nbar + 1.0), a))
        if nbar > 0:
            channels.append((params.gamma * nbar, a.conj().T.copy()))
    h = build_jc_hamiltonian(params, spec)
    matrix = _assemble_superoperator(h, channels)
    return Liouvillian(
        kind="phenomenological",
        spec=spec,
        params=params,
        hamiltonian=h,
        channels=channels,
        matrix=matrix,
    )


def build_liouvillian(kind, params, spec):
    """Convenience dispatcher over the two generator kinds."""
    if kind == "microscopic":
        spectrum = dressed_spectrum(params, spec)
        return build_microscopic_liouvillian(params, spectrum, spec)
    if kind == "phenomenological":
        return build_phenomenological_liouvillian(params, spec)
    raise DomainError(f"unknown Liouvillian kind {kind!r}")


def trace_functional(dim):
    """Row vector w with w @ vec(rho) = Tr rho (left null vector of L)."""
    return vec(np.eye(dim, dtype=complex))

"""Dissipators and Liouvillian superoperators for the damped system.

Two generators are built on the same composite space:

* microscopic: jumps between dressed states with Bohr-frequency-resolved
  rates (the weak-coupling generator derived in the dressed basis), and
* phenomenological: bare-cavity damping D(a) (plus D(a^dag) at finite
  temperature) bolted onto the coupled Hamiltonian.

Superoperators use column-stacking vectorization: vec(A X B) =
kron(B^T, A) vec(X), with vec(X) = X.flatten(order="F"). They are
assembled only on demand: the microscopic generator also carries its
exact split in the dressed basis (DressedSplit), which is all its
spectral propagation and steady state need. The assembly itself is
numpy only: superoperator_triplets gives the COO triplets of the
superoperator, which propagate.spectral_decomposition sums into dense
sectors, and scipy.sparse is imported only when Liouvillian.matrix is
asked for.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BohrFrequencyError, DomainError
from .hilbert import build_annihilation
from .dressed import (
    build_jc_hamiltonian,
    dressed_basis_matrix,
    dressed_energies,
    dressed_spectrum,
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
    # nu/kT beyond ~709 overflows expm1 to inf, and 1/inf is the right 0
    with np.errstate(over="ignore"):
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


def sector_labels(spec):
    """Excitation difference k = N_r - N_c of each entry of vec(rho)."""
    exc = spec.excitations()
    # entry r + c * dim of vec(rho) is rho[r, c]
    return (exc[:, None] - exc[None, :]).reshape(-1, order="F")


@dataclass(frozen=True)
class DressedSplit:
    """The microscopic generator in the dressed basis U of
    dressed_basis_matrix.

    Every jump is w |E_a><E_b| between eigenstates of H, so the
    generator never mixes dressed populations with dressed coherences:
    the populations p follow dp/dt = rates @ p (rates[a, b] is the rate
    from level b to level a, and the diagonal is -decay), and each
    coherence rho~_jk decays on its own at coherence_rates()[j, k] =
    -i(E_j - E_k) - (decay_j + decay_k)/2. U is real and block diagonal
    in the natural index order: it keeps indices 0 (|0,g>) and dim-1
    (|n_max,e>) and turns each pair (2n+1, 2n+2) by [[c_n, -s_n],
    [s_n, c_n]].
    """

    energies: np.ndarray
    rates: np.ndarray
    decay: np.ndarray
    c: np.ndarray
    s: np.ndarray
    # propagate's memo of expm(rates span) by span, freed with the split
    exps: dict = field(default_factory=dict, repr=False, compare=False)

    def coherence_rates(self):
        e, g = self.energies, self.decay
        return -1j * (e[:, None] - e[None, :]) - 0.5 * (g[:, None] + g[None, :])

    def to_bare(self, stack):
        """U x U^T of a matrix or a stack (..., dim, dim), as a new
        C-contiguous complex array."""
        return _turn_pairs(stack, self.c, self.s)

    def to_dressed(self, stack):
        """U^T x U of a matrix or a stack (..., dim, dim)."""
        return _turn_pairs(stack, self.c, -self.s)


# _turn_pairs works through a stack this many bytes of states at a time
_TURN_BYTES = 1 << 20


def _turn_pairs(x, c, s):
    """U x U^T for the U of DressedSplit with sines s, on a matrix or a
    stack (..., dim, dim), as a new C-contiguous complex array.

    Each batch of about _TURN_BYTES takes one pass over the rows and one
    over the columns, each on a copy that puts the turned index first so
    that every pair of rows is one long contiguous run; the batches keep
    the copies small next to the stack. O(dim^2) per matrix, and every
    entry is rounded the same way whatever the stack size.
    """
    x = np.asarray(x)
    dim = x.shape[-1]
    flat = x.reshape(-1, dim, dim)
    out = np.empty(flat.shape, dtype=complex)
    batch = max(1, _TURN_BYTES // (16 * dim * dim))
    for i in range(0, flat.shape[0], batch):
        y = np.array(flat[i : i + batch].transpose(1, 0, 2), dtype=complex, order="C")
        _turn_leading(y, c, s)
        y = np.array(y.transpose(2, 1, 0), order="C")
        _turn_leading(y, c, s)
        out[i : i + batch] = y.transpose(1, 2, 0)
    return out.reshape(x.shape)


def _turn_leading(x, c, s):
    """x <- U x along the leading axis, in place on a C-contiguous complex
    array: rows p = 2n+1 and q = 2n+2 become c p - s q and s p + c q."""
    xr = x.view(np.float64)
    p, q = xr[1:-1:2], xr[2:-1:2]
    shape = (-1,) + (1,) * (xr.ndim - 1)
    c, s = c.reshape(shape), s.reshape(shape)
    p_old = p.copy()
    p *= c
    p -= s * q
    q *= c
    q += s * p_old


class Liouvillian:
    """A Lindblad generator with structured and superoperator forms.

    hamiltonian and channels [(rate, jump operator)] carry the structured
    form used by apply and by the RK4 step-size rule. From it,
    superoperator_triplets gives the COO triplets of the dim_super x
    dim_super superoperator (column stacking), which
    propagate.spectral_decomposition sums into the dense sectors that the
    phenomenological spectral route exponentiates and that RK4 steps on
    either generator. matrix is the same superoperator as a scipy CSR
    matrix, for the tests and for outside checks; it is assembled on
    first access and cached, and it is the only thing here that imports
    scipy. dressed is the DressedSplit of the microscopic
    generator (None for the phenomenological one): with it, spectral
    propagation and the steady state never assemble a superoperator.
    """

    def __init__(self, kind, spec, params, hamiltonian, channels,
                 matrix=None, dressed=None):
        self.kind = kind
        self.spec = spec
        self.params = params
        self.hamiltonian = hamiltonian
        self.channels = channels
        self.dressed = dressed
        self._matrix = matrix

    @property
    def matrix(self):
        if self._matrix is None:
            triplets = superoperator_triplets(self.hamiltonian, self.channels)
            self._matrix = _assemble_superoperator(*triplets, self.dim)
        return self._matrix

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def dim_super(self):
        return self.dim * self.dim

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


def superoperator_triplets(hamiltonian, channels):
    """The superoperator of L[rho] = K rho + rho K^dag + sum_k rate_k J_k
    rho J_k^dag, with K = -iH - M/2 and M = sum_k rate_k J_k^dag J_k, as
    COO triplets (rows, cols, values); coinciding triplets add up.

    Each jump's nonzeros J[r, c] = v give kron(conj(J), J) as their outer
    product: rate conj(v_i) v_k at (r_i dim + r_k, c_i dim + c_k). The
    pairs with r_i = r_k are also the entries of rate J^dag J at
    (c_i, c_k), summed into M in channel order. kron(I, K) and
    kron(conj(K), I) add one triplet per nonzero of K and index of the
    identity. The jumps' triplets come first, in channel order, then
    those of kron(I, K) and kron(conj(K), I).
    """
    dim = hamiltonian.shape[0]
    rows, cols, vals = [], [], []
    msum = np.zeros((dim, dim), dtype=complex)
    for rate, j in channels:
        r, c = np.nonzero(j)
        v = j[r, c]
        pairs = rate * (v.conj()[:, None] * v[None, :])
        rows.append((r[:, None] * dim + r[None, :]).ravel())
        cols.append((c[:, None] * dim + c[None, :]).ravel())
        vals.append(pairs.ravel())
        first, second = np.nonzero(r[:, None] == r[None, :])
        np.add.at(msum, (c[first], c[second]), pairs[first, second])
    keff = -1j * hamiltonian - 0.5 * msum
    r, c = np.nonzero(keff)
    v = keff[r, c]
    ident = np.arange(dim)
    # kron(I, K): block i holds K; kron(conj(K), I): block (r, c) is conj(K[r, c]) I
    rows += [(ident[:, None] * dim + r).ravel(), (r[:, None] * dim + ident).ravel()]
    cols += [(ident[:, None] * dim + c).ravel(), (c[:, None] * dim + ident).ravel()]
    vals += [np.tile(v, dim), np.repeat(v.conj(), dim)]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _assemble_superoperator(rows, cols, vals, dim):
    """One canonical CSR matrix of dim^2 x dim^2 from the triplets,
    converted once: coinciding triplets are summed in the conversion,
    and entries that cancel to zero are dropped."""
    import scipy.sparse as sp

    lsup = sp.coo_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim)).tocsr()
    lsup.eliminate_zeros()
    lsup.sort_indices()
    return lsup


def _dressed_transitions(params, spectrum, spec):
    """(down, up, weight, lower, upper) of every transition of the dressed
    generator: the jump weight * |lower><upper| with its downward and
    upward rate, where lower and upper index the columns of
    dressed_basis_matrix (|e_0> is 0, |e_{n,+}> is 2n+1, |e_{n,-}> is 2n+2
    and |n_max,e> is dim-1).

    The two ground-manifold jumps and the four ladder jumps per n take
    their weights and rates from the RateTable. Last come the two drains
    out of the bare remainder |n_max,e> (weights c*sqrt(n_max) and
    -s*sqrt(n_max) into manifold n_max-1), downward only, at the
    flat-bath rate of their own Bohr frequency; they keep the truncated
    generator free of an artificial dark state, and their effect on any
    admissible run is bounded by the top-population guard.
    """
    table = build_rate_table(params, spectrum)
    transitions = [
        (table.gamma1, table.gtilde1, spectrum.s[0], 0, 1),
        (table.gamma2, table.gtilde2, spectrum.c[0], 0, 2),
    ]
    for n in range(table.n_ladder):
        plus, minus = 2 * n + 1, 2 * n + 2
        transitions += [
            (table.gamma3[n], table.gtilde3[n], table.a[n], plus, plus + 2),
            (table.gamma4[n], table.gtilde4[n], table.b[n], minus, minus + 2),
            (table.gamma5[n], table.gtilde5[n], table.d[n], minus, plus + 2),
            (table.gamma6[n], table.gtilde6[n], table.d[n], plus, minus + 2),
        ]
    if params.gamma > 0:
        nm = spectrum.n_manifolds - 1
        root = np.sqrt(float(spec.n_max))
        for weight, lower, target in (
            (spectrum.c[nm] * root, 2 * nm + 1, spectrum.eps_plus[nm]),
            (-spectrum.s[nm] * root, 2 * nm + 2, spectrum.eps_minus[nm]),
        ):
            nu = spectrum.eps_top - target
            drain = (1.0 + thermal_occupation(nu, params.kT)) * params.gamma
            transitions.append((drain, 0.0, weight, lower, spec.dim_total - 1))
    return transitions


def _dressed_channels(transitions, basis):
    """(rate, jump) list of the dressed generator. Each jump enters at
    its downward rate and, at finite temperature, its adjoint at the
    upward rate, so detailed balance holds channel by channel."""
    channels = []
    for down, up, weight, lower, upper in transitions:
        jump = weight * np.outer(basis[:, lower], basis[:, upper].conj())
        if down != 0.0:
            channels.append((down, jump))
        if up != 0.0:
            channels.append((up, jump.conj().T))
    return channels


def _dressed_split(spectrum, spec, transitions):
    """DressedSplit of the same transitions: a jump w|a><b| at rate r
    moves population from b to a at r*w^2 and adds r*w^2 to the decay of
    b; its adjoint at the upward rate does the reverse."""
    dim = spec.dim_total
    rates = np.zeros((dim, dim))
    decay = np.zeros(dim)
    for down, up, weight, lower, upper in transitions:
        w2 = weight * weight
        rates[lower, upper] += down * w2
        decay[upper] += down * w2
        if up != 0.0:
            rates[upper, lower] += up * w2
            decay[lower] += up * w2
    np.fill_diagonal(rates, -decay)
    return DressedSplit(
        energies=dressed_energies(spectrum, spec),
        rates=rates,
        decay=decay,
        c=spectrum.c,
        s=spectrum.s,
    )


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
    states with Bohr-resolved rates, plus their DressedSplit) or
    "phenomenological" (bare-cavity damping). The superoperator is not
    assembled here (see superoperator_triplets and Liouvillian.matrix)."""
    dressed = None
    if kind == "microscopic":
        spectrum = dressed_spectrum(params, spec)
        transitions = _dressed_transitions(params, spectrum, spec)
        channels = _dressed_channels(transitions, dressed_basis_matrix(spectrum, spec))
        dressed = _dressed_split(spectrum, spec, transitions)
    elif kind == "phenomenological":
        channels = _bare_channels(params, spec)
    else:
        raise DomainError(f"unknown Liouvillian kind {kind!r}")
    return Liouvillian(
        kind=kind,
        spec=spec,
        params=params,
        hamiltonian=build_jc_hamiltonian(params, spec),
        channels=channels,
        dressed=dressed,
    )

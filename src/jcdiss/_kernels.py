"""Fixed-step RK4 integration of a Lindblad generator.

Integration runs in the frame rotating at the cavity frequency
(generated by omega * N with N the total excitation operator). Every
jump operator used here shifts the excitation number by exactly +/-1, so
the rotating-frame generator is again Lindblad with H replaced by
H - omega N and the jumps unchanged; the transform is exact, not an
approximation. It removes the fast optical phases, which is what makes
tight step-size targets affordable at large photon number.

On the column-stacked vec(rho) the frame change only adds the diagonal
i omega (N_r - N_c) to the superoperator, with N_r and N_c the
excitation numbers of the row and column index of each entry. RK4 steps
this sparse superoperator, and the spectral route of the
phenomenological generator steps its sectors of fixed N_r - N_c
(propagate.spectral_decomposition).

With G this linear superoperator, one RK4 step of size h is exactly the
step matrix P(h) = I + hG (I + hG/2 (I + hG/3 (I + hG/4))), the degree-4
Taylor polynomial of exp(hG) that the four stages compute, and n steps
are exactly P(h)^n. rk4_advance keeps one _Gap per distinct (h, n) on
the generator: it builds P once, as one sparse matrix, and applies one
sparse matvec per step. A gap that recurs, as the few gaps of a uniform
output grid do hundreds of times, then builds P(h)^n by binary powering,
paid for by the stepping it has already done, and from then on is one
sparse matvec per call.
"""

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError


def sector_labels(spec):
    """Excitation difference N_r - N_c of each entry of vec(rho)."""
    exc = spec.excitations()
    # entry r + c * dim of vec(rho) is rho[r, c]
    return (exc[:, None] - exc[None, :]).reshape(-1, order="F")


def rotating_generator(liouvillian):
    """CSR superoperator of the generator in the rotating frame."""
    shift = sector_labels(liouvillian.spec)
    omega = liouvillian.params.omega
    return sp.csr_matrix(liouvillian.matrix + sp.diags(1j * omega * shift))


# most gaps cached per generator: a linspace grid needs 10-13, a grid
# whose every gap differs (logspace) would keep one per time
_MAX_GAPS = 64


def _step_polynomial(generator, dt):
    """I + hG (I + hG/2 (I + hG/3 (I + hG/4))) with h = dt."""
    hg = dt * generator
    eye = sp.identity(generator.shape[0], dtype=complex, format="csr")
    p = eye
    for order in (4.0, 3.0, 2.0, 1.0):
        p = eye + (hg @ p) / order
    return p


def _multiplications(a, b):
    """Scalar multiplications the CSR product a @ b takes: each stored
    a[i, k] meets every stored entry of row k of b."""
    return int(np.diff(b.indptr)[a.indices].sum())


def _powering(step, n):
    """step^n for n >= 1 by binary powering, the product of the squares
    step^(2^j) over the set bits j of n, as a generator: it yields the
    multiplications of each sparse product before taking it and returns
    step^n."""
    power = None
    while True:
        if n & 1:
            if power is None:
                power = step
            else:
                yield _multiplications(power, step)
                power = power @ step
        n >>= 1
        if not n:
            return power
        yield _multiplications(step, step)
        step = step @ step


class _Gap:
    """n_steps RK4 steps of one size h: the step matrix P(h), and
    P(h)^n_steps once the stepping has paid for it.

    Each call that steps banks the n_steps * nnz(P) multiplications it
    took. From the second call on, the bank pays for the sparse products
    of _powering, each at its count of multiplications and only as far
    as the bank covers, so building never costs a gap more
    multiplications than it has already spent stepping, and a gap met
    once builds nothing. The finished power replaces P unless it holds
    more than n_steps * nnz(P) entries: one product with it would then
    cost more than the steps, so it is dropped and the gap keeps
    stepping.
    """

    def __init__(self, step, n_steps):
        self.step = step
        self.n_steps = n_steps
        self.power = None
        self.bank = 0  # None once a power was dropped: never build again
        self._build = None  # the running _powering generator
        self._price = 0  # multiplications of its next product

    def advance(self, v):
        if self.power is None and self.bank:
            self._pay()
        if self.power is not None:
            return self.power @ v
        for _ in range(self.n_steps):
            v = self.step @ v
        if self.bank is not None:
            self.bank += self.n_steps * self.step.nnz
        return v

    def _pay(self):
        if self._build is None:
            self._build = _powering(self.step, self.n_steps)
        try:
            while self.bank >= self._price:
                self.bank -= self._price
                self._price = next(self._build)
        except StopIteration as done:
            self._build = None
            if done.value.nnz <= self.n_steps * self.step.nnz:
                self.power, self.step = done.value, None
            else:
                self.bank = None


def rk4_advance(generator, rho, dt, n_steps):
    """Advance rho by n_steps RK4 steps of size dt under the superoperator
    generator; returns a new array and leaves rho untouched.

    The steps are taken by the _Gap of (dt, n_steps): n_steps products
    with the step matrix P(dt), or, once a recurring gap has paid for
    it, one product with P(dt)^n_steps. The gaps are cached on the
    generator, so they last as long as it does: _rk4_stacks makes a fresh
    one per call, as rotating_generator returns. Beyond _MAX_GAPS gaps
    the oldest is dropped.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dim_super = generator.shape[0]
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size != dim_super:
        raise DimensionError(
            f"state has shape {rho.shape}, generator acts on {dim_super} entries"
        )
    gaps = generator.__dict__.setdefault("_rk4_gaps", {})
    gap = gaps.get((dt, n_steps))
    if gap is None:
        if len(gaps) >= _MAX_GAPS:
            del gaps[next(iter(gaps))]
        gap = gaps[dt, n_steps] = _Gap(_step_polynomial(generator, dt), n_steps)
    v = gap.advance(rho.flatten(order="F"))
    return v.reshape(rho.shape, order="F")

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
the generator. Its first call builds P as one sparse matrix and steps,
one sparse matvec per step. Its second call builds P(h)^n by binary
powering, so a gap that recurs, as the few gaps of a uniform output
grid do hundreds of times, is one sparse matvec per call from then on,
and a gap met once builds nothing.
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


def _powering(step, n):
    """step^n for n >= 1 by binary powering: the product of the squares
    step^(2^j) over the set bits j of n."""
    power = None
    while True:
        if n & 1:
            power = step if power is None else power @ step
        n >>= 1
        if not n:
            return power
        step = step @ step


class _Gap:
    """n_steps RK4 steps of one size h, taken as repeat products with
    matrix: P(h) n_steps times on the gap's first call, and from its
    second call on P(h)^n_steps once, unless that power holds more than
    n_steps * nnz(P) entries; one product with it would then cost more
    than the steps, so it is dropped and the gap keeps stepping."""

    def __init__(self, step, n_steps):
        self.matrix = step
        self.repeat = n_steps
        self.calls = 0

    def advance(self, v):
        self.calls += 1
        if self.calls == 2 and self.repeat > 1:
            power = _powering(self.matrix, self.repeat)
            if power.nnz <= self.repeat * self.matrix.nnz:
                self.matrix, self.repeat = power, 1
        for _ in range(self.repeat):
            v = self.matrix @ v
        return v


def rk4_advance(generator, rho, dt, n_steps):
    """Advance rho by n_steps RK4 steps of size dt under the superoperator
    generator; returns a new array and leaves rho untouched.

    The steps are taken by the _Gap of (dt, n_steps): n_steps products
    with the step matrix P(dt) on its first call, and one product with
    P(dt)^n_steps from its second call on. The gaps are cached on the
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

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
Taylor polynomial of exp(hG) that the four stages compute. rk4_advance
builds P once per distinct step size, as one sparse matrix cached on the
generator, and then applies one sparse matvec per step.
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


# most step matrices cached per generator: a linspace grid needs 10-13,
# a grid whose every gap differs (logspace) would keep one per time
_MAX_STEP_MATRICES = 64


def _step_polynomial(generator, dt):
    """I + hG (I + hG/2 (I + hG/3 (I + hG/4))) with h = dt."""
    hg = dt * generator
    eye = sp.identity(generator.shape[0], dtype=complex, format="csr")
    p = eye
    for order in (4.0, 3.0, 2.0, 1.0):
        p = eye + (hg @ p) / order
    return p


def rk4_advance(generator, rho, dt, n_steps):
    """Advance rho by n_steps RK4 steps of size dt under the superoperator
    generator; returns a new array and leaves rho untouched.

    Each step is one product with the step matrix P(dt). P is cached on
    the generator by dt, so it lives as long as the generator does:
    evolve_rk4 makes a fresh one per call, as rotating_generator
    returns. Beyond _MAX_STEP_MATRICES step sizes the oldest is dropped.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dim_super = generator.shape[0]
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size != dim_super:
        raise DimensionError(
            f"state has shape {rho.shape}, generator acts on {dim_super} entries"
        )
    v = rho.flatten(order="F")
    steps = generator.__dict__.setdefault("_rk4_steps", {})
    if dt not in steps:
        if len(steps) >= _MAX_STEP_MATRICES:
            del steps[next(iter(steps))]
        steps[dt] = _step_polynomial(generator, dt)
    step = steps[dt]
    for _ in range(n_steps):
        v = step @ v
    return v.reshape(rho.shape, order="F")

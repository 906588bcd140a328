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


def rk4_advance(generator, rho, dt, n_steps):
    """Advance rho by n_steps RK4 steps of size dt under the superoperator
    generator; returns a new array and leaves rho untouched."""
    rho = np.asarray(rho, dtype=np.complex128)
    dim_super = generator.shape[0]
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size != dim_super:
        raise DimensionError(
            f"state has shape {rho.shape}, generator acts on {dim_super} entries"
        )
    v = rho.flatten(order="F")
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n_steps):
        k1 = generator @ v
        k2 = generator @ (v + half * k1)
        k3 = generator @ (v + half * k2)
        k4 = generator @ (v + dt * k3)
        v += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v.reshape(rho.shape, order="F")

"""Dissipative Jaynes-Cummings dynamics with dressed-state and bare-cavity
damping models.

The package builds both Lindblad generators on a truncated qubit-cavity
space and propagates them spectrally, by exact matrix-exponential steps
over the output grid (the microscopic one in its dressed frame, the
phenomenological one by sectors of fixed excitation difference), or by
fixed-step RK4 on those sectors, of either generator. It also provides
closed-form single-excitation solutions and the observables needed to
compare the two damping models.
"""

from .errors import (
    BohrFrequencyError,
    ConfigError,
    DefectiveLiouvillianError,
    DegenerateKernelError,
    DimensionError,
    DomainError,
    DriftError,
    JcdissError,
    OracleMismatchError,
    ParameterError,
    PhysicsGuardError,
    SubspaceLeakError,
    TruncationError,
)
from .hilbert import (
    QUBIT_E,
    QUBIT_G,
    SpaceSpec,
    coherent_state,
    default_coherent_n_max,
    density_matrix,
    fock_state,
    partial_trace_field,
    partial_trace_qubit,
    single_excitation_state,
)
from .dressed import (
    DressedSpectrum,
    SystemParams,
    build_jc_hamiltonian,
    dressed_spectrum,
    dressed_vector,
    ground_vector,
)
from .lindblad import (
    Liouvillian,
    RateTable,
    build_liouvillian,
    build_rate_table,
    thermal_occupation,
)
from .propagate import (
    EvolutionResult,
    SingleExcitationAmplitudes,
    analytic_microscopic,
    analytic_phenomenological,
    evolve,
    steady_state,
    trace_distance,
)
from .observables import (
    OBSERVABLES,
    HusimiGridSpec,
    PhaseGrid,
    concurrence,
    field_entropy,
    field_moments,
    ground_population,
    husimi_q,
    inversion,
    mean_photon,
    p_mean,
    p_var,
    purity,
    q_mean,
    q_var,
)

__version__ = "0.1.0"

"""Quartic-oscillator model of intense light in a centrosymmetric Kerr medium.

Truncated Fock-space substrate, an exact spectral-evolution oracle,
first-order closed forms for higher-order squeezing and antibunching
witnesses, and a sweep/comparison harness with a CLI front end.
"""

from .criteria import (
    BOUNDARY,
    CLASSICAL,
    DEFAULT_BOUNDARY_TOL,
    NONCLASSICAL,
    VacuumDenominatorError,
    classify,
    hillery_squeezing,
    hoa_d_from_moments,
    lee_R,
    quadrature_squeezing,
)
from .dynamics import (
    MONOMIALS,
    MomentSet,
    coherent_inputs,
    coherent_moment_set,
    evolve_blocks,
    exact_moment_blocks,
    hamiltonian,
)
from .fock import (
    EIGENVALUE_RESIDUAL_TOL,
    MAX_DIM,
    FockVector,
    ModelParams,
    TruncationError,
    coherent_state,
    default_dim,
    expectation,
    factorial_moment,
    make_ladder_ops,
    number_state,
)
from .perturbative import (
    ClosedFormInputs,
    delta_y1_squared,
    first_order_delta_y1_squared,
    first_order_hoa_d,
    first_order_moment_blocks,
    first_order_squeezing_f,
    hoa_witness_d,
    hoa_witness_d_special,
    mean_photon_number,
    phase_fundamental,
    phase_second_harmonic,
    secular_factor,
    squeezing_witness_f,
    squeezing_witness_f_special,
)
from .sweep import (
    CSV_HEADER,
    MODES,
    WITNESS_NAMES,
    WITNESSES,
    ScalingReport,
    SweepResult,
    SweepSpec,
    SweepSpecError,
    compare_report,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

"""safestab: sampled verification of reach-avoid-stay and stability-with-safety
specifications for disturbed nonlinear ODE systems, Lyapunov-barrier
certificate checking under worst-case disturbances, and numerical Lyapunov
construction from simulated decay envelopes.
"""

from .expr import (
    NonSmoothError,
    ParseError,
    ScalarField,
    UnknownIdentifierError,
    VectorField,
    parse,
    parse_scalar_field,
    parse_vector_field,
    to_source,
)
from .geometry import (
    Box,
    BoxComplement,
    DistanceIndicator,
    EmptySetError,
    Grid,
    GridSizeError,
    MaskSet,
    ProperIndicator,
    SetSpec,
    Sublevel,
    Union,
    make_grid,
)
from .dynamics import (
    ConstantPolicy,
    DisturbancePolicy,
    ExtremalFeedbackPolicy,
    PerturbedSystem,
    PiecewiseRandomPolicy,
    Trajectory,
    ZeroPolicy,
    default_policy_battery,
    ensemble,
    integrate,
    run_sweep,
)

__version__ = "0.1.0"

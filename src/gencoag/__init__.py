"""Sectional solver and verification harness for generalized coagulation
equations with singular kernels.

The package discretizes three related models on a geometric size grid:
the classical Smoluchowski equation, the Oort-Hulst-Safronov equation,
and the one-parameter family that interpolates between them, together
with a diagnostics suite that checks the moment bounds, weak-form
identities, and mass-conservation ledgers the models are supposed to
satisfy.
"""

from .errors import (
    ConfigError,
    DomainError,
    GaugeConstructionError,
    GencoagError,
    InitialDataError,
    StiffnessError,
)
from .kernels import (
    AdditiveKernel,
    Certificate,
    ConstantKernel,
    Kernel,
    PowerSumKernel,
    SingularProductKernel,
    TabulatedKernel,
    TruncatedKernel,
    kernel_from_config,
    truncate,
)
from .sizedomain import (
    ExponentialProfile,
    MonodisperseProfile,
    NumberDensity,
    SingularPowerProfile,
    SizeGrid,
    Trajectory,
    make_grid,
    sample_initial,
    weighted_norm,
)
from .operators import make_rhs
from .integrator import StepStats, evolve
from .gauges import (
    ConvexGauge,
    build_gauge_from_tail,
    psi1_tail,
    psi2_tail,
)

__version__ = "0.1.0"

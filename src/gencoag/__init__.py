"""Sectional solver and verification harness for generalized coagulation
equations with singular kernels.

The package discretizes three related models on a geometric size grid:
the classical Smoluchowski equation, the Oort-Hulst-Safronov equation,
and the one-parameter family that interpolates between them, together
with a diagnostics suite that checks the moment bounds, weak-form
identities, and mass-conservation ledgers the models are supposed to
satisfy.

Importing the package loads none of its submodules, and so no numpy:
each name below is imported from its submodule on first access (PEP 562).
That lets ``gencoag.cli`` run its own first lines before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: each name the package exports -> the submodule that defines it
_SOURCE = {
    **dict.fromkeys(("BoundViolation", "ConfigError", "DomainError", "GaugeConstructionError",
                     "GencoagError", "InitialDataError", "StiffnessError"), "errors"),
    **dict.fromkeys(("AdditiveKernel", "Certificate", "ConstantKernel", "Kernel",
                     "SingularProductKernel", "kernel_from_config", "truncate"), "kernels"),
    **dict.fromkeys(("ExponentialProfile", "NumberDensity", "SingularPowerProfile", "SizeGrid",
                     "Trajectory", "make_grid", "sample_initial"), "sizedomain"),
    "make_rhs": "operators",
    **dict.fromkeys(("StepStats", "evolve"), "integrator"),
    **dict.fromkeys(("ConvexGauge", "build_gauge_from_tail", "psi1_tail", "psi2_tail"), "gauges"),
}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

"""Desk-scale simulator for phase-locked collective-spin magnetometry.

Layers: exact Dicke-basis evolution (dicke), the four-pulse squeezing
train's reduction error (squeezing), printed closed-form expectations
(analytic), tone noise and pulse-train phase accumulation (noise, lockin),
Monte-Carlo sweeps over one numpy kernel (montecarlo, kernels), and a
config-driven CLI (cli).
"""
from .analytic import (
    expect_jx,
    expect_jz,
    min_detectable_phase,
    oracle_grid,
)
from .dicke import (
    CollectiveOps,
    PhaseTriple,
    PulseStep,
    TridiagonalOperator,
    build_collective_ops,
    css_state,
    full_space_oracle,
    schedule_expectations,
    x_css,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyRangeError,
    FringeNodeError,
    NonHermitianError,
    NumericsError,
    PhaseDomainError,
    SpinlockError,
)
from .lockin import LockInSchedule, phase_kernel_grid
from .montecarlo import (
    CurvePoint,
    McConfig,
    contrast_curve,
    fringe_contrast_mc,
    measurement_range,
    sensitivity_curve,
)
from .noise import NoiseComponent, synth_noise
from .squeezing import SqueezeParams, bch_error

__version__ = "0.4.0"

__all__ = [
    "CollectiveOps",
    "ConfigError",
    "CurvePoint",
    "DimensionMismatchError",
    "EmptyRangeError",
    "FringeNodeError",
    "LockInSchedule",
    "McConfig",
    "NoiseComponent",
    "NonHermitianError",
    "NumericsError",
    "PhaseDomainError",
    "PhaseTriple",
    "PulseStep",
    "SpinlockError",
    "SqueezeParams",
    "TridiagonalOperator",
    "bch_error",
    "build_collective_ops",
    "contrast_curve",
    "css_state",
    "expect_jx",
    "expect_jz",
    "fringe_contrast_mc",
    "full_space_oracle",
    "measurement_range",
    "min_detectable_phase",
    "oracle_grid",
    "phase_kernel_grid",
    "schedule_expectations",
    "sensitivity_curve",
    "synth_noise",
    "x_css",
    "__version__",
]

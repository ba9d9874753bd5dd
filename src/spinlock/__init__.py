"""Desk-scale simulator for phase-locked collective-spin magnetometry.

Layers: exact Dicke-basis evolution (dicke), joint photon-atom squeezing
sequence (squeezing), printed closed-form expectations (analytic), tone
noise and pulse-train phase accumulation (noise, lockin), Monte-Carlo
sweeps over one numpy kernel (montecarlo, kernels), and a config-driven
CLI (cli).
"""
from .analytic import (
    expect_jx,
    expect_jz,
    min_detectable_phase,
    oracle_grid,
    sql_phase,
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
    WindowError,
)
from .lockin import (
    LockInSchedule,
    accumulated_beta,
    phase_kernel_grid,
    toggling_function,
)
from .montecarlo import (
    CurvePoint,
    McConfig,
    contrast_curve,
    fringe_contrast_mc,
    measurement_range,
    sensitivity_curve,
)
from .noise import NoiseComponent, synth_noise
from .squeezing import (
    SqueezeParams,
    StokesOps,
    bch_error,
    build_stokes_ops,
    effective_unitary,
    u4_sequence,
)

__version__ = "0.3.1"

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
    "StokesOps",
    "TridiagonalOperator",
    "WindowError",
    "accumulated_beta",
    "bch_error",
    "build_collective_ops",
    "build_stokes_ops",
    "contrast_curve",
    "css_state",
    "effective_unitary",
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
    "sql_phase",
    "synth_noise",
    "toggling_function",
    "u4_sequence",
    "x_css",
    "__version__",
]

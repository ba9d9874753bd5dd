"""Exception types shared across the package, and the integer check every
layer applies to its sizes, counts and seeds."""
import math
from numbers import Integral


class SpinlockError(Exception):
    """Base class for all spinlock errors."""


class ConfigError(SpinlockError):
    """Invalid configuration: bad value, unknown key, or infeasible dimension."""


class DimensionMismatchError(SpinlockError):
    """Operands live on different Hilbert spaces or have unequal lengths."""


class NonHermitianError(SpinlockError):
    """An operator contractually required to be Hermitian is not."""


class NumericsError(SpinlockError):
    """A numerical tolerance was violated badly enough to indicate a logic bug
    rather than rounding (e.g. a variance below -1e-10)."""


class FringeNodeError(SpinlockError):
    """Minimal detectable phase requested at a fringe node (vanishing slope)."""


class PhaseDomainError(SpinlockError):
    """Radicand of the minimal-detectable-phase formula is negative beyond
    rounding tolerance."""


class EmptyRangeError(SpinlockError):
    """No contiguous stretch of a contrast curve clears the threshold."""


def _check_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """ConfigError unless value is an integer, not a bool, in [low, high].

    numpy's integer scalars count as integers; nothing is coerced, so 2.0
    and True are rejected rather than read as 2 and 1.
    """
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{name}={value} outside [{low}, {high}]")

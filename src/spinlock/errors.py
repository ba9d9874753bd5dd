"""Exception types shared across the package, and the two input checks,
integer and real, that every layer and every config row applies."""
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


class SeriesError(NumericsError):
    """A closed-form series cannot give a mean to its tolerance (the eq23
    Fourier series); the sampler can.  terms and tail say how far it got
    (see montecarlo._eq23_means)."""

    def __init__(self, message: str, terms: int, tail: float):
        super().__init__(message)
        self.terms = terms
        self.tail = tail


class FringeNodeError(SpinlockError):
    """Minimal detectable phase requested at a fringe node (vanishing slope)."""


class PhaseDomainError(SpinlockError):
    """Radicand of the minimal-detectable-phase formula is negative beyond
    rounding tolerance."""


class EmptyRangeError(SpinlockError):
    """No contiguous stretch of a contrast curve clears the threshold."""


def _bounds(low, high, strict: bool) -> str:
    if high == math.inf:
        return f"> {low}" if strict else f">= {low}"
    return f"in ({low}, {high})" if strict else f"in [{low}, {high}]"


def _check_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """ConfigError unless value is an integer, not a bool, in [low, high].

    numpy's integer scalars count as integers; nothing is coerced, so 2.0
    and True are rejected rather than read as 2 and 1.
    """
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{name} must be {_bounds(low, high, False)}, got {value!r}")


def _check_real(
    name: str, value, low: float = -math.inf, high: float = math.inf, strict: bool = False
) -> None:
    """ConfigError unless value is a finite number, not a bool, in [low, high],
    or in (low, high) when strict.

    Whatever math.isfinite takes counts as a number, numpy's scalars
    included; an integer past the float range is not finite.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        finite = math.isfinite(value)
    except TypeError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if not (low < value < high if strict else low <= value <= high):
        raise ConfigError(f"{name} must be {_bounds(low, high, strict)}, got {value!r}")

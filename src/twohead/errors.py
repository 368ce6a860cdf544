"""Exception taxonomy shared by all modules, and the one number check."""

import math
import sys


class TwoHeadError(Exception):
    """Base class for all package errors."""


class ConfigError(TwoHeadError, ValueError):
    """Invalid configuration value (bad width, rate, split, ...)."""


def check_number(name: str, value, integer: bool = False) -> None:
    """ConfigError naming the setting ``name`` unless ``value`` is a finite
    Python int or float (np.float64 is one), or an int where ``integer`` is
    set: a numpy float32 fails the manifest's JSON, a numpy int the seed mixer."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a real number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    finite = abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)
    if not (integer or finite):
        raise ConfigError(f"{name} must be finite, got {value!r}")


class DimensionError(TwoHeadError, ValueError):
    """Operands have incompatible shapes."""


class NumericError(TwoHeadError, ValueError):
    """Non-finite values where finite ones are required."""


class DataError(TwoHeadError, ValueError):
    """Labels or samples violate the dataset contract."""


class UsageError(TwoHeadError, RuntimeError):
    """API called out of order (stale cache, empty batch, ...)."""


class NonFiniteLossError(TwoHeadError, ArithmeticError):
    """A training loss or its gradient became NaN/Inf before the update
    was applied; carries the step and epoch, and for a gradient the first
    layer that holds a non-finite entry."""

    def __init__(self, step: str, epoch: int, value: float, layer: str | None = None):
        self.step = step
        self.epoch = epoch
        self.value = value
        self.layer = layer
        what = f"non-finite loss {value!r}" if layer is None else \
            f"non-finite gradient in layer {layer} (loss {value!r})"
        super().__init__(f"{what} in step {step} at epoch {epoch}")

"""Exception taxonomy shared by all modules."""


class TwoHeadError(Exception):
    """Base class for all package errors."""


class ConfigError(TwoHeadError, ValueError):
    """Invalid configuration value (bad width, rate, split, ...)."""


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

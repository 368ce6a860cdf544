"""Two-head classifier training with divergence-based noisy-label
filtering, open-set rejection, and mini-max feature alignment, on 2-D
Gaussian-blob domain pairs."""

__version__ = "0.1.0"

from .data import (BlobSpec, ClassRole, DomainDataset, NoiseKind, NoiseSpec,
                   build_toy_scenario, class_split, inject_noise,
                   make_transition_matrix, minibatches)
from .errors import (ConfigError, DataError, DimensionError, NonFiniteLossError,
                     NumericError, TwoHeadError, UsageError)
from .evaluation import (BoundaryGrid, EvalReport, UNKNOWN, boundary_grid,
                         divergence_density, evaluate, predict, scott_bandwidth)
from .losses import (MethodVariant, SeparationParams, VariantPlan,
                     small_loss_mask, variant_losses)
from .nn import (Activation, DenseLayer, Scope, SgdConfig, TwoHeadModel,
                 backward, forward, grad_check, init_model, sgd_step)
from .trainer import TrainConfig, TrainState, train

__all__ = [
    "__version__",
    "Activation", "BlobSpec", "BoundaryGrid", "ClassRole", "ConfigError",
    "DataError", "DenseLayer", "DimensionError", "DomainDataset", "EvalReport",
    "MethodVariant", "NoiseKind", "NoiseSpec",
    "NonFiniteLossError", "NumericError", "Scope", "SeparationParams",
    "SgdConfig", "TrainConfig", "TrainState", "TwoHeadError", "TwoHeadModel",
    "UNKNOWN", "UsageError", "VariantPlan", "backward", "boundary_grid",
    "build_toy_scenario", "class_split", "divergence_density", "evaluate",
    "forward", "grad_check", "init_model", "inject_noise",
    "make_transition_matrix", "minibatches", "predict", "scott_bandwidth",
    "sgd_step", "small_loss_mask", "train", "variant_losses",
]

"""Mini-batch training: clean-sample fitting, target separation, and the
discriminator/alignment mini-max game.  ``init_state`` checks the data and
builds a run's TrainState at epoch 0, ``train_epoch`` runs one epoch of it,
and ``train`` loops over epochs to ``config.epochs``.  A caller that reads
the model between epochs writes that loop itself.

Per source/target batch pair the loop runs four phases in order:

  A-1  fit generator + heads on the small-loss subset of the source batch
       (supervised loss plus weighted agreement divergence)
  A-2  push per-sample crs/ent away from the threshold band on the target
       batch (all parameters), each by its hinge weight
  B    heads only: keep the source subset loss low while raising target
       crs (heads act as a discriminator, generator frozen)
  C    generator only: lower crs on the detected target-common subset,
       repeated up to n_inner times with the subset re-detected each time;
       an empty subset ends the phase

Variants change fields of the full plan; see losses.variant_losses.

Every step checks its objective's value and its scope's gradients before
it applies the update, and raises NonFiniteLossError with the parameters
untouched.  Each target-batch step hands its forward of the batch on (A-2
to B to each C repeat), and ``forward`` takes what of it still holds: all
of A-2's when A-2 applied no update, and B's generator activations.

Two stabilizers keep the mini-max game away from degenerate saturation
when training small networks from scratch: the divergence-raising flows
(A-2 hinge, B's target term) saturate one extra margin beyond the dead
band, and their gradients carry a balance weight < 1 so the supervised
anchor and the alignment step set the equilibrium.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import losses
from .data import DomainDataset, minibatches
from .errors import ConfigError, NonFiniteLossError, NumericError, check_number
from .losses import MethodVariant, SeparationParams, VariantPlan
from .nn import (ForwardCache, Scope, SgdConfig, TwoHeadModel, backward, forward,
                 init_model, sgd_step)
from .rng import derive_seed

HIDDEN_WIDTH = 32
N_HIDDEN_LAYERS = 3


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters, checked when the config is made.

    ``delta`` defaults to ln(num classes) when left as None; ``alpha`` is
    the fraction of each source batch dropped by small-loss selection.
    ``margin`` must lie in (0, delta): at or above delta, C's subset
    (crs < delta - margin) is empty; at 0, so is A-2's hinge window.
    """

    alpha: float = 0.2
    lam: float = field(default=0.1, metadata={"key": "lambda"})
    delta: float | None = None
    margin: float = 1.0
    n_inner: int = 4
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    minimax_weight: float = 0.2
    batch_size: int = 64
    epochs: int = 400
    seed: int = 7
    variant: MethodVariant = MethodVariant.FULL

    def __post_init__(self):
        # by annotation: int fields hold integers and float fields finite
        # real numbers, or None where the annotation allows it
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "float") or (f.type == "float | None" and value is not None):
                check_number(f.metadata.get("key", f.name), value, integer=f.type == "int")
        if not isinstance(self.variant, MethodVariant):
            raise ConfigError(f"variant must be a MethodVariant, got {self.variant!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha (drop fraction) must be in [0, 1), got {self.alpha}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        # before the class count is known, a None delta is at most ln(float max)
        self.separation(sys.float_info.max)
        self.sgd  # built to check the SGD settings
        if self.minimax_weight <= 0:
            raise ConfigError(f"minimax_weight must be > 0, got {self.minimax_weight}")
        if self.n_inner < 1:
            raise ConfigError(f"n_inner must be >= 1, got {self.n_inner}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")

    @property
    def sgd(self) -> SgdConfig:
        """The SgdConfig of ``learning_rate``, ``momentum`` and ``weight_decay``."""
        return SgdConfig(self.learning_rate, self.momentum, self.weight_decay)

    def separation(self, num_classes: float) -> SeparationParams:
        """Delta (ln ``num_classes`` when None) and margin; raises
        ConfigError unless 0 < margin < delta."""
        delta = math.log(num_classes) if self.delta is None else self.delta
        sep = SeparationParams(delta=delta, margin=self.margin)
        if not 0 < self.margin < delta:
            raise ConfigError(f"margin must be in (0, delta), got {self.margin}, delta {delta}")
        return sep


@dataclass
class TraceRow:
    """One batch step of training; its fields are the columns of
    ``loss_trace.csv``, in order."""

    epoch: int
    step: int
    loss_sup: float
    loss_skld: float
    loss_sep: float
    loss_b: float
    loss_c: float
    clean_fraction_selected: float


@dataclass
class TrainState:
    """One run: the data and config ``init_state`` checked, the model, the
    next epoch and the trace so far.  Each epoch reads ``config`` afresh."""

    source: DomainDataset
    target: DomainDataset
    config: TrainConfig
    model: TwoHeadModel
    epoch: int = 0
    trace: list[TraceRow] = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.config.separation(self.source.num_model_classes).delta

    @property
    def step_counter(self) -> int:
        """Batch steps completed: one trace row each."""
        return len(self.trace)

    def trace_to_csv(self, path) -> None:
        # csv writes ints with str and floats with repr; attrgetter, unlike
        # dataclasses.astuple, does not deep-copy every field
        columns = [f.name for f in fields(TraceRow)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(map(operator.attrgetter(*columns), self.trace))


def _check_finite(value: float, step: str, epoch: int) -> None:
    if not math.isfinite(value):
        raise NonFiniteLossError(step=step, epoch=epoch, value=value)


def _update(model: TwoHeadModel, sgd: SgdConfig, scope: Scope, value: float,
            step: str, epoch: int) -> None:
    """Apply ``scope``'s SGD step once the objective's value and the
    scope's gradients are known to be finite; otherwise raise
    NonFiniteLossError with the parameters untouched, naming the first
    layer whose gradient is not finite."""
    _check_finite(value, step, epoch)
    if not np.logical_and.reduce(np.isfinite(model.grads[model.scope_slice(scope)])):
        layer = next(name for name, layer in model.named_layers()
                     if not (np.isfinite(layer.grad_weight).all()
                             and np.isfinite(layer.grad_bias).all()))
        raise NonFiniteLossError(step=step, epoch=epoch, value=value, layer=layer)
    sgd_step(model, sgd, scope)


def step_a1(model: TwoHeadModel, x: np.ndarray, y_obs: np.ndarray,
            plan: VariantPlan, sgd: SgdConfig, epoch: int = 0) -> losses.SourceObjective:
    """Small-loss selection plus one full-network update on the selected
    subset (the keep-mask ``rows`` of the result)."""
    cache = forward(model, x)
    source = losses.source(cache.p, y_obs, plan.lam, plan.alpha)
    backward(model, cache, source.dp)
    _update(model, sgd, Scope.ALL, source.value, "A-1", epoch)
    return source


def step_a2(model: TwoHeadModel, x_t: np.ndarray, sep: SeparationParams,
            plan: VariantPlan, sgd: SgdConfig, weight: float = 1.0,
            epoch: int = 0) -> tuple[float, ForwardCache]:
    """Full-network update on the target separation hinge, weighted by
    ``weight``.  The hinge saturates ``sep.reach`` from delta.  A batch
    whose gradient vanishes (everything inside the band or past the
    saturation) leaves the parameters untouched.  Returns the unweighted
    hinge loss and the forward of ``x_t``."""
    cache = forward(model, x_t)
    hinge = losses.separation(cache.p, sep, plan.sep_crs, plan.sep_ent, sep.reach)
    if not np.count_nonzero(hinge.dp):
        _check_finite(hinge.value, "A-2", epoch)
        return hinge.value, cache
    backward(model, cache, weight * hinge.dp)
    _update(model, sgd, Scope.ALL, hinge.value, "A-2", epoch)
    return hinge.value, cache


def step_b(model: TwoHeadModel, x_sel: np.ndarray, y_sel: np.ndarray,
           x_t: np.ndarray, sep: SeparationParams, plan: VariantPlan,
           sgd: SgdConfig, weight: float = 1.0,
           reuse: ForwardCache | None = None, epoch: int = 0
           ) -> tuple[float, ForwardCache]:
    """Heads-only discriminator update: keep the selected source loss low
    while raising the mean target crs (``weight`` times).  The generator
    stays bit-identical, so both backward passes stop at the features.
    Target rows whose crs already exceeds ``sep.cap`` (delta plus the A-2
    saturation reach) stop contributing gradient (their rejection is
    decided).  ``reuse`` is an earlier forward of ``x_t`` (A-2's), passed
    on to ``forward``.

    Returns the source loss minus the mean capped target crs, the
    objective whose gradient was applied (without the weight), and the
    forward of ``x_t``."""
    cache_s = forward(model, x_sel)
    source = losses.source(cache_s.p, y_sel, plan.lam)
    backward(model, cache_s, source.dp, Scope.HEADS_ONLY)

    cache_t = forward(model, x_t, reuse=reuse)
    target = losses.crs(cache_t.p, weight=-weight, cap=sep.cap)
    backward(model, cache_t, target.dp, Scope.HEADS_ONLY)

    value = source.value - float(np.add.reduce(target.per_sample) / len(target.per_sample))
    _update(model, sgd, Scope.HEADS_ONLY, value, "B", epoch)
    return value, cache_t


def step_c(model: TwoHeadModel, x_t: np.ndarray, sep: SeparationParams,
           sgd: SgdConfig, n_inner: int, reuse: ForwardCache | None = None,
           epoch: int = 0) -> list[float]:
    """Generator-only alignment: lower mean crs over the detected
    target-common subset (crs < delta - margin).  Repeated up to n_inner
    times, re-detecting the subset each time.  An empty subset ends the
    loop: no update was applied, so every later repeat would detect the
    same empty subset.  ``reuse`` is an earlier forward of ``x_t`` (B's),
    passed on to the first repeat's ``forward``, and each repeat passes its
    forward on to the next.  Returns one value per applied update."""
    out = []
    for _ in range(n_inner):
        reuse = forward(model, x_t, reuse=reuse)
        common = losses.crs(reuse.p, below=sep.delta - sep.margin)
        if not common.rows.any():
            break
        backward(model, reuse, common.dp, Scope.GENERATOR_ONLY)
        _update(model, sgd, Scope.GENERATOR_ONLY, common.value, "C", epoch)
        out.append(common.value)
    return out


def init_state(source: DomainDataset, target: DomainDataset, config: TrainConfig) -> TrainState:
    """Check the datasets against ``config`` and build the model: epoch 0."""
    if source.features.shape[1] != target.features.shape[1]:
        raise ConfigError("source and target feature dimensions differ")
    if source.observed_labels is None:
        raise ConfigError("source dataset has no observed labels")
    for name, dataset in (("source", source), ("target", target)):
        if not np.isfinite(dataset.features).all():
            raise NumericError(f"{name} features contain NaN/Inf")
        if len(dataset) < config.batch_size:
            raise ConfigError(
                f"{name} has {len(dataset)} rows, fewer than batch_size "
                f"{config.batch_size}: no training step would run")
    n_src, n_tgt = len(source) // config.batch_size, len(target) // config.batch_size
    if n_src != n_tgt:
        raise ConfigError(
            f"source gives {n_src} batches per epoch and target {n_tgt}: "
            f"each batch step pairs one of each, so the surplus would never train")

    n_classes = source.num_model_classes
    if n_classes < 2:
        raise ConfigError(f"need >= 2 source classes, got {n_classes}")
    config.separation(n_classes)
    widths = [source.features.shape[1]] + [HIDDEN_WIDTH] * N_HIDDEN_LAYERS
    model = init_model(widths, n_classes, derive_seed(config.seed, "model"))
    return TrainState(source, target, config, model)


def train_epoch(state: TrainState) -> None:
    """Run epoch ``state.epoch``, a TraceRow per batch step, and advance it."""
    source, target, config, model = state.source, state.target, state.config, state.model
    epoch, sgd, sep = state.epoch, config.sgd, config.separation(source.num_model_classes)
    plan = losses.variant_losses(config.variant, config.alpha, config.lam)
    clean = source.observed_labels == source.true_labels
    src_batches = minibatches(source, config.batch_size,
                              derive_seed(config.seed, "batch-source"), epoch)
    tgt_batches = minibatches(target, config.batch_size,
                              derive_seed(config.seed, "batch-target"), epoch)
    for src_idx, tgt_idx in zip(src_batches, tgt_batches):
        x_s = source.features[src_idx]
        y_s = source.observed_labels[src_idx]
        x_t = target.features[tgt_idx]

        a1 = step_a1(model, x_s, y_s, plan, sgd, epoch=epoch)

        loss_sep, cache_t = 0.0, None
        if plan.sep_crs or plan.sep_ent:
            loss_sep, cache_t = step_a2(model, x_t, sep, plan, sgd,
                                        weight=config.minimax_weight, epoch=epoch)

        loss_b = loss_c = 0.0
        if plan.minimax:
            loss_b, cache_t = step_b(model, x_s[a1.rows], y_s[a1.rows], x_t, sep,
                                     plan, sgd, weight=config.minimax_weight,
                                     reuse=cache_t, epoch=epoch)
            c_values = step_c(model, x_t, sep, sgd, config.n_inner,
                              reuse=cache_t, epoch=epoch)
            loss_c = float(np.mean(c_values)) if c_values else 0.0

        kept_clean = clean[src_idx][a1.rows]
        state.trace.append(TraceRow(
            epoch=epoch, step=state.step_counter,
            loss_sup=a1.sup, loss_skld=a1.skld, loss_sep=loss_sep,
            loss_b=loss_b, loss_c=loss_c,
            clean_fraction_selected=np.count_nonzero(kept_clean) / len(kept_clean)))
    state.epoch += 1


def train(source: DomainDataset, target: DomainDataset, config: TrainConfig) -> TrainState:
    """Run the full procedure; deterministic given (datasets, config)."""
    state = init_state(source, target, config)
    while state.epoch < config.epochs:
        train_epoch(state)
    return state

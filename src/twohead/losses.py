"""Training objectives, small-loss selection and method variants.

All functions are pure and operate on probability rows (one sample per
row, one column per class).  Probabilities are clamped at 1e-12 before
every log so near-one-hot outputs stay finite; the clamp is treated as
constant when differentiating.

Naming used throughout:

* ``agreement divergence`` (skld): KL(p1||p2) + KL(p2||p1), small when the
  two heads agree.
* ``crs``: H(p1, p2) + H(p2, p1), the pairwise cross-entropy sum.
* ``ent``: H(p1) + H(p2), the confidence term.
* skld == crs - ent as an algebraic identity.

Each training objective is one function that takes the model's stacked
(2, N, C) probabilities (head 1, head 2), computes the clamped logs and
safe inverses of both heads at once, and returns an ``Objective``: the
batch value, the per-sample values, the rows it averages and one
(2, N, C) gradient ``dp`` that ``nn.backward`` takes as it is, from the
same pass.  Cross terms pair each head with the other through ``_other``.
The rows are one (N,) boolean keep-mask, all true or not: the value is
``np.add.reduce(x[rows]) / k`` over the k kept rows, bit-identical to
``x[rows].mean()`` without numpy's wrapper, and ``dp`` is zero outside.

The objectives also take (..., 2, N, C) stacks, such as the (M, 2, N, C)
probabilities of a model with M members, and then return one value per
member (an array of shape (...)) and per-sample values and ``dp`` with the
same leading axes, each bit for bit what the member alone gives.  All
members share one row set, so an objective that picks rows per member
(small-loss selection with alpha > 0, crs with a finite ``below``) raises
UsageError on a stack.

* ``source``: supervised loss plus lam * skld on the small-loss subset
  (A-1; B's source term).
* ``separation``: the dead-band hinge on crs and ent (A-2).
* ``crs``: mean crs over every row or over the rows below a threshold;
  B's target term (weight < 0, capped) and C's alignment.

``crs_rows``, ``ent_rows`` and ``skld_rows`` are the one formula of each
per-sample value; the objectives pass them the logs they already hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UsageError, check_number

P_CLAMP = 1e-12


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, P_CLAMP))


def _logs_and_inv(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the clamped logs and their derivative: 1/p above the clamp, 0 below it
    clamped = np.maximum(p, P_CLAMP)
    return np.log(clamped), np.where(p > P_CLAMP, 1.0 / clamped, 0.0)


def _check_stack(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim < 3 or p.shape[-3] != 2 or p.shape[-1] < 2:
        raise DimensionError(f"probabilities must be (..., 2, N, C) head pairs over "
                             f"C >= 2 classes, got {p.shape}")
    return p


def _other(x: np.ndarray) -> np.ndarray:
    """The other head's entry of a (..., 2, N, C) pair: head 2's, head 1's."""
    return x[..., ::-1, :, :]


def _mean(per: np.ndarray, rows: np.ndarray, k: int) -> float | np.ndarray:
    """Mean of ``per`` over the ``k`` rows of its last axis that the mask
    ``rows`` keeps: a float for one pair, one value per member for a stack."""
    if per.ndim == 1:
        return float(np.add.reduce(per[rows]) / k)
    # compress, unlike a mask gather, keeps rows row-major: adds as one pair does
    return np.add.reduce(np.compress(rows, per, axis=-1), axis=-1) / k


def _one_row_set(p: np.ndarray, what: str) -> None:
    if p.ndim > 3:
        raise UsageError(f"{what} picks rows per member; a (..., 2, N, C) stack "
                         f"needs one row set for all members")


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (np.minimum.reduce(labels) < 0
                        or np.maximum.reduce(labels) >= num_classes):
        raise DataError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")
    return labels.astype(np.int64)


@dataclass
class SeparationParams:
    """Dead-band hinge parameters: threshold ``delta``, margin ``margin``."""

    delta: float
    margin: float

    def __post_init__(self):
        check_number("delta", self.delta)
        check_number("margin", self.margin)
        if self.delta <= 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if self.margin < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")

    # The divergence-raising flows (A-2's hinge, B's target term) saturate
    # once a sample is rejected with a full extra margin; keeps the
    # mini-max game off the probability clamp.
    @property
    def reach(self) -> float:
        """Distance from delta at which the A-2 hinge saturates."""
        return 2.0 * self.margin

    @property
    def cap(self) -> float:
        """Per-sample crs past which B's target term stops pushing."""
        return self.delta + self.reach


class MethodVariant(Enum):
    FULL = "full"
    SOURCE_ONLY = "source_only"
    NO_SELECT = "no_select"
    NO_DIV = "no_div"
    NO_CRS = "no_crs"
    NO_ENT = "no_ent"
    NO_SEP = "no_sep"
    NO_MINIMAX = "no_minimax"
    WITH_KL = "with_kl"


class Objective(NamedTuple):
    """One objective on a batch: ``value`` is the mean of ``per_sample``
    over ``rows``, an (N,) boolean keep-mask (times the objective's weight,
    if it has one), and ``dp`` is d(value)/dp for the stacked (2, N, C)
    head pair, zero outside ``rows``.  On a stack, ``value`` has one entry
    per member."""

    value: float | np.ndarray
    per_sample: np.ndarray
    dp: np.ndarray
    rows: np.ndarray


class SourceObjective(NamedTuple):
    """The joint source loss as an ``Objective`` whose ``rows`` are the
    small-loss subset, plus the means over those rows of its supervised
    term (``sup``) and of the agreement divergence (``skld``)."""

    value: float | np.ndarray
    per_sample: np.ndarray
    dp: np.ndarray
    rows: np.ndarray
    sup: float | np.ndarray
    skld: float | np.ndarray


# --- per-sample divergences ---------------------------------------------------

def crs_rows(p: np.ndarray, logs: np.ndarray | None = None) -> np.ndarray:
    """Per-sample pairwise cross-entropy sum H(p1,p2) + H(p2,p1) of the
    (..., 2, N, C) pair; ``logs`` are its clamped logs, if already taken."""
    cross = p * _other(_clamped_log(p) if logs is None else logs)  # p1 log p2, p2 log p1
    return -np.add.reduce(cross[..., 0, :, :] + cross[..., 1, :, :], axis=-1)


def ent_rows(p: np.ndarray, logs: np.ndarray | None = None) -> np.ndarray:
    """Per-sample entropy sum H(p1) + H(p2); ``logs`` as for crs_rows."""
    own = p * (_clamped_log(p) if logs is None else logs)
    return -np.add.reduce(own[..., 0, :, :] + own[..., 1, :, :], axis=-1)


def skld_rows(p: np.ndarray, log_ratio: np.ndarray | None = None) -> np.ndarray:
    """Per-sample agreement divergence KL(p1||p2) + KL(p2||p1);
    ``log_ratio`` is log p - log p_other of the clamped logs, if held."""
    if log_ratio is None:
        logs = _clamped_log(p)
        log_ratio = logs - _other(logs)
    kl = np.add.reduce(p * log_ratio, axis=-1)   # KL(p1||p2), KL(p2||p1)
    return kl[..., 0, :] + kl[..., 1, :]


# --- small-loss selection ------------------------------------------------------

SELECTION_GUARD = 1e-9  # alpha * N this close below an integer counts as it


def small_loss_mask(per_sample_losses: np.ndarray,
                    alpha: float | np.ndarray) -> np.ndarray:
    """Keep-mask of the k = ceil((1 - alpha) * N) smallest losses in each
    row of the (..., N) losses.

    ``alpha`` is the dropped fraction, a float for every row or an array
    of one value per row (shape (...)); alpha = 0 keeps everything.  An
    alpha * N within ``SELECTION_GUARD`` below an integer counts as that
    integer, so alpha = 0.7 keeps 3 of 10 although 1 - 0.7 is a float above
    0.3; an alpha so close to 1 that it keeps no row raises ConfigError.
    Ties break toward the lower index.
    """
    losses = np.asarray(per_sample_losses, dtype=np.float64)
    if losses.ndim == 0 or losses.size == 0:
        raise UsageError("small_loss_mask needs nonempty loss vectors along the last axis")
    n = losses.shape[-1]
    # guard float drift: N - floor(alpha*N) == ceil((1-alpha)*N) for integer N
    if not (isinstance(alpha, np.ndarray) and alpha.ndim):
        if not 0.0 <= alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {alpha}")
        k = n - math.floor(alpha * n + SELECTION_GUARD)
        if k == 0:
            raise ConfigError(f"alpha {alpha} keeps no row of a batch of {n}")
        if k == n:
            mask = np.empty(losses.shape, dtype=bool)
            mask.fill(True)
            return mask
    else:
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != losses.shape[:-1]:
            raise DimensionError(f"alpha needs one value per row of the {losses.shape} "
                                 f"losses, got shape {alpha.shape}")
        outside = ~((alpha >= 0.0) & (alpha < 1.0))
        if outside.any():
            raise ConfigError(f"alpha must be in [0, 1), got {alpha[outside][0]}")
        k = n - np.floor(alpha[..., None] * n + SELECTION_GUARD).astype(np.int64)
        if not k.all():
            raise ConfigError(f"alpha {alpha[k[..., 0] == 0][0]} keeps no row of a "
                              f"batch of {n}")
    if losses.ndim == 1:
        mask = np.zeros(n, dtype=bool)
        mask[losses.argsort(kind="stable")[:k]] = True   # ties: lower index first
        return mask
    # a block keeps the losses that sort before each row's k-th smallest,
    # then the lowest-index ties of it: what the 1-D stable sort keeps,
    # without sorting indices.  NaN sorts last there too: before a NaN
    # k-th loss come all numbers, and every NaN ties with it
    k = np.broadcast_to(k, losses.shape[:-1] + (1,))
    kth = np.take_along_axis(np.sort(losses, axis=-1), k - 1, axis=-1)
    nan, nan_kth = np.isnan(losses), np.isnan(kth)
    below = np.where(nan_kth, ~nan, losses < kth)
    tie = np.where(nan_kth, nan, losses == kth)
    return below | (tie & (tie.cumsum(axis=-1) <= k - below.sum(axis=-1, keepdims=True)))


# --- objectives ------------------------------------------------------------------

def source(p: np.ndarray, labels: np.ndarray, lam: float,
           alpha: float = 0.0) -> SourceObjective:
    """Joint source loss on the (2, N, C) head pair: cross-entropy of both
    heads against the observed labels plus ``lam`` times the agreement
    divergence, averaged over the small-loss subset of its own per-sample
    values that drops the ``alpha`` fraction (alpha = 0 keeps every row).
    A (..., 2, N, C) stack takes alpha = 0 only."""
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    p = _check_stack(p)
    n = p.shape[-2]
    labels = _check_labels(labels, p.shape[-1])
    logs, inv = _logs_and_inv(p)
    idx = np.arange(n)
    # the gather puts its row axis outermost in memory; made row-major, a
    # stack's sums over rows add in the order one pair's do
    picked = np.ascontiguousarray(logs[..., idx, labels])
    sup = -(picked[..., 0, :] + picked[..., 1, :])
    log_ratio = logs - _other(logs)
    agreement = skld_rows(p, log_ratio)
    per = sup + lam * agreement
    # selection checks alpha and n; with alpha = 0 it keeps every row, for
    # every member of a stack alike
    rows = small_loss_mask(per[(0,) * (per.ndim - 1)], alpha)
    if alpha:
        _one_row_set(p, "small-loss selection with alpha > 0")
    k = np.count_nonzero(rows)

    d = np.zeros(p.shape)
    d[..., idx, labels] = -inv[..., idx, labels]
    if lam != 0.0:
        d += lam * (log_ratio + (p - _other(p)) * inv)
    dp = np.where(rows[:, None], d / k, 0.0)
    return SourceObjective(_mean(per, rows, k), per, dp, rows,
                           _mean(sup, rows, k), _mean(agreement, rows, k))


def _hinge(values: np.ndarray, params: SeparationParams,
           reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Dead-band hinge rows, saturated ``reach`` from delta, and their slopes."""
    diff = values - params.delta
    dist = np.abs(diff)
    active = dist > params.margin
    value = np.where(active, -np.minimum(dist, reach), 0.0)
    return value, np.where(active & (dist < reach), -np.sign(diff), 0.0)


def separation(p: np.ndarray, params: SeparationParams, crs_weight: float = 1.0,
               ent_weight: float = 1.0, reach: float = math.inf) -> Objective:
    """Batch mean of ``crs_weight`` times the dead-band hinge on the
    per-sample crs plus ``ent_weight`` times the hinge on the per-sample
    ent of the (2, N, C) head pair.

    Values inside [delta - margin, delta + margin] contribute nothing;
    minimizing pushes values already outside the band further away from
    delta.  A weight of 0 drops its branch, and ``ent_weight=-1`` turns
    the banded joint divergence into the banded agreement divergence.  A
    finite ``reach`` saturates the hinge at that distance from delta, so
    samples already far outside the band stop being pushed (keeps the
    optimization away from the probability clamp).
    """
    p = _check_stack(p)
    n = p.shape[-2]
    logs, inv = _logs_and_inv(p)
    per = np.zeros(p.shape[:-3] + (n,))
    dp = np.zeros(p.shape)
    if crs_weight:
        value, slope = _hinge(crs_rows(p, logs), params, reach)
        per += crs_weight * value
        dp += crs_weight * slope[..., None, :, None] / n * (-_other(logs) - _other(p) * inv)
    if ent_weight:
        value, slope = _hinge(ent_rows(p, logs), params, reach)
        per += ent_weight * value
        dp += ent_weight * slope[..., None, :, None] / n * (-logs - p * inv)
    rows = np.ones(n, dtype=bool)
    return Objective(_mean(per, rows, n), per, dp, rows)


def crs(p: np.ndarray, weight: float = 1.0,
        cap: float | None = None, below: float = math.inf) -> Objective:
    """``weight`` times the mean per-sample crs of the (2, N, C) head pair
    over ``rows``.

    ``rows`` are the samples whose crs is strictly below ``below``: every
    sample by default (a NaN one too), or the detected target-common subset
    with a finite threshold, which a (..., 2, N, C) stack does not take.
    An empty subset gives value 0 and zero gradients.  With a finite
    ``cap`` the per-sample values are min(crs, cap), so rows past the cap
    carry no gradient (their rejection is decided; pushing further only
    saturates the heads).
    """
    p = _check_stack(p)
    if below != math.inf:
        _one_row_set(p, "crs with a finite 'below'")
    logs, inv = _logs_and_inv(p)
    per = crs_rows(p, logs)
    rows = per < below if below != math.inf else np.ones(p.shape[-2], dtype=bool)
    k = np.count_nonzero(rows)
    if not k:
        return Objective(0.0, per, np.zeros(p.shape), rows)
    d = -_other(logs) - _other(p) * inv
    if cap is not None:
        d = d * (per < cap)[..., None, :, None]
        per = np.minimum(per, cap)
    dp = np.where(rows[:, None], weight * d / k, 0.0)
    return Objective(weight * _mean(per, rows, k), per, dp, rows)


# --- variant plumbing ----------------------------------------------------------

@dataclass
class VariantPlan:
    """Effective objective set for one method variant; the defaults are
    ``full``'s.  A-2 runs when either hinge weight ``sep_*`` is non-zero."""

    alpha: float
    lam: float
    sep_crs: float = 1.0
    sep_ent: float = 1.0
    minimax: bool = True


# the fields each variant changes in the full plan
_VARIANT_CHANGES = {
    MethodVariant.FULL: {},
    MethodVariant.SOURCE_ONLY: dict(alpha=0.0, lam=0.0, sep_crs=0.0, sep_ent=0.0,
                                    minimax=False),   # supervised loss alone
    MethodVariant.NO_SELECT: dict(alpha=0.0),
    MethodVariant.NO_DIV: dict(lam=0.0),
    MethodVariant.NO_CRS: dict(sep_crs=0.0),
    MethodVariant.NO_ENT: dict(sep_ent=0.0),
    MethodVariant.NO_SEP: dict(sep_crs=0.0, sep_ent=0.0),   # no A-2
    MethodVariant.NO_MINIMAX: dict(minimax=False),          # no B, no C
    MethodVariant.WITH_KL: dict(sep_ent=-1.0),              # hinge on crs - ent
}


def variant_losses(variant: MethodVariant, alpha: float, lam: float) -> VariantPlan:
    """Resolve a variant into the objectives actually trained: the full
    plan with the variant's changes applied."""
    return VariantPlan(**{"alpha": alpha, "lam": lam, **_VARIANT_CHANGES[variant]})

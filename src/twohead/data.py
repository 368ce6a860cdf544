"""Gaussian-blob domain pairs with label noise.

The toy scenario has three source blobs (two common classes plus one
source-private class) and a target domain whose common clusters sit
offset from the source ones, plus a private cluster far away at the
bottom right.  Source labels can be corrupted through a row-stochastic
transition matrix (pair or symmetric flipping).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError
from .rng import derive_seed, gaussian, make_rng


def is_real_number(value) -> bool:
    """A real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ClassRole(Enum):
    COMMON = "common"
    SOURCE_PRIVATE = "source_private"
    TARGET_PRIVATE = "target_private"


class NoiseKind(Enum):
    PAIR_FLIP = "pair"
    SYMMETRIC_FLIP = "symmetric"


@dataclass
class NoiseSpec:
    kind: NoiseKind
    rate: float

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise ConfigError(f"noise kind must be a NoiseKind, got {self.kind!r}")
        if not is_real_number(self.rate):
            raise ConfigError(f"noise rate must be a real number, got {self.rate!r}")
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"noise rate must be in [0, 1), got {self.rate}")
        if self.kind is NoiseKind.PAIR_FLIP and self.rate >= 0.5:
            warnings.warn(
                f"pair flipping at rate {self.rate} >= 0.5 makes the true labels "
                "unrecoverable", stacklevel=2)


@dataclass
class BlobSpec:
    centers: list[tuple[float, ...]]
    stddevs: list[float]
    samples_per_class: int

    def __post_init__(self):
        if len(set(map(tuple, self.centers))) != len(self.centers):
            raise ConfigError("blob centers must be distinct")
        if len(self.stddevs) != len(self.centers):
            raise ConfigError("need one stddev per center")
        if not all(map(is_real_number, self.stddevs)):
            raise ConfigError(f"blob stddevs must be real numbers, got {self.stddevs!r}")
        if any(s <= 0 for s in self.stddevs):
            raise ConfigError("blob stddevs must be positive")
        if isinstance(self.samples_per_class, bool) or \
                not isinstance(self.samples_per_class, numbers.Integral):
            raise ConfigError(
                f"samples_per_class must be an integer, got {self.samples_per_class!r}")
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be >= 1")


@dataclass
class DomainDataset:
    features: np.ndarray                 # (N, d) float64
    observed_labels: np.ndarray | None   # (N,) int64, source domain only
    true_labels: np.ndarray              # (N,) int64, evaluation only
    class_roles: tuple[ClassRole, ...]   # role per class index, whole universe
    domain: str                          # "source" | "target"

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_model_classes(self) -> int:
        """Classes the classifier predicts over: common + source-private."""
        return sum(1 for r in self.class_roles if r is not ClassRole.TARGET_PRIVATE)

    def common_classes(self) -> list[int]:
        return [i for i, r in enumerate(self.class_roles) if r is ClassRole.COMMON]


def class_split(total_classes: int, n_common: int, n_source_private: int,
                n_target_private: int) -> tuple[ClassRole, ...]:
    """Deterministic role assignment: lowest indices are common, then
    source-private, then target-private."""
    if n_common + n_source_private + n_target_private != total_classes:
        raise ConfigError(
            f"split {n_common}/{n_source_private}/{n_target_private} does not "
            f"sum to {total_classes}")
    if min(n_common, n_source_private, n_target_private) < 0:
        raise ConfigError("split counts must be nonnegative")
    if n_common == 0:
        warnings.warn("no common classes: domains share no labels", stacklevel=2)
    return tuple([ClassRole.COMMON] * n_common
                 + [ClassRole.SOURCE_PRIVATE] * n_source_private
                 + [ClassRole.TARGET_PRIVATE] * n_target_private)


def make_transition_matrix(spec: NoiseSpec, num_classes: int) -> np.ndarray:
    """Row-stochastic label corruption matrix.

    Pair flipping sends class i to (i+1) mod C with probability rate;
    symmetric flipping spreads rate uniformly over the other C-1 classes.
    """
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    rho = spec.rate
    c = num_classes
    if spec.kind is NoiseKind.PAIR_FLIP:
        q = np.eye(c) * (1.0 - rho)
        for i in range(c):
            q[i, (i + 1) % c] = rho
    else:
        q = np.full((c, c), rho / (c - 1))
        np.fill_diagonal(q, 1.0 - rho)
    return q


def inject_noise(labels: np.ndarray, q: np.ndarray, seed: int) -> np.ndarray:
    """Resample each label from the categorical row q[label]."""
    labels = np.asarray(labels, dtype=np.int64)
    c = q.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"labels out of range for a {c}-class transition matrix")
    rng = make_rng(seed, "noise")
    cum = np.cumsum(q, axis=1)
    r = rng.random(labels.size)
    picked = (cum[labels] <= r[:, None]).sum(axis=1)
    return np.minimum(picked, c - 1).astype(np.int64)


def sample_blobs(spec: BlobSpec, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters; returns (features, class indices into
    spec.centers)."""
    feats = []
    labels = []
    for i, (center, std) in enumerate(zip(spec.centers, spec.stddevs)):
        pts = np.asarray(center, dtype=np.float64) + std * gaussian(
            rng, (spec.samples_per_class, len(center)))
        feats.append(pts)
        labels.append(np.full(spec.samples_per_class, i, dtype=np.int64))
    return np.vstack(feats), np.concatenate(labels)


# Toy geometry: two common source blobs left and right, the source-private
# blob on top, target-common clusters shifted by (+1, +1) to create
# covariate shift, and the target-private cluster far away at bottom right.
TOY_SOURCE_CENTERS = [(-4.0, 0.0), (4.0, 0.0), (0.0, 6.0)]
TOY_TARGET_SHIFT = (1.0, 1.0)
TOY_PRIVATE_CENTER = (10.0, -8.0)
TOY_STDDEV = 1.0


def build_toy_scenario(seed: int,
                       noise: NoiseSpec | None = None,
                       samples_per_class: int = 300,
                       stddev: float = TOY_STDDEV,
                       ) -> tuple[DomainDataset, DomainDataset]:
    """Generate the 2-D toy domain pair.

    Source: 3 classes (2 common + 1 source-private), ``samples_per_class``
    each, labels corrupted by ``noise`` (default 20% symmetric flipping).
    Target: the 2 common classes around shifted source centers plus one
    private cluster; target labels are kept as ground truth only.
    """
    if noise is None:
        noise = NoiseSpec(NoiseKind.SYMMETRIC_FLIP, 0.2)
    roles = class_split(4, 2, 1, 1)

    src_spec = BlobSpec(centers=list(TOY_SOURCE_CENTERS),
                        stddevs=[stddev] * 3,
                        samples_per_class=samples_per_class)
    src_x, src_y = sample_blobs(src_spec, make_rng(seed, "data/source-blobs"))

    dx, dy = TOY_TARGET_SHIFT
    tgt_centers = [(TOY_SOURCE_CENTERS[0][0] + dx, TOY_SOURCE_CENTERS[0][1] + dy),
                   (TOY_SOURCE_CENTERS[1][0] + dx, TOY_SOURCE_CENTERS[1][1] + dy),
                   TOY_PRIVATE_CENTER]
    tgt_spec = BlobSpec(centers=tgt_centers, stddevs=[stddev] * 3,
                        samples_per_class=samples_per_class)
    tgt_x, tgt_cluster = sample_blobs(tgt_spec, make_rng(seed, "data/target-blobs"))
    # clusters 0/1 are the common classes 0/1; cluster 2 is the private class 3
    tgt_y = np.where(tgt_cluster == 2, 3, tgt_cluster).astype(np.int64)

    q = make_transition_matrix(noise, num_classes=3)
    observed = inject_noise(src_y, q, derive_seed(seed, "data/label-noise"))

    _assert_private_margin(tgt_x[tgt_y == 3], TOY_SOURCE_CENTERS, stddev)

    source = DomainDataset(features=src_x, observed_labels=observed,
                           true_labels=src_y, class_roles=roles, domain="source")
    target = DomainDataset(features=tgt_x, observed_labels=None,
                           true_labels=tgt_y, class_roles=roles, domain="target")
    return source, target


def _assert_private_margin(private_pts: np.ndarray, source_centers, stddev: float,
                           factor: float = 3.0) -> None:
    """The private cluster must stay clear of every source blob."""
    for center in source_centers:
        dist = np.linalg.norm(private_pts - np.asarray(center), axis=1)
        if dist.min() <= factor * stddev:
            raise ConfigError(
                "target-private samples overlap the source support "
                f"(min distance {dist.min():.3f} <= {factor} * {stddev})")


def minibatches(dataset: DomainDataset, batch_size: int, seed: int,
                epoch: int) -> list[np.ndarray]:
    """Shuffled index batches for one epoch; only complete batches are
    kept, so a trailing remainder is dropped.  The epoch index is folded
    into the stream label, making every epoch's permutation distinct but
    reproducible."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    n = len(dataset)
    rng = make_rng(seed, f"batch/epoch{epoch}")
    perm = rng.permutation(n)
    n_full = n // batch_size
    return [perm[i * batch_size:(i + 1) * batch_size] for i in range(n_full)]


def dataset_to_csv(dataset: DomainDataset, path) -> None:
    """Audit export: x0,x1,observed_label,true_label,role,domain."""
    roles = [f"{role.value},{dataset.domain}" for role in dataset.class_roles]
    observed = ([""] * len(dataset) if dataset.observed_labels is None
                else dataset.observed_labels.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x0,x1,observed_label,true_label,role,domain\n")
        fh.write("".join(f"{x0!r},{x1!r},{obs},{true},{roles[true]}\n"
                         for (x0, x1), obs, true in zip(dataset.features.tolist(), observed,
                                                        dataset.true_labels.tolist())))

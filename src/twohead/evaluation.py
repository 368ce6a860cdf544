"""Evaluation and analysis: open-set prediction, per-class recall with a
unified unknown class, divergence density estimates, and 2-D decision
boundary grids with SVG rendering."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .data import ClassRole, DomainDataset
from .errors import ConfigError, DataError, NumericError, UsageError, check_number
from .losses import crs_rows
from .nn import TwoHeadModel, forward

UNKNOWN = -1
# boundary_grid forwards this many cells at a time, the last block taking
# the remainder.  glibc hands freed arrays of a few MiB back to the kernel,
# so 4096-row blocks, whose largest arrays are 1-2 MiB, faulted their pages
# in again on every block: ~6.2k minor page faults per resolution-300 grid
# (getrusage, warm), against ~2.4k with 1024-row blocks.  OpenBLAS
# takes another dgemm path below ~1000 rows, which rounds some cells
# differently, so no block of a grid of at least this many cells is
# shorter than this.
GRID_BLOCK_ROWS = 1024
# boundary_grid's largest resolution.  A grid holds ~60 bytes per cell in
# its point, index and result arrays, all allocated up front: ~250 MB at
# 2048 (4.2M cells), whose boundary.svg, one rect per cell, is ~300 MB
MAX_GRID_RESOLUTION = 2048
DENSITY_POINTS = 256   # per group's own grid in the density curves
SVG_SIZE = 640         # boundary.svg's width and height


def _check_delta(delta: float) -> None:
    # NaN would reject nothing and delta <= 0 everything
    check_number("delta", delta)
    if delta <= 0:
        raise ConfigError(f"delta must be > 0, got {delta}")


def predict(model: TwoHeadModel, x: np.ndarray, delta: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Classify a batch: a sample whose crs exceeds ``delta`` is rejected
    as unknown (label -1); otherwise the head-averaged probabilities
    decide, ties going to the lower class index.

    Returns (labels, per-sample crs).  NaN/Inf in ``x`` raises
    NumericError, and a ``delta`` that is not finite and > 0 ConfigError.
    """
    _check_delta(delta)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NumericError("prediction input contains NaN/Inf")
    p = forward(model, x).p
    l_crs = crs_rows(p)
    labels = np.argmax(0.5 * (p[0] + p[1]), axis=1).astype(np.int64)
    labels[l_crs > delta] = UNKNOWN
    return labels, l_crs


@dataclass
class EvalReport:
    """What ``evaluate`` measured; the average and the density curves are
    computed from it on each read."""

    per_class_accuracy: dict[int, float]   # class index (UNKNOWN for private)
    common_divergences: np.ndarray
    private_divergences: np.ndarray

    @property
    def average_accuracy(self) -> float:
        return float(np.mean(list(self.per_class_accuracy.values())))

    @property
    def density_curves(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """KDE curves of the common and private divergences on one grid: the
        sorted union of a ``DENSITY_POINTS``-point grid per group spanning
        that group +- 5 of its own bandwidths, so each curve is resolved on
        its own scale however narrow it is next to the other.  A group of
        fewer than 2 values or of zero variance has no curve."""
        groups = {"common": self.common_divergences, "private": self.private_divergences}
        usable = {k: v for k, v in groups.items()
                  if v.size >= 2 and float(np.std(v, ddof=1)) > 0.0}
        if not usable:
            return {}
        pads = {k: 5.0 * scott_bandwidth(v) for k, v in usable.items()}
        grid = np.unique(np.concatenate([
            np.linspace(float(v.min()) - pads[k], float(v.max()) + pads[k], DENSITY_POINTS)
            for k, v in usable.items()]))
        return {k: (grid, divergence_density(v, grid)) for k, v in usable.items()}

    @property
    def common_accuracy(self) -> float:
        vals = [v for k, v in self.per_class_accuracy.items() if k != UNKNOWN]
        return float(np.mean(vals))

    @property
    def unknown_recall(self) -> float:
        return self.per_class_accuracy.get(UNKNOWN, float("nan"))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["class", "role", "recall"])
            for cls, rec in sorted(self.per_class_accuracy.items(), key=lambda kv: kv[0]):
                if cls == UNKNOWN:
                    writer.writerow(["unknown", ClassRole.TARGET_PRIVATE.value, repr(rec)])
                else:
                    writer.writerow([cls, ClassRole.COMMON.value, repr(rec)])
            writer.writerow(["average", "", repr(self.average_accuracy)])


def evaluate(model: TwoHeadModel, target: DomainDataset, delta: float) -> EvalReport:
    """Per-class recall over the common classes plus one unified unknown
    class, averaged with equal weight across those |C|+1 entries.  A
    target with no common-class sample has no common accuracy and raises
    DataError."""
    preds, l_crs = predict(model, target.features, delta)
    roles = target.class_roles
    true = target.true_labels

    per_class: dict[int, float] = {}
    for cls in target.common_classes():
        mask = true == cls
        if mask.any():
            per_class[cls] = float((preds[mask] == cls).mean())
    if not per_class:
        raise DataError("target has no sample of a common class: common accuracy "
                        "is undefined")

    private_mask = np.array([r is ClassRole.TARGET_PRIVATE for r in roles])[true]
    if private_mask.any():
        per_class[UNKNOWN] = float((preds[private_mask] == UNKNOWN).mean())
    else:
        warnings.warn("target has no private samples; averaging over the "
                      "common classes only", stacklevel=2)

    common_mask = np.array([r is ClassRole.COMMON for r in roles])[true]
    return EvalReport(per_class_accuracy=per_class,
                      common_divergences=l_crs[common_mask],
                      private_divergences=l_crs[private_mask])


def scott_bandwidth(values: np.ndarray) -> float:
    """Scott's rule for 1-D data: sample stddev times n^(-1/5)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise UsageError("bandwidth needs at least 2 values")
    sigma = float(np.std(values, ddof=1))
    if sigma == 0.0:
        raise UsageError("zero variance: jitter the values before estimating density")
    return sigma * values.size ** (-0.2)


def divergence_density(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian KDE with Scott's-rule bandwidth, evaluated on ``grid``."""
    values = np.asarray(values, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    h = scott_bandwidth(values)
    z = (grid[:, None] - values[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (values.size * h * np.sqrt(2.0 * np.pi))


def _codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values, and each value's index among them."""
    distinct = np.unique(values)
    return distinct, np.searchsorted(distinct, values)


@dataclass
class BoundaryGrid:
    xs: np.ndarray            # (res,) cell x coordinates
    ys: np.ndarray            # (res,) cell y coordinates
    pred1: np.ndarray         # (res, res) head-1 argmax, row i = ys[i]
    pred2: np.ndarray         # (res, res) head-2 argmax
    l_crs: np.ndarray         # (res, res)
    unknown: np.ndarray       # (res, res) bool, l_crs > delta

    def to_csv(self, path) -> None:
        # Each row is one join over C-level iterators zipped cell by cell:
        # the column's "x,", the row's "y,", the cell's "pred1,pred2," from
        # a table of the pairs present in the grid, repr(l_crs) and ",0\n"
        # or ",1\n".  The repr of each l_crs is the one per-cell cost left.
        xs = [repr(x) + "," for x in self.xs.tolist()]
        firsts, first_idx = _codes(self.pred1)
        seconds, second_idx = _codes(self.pred2)
        pairs, pair_idx = _codes(first_idx * len(seconds) + second_idx)
        firsts, seconds = firsts.tolist(), seconds.tolist()
        pair_strs = [f"{firsts[k // len(seconds)]},{seconds[k % len(seconds)]},"
                     for k in pairs.tolist()]
        unknown_strs = (",0\n", ",1\n")
        rows = zip(self.ys.tolist(), pair_idx.tolist(),
                   self.l_crs.tolist(), self.unknown.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("x,y,pred1,pred2,l_crs,unknown\n")
            for y, pair_row, crs_row, unknown_row in rows:
                fh.write("".join(chain.from_iterable(zip(
                    xs, repeat(repr(y) + ","), map(pair_strs.__getitem__, pair_row),
                    map(repr, crs_row), map(unknown_strs.__getitem__, unknown_row)))))


def boundary_grid(model: TwoHeadModel, bounds: tuple[tuple[float, float], tuple[float, float]],
                  resolution: int, delta: float) -> BoundaryGrid:
    """Evaluate both heads on a regular 2-D grid (resolution cells per
    axis).  Cells go through the network GRID_BLOCK_ROWS at a time, the
    last block taking the remainder.  Only each block's head probabilities
    are kept, so one block's forward cache and the probabilities of at most
    two blocks are alive at once.  A ``resolution`` that is not an integer
    in [2, MAX_GRID_RESOLUTION], a ``delta`` that is not finite and > 0, or
    an axis whose low equals its high raises ConfigError before anything
    is allocated."""
    _check_delta(delta)
    check_number("resolution", resolution, integer=True)
    if not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise ConfigError(f"grid resolution must be in [2, {MAX_GRID_RESOLUTION}], "
                          f"got {resolution}")
    if model.input_dim != 2:
        raise ConfigError("boundary grids need a 2-D input model")
    if not np.isfinite(bounds).all():
        raise NumericError(f"grid bounds contain NaN/Inf: {bounds}")
    (x0, x1), (y0, y1) = bounds
    if x0 == x1 or y0 == y1:  # the SVG writer divides by high - low
        raise ConfigError(f"grid bounds need a nonzero width on each axis, got {bounds}")
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    starts = list(range(0, max(len(pts) - GRID_BLOCK_ROWS, 0) + 1, GRID_BLOCK_ROWS))
    l_crs = np.empty(len(pts))
    preds = np.empty((2, len(pts)), dtype=np.int64)   # head 1's and head 2's argmax
    for a, b in zip(starts, starts[1:] + [len(pts)]):
        p = forward(model, pts[a:b]).p
        l_crs[a:b] = crs_rows(p)
        preds[:, a:b] = np.argmax(p, axis=-1)
    l_crs = l_crs.reshape(resolution, resolution)
    return BoundaryGrid(
        xs=xs, ys=ys,
        pred1=preds[0].reshape(resolution, resolution),
        pred2=preds[1].reshape(resolution, resolution),
        l_crs=l_crs,
        unknown=l_crs > delta,
    )


# region fills for agreed classes, then scatter colors for source points
_REGION_COLORS = ["#f7b6c2", "#b6d4f7", "#f7ecb6", "#c9f7b6", "#e0b6f7"]
_POINT_COLORS = ["#d62728", "#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd"]
_UNKNOWN_COLOR = "#b0b0b0"
_DISAGREE_COLOR = "#ffffff"


def write_boundary_svg(grid: BoundaryGrid, path,
                       source: DomainDataset | None = None,
                       target: DomainDataset | None = None) -> None:
    """Self-contained SVG: regions colored by the class both heads agree
    on, gray where the sample would be rejected as unknown, plus optional
    dataset scatter overlays."""
    size = SVG_SIZE
    res = len(grid.xs)
    cell = size / res
    x0, x1 = float(grid.xs[0]), float(grid.xs[-1])
    y0, y1 = float(grid.ys[0]), float(grid.ys[-1])

    def sx(x: float) -> float:
        return (x - x0) / (x1 - x0) * size

    def sy(y: float) -> float:
        return size - (y - y0) / (y1 - y0) * size

    header = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
              f'height="{size}" viewBox="0 0 {size} {size}">\n')
    # a cell's rect is its column's start, its row's middle and its color's
    # tail; color k < len(_REGION_COLORS) is the class both heads agree on.
    # Each row is one join over these zipped by C-level iterators, with no
    # per-cell formatting.
    starts = [f'<rect x="{sx(x) - cell / 2:.2f}" y="' for x in grid.xs.tolist()]
    mids = [f'{sy(y) - cell / 2:.2f}" width="{cell:.2f}" height="{cell:.2f}" fill="'
            for y in grid.ys.tolist()]
    tails = [f'{c}"/>\n' for c in _REGION_COLORS + [_DISAGREE_COLOR, _UNKNOWN_COLOR]]
    color_idx = np.where(grid.pred1 == grid.pred2, grid.pred1 % len(_REGION_COLORS),
                         len(_REGION_COLORS))
    color_idx[grid.unknown] = len(_REGION_COLORS) + 1
    parts = []
    if source is not None and source.observed_labels is not None:
        for (px, py), lab in zip(source.features.tolist(), source.observed_labels.tolist()):
            color = _POINT_COLORS[lab % len(_POINT_COLORS)]
            parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.5" '
                         f'fill="{color}" stroke="#333333" stroke-width="0.4"/>')
    if target is not None:
        for px, py in target.features.tolist():
            parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.0" '
                         f'fill="#ffffff" stroke="#333333" stroke-width="0.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write(header)
        for mid, row in zip(mids, color_idx.tolist()):
            fh.write("".join(chain.from_iterable(zip(
                starts, repeat(mid), map(tails.__getitem__, row)))))
        fh.write("\n".join(parts))


def density_to_csv(report: EvalReport, path) -> None:
    """x,pdf_common,pdf_private on a shared grid (empty cells when a curve
    is unavailable)."""
    curves = report.density_curves
    common, private = curves.get("common"), curves.get("private")
    grid = (common or private or (np.array([]),))[0].tolist()

    def column(curve) -> list[str]:
        return [""] * len(grid) if curve is None else [repr(v) for v in curve[1].tolist()]

    with open(path, "w", newline="") as fh:
        fh.write("x,pdf_common,pdf_private\n")
        fh.write("".join(f"{x!r},{c},{p}\n"
                         for x, c, p in zip(grid, column(common), column(private))))

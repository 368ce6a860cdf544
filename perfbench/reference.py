"""Output checks computed apart from the twohead package.

Nothing here imports twohead: the reference forward pass, the rejection
rule and the recall tally are written again from the method's definition,
so a fault in the program cannot pass its own check.  Every check raises
``CheckError`` with a message naming the file and the first bad entry.

The method, as the checks restate it:

* generator: dense layers, each followed by ReLU;
* features: the generator output L2-normalised per row, times 10;
* two heads: dense layers, ReLU between them, linear last layer, softmax;
* crs = H(p1, p2) + H(p2, p1), with probabilities floored at 1e-12
  inside the logs;
* a sample is unknown when crs > delta, else its label is the argmax of
  the head-averaged probabilities.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

TOL = 1e-9
FEATURE_SCALE = 10.0
P_FLOOR = 1e-12
BATCHES_PER_EPOCH = 14      # 900 samples in batches of 64, remainder dropped
UNKNOWN = -1


class CheckError(AssertionError):
    """An output disagrees with its reference or breaks a property."""


def _fail(msg: str):
    raise CheckError(msg)


# --- reference model ------------------------------------------------------------

def load_layers(path) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """Parse model.csv (layer,row,col,value; col -1 holds the bias) into
    {"gen": [(W, b), ...], "head1": [...], "head2": [...]}."""
    cells: dict[str, list[tuple[int, int, float]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault(row["layer"], []).append(
                (int(row["row"]), int(row["col"]), float(row["value"])))
    stacks: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for name in sorted(cells, key=lambda n: (n.split(".")[0], int(n.split(".")[1]))):
        prefix = name.split(".")[0]
        entries = cells[name]
        n_out = 1 + max(r for r, _, _ in entries)
        n_in = 1 + max(c for _, c, _ in entries)
        w = np.full((n_out, n_in), np.nan)
        b = np.full(n_out, np.nan)
        for r, c, v in entries:
            if c < 0:
                b[r] = v
            else:
                w[r, c] = v
        if np.isnan(w).any() or np.isnan(b).any():
            _fail(f"{path}: layer {name} has missing entries")
        stacks.setdefault(prefix, []).append((w, b))
    if set(stacks) != {"gen", "head1", "head2"}:
        _fail(f"{path}: expected gen/head1/head2 layers, got {sorted(stacks)}")
    return stacks


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_probs(layers, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(x, dtype=np.float64)
    for w, b in layers["gen"]:
        h = np.maximum(np.einsum("ni,oi->no", h, w) + b, 0.0)
    norm = np.sqrt((h * h).sum(axis=1, keepdims=True))
    feats = FEATURE_SCALE * h / np.maximum(norm, 1e-12)

    def head(stack):
        z = feats
        for i, (w, b) in enumerate(stack):
            z = np.einsum("ni,oi->no", z, w) + b
            if i < len(stack) - 1:
                z = np.maximum(z, 0.0)
        return _softmax(z)

    return head(layers["head1"]), head(layers["head2"])


def reference_crs(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    l1 = np.log(np.maximum(p1, P_FLOOR))
    l2 = np.log(np.maximum(p2, P_FLOOR))
    return -(p1 * l2).sum(axis=1) - (p2 * l1).sum(axis=1)


def default_delta(layers) -> float:
    """ln(number of source classes), the rejection threshold of the
    default config."""
    return math.log(layers["head1"][-1][0].shape[0])


def _near_tie(p: np.ndarray) -> np.ndarray:
    top2 = np.sort(p, axis=1)[:, -2:]
    return (top2[:, 1] - top2[:, 0]) <= TOL


# --- checks against the reference --------------------------------------------

def check_boundary(layers, path, resolution: int, delta: float) -> int:
    """Every boundary.csv cell's l_crs (within 1e-9), pred1, pred2 and
    unknown flag against the reference forward.  Cells within 1e-9 of
    delta are excused from the unknown comparison and cells whose two top
    probabilities are within 1e-9 from the argmax comparison.  Returns
    the number of cells checked."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (resolution * resolution, 6):
        _fail(f"{path}: expected {resolution * resolution} cells of 6 columns, "
              f"got shape {table.shape}")
    x, y, pred1, pred2, l_crs, unknown = table.T
    p1, p2 = reference_probs(layers, np.column_stack([x, y]))
    ref_crs = reference_crs(p1, p2)
    bad = np.flatnonzero(np.abs(l_crs - ref_crs) > TOL)
    if bad.size:
        i = bad[0]
        _fail(f"{path}: {bad.size} cells differ in l_crs; first at row {i + 1}: "
              f"{l_crs[i]!r} vs reference {ref_crs[i]!r}")
    for name, got, p in (("pred1", pred1, p1), ("pred2", pred2, p2)):
        bad = np.flatnonzero((got != p.argmax(axis=1)) & ~_near_tie(p))
        if bad.size:
            _fail(f"{path}: {bad.size} cells differ in {name}; first at row {bad[0] + 1}")
    ref_unknown = ref_crs > delta
    bad = np.flatnonzero((unknown.astype(bool) != ref_unknown)
                         & (np.abs(ref_crs - delta) > TOL))
    if bad.size:
        _fail(f"{path}: {bad.size} cells differ in unknown; first at row {bad[0] + 1}")
    return table.shape[0]


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(features, true labels, roles) from a dataset audit CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([[float(r["x0"]), float(r["x1"])] for r in rows])
    y = np.array([int(r["true_label"]) for r in rows])
    return x, y, [r["role"] for r in rows]


def reference_recalls(layers, target_csv, delta: float) -> dict[str, float]:
    """Per-class recall over the common classes plus the unified unknown
    class, and their plain average, keyed as eval_report.csv keys them."""
    x, y, roles = read_dataset(target_csv)
    p1, p2 = reference_probs(layers, x)
    crs = reference_crs(p1, p2)
    labels = np.where(crs > delta, UNKNOWN, (0.5 * (p1 + p2)).argmax(axis=1))
    roles = np.array(roles)
    out = {}
    for cls in sorted(set(y[roles == "common"].tolist())):
        out[str(cls)] = float(np.mean(labels[y == cls] == cls))
    private = roles == "target_private"
    if private.any():
        out["unknown"] = float(np.mean(labels[private] == UNKNOWN))
    out["average"] = float(np.mean(list(out.values())))
    return out


def check_eval_report(layers, target_csv, report_csv, delta: float) -> dict[str, float]:
    """eval_report.csv recalls against the reference, within 1e-9."""
    expect = reference_recalls(layers, target_csv, delta)
    with open(report_csv, newline="") as fh:
        got = {r["class"]: float(r["recall"]) for r in csv.DictReader(fh)}
    if set(got) != set(expect):
        _fail(f"{report_csv}: classes {sorted(got)} != reference {sorted(expect)}")
    for key, value in expect.items():
        if not abs(got[key] - value) <= TOL:
            _fail(f"{report_csv}: recall[{key}] = {got[key]!r}, reference {value!r}")
    return got


def check_dataset_csv(path, features: np.ndarray, true_labels: np.ndarray) -> None:
    """The audit CSV holds exactly the features and labels of the data the
    benchmark generated."""
    x, y, _ = read_dataset(path)
    if x.shape != features.shape or not np.array_equal(x, features) \
            or not np.array_equal(y, true_labels):
        _fail(f"{path}: rows differ from the generated dataset")


# --- properties that need no stored output --------------------------------------

def check_loss_trace(path, epochs: int) -> None:
    """epochs x 14 rows, every value finite."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] != epochs * BATCHES_PER_EPOCH:
        _fail(f"{path}: {table.shape[0]} rows, expected {epochs * BATCHES_PER_EPOCH}")
    if not np.isfinite(table).all():
        _fail(f"{path}: non-finite value at row {np.argwhere(~np.isfinite(table))[0][0] + 1}")


def check_svg(path, resolution: int, n_points: int) -> None:
    """Well-formed XML with one rect per grid cell and one circle per
    source and target sample."""
    rects = circles = 0
    try:
        # streamed and cleared, so the check stays far below the program's memory
        for _, el in ET.iterparse(path):
            tag = el.tag.rsplit("}", 1)[-1]
            rects += tag == "rect"
            circles += tag == "circle"
            el.clear()
    except ET.ParseError as exc:
        _fail(f"{path}: not well-formed XML: {exc}")
    if rects != resolution * resolution or circles != n_points:
        _fail(f"{path}: {rects} rects and {circles} circles, expected "
              f"{resolution * resolution} and {n_points}")


def check_density(path) -> list[float]:
    """Each KDE curve present integrates to 1 +- 1e-3 (trapezoid rule)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        _fail(f"{path}: no density rows")
    x = np.array([float(r["x"]) for r in rows])
    areas = []
    for col in ("pdf_common", "pdf_private"):
        if rows[0][col] == "":
            continue
        y = np.array([float(r[col]) for r in rows])
        area = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))
        if not abs(area - 1.0) <= 1e-3:
            _fail(f"{path}: {col} integrates to {area!r}")
        areas.append(area)
    if not areas:
        _fail(f"{path}: no density curve")
    return areas


def check_selftest_lines(lines: list[str]) -> None:
    """Every selftest line reads PASS."""
    if not lines:
        _fail("selftest printed no result lines")
    for line in lines:
        if not line.startswith("[PASS] "):
            _fail(f"selftest line not PASS: {line}")


def check_same_bytes(path_a, path_b) -> None:
    if Path(path_a).read_bytes() != Path(path_b).read_bytes():
        _fail(f"{path_b} differs from {path_a}")

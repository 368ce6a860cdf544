import csv
import dataclasses
import io
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohead import (ClassRole, ConfigError, DataError, NumericError, UNKNOWN, UsageError, boundary_grid,
                     divergence_density, evaluate, evaluation, forward, init_model,
                     predict, scott_bandwidth)
from twohead.data import DomainDataset
from twohead.evaluation import (MAX_GRID_RESOLUTION, BoundaryGrid, EvalReport, density_to_csv,
                                write_boundary_svg)
from twohead.losses import crs_rows
from twohead.rng import make_rng


def _zeroed(model):
    for _, layer in model.named_layers():
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    return model


def _agreeing(model, cls=0, strength=25.0):
    """Zero weights, then bias both heads toward one class."""
    _zeroed(model)
    model.head1[-1].bias[cls] = strength
    model.head2[-1].bias[cls] = strength
    return model


def test_predict_confident_agreeing_heads():
    m = _agreeing(init_model([2, 8, 8, 8], 3, seed=1), cls=1)
    labels, l_crs = predict(m, np.zeros((4, 2)), delta=math.log(3))
    assert np.all(labels == 1)
    assert l_crs.max() < 1e-6


def test_predict_uniform_pair_is_unknown():
    m = _zeroed(init_model([2, 8, 8, 8], 3, seed=1))
    labels, l_crs = predict(m, np.zeros((3, 2)), delta=math.log(3))
    # uniform heads: crs = 2 ln C, twice the threshold
    assert np.allclose(l_crs, 2.0 * math.log(3), atol=1e-9)
    assert np.all(labels == UNKNOWN)


def test_predict_disagreeing_heads_rejected():
    m = _zeroed(init_model([2, 8, 8, 8], 3, seed=1))
    m.head1[-1].bias[0] = 30.0
    m.head2[-1].bias[1] = 30.0
    labels, l_crs = predict(m, np.zeros((2, 2)), delta=math.log(3))
    assert np.all(labels == UNKNOWN)
    assert l_crs.min() > 10.0


def test_predict_tie_breaks_low_index():
    m = _zeroed(init_model([2, 8, 8, 8], 3, seed=1))
    m.head1[-1].bias[:] = [5.0, 5.0, 0.0]
    m.head2[-1].bias[:] = [5.0, 5.0, 0.0]
    labels, _ = predict(m, np.zeros((1, 2)), delta=10.0)
    assert labels[0] == 0


def test_evaluate_all_unknown_gives_one_third(toy_data):
    _, target = toy_data
    m = _zeroed(init_model([2, 8, 8, 8], 3, seed=1))
    report = evaluate(m, target, delta=math.log(3))
    assert set(report.per_class_accuracy) == {0, 1, UNKNOWN}
    assert report.per_class_accuracy[UNKNOWN] == 1.0
    assert report.per_class_accuracy[0] == 0.0
    assert abs(report.average_accuracy - 1.0 / 3.0) < 1e-12


def test_evaluate_averages_c_plus_one(reference_run, toy_data):
    _, report, _ = reference_run
    vals = list(report.per_class_accuracy.values())
    assert len(vals) == 3
    assert abs(report.average_accuracy - np.mean(vals)) < 1e-12
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert report.common_divergences.size == 600
    assert report.private_divergences.size == 300


def test_evaluate_without_private_warns(toy_data):
    _, target = toy_data
    keep = target.true_labels != 3
    common_only = dataclasses.replace(
        target, features=target.features[keep], true_labels=target.true_labels[keep])
    m = _agreeing(init_model([2, 8, 8, 8], 3, seed=1))
    with pytest.warns(UserWarning):
        report = evaluate(m, common_only, delta=math.log(3))
    assert set(report.per_class_accuracy) == {0, 1}


def test_evaluate_without_common_samples_raises(toy_data):
    """Without a common-class sample the common accuracy would be the
    NaN mean of no recalls."""
    _, target = toy_data
    keep = target.true_labels == 3
    private_only = dataclasses.replace(
        target, features=target.features[keep], true_labels=target.true_labels[keep])
    m = _agreeing(init_model([2, 8, 8, 8], 3, seed=1))
    with pytest.raises(DataError, match="common"):
        evaluate(m, private_only, delta=math.log(3))


def test_scott_bandwidth_frozen_value():
    rng = make_rng(0, "kde")
    v = rng.normal(size=100)
    v = (v - v.mean()) / v.std(ddof=1) * 2.0  # exact sample stddev 2
    h = scott_bandwidth(v)
    assert abs(h - 2.0 * 100 ** (-0.2)) < 1e-9
    assert abs(h - 0.79621) < 1e-5


def test_scott_bandwidth_guards():
    with pytest.raises(UsageError):
        scott_bandwidth(np.array([1.0]))
    with pytest.raises(UsageError, match="jitter"):
        scott_bandwidth(np.full(10, 3.3))


def test_density_symmetric_two_points():
    values = np.array([-1.0, 3.0])
    grid = np.linspace(-6.0, 8.0, 141)  # symmetric about the midpoint 1.0
    pdf = divergence_density(values, grid)
    assert np.allclose(pdf, pdf[::-1], atol=1e-12)
    assert pdf.min() >= 0.0


def test_density_integrates_to_one():
    rng = make_rng(1, "kde2")
    values = rng.normal(size=400) * 1.7 + 4.0
    h = scott_bandwidth(values)
    grid = np.linspace(values.min() - 5 * h, values.max() + 5 * h, 2048)
    pdf = divergence_density(values, grid)
    integral = np.trapezoid(pdf, grid)
    assert abs(integral - 1.0) < 1e-3


def test_density_matches_direct_sum():
    # independent oracle: per-point Gaussian mixture evaluated explicitly
    values = np.array([0.0, 1.0, 5.0])
    h = scott_bandwidth(values)
    grid = np.array([-1.0, 0.5, 2.0])
    expect = np.zeros_like(grid)
    for i, g in enumerate(grid):
        expect[i] = np.mean(
            [math.exp(-0.5 * ((g - v) / h) ** 2) / (h * math.sqrt(2 * math.pi))
             for v in values])
    assert np.allclose(divergence_density(values, grid), expect, atol=1e-12)


def test_boundary_grid_counts_and_uniform_case():
    m = _zeroed(init_model([2, 8, 8, 8], 3, seed=1))
    delta = math.log(3)
    grid = boundary_grid(m, ((-10.0, 14.0), (-12.0, 10.0)), 200, delta)
    assert grid.l_crs.shape == (200, 200)
    assert grid.l_crs.size == 40_000
    # uniform pair everywhere: crs = 2 ln C > delta, every cell unknown
    assert np.allclose(grid.l_crs, 2.0 * math.log(3), atol=1e-9)
    assert grid.unknown.all()
    assert np.array_equal(grid.unknown, grid.l_crs > delta)


def test_boundary_grid_blocks_match_one_forward(monkeypatch):
    """Row blocks, the last one longer, reassemble every cell in place."""
    m = init_model([2, 8, 8, 8], 3, seed=4)
    bounds, res = ((-3.0, 5.0), (-4.0, 2.0)), 10
    monkeypatch.setattr(evaluation, "GRID_BLOCK_ROWS", 7)
    grid = boundary_grid(m, bounds, res, 1.0)
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    p1, p2 = forward(m, np.column_stack([gx.ravel(), gy.ravel()])).p
    assert np.array_equal(grid.pred1, np.argmax(p1, axis=1).reshape(res, res))
    assert np.array_equal(grid.pred2, np.argmax(p2, axis=1).reshape(res, res))
    np.testing.assert_allclose(grid.l_crs, crs_rows(np.stack([p1, p2])).reshape(res, res),
                               rtol=0, atol=1e-12)


def test_boundary_grid_folds_the_remainder_into_the_last_block(monkeypatch):
    """No block is shorter than GRID_BLOCK_ROWS once the grid has that
    many cells: the BLAS rounds short products along another path."""
    seen = []

    def counting_forward(model, x, *args, **kwargs):
        seen.append(len(x))
        return forward(model, x, *args, **kwargs)

    monkeypatch.setattr(evaluation, "GRID_BLOCK_ROWS", 7)
    monkeypatch.setattr(evaluation, "forward", counting_forward)
    boundary_grid(init_model([2, 8, 8, 8], 3, seed=4), ((-3.0, 5.0), (-4.0, 2.0)), 10, 1.0)
    assert seen == [7] * 13 + [9]


def test_boundary_grid_frees_each_block_cache_before_the_next_forward(monkeypatch):
    """Only a block's probabilities outlive its forward, so the cache's
    layer outputs are freed before the next block's are allocated."""
    caches, alive = [], []

    def tracking_forward(model, x, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in caches))
        cache = forward(model, x, *args, **kwargs)
        caches.append(weakref.ref(cache))
        return cache

    monkeypatch.setattr(evaluation, "GRID_BLOCK_ROWS", 7)
    monkeypatch.setattr(evaluation, "forward", tracking_forward)
    boundary_grid(init_model([2, 8, 8, 8], 3, seed=4), ((-3.0, 5.0), (-4.0, 2.0)), 10, 1.0)
    assert alive == [0] * 14


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_boundary_grid_rejects_a_resolution_below_two(resolution):
    m = init_model([2, 8, 8, 8], 3, seed=1)
    with pytest.raises(ConfigError, match="resolution"):
        boundary_grid(m, ((-1.0, 1.0), (-1.0, 1.0)), resolution, 1.0)


def test_boundary_grid_rejects_a_resolution_past_the_cap_before_allocating():
    """One past the cap is refused with ConfigError, and nothing of its
    ~240 MB of grid arrays is allocated first."""
    m = init_model([2, 8, 8, 8], 3, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"resolution .*got {MAX_GRID_RESOLUTION + 1}"):
            boundary_grid(m, ((-1.0, 1.0), (-1.0, 1.0)), MAX_GRID_RESOLUTION + 1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_boundary_grid_rejects_nonfinite_bounds():
    m = init_model([2, 8, 8, 8], 3, seed=1)
    with pytest.raises(NumericError):
        boundary_grid(m, ((-1.0, np.inf), (-1.0, 1.0)), 10, 1.0)


@pytest.mark.parametrize("bounds", [((0.0, 0.0), (0.0, 1.0)), ((-1.0, 1.0), (2.0, 2.0))])
def test_boundary_grid_rejects_a_zero_width_axis_before_allocating(bounds):
    """The SVG writer divides by each axis's high - low, so an axis whose
    low equals its high is refused, before any of a full-size grid's
    arrays is allocated."""
    m = init_model([2, 8, 8, 8], 3, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="grid bounds need a nonzero width"):
            boundary_grid(m, bounds, MAX_GRID_RESOLUTION, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_predict_rejects_nonfinite_row():
    m = init_model([2, 8, 8, 8], 3, seed=1)
    x = np.zeros((4, 2))
    x[2, 0] = np.nan
    with pytest.raises(NumericError):
        predict(m, x, delta=1.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
def test_predict_and_grid_reject_bad_delta(delta):
    """NaN would reject no cell, and 0 or a negative threshold every one."""
    m = init_model([2, 8, 8, 8], 3, seed=1)
    with pytest.raises(ConfigError, match="delta"):
        predict(m, np.zeros((4, 2)), delta=delta)
    with pytest.raises(ConfigError, match="delta"):
        boundary_grid(m, ((-1.0, 1.0), (-1.0, 1.0)), 10, delta)


def test_boundary_grid_rejects_non_2d():
    m = init_model([3, 8, 8, 8], 3, seed=1)
    with pytest.raises(ConfigError):
        boundary_grid(m, ((-1, 1), (-1, 1)), 10, 1.0)


def test_boundary_csv_and_svg(tmp_path, toy_data):
    source, target = toy_data
    m = init_model([2, 8, 8, 8], 3, seed=1)
    grid = boundary_grid(m, ((-10.0, 14.0), (-12.0, 10.0)), 20, math.log(3))
    csv_path = tmp_path / "b.csv"
    grid.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,pred1,pred2,l_crs,unknown"
    assert len(lines) == 1 + 400

    svg_path = tmp_path / "b.svg"
    write_boundary_svg(grid, svg_path, source=source, target=target)
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<rect" in svg and "<circle" in svg
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


_REGION_COLORS = ["#f7b6c2", "#b6d4f7", "#f7ecb6", "#c9f7b6", "#e0b6f7"]
_POINT_COLORS = ["#d62728", "#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd"]


def _reference_boundary_csv(grid) -> bytes:
    """boundary.csv as one csv.writer row per numpy cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "y", "pred1", "pred2", "l_crs", "unknown"])
    for j, y in enumerate(grid.ys):
        for i, x in enumerate(grid.xs):
            writer.writerow([repr(float(x)), repr(float(y)), int(grid.pred1[j, i]),
                             int(grid.pred2[j, i]), repr(float(grid.l_crs[j, i])),
                             int(grid.unknown[j, i])])
    return out.getvalue().encode()


def _reference_boundary_svg(grid, source=None, target=None, size=640) -> bytes:
    """boundary.svg as one f-string per numpy cell and per point."""
    res = len(grid.xs)
    cell = size / res
    (x0, x1), (y0, y1) = (grid.xs[0], grid.xs[-1]), (grid.ys[0], grid.ys[-1])

    def sx(x):
        return (float(x) - x0) / (x1 - x0) * size

    def sy(y):
        return size - (float(y) - y0) / (y1 - y0) * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    for j in range(res):
        for i in range(res):
            if grid.unknown[j, i]:
                color = "#b0b0b0"
            elif grid.pred1[j, i] == grid.pred2[j, i]:
                color = _REGION_COLORS[int(grid.pred1[j, i]) % len(_REGION_COLORS)]
            else:
                color = "#ffffff"
            parts.append(f'<rect x="{sx(grid.xs[i]) - cell / 2:.2f}" '
                         f'y="{sy(grid.ys[j]) - cell / 2:.2f}" width="{cell:.2f}" '
                         f'height="{cell:.2f}" fill="{color}"/>')
    if source is not None and source.observed_labels is not None:
        for (px, py), lab in zip(source.features, source.observed_labels):
            color = _POINT_COLORS[int(lab) % len(_POINT_COLORS)]
            parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.5" '
                         f'fill="{color}" stroke="#333333" stroke-width="0.4"/>')
    if target is not None:
        for px, py in target.features:
            parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="2.0" '
                         f'fill="#ffffff" stroke="#333333" stroke-width="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode()


def test_boundary_writers_match_per_cell_reference(tmp_path, toy_data):
    """boundary.csv and the SVG are byte for byte what a csv.writer row
    and an f-string per numpy cell give."""
    source, target = toy_data
    m = init_model([2, 8, 8, 8], 3, seed=3)
    grid = boundary_grid(m, ((-3.0, 5.0), (-4.0, 2.0)), 9, 0.5)
    grid.pred2[0, :4] = (grid.pred1[0, :4] + 1) % 3      # heads disagree
    grid.unknown[1, :] = True
    grid.unknown[2, :] = False
    grid.l_crs[3, 3] = np.nan

    grid.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == _reference_boundary_csv(grid)
    write_boundary_svg(grid, tmp_path / "b.svg")
    assert (tmp_path / "b.svg").read_bytes() == _reference_boundary_svg(grid)
    write_boundary_svg(grid, tmp_path / "b.svg", source=source, target=target)
    assert (tmp_path / "b.svg").read_bytes() == _reference_boundary_svg(grid, source, target)

    # a hand-built grid of a 3-class model may hold any int: a negative
    # prediction and ones above the class count, in both heads
    hand = BoundaryGrid(xs=np.array([-1.0, 0.5, 2.0]), ys=np.array([0.0, 1.5, 3.0]),
                        pred1=np.array([[-1, 0, 3], [2, 7, -2], [12, 1, 1]]),
                        pred2=np.array([[-1, 3, 3], [12, 7, 0], [12, -1, 1]]),
                        l_crs=np.array([[0.1, 2.0, 0.3], [np.inf, 0.5, 1.5], [0.9, 0.2, 3.0]]),
                        unknown=np.array([[False, True, False], [True, False, True],
                                          [False, False, True]]))
    hand.to_csv(tmp_path / "hand.csv")
    assert (tmp_path / "hand.csv").read_bytes() == _reference_boundary_csv(hand)
    write_boundary_svg(hand, tmp_path / "hand.svg", source=source, target=target)
    assert (tmp_path / "hand.svg").read_bytes() == _reference_boundary_svg(hand, source, target)


def _random_dataset(rng, classes, labelled):
    n = int(rng.integers(0, 12))
    true = rng.integers(0, classes, size=n)
    return DomainDataset(features=rng.normal(scale=8.0, size=(n, 2)),
                         observed_labels=rng.integers(0, classes, size=n) if labelled else None,
                         true_labels=true, class_roles=(ClassRole.COMMON,) * classes,
                         domain="source" if labelled else "target")


@settings(max_examples=60, deadline=None)
@given(res=st.integers(2, 12), classes=st.integers(1, 12), seed=st.integers(0, 2**16),
       origin=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
       span=st.tuples(st.floats(0.01, 100), st.floats(0.01, 100)),
       overlays=st.booleans())
def test_boundary_writers_match_reference_on_random_grids(tmp_path_factory, res, classes,
                                                          seed, origin, span, overlays):
    """Any grid, up to 12 classes so region colors wrap and predictions
    reach two digits, with NaN/Inf crs, unknown cells and cells where the
    heads disagree."""
    rng = make_rng(seed, "grid-writers")
    pred1 = rng.integers(0, classes, size=(res, res))
    pred2 = np.where(rng.random((res, res)) < 0.6, pred1,
                     rng.integers(0, classes, size=(res, res)))
    l_crs = rng.exponential(size=(res, res))
    special = rng.random((res, res))
    l_crs[special < 0.1] = np.nan
    l_crs[(special >= 0.1) & (special < 0.15)] = np.inf
    grid = BoundaryGrid(xs=np.linspace(origin[0], origin[0] + span[0], res),
                        ys=np.linspace(origin[1], origin[1] + span[1], res),
                        pred1=pred1, pred2=pred2, l_crs=l_crs,
                        unknown=rng.random((res, res)) < 0.3)
    source = _random_dataset(rng, classes, labelled=True) if overlays else None
    target = _random_dataset(rng, classes, labelled=False) if overlays else None

    out = tmp_path_factory.mktemp("grid")
    grid.to_csv(out / "b.csv")
    assert (out / "b.csv").read_bytes() == _reference_boundary_csv(grid)
    write_boundary_svg(grid, out / "b.svg", source=source, target=target)
    assert (out / "b.svg").read_bytes() == _reference_boundary_svg(grid, source, target)


def test_density_csv_resolves_a_narrow_curve_next_to_a_wide_one(tmp_path):
    """A group whose bandwidth is far below the spacing a grid spanning
    both groups would have still integrates to 1 by the trapezoid rule."""
    rng = make_rng(0, "narrow-wide")
    common = rng.normal(size=600) * 0.02 + 0.3    # bandwidth ~0.006
    private = rng.normal(size=300) * 2.5 + 6.0    # bandwidth ~0.78
    report = EvalReport(per_class_accuracy={},
                        common_divergences=common, private_divergences=private)
    path = tmp_path / "density.csv"
    density_to_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["x", "pdf_common", "pdf_private"]
    assert len(rows) <= 512
    x = np.array([float(r["x"]) for r in rows])
    assert (np.diff(x) > 0).all()
    for col in ("pdf_common", "pdf_private"):
        pdf = np.array([float(r[col]) for r in rows])
        assert abs(np.trapezoid(pdf, x) - 1.0) <= 1e-3, col


@pytest.mark.parametrize("curves", [("common", "private"), ("common",), ("private",), ()])
def test_density_csv_matches_csv_writer_reference(tmp_path, curves):
    """A group in ``curves`` has 40 divergences and so a curve; the other
    has one, too few for a curve, and its column stays empty."""
    rng = make_rng(1, "density-csv")
    groups = {k: rng.exponential(size=40 if k in curves else 1) for k in ("common", "private")}
    report = EvalReport(per_class_accuracy={}, common_divergences=groups["common"],
                        private_divergences=groups["private"])
    density = report.density_curves
    assert sorted(density) == sorted(curves)
    density_to_csv(report, tmp_path / "density.csv")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["x", "pdf_common", "pdf_private"])
    for i, x in enumerate(density[curves[0]][0] if curves else []):
        writer.writerow([repr(float(x))] + [
            repr(float(density[k][1][i])) if k in curves else ""
            for k in ("common", "private")])
    assert (tmp_path / "density.csv").read_bytes() == expected.getvalue().encode()


def test_a_report_holds_only_what_was_measured():
    """The average and the curves are read from the measurements, so a
    report cannot hold values that disagree with them."""
    assert [f.name for f in dataclasses.fields(EvalReport)] == [
        "per_class_accuracy", "common_divergences", "private_divergences"]
    assert isinstance(EvalReport.average_accuracy, property)
    assert isinstance(EvalReport.density_curves, property)
    rng = make_rng(2, "report")
    report = EvalReport(per_class_accuracy={0: 0.5, 1: 1.0},
                        common_divergences=rng.exponential(size=30),
                        private_divergences=rng.exponential(size=20) + 3.0)
    assert report.average_accuracy == 0.75
    report.per_class_accuracy[UNKNOWN] = 0.0
    assert report.average_accuracy == 0.5
    grid, pdf = report.density_curves["private"]
    assert np.array_equal(pdf, divergence_density(report.private_divergences, grid))
    report.private_divergences = report.private_divergences[:1]
    assert set(report.density_curves) == {"common"}


def test_evaluate_masks_follow_the_roles_of_the_true_labels(toy_data):
    """The common and private divergences are the crs of the rows whose
    true class is common and target-private, in row order."""
    _, target = toy_data
    m = init_model([2, 8, 8, 8], 3, seed=1)
    report = evaluate(m, target, delta=math.log(3))
    _, l_crs = predict(m, target.features, math.log(3))
    roles = [target.class_roles[t] for t in target.true_labels.tolist()]
    for role, got in ((ClassRole.COMMON, report.common_divergences),
                      (ClassRole.TARGET_PRIVATE, report.private_divergences)):
        assert np.array_equal(got, l_crs[[r is role for r in roles]])


def test_density_csv(tmp_path, reference_run):
    _, report, _ = reference_run
    path = tmp_path / "density.csv"
    density_to_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,pdf_common,pdf_private"
    assert len(lines) > 10


def test_eval_report_csv(tmp_path, reference_run):
    _, report, _ = reference_run
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,role,recall"
    assert lines[-1].startswith("average,")
    assert len(lines) == 1 + 3 + 1

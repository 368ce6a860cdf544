"""Each benchmark check accepts the program's real outputs and rejects a
corrupted copy of them.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
from reference import CheckError  # noqa: E402
from twohead import data, evaluation, experiment, nn, trainer  # noqa: E402
from workloads import check_artifacts  # noqa: E402

RESOLUTION = 40


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A briefly trained model's outputs, written the way run_experiment
    writes them."""
    out = tmp_path_factory.mktemp("artifacts")
    source, target = data.build_toy_scenario(1)
    state = trainer.train(source, target, trainer.TrainConfig(seed=1, epochs=2))
    report = evaluation.evaluate(state.model, target, state.delta)
    grid = evaluation.boundary_grid(state.model, experiment.TOY_BOUNDS, RESOLUTION, state.delta)
    state.trace_to_csv(out / "loss_trace.csv")
    report.to_csv(out / "eval_report.csv")
    evaluation.density_to_csv(report, out / "density.csv")
    grid.to_csv(out / "boundary.csv")
    evaluation.write_boundary_svg(grid, out / "boundary.svg", source=source, target=target)
    nn.save_model_csv(state.model, out / "model.csv")
    data.dataset_to_csv(source, out / "source_data.csv")
    data.dataset_to_csv(target, out / "target_data.csv")
    return out, source, target


@pytest.fixture
def copy(artifacts, tmp_path):
    """A private copy of the artifacts that a test may corrupt."""
    src, source, target = artifacts
    out = tmp_path / "out"
    shutil.copytree(src, out)
    return out, source, target


def _rewrite_csv(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_real_outputs_pass(copy):
    out, source, target = copy
    check_artifacts(nn, out, RESOLUTION, source, target)
    reference.check_loss_trace(out / "loss_trace.csv", epochs=2)
    reference.check_density(out / "density.csv")


def test_flipped_boundary_cell_rejected(copy):
    out, source, target = copy
    layers_ = reference.load_layers(out / "model.csv")
    delta = reference.default_delta(layers_)
    table = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1)
    row = 1 + int(np.argmax(np.abs(table[:, 4] - delta)))   # far from the threshold
    _rewrite_csv(out / "boundary.csv", row, 5, lambda v: str(1 - int(v)))
    with pytest.raises(CheckError, match="unknown"):
        reference.check_boundary(layers_, out / "boundary.csv", RESOLUTION, delta)


def test_perturbed_weight_rejected(copy):
    out, source, target = copy
    _rewrite_csv(out / "model.csv", 1, 3, lambda v: repr(float(v) + 0.5))
    with pytest.raises(CheckError, match="l_crs"):
        check_artifacts(nn, out, RESOLUTION, source, target)


def test_changed_recall_rejected(copy):
    out, source, target = copy
    _rewrite_csv(out / "eval_report.csv", 2, 2, lambda v: repr(float(v) - 1 / 300))
    with pytest.raises(CheckError, match="recall"):
        check_artifacts(nn, out, RESOLUTION, source, target)


def test_scaled_kde_curve_rejected(copy):
    out, *_ = copy
    lines = (out / "density.csv").read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[1] = repr(float(cells[1]) * 1.01)
        lines[i] = ",".join(cells)
    (out / "density.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="pdf_common integrates"):
        reference.check_density(out / "density.csv")


def test_dropped_svg_rect_rejected(copy):
    out, *_ = copy
    lines = (out / "boundary.svg").read_text().splitlines()
    first_rect = next(i for i, line in enumerate(lines) if line.startswith("<rect"))
    del lines[first_rect]
    (out / "boundary.svg").write_text("\n".join(lines))
    with pytest.raises(CheckError, match="rects"):
        reference.check_svg(out / "boundary.svg", RESOLUTION, 1800)


def test_nonfinite_loss_trace_rejected(copy):
    out, *_ = copy
    _rewrite_csv(out / "loss_trace.csv", 5, 3, lambda v: "nan")
    with pytest.raises(CheckError, match="non-finite"):
        reference.check_loss_trace(out / "loss_trace.csv", epochs=2)


def test_short_loss_trace_rejected(copy):
    out, *_ = copy
    lines = (out / "loss_trace.csv").read_text().splitlines()
    (out / "loss_trace.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckError, match="rows"):
        reference.check_loss_trace(out / "loss_trace.csv", epochs=2)


def test_model_roundtrip_mismatch_rejected(copy):
    out, source, target = copy
    # the same value in other bytes: only the round trip can tell
    _rewrite_csv(out / "model.csv", 1, 3, lambda v: v.replace("e", "0e") if "e" in v else v + "0")
    with pytest.raises(CheckError, match="differs"):
        check_artifacts(nn, out, RESOLUTION, source, target)


def test_dataset_row_change_rejected(copy):
    out, source, target = copy
    _rewrite_csv(out / "target_data.csv", 1, 0, lambda v: repr(float(v) + 1e-6))
    with pytest.raises(CheckError):
        check_artifacts(nn, out, RESOLUTION, source, target)


def test_selftest_fail_line_rejected():
    reference.check_selftest_lines(["[PASS] a: ok", "[PASS] b: ok"])
    with pytest.raises(CheckError, match="not PASS"):
        reference.check_selftest_lines(["[PASS] a: ok", "[FAIL] b: max rel err 1e-2"])
    with pytest.raises(CheckError):
        reference.check_selftest_lines([])


def test_reference_forward_is_independent_of_nn(artifacts):
    """The reference forward matches nn.forward on the same parameters."""
    out, _, target = artifacts
    model = nn.load_model_csv(out / "model.csv")
    p1, p2, _ = nn.forward(model, target.features)
    r1, r2 = reference.reference_probs(reference.load_layers(out / "model.csv"),
                                       target.features)
    assert np.max(np.abs(p1 - r1)) < 1e-12 and np.max(np.abs(p2 - r2)) < 1e-12
    assert math.isclose(reference.default_delta(reference.load_layers(out / "model.csv")),
                        math.log(3))


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(n, u, b) for n, (u, b) in layers.METRICS.items()]

"""The three workloads: what each sets up, what one operation is, and how
its outputs are checked.

An operation writes into its own output directory.  The first time an
operation runs, its outputs go through the reference checker and the
property checks; every later run of the same operation must reproduce
those files byte for byte, which also shows that each seed's model.csv
digest stays the same across the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import reference

# toy-train: training cost depends on the seed's trajectory (C and A-2
# skip their update when nothing is detected), 2.3-3.4 s per 40-epoch
# experiment across seeds 0-3 and 7.  A seed set that changed with --seed
# would measure the seeds rather than the program, so the set is fixed and
# --seed only orders it.  Seeds 0 and 3 miss the C5 floors at 40 epochs,
# seed 7 meets them.
TRAIN_SEEDS = (0, 3, 7)
TRAIN_EPOCHS = 40
C5_FLOOR = 0.90

# toy-render: a model trained briefly in set-up, rendered above the CLI's
# default grid resolution of 120 so large-batch inference and the writers'
# per-cell loops dominate.
RENDER_EPOCHS = 20
RENDER_RESOLUTION = 300

CLI_RESOLUTION = 120         # experiment.DEFAULT_GRID_RESOLUTION, used by run_experiment
N_POINTS = 1800              # source + target samples drawn in the SVG


def dir_digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_model_roundtrip(nn, model_csv: Path, scratch: Path) -> None:
    """save_model_csv(load_model_csv(f)) reproduces f byte for byte."""
    nn.save_model_csv(nn.load_model_csv(model_csv), scratch)
    try:
        reference.check_same_bytes(model_csv, scratch)
    finally:
        scratch.unlink()


def check_artifacts(nn, out: Path, resolution: int, source, target) -> dict[str, float]:
    """Reference and property checks shared by toy-train and toy-render."""
    layers = reference.load_layers(out / "model.csv")
    delta = reference.default_delta(layers)
    reference.check_boundary(layers, out / "boundary.csv", resolution, delta)
    recalls = reference.check_eval_report(layers, out / "target_data.csv",
                                          out / "eval_report.csv", delta)
    reference.check_dataset_csv(out / "source_data.csv", source.features, source.true_labels)
    reference.check_dataset_csv(out / "target_data.csv", target.features, target.true_labels)
    reference.check_svg(out / "boundary.svg", resolution, N_POINTS)
    check_model_roundtrip(nn, out / "model.csv", out.parent / (out.name + ".roundtrip.csv"))
    return recalls


@dataclass
class Operation:
    label: str
    run: object      # callable(out_dir) -> result
    check: object    # callable(out_dir, result) -> None, on the first run only


class Workload:
    """Set-up is repeated to time it; ``operations`` is one round."""

    def __init__(self, tw, seed: int):
        self.tw = tw
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[Operation]:
        raise NotImplementedError


class ToyTrain(Workload):
    """``experiment.run_experiment`` on the default toy config at
    TRAIN_EPOCHS, one experiment per seed of TRAIN_SEEDS."""

    def setup(self):
        self.scenarios = {s: self.tw.data.build_toy_scenario(s) for s in TRAIN_SEEDS}

    def operations(self):
        k = self.seed % len(TRAIN_SEEDS)
        seeds = TRAIN_SEEDS[k:] + TRAIN_SEEDS[:k]
        return [Operation(f"seed{s}", self._runner(s), self._checker(s)) for s in seeds]

    def _runner(self, seed):
        spec = self.tw.experiment.ExperimentSpec.from_dict(
            {"epochs": TRAIN_EPOCHS, "seed": seed})
        return lambda out: self.tw.experiment.run_experiment(spec, out)

    def _checker(self, seed):
        def check(out, summary):
            source, target = self.scenarios[seed]
            recalls = check_artifacts(self.tw.nn, out, CLI_RESOLUTION, source, target)
            reference.check_loss_trace(out / "loss_trace.csv", TRAIN_EPOCHS)
            reference.check_density(out / "density.csv")
            common = summary.common_accuracy
            unknown = summary.unknown_recall
            if not (math.isclose(common, (recalls["0"] + recalls["1"]) / 2, abs_tol=reference.TOL)
                    and math.isclose(unknown, recalls["unknown"], abs_tol=reference.TOL)):
                raise reference.CheckError(f"seed {seed}: run summary disagrees with eval_report.csv")
            verdict = "meets" if min(common, unknown) >= C5_FLOOR else "misses"
            print(f"toy-train seed {seed}: common accuracy {common:.3f}, unknown recall "
                  f"{unknown:.3f} ({verdict} the C5 floors of {C5_FLOOR})")
        return check


class ToyRender(Workload):
    """One artifact pass for a model trained once in set-up: what
    ``run_experiment`` writes after training, at RENDER_RESOLUTION, plus a
    save_model_csv -> load_model_csv round trip.

    density.csv is left out: for some seeds its common-class KDE is
    narrower than the curve's grid spacing and integrates to 1.003 (seed
    6: bandwidth 0.050, spacing 0.091), so its check would fail on some
    seeds and not others.  toy-train, on fixed seeds, still writes and
    checks it."""

    def setup(self):
        tw = self.tw
        self.source, self.target = tw.data.build_toy_scenario(self.seed)
        config = tw.trainer.TrainConfig(seed=self.seed, epochs=RENDER_EPOCHS)
        state = tw.trainer.train(self.source, self.target, config)
        self.model, self.delta = state.model, state.delta

    def operations(self):
        return [Operation("render", self._render, self._check)]

    def _render(self, out: Path):
        tw, model, delta = self.tw, self.model, self.delta
        evaluation, write = tw.evaluation, tw.experiment.atomic_write
        report = evaluation.evaluate(model, self.target, delta)
        grid = evaluation.boundary_grid(model, tw.experiment.TOY_BOUNDS,
                                        RENDER_RESOLUTION, delta)
        write(out / "eval_report.csv", report.to_csv)
        write(out / "boundary.csv", grid.to_csv)
        write(out / "boundary.svg", lambda p: evaluation.write_boundary_svg(
            grid, p, source=self.source, target=self.target))
        write(out / "source_data.csv", lambda p: tw.data.dataset_to_csv(self.source, p))
        write(out / "target_data.csv", lambda p: tw.data.dataset_to_csv(self.target, p))
        write(out / "model.csv", lambda p: tw.nn.save_model_csv(model, p))
        return tw.nn.load_model_csv(out / "model.csv")

    def _check(self, out, loaded):
        check_artifacts(self.tw.nn, out, RENDER_RESOLUTION, self.source, self.target)
        if loaded.parameters_blob() != self.model.parameters_blob():
            raise reference.CheckError("load_model_csv does not restore the saved parameters")


class SelfTest(Workload):
    """``selfcheck.run_selftest``, as ``twohead selftest`` runs it.  Its
    inputs are fixed by the program; --seed does not change them."""

    def setup(self):
        pass

    def operations(self):
        return [Operation("selftest", self._run, self._check)]

    def _run(self, out: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            passed = self.tw.selfcheck.run_selftest(verbose=True)
        lines = buf.getvalue().splitlines()
        (out / "selftest.txt").write_text(buf.getvalue())
        return passed, lines

    def _check(self, out, result):
        passed, lines = result
        reference.check_selftest_lines(lines)
        if not passed:
            raise reference.CheckError("run_selftest returned False")


WORKLOADS = {"toy-train": ToyTrain, "toy-render": ToyRender, "selftest": SelfTest}

"""Experiment orchestration: config parsing, single runs, ablation suites,
hyperparameter sweeps, and artifact emission.

All artifacts are written atomically (temp file in the same directory,
then rename), so an interrupted run never leaves a partial file under the
final name.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .data import (TOY_SOURCE_CENTERS, BlobSpec, NoiseKind, NoiseSpec, build_toy_scenario,
                   dataset_to_csv)
from .errors import ConfigError
from .evaluation import EvalReport, boundary_grid, density_to_csv, evaluate, write_boundary_svg
from .losses import MethodVariant
from .nn import save_model_csv
from .trainer import TrainConfig, train

TOY_BOUNDS = ((-10.0, 14.0), (-12.0, 10.0))
DEFAULT_GRID_RESOLUTION = 120

SWEEPABLE = ("alpha", "lambda", "delta", "margin", "n_inner")


def _config_fields(owner: type) -> list[tuple[str, str, object]]:
    """(field name, config key, type) for every config field of a dataclass;
    the key is the field's name, or its metadata's ``key`` (``lambda``).
    ExperimentSpec's nested ``train`` config contributes its own fields."""
    hints = get_type_hints(owner)
    return [(f.name, f.metadata.get("key", f.name), hints[f.name])
            for f in fields(owner) if f.name != "train"]


def _convert(kind, value):
    """``value`` as the field type ``kind`` where JSON cannot spell it: a
    name as its enum, an int as a float, an integral float as an int.  All
    else, a bool too, passes unchanged for the dataclass to check."""
    kind = (get_args(kind) or (kind,))[0]  # ``T | None`` converts as T
    convertible = ((isinstance(value, str) and issubclass(kind, Enum))
                   or (kind is float and type(value) is int)
                   or (kind is int and type(value) is float and value.is_integer()))
    try:
        return kind(value) if convertible else value
    except (ValueError, OverflowError):  # no such member; an int past the float range
        return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: scenario settings plus a full training config,
    checked once when the spec is made.  The flat config mapping has one
    key per field of both, with ``lam`` spelled ``lambda``."""

    preset: str = "toy"
    noise_kind: NoiseKind = NoiseKind.SYMMETRIC_FLIP
    noise_rate: float = 0.2
    samples_per_class: int = 300
    stddev: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.preset != "toy":
            raise ConfigError(f"preset: only 'toy' is supported, got {self.preset!r}")
        if not isinstance(self.train, TrainConfig):
            raise ConfigError(f"train must be a TrainConfig, got {self.train!r}")
        self.noise  # built to check the noise settings
        # the toy's source blobs check stddev and samples_per_class as a run would
        BlobSpec(list(TOY_SOURCE_CENTERS), [self.stddev] * len(TOY_SOURCE_CENTERS),
                 self.samples_per_class)
        # the toy source has one class per center, so delta is known before a run
        self.train.separation(len(TOY_SOURCE_CENTERS))

    @property
    def noise(self) -> NoiseSpec:
        """The NoiseSpec of ``noise_kind`` and ``noise_rate``."""
        return NoiseSpec(self.noise_kind, self.noise_rate)

    def to_dict(self) -> dict:
        out = {}
        for obj in (self, self.train):
            for name, key, _ in _config_fields(type(obj)):
                value = getattr(obj, name)
                out[key] = value.value if isinstance(value, Enum) else value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        merged = cls.default_dict()
        unknown = set(raw) - set(merged)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)

        def build(owner, **nested):
            return owner(**{name: _convert(kind, merged[key])
                            for name, key, kind in _config_fields(owner)}, **nested)

        return build(cls, train=build(TrainConfig))

    @staticmethod
    def default_dict() -> dict:
        return ExperimentSpec().to_dict()


@dataclass
class SweepSpec:
    """``specs[i]`` is ``base`` with ``param`` set to ``values[i]``."""

    param: str
    values: list
    base: ExperimentSpec
    specs: list[ExperimentSpec] = field(init=False)

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ConfigError(
                f"param: must be one of {sorted(SWEEPABLE)}, got {self.param!r}")
        if not self.values:
            raise ConfigError("values: need at least one sweep value")
        for i, v in enumerate(self.values):
            if v in self.values[:i]:
                # equal values would train the same run twice into one directory
                raise ConfigError(f"values: {self.param}={v} is listed twice")
        self.specs = []
        for v in self.values:
            try:
                self.specs.append(ExperimentSpec.from_dict(
                    {**self.base.to_dict(), self.param: v}))
            except ConfigError as exc:
                raise ConfigError(f"values: {self.param}={v}: {exc}") from exc


def atomic_write(path: Path, write_fn) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_fn(tmp)
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def check_out_dir(path: Path) -> None:
    """ConfigError unless the first of ``path`` and its parents that exists is a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"out: {existing} exists and is not a directory")


def run_experiment(spec: ExperimentSpec, out_dir: Path) -> EvalReport:
    """Generate data, train, evaluate, then make ``out_dir``, write all
    artifacts and return the evaluation.  An ``out_dir`` that cannot be
    made is refused before any of that."""
    out_dir = Path(out_dir)
    check_out_dir(out_dir)
    source, target = build_toy_scenario(
        spec.train.seed, noise=spec.noise,
        samples_per_class=spec.samples_per_class, stddev=spec.stddev)

    state = train(source, target, spec.train)
    report = evaluate(state.model, target, state.delta)
    grid = boundary_grid(state.model, TOY_BOUNDS, DEFAULT_GRID_RESOLUTION, state.delta)

    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "loss_trace.csv", state.trace_to_csv)
    atomic_write(out_dir / "eval_report.csv", report.to_csv)
    atomic_write(out_dir / "density.csv", lambda p: density_to_csv(report, p))
    atomic_write(out_dir / "boundary.csv", grid.to_csv)
    atomic_write(out_dir / "boundary.svg",
                 lambda p: write_boundary_svg(grid, p, source=source, target=target))
    atomic_write(out_dir / "model.csv", lambda p: save_model_csv(state.model, p))
    atomic_write(out_dir / "source_data.csv", lambda p: dataset_to_csv(source, p))
    atomic_write(out_dir / "target_data.csv", lambda p: dataset_to_csv(target, p))

    manifest = {"config": spec.to_dict(), "seed": spec.train.seed,
                "build": f"twohead-{__version__}", "numpy": np.__version__,
                "blas": _blas()}
    atomic_write_text(out_dir / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return report


def _blas() -> dict[str, str]:
    """Name and version of the BLAS numpy was built against; "unknown"
    where numpy cannot report them (before 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {key: str(blas.get(key, "unknown")) for key in ("name", "version")}


def _run_many(jobs: int, specs: list[ExperimentSpec], out_dirs: list[Path]
              ) -> list[EvalReport]:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(specs) <= 1:
        return list(map(run_experiment, specs, out_dirs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_experiment, specs, out_dirs))


def _write_table(path: Path, rows: list[list]) -> None:
    """``rows``, the header first, as a CSV file, written atomically."""
    def write(pth):
        with open(pth, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    atomic_write(path, write)


def ablate(base: ExperimentSpec, out_dir: Path, jobs: int = 1) -> list[EvalReport]:
    """Run every method variant on identical data and seed, in MethodVariant order."""
    out_dir = Path(out_dir)
    reports = _run_many(jobs, [replace(base, train=replace(base.train, variant=v))
                               for v in MethodVariant],
                        [out_dir / v.value for v in MethodVariant])
    _write_table(out_dir / "ablation.csv",
                 [["variant", "avg_accuracy", "common_acc", "unknown_recall"]]
                 + [[v.value, repr(r.average_accuracy), repr(r.common_accuracy),
                     repr(r.unknown_recall)] for v, r in zip(MethodVariant, reports)])
    return reports


def sweep(spec: SweepSpec, out_dir: Path, jobs: int = 1) -> list[EvalReport]:
    """One full run per swept value, in order; everything else fixed."""
    out_dir = Path(out_dir)
    reports = _run_many(jobs, spec.specs,
                        [out_dir / f"{spec.param}_{v}" for v in spec.values])
    _write_table(out_dir / "sweep.csv", [["param", "value", "avg_accuracy"]]
                 + [[spec.param, v, repr(r.average_accuracy)]
                    for v, r in zip(spec.values, reports)])
    return reports

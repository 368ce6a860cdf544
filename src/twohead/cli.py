"""Command-line entry point.

Subcommands:
  run       one experiment from a JSON config
  ablate    all method variants on identical data/seed
  sweep     one run per value of a single hyperparameter
  grid      re-render a decision-boundary grid from a saved model
  selftest  loss-identity, gradient-oracle, and selection suites
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, DataError, NonFiniteLossError, TwoHeadError
from .evaluation import boundary_grid, write_boundary_svg
from .experiment import (DEFAULT_GRID_RESOLUTION, SWEEPABLE, TOY_BOUNDS, ExperimentSpec,
                         SweepSpec, ablate, atomic_write, check_out_dir, run_experiment, sweep)
from .losses import MethodVariant
from .nn import load_model_csv
from .selfcheck import run_selftest


def _load_spec(args) -> ExperimentSpec:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "variant", None) is not None:
        raw["variant"] = args.variant
    return ExperimentSpec.from_dict(raw)


def _parse_values(text: str) -> list[float]:
    vals = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            v = float(token)
        except ValueError as exc:
            raise ConfigError(f"values: {exc}") from exc
        if not math.isfinite(v):
            raise ConfigError(f"values: {token!r} is not a finite number")
        vals.append(int(v) if v == int(v) else v)
    return vals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twohead",
        description="Two-head divergence training experiments on toy domain pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_ablate = sub.add_parser("ablate", help="run every method variant")
    p_sweep = sub.add_parser("sweep", help="sweep one hyperparameter")
    for p in (p_run, p_ablate, p_sweep):
        p.add_argument("--config", help="JSON config file (defaults apply otherwise)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the master seed")
    for p in (p_run, p_sweep):
        p.add_argument("--variant", choices=[v.value for v in MethodVariant],
                       help="override the method variant")
    for p in (p_ablate, p_sweep):
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel child experiments, at least 1")
    p_sweep.add_argument("--param", required=True, help=" | ".join(SWEEPABLE))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 0,0.1,0.2")

    p_grid = sub.add_parser("grid", help="re-render a boundary grid from a saved model")
    p_grid.add_argument("--model", required=True, help="model CSV from a previous run")
    p_grid.add_argument("--out", default="out", help="output directory")
    p_grid.add_argument("--delta", type=float,
                        help="rejection threshold (default: ln num_classes)")
    p_grid.add_argument("--resolution", type=int, default=DEFAULT_GRID_RESOLUTION)

    sub.add_parser("selftest", help="run the built-in verification suites")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TwoHeadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "selftest":
        return 0 if run_selftest() else 1

    out = Path(args.out)
    check_out_dir(out)

    if args.command == "grid":
        model = load_model_csv(args.model)
        delta = args.delta if args.delta is not None else math.log(model.num_classes)
        grid = boundary_grid(model, TOY_BOUNDS, args.resolution, delta)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write(out / "boundary.csv", grid.to_csv)
        atomic_write(out / "boundary.svg", lambda p: write_boundary_svg(grid, p))
        print(f"boundary grid written to {out}")
        return 0

    spec = _load_spec(args)

    if args.command == "run":
        r = run_experiment(spec, out)
        print(f"variant={spec.train.variant.value} avg_accuracy={r.average_accuracy:.4f} "
              f"common={r.common_accuracy:.4f} unknown={r.unknown_recall:.4f}")
        return 0

    if args.command == "ablate":
        for v, r in zip(MethodVariant, ablate(spec, out, jobs=args.jobs)):
            print(f"{v.value}: avg={r.average_accuracy:.4f} "
                  f"common={r.common_accuracy:.4f} unknown={r.unknown_recall:.4f}")
        return 0

    if args.command == "sweep":
        sw = SweepSpec(param=args.param, values=_parse_values(args.values), base=spec)
        for v, r in zip(sw.values, sweep(sw, out, jobs=args.jobs)):
            print(f"{sw.param}={v}: avg_accuracy={r.average_accuracy:.4f}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

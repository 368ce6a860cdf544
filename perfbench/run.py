"""twohead benchmark: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports twohead from
``src/`` there and writes its outputs under ``.perfbench_out/``, removing
them at the end.  BLAS is pinned to one thread before numpy loads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced then traced, and prints the per-layer metrics
with the tracing overhead.  The last line of standard output is the JSON
result.  See README.md for what each metric means and which it moves.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, dir_digest  # noqa: E402


def import_twohead():
    sys.path.insert(0, str(SRC))
    from twohead import data, evaluation, experiment, nn, selfcheck, trainer
    return types.SimpleNamespace(data=data, evaluation=evaluation, experiment=experiment,
                                 nn=nn, selfcheck=selfcheck, trainer=trainer)


def median_import_s() -> float:
    """Median wall time of importing twohead in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import twohead"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs whole rounds of a workload's operations and checks each result."""

    def __init__(self, out_root: Path):
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests: dict[str, dict[str, str]] = {}

    def run_op(self, op, tag: str = "") -> float | None:
        """Run one operation; return its wall time, or None if it raised."""
        out = self.out_root / (op.label + tag)
        out.mkdir(exist_ok=True)
        self.attempted += 1
        gc.collect()    # start every operation from the same heap state
        t0 = time.perf_counter()
        try:
            result = op.run(out)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - t0
        self._verify(op, out, result)
        return elapsed

    def _verify(self, op, out: Path, result) -> None:
        try:
            if op.label in self.digests:
                if dir_digest(out) != self.digests[op.label]:
                    raise reference.CheckError(f"{op.label}: outputs differ from its first run")
            else:
                self.digests[op.label] = dir_digest(out)
                op.check(out, result)
        except reference.CheckError as exc:
            self.correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)


def run(name: str, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    tw = import_twohead()

    workload = WORKLOADS[name](tw, seed)
    runner = Runner(out_root)
    traced, traced_setup, untraced = Tracer(), Tracer(), Tracer()
    setup_times = []
    for i in range(SETUP_REPEATS):
        last = trace and i == SETUP_REPEATS - 1
        with traced_setup.active() if last else contextlib.nullcontext():
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)

    ops = workload.operations()
    round_means, base_times, traced_times = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:    # whole rounds only
        op_times = []
        for op in ops:
            if trace:
                with untraced.active(only={"trainer.train"}):
                    base_times.append(runner.run_op(op))
                with traced.active():
                    traced_times.append(runner.run_op(op, ".traced"))
            else:
                op_times.append(runner.run_op(op))
                print(f"{op.label}: {op_times[-1]} s")
        ok = [t for t in op_times if t is not None]
        if ok:
            round_means.append(sum(ok) / len(ok))

    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed}
    if not trace:
        if not round_means:
            sys.exit(f"error: every {name} operation failed")
        import_s = median_import_s()
        setup_s = import_s + statistics.median(setup_times)
        print(f"{name}: import {import_s:.3f} s, "
              f"set-up body {', '.join(f'{t:.3f}' for t in setup_times)} s, "
              f"{len(round_means)} rounds of {len(ops)} operations")
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(round_means), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        ok_pairs = [(b, t) for b, t in zip(base_times, traced_times)
                    if b is not None and t is not None]
        metrics = layers.per_layer(traced, traced_setup, untraced,
                                   n_ops=len(traced_times), pairs=ok_pairs)
        print(layers.span_table(traced))
        traced.write(out_root.parent / f"spans-{name}.csv")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twohead" / "__init__.py").is_file():
        sys.exit(f"error: no twohead sources under {SRC}; run from a source checkout")

    base = ROOT / ".perfbench_out"
    base.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

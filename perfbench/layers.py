"""Per-layer metrics derived from the spans of a traced run.

Every figure comes from the traced operations, except
``data.build_scenario_ms``, which comes from the traced set-up whose time
it moves.  Counts per step count only the calls the trainer's phases make;
times per call average over every call of that function, whichever module
made it.  A metric whose layer the workload never calls reads 0.
"""

from __future__ import annotations

PHASES = ("a1", "a2", "b", "c")

# name -> (unit, better); BENCHMARK.json lists the same metrics in this order
METRICS = {
    "trainer.steps_per_s": ("steps/s", "higher"),
    "trainer.steps": ("count", "higher"),
    **{f"trainer.{p}_ms_per_step": ("ms", "lower") for p in PHASES},
    "trainer.c_update_ratio": ("ratio", "higher"),
    "trainer.c_repeats": ("count", "lower"),
    "trainer.a2_update_ratio": ("ratio", "higher"),
    "trainer.a2_calls": ("count", "lower"),
    "nn.forward_calls_per_step": ("count", "lower"),
    "nn.backward_calls_per_step": ("count", "lower"),
    "nn.sgd_step_calls_per_step": ("count", "lower"),
    "nn.forward_us": ("us", "lower"),
    "nn.backward_us": ("us", "lower"),
    "nn.sgd_step_us": ("us", "lower"),
    "nn.forward_rows_per_s": ("rows/s", "higher"),
    "nn.forward_calls": ("count", "lower"),
    "nn.save_model_csv_ms": ("ms", "lower"),
    "nn.load_model_csv_ms": ("ms", "lower"),
    "nn.grad_check_s": ("s", "lower"),
    "losses.ms_per_step": ("ms", "lower"),
    "losses.calls_per_step": ("count", "lower"),
    "evaluation.evaluate_ms": ("ms", "lower"),
    "evaluation.boundary_grid_ms": ("ms", "lower"),
    "evaluation.boundary_csv_ms": ("ms", "lower"),
    "evaluation.svg_ms": ("ms", "lower"),
    "evaluation.density_csv_ms": ("ms", "lower"),
    "experiment.write_ms": ("ms", "lower"),
    "experiment.artifact_bytes": ("bytes", "lower"),
    "data.build_scenario_ms": ("ms", "lower"),
    "data.minibatches_ms_per_epoch": ("ms", "lower"),
    "selfcheck.identities_ms": ("ms", "lower"),
    "selfcheck.gradients_s": ("s", "lower"),
    "selfcheck.selection_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced, traced_setup, untraced, n_ops: int,
              pairs: list[tuple[float, float]]) -> dict:
    """Every metric of METRICS as name -> (value, unit).

    ``traced`` holds the spans of the traced operations, ``traced_setup``
    those of one traced set-up, ``untraced`` only the training calls of
    the untraced operations; ``pairs`` are the (untraced, traced) wall
    times of each operation.
    """
    tot = traced.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0))[0]

    def secs(name):
        return tot.get(name, (0, 0.0, 0))[1]

    def size(name):
        return tot.get(name, (0, 0.0, 0))[2]

    def per_call(name, scale):
        return _ratio(secs(name) * scale, calls(name))

    steps = size("trainer.train")
    trains = calls("trainer.train")
    base = untraced.totals().get("trainer.train", (0, 0.0, 0))
    setup = traced_setup.totals().get("data.build_scenario", (0, 0.0, 0))

    def phase_children(child):
        return sum(sum(traced.children(f"trainer.{p}", child)) for p in PHASES)

    c_repeats = sum(traced.children("trainer.c", "nn.forward"))
    c_updates = sum(traced.children("trainer.c", "nn.sgd_step"))
    a2_updates = traced.children("trainer.a2", "nn.sgd_step")
    loss_names = [n for n in tot if n.startswith("losses.")]
    base_s = sum(b for b, _ in pairs)

    values = {
        "trainer.steps_per_s": _ratio(base[2], base[1]),
        "trainer.steps": _ratio(steps, trains),
        **{f"trainer.{p}_ms_per_step": _ratio(secs(f"trainer.{p}") * 1e3, steps)
           for p in PHASES},
        "trainer.c_update_ratio": _ratio(c_updates, c_repeats),
        "trainer.c_repeats": _ratio(c_repeats, trains),
        "trainer.a2_update_ratio": _ratio(sum(1 for n in a2_updates if n), len(a2_updates)),
        "trainer.a2_calls": _ratio(len(a2_updates), trains),
        "nn.forward_calls_per_step": _ratio(phase_children("nn.forward"), steps),
        "nn.backward_calls_per_step": _ratio(phase_children("nn.backward"), steps),
        "nn.sgd_step_calls_per_step": _ratio(phase_children("nn.sgd_step"), steps),
        "nn.forward_us": per_call("nn.forward", 1e6),
        "nn.backward_us": per_call("nn.backward", 1e6),
        "nn.sgd_step_us": per_call("nn.sgd_step", 1e6),
        "nn.forward_rows_per_s": _ratio(size("nn.forward"), secs("nn.forward")),
        "nn.forward_calls": _ratio(calls("nn.forward"), n_ops),
        "nn.save_model_csv_ms": per_call("nn.save_model_csv", 1e3),
        "nn.load_model_csv_ms": per_call("nn.load_model_csv", 1e3),
        "nn.grad_check_s": per_call("nn.grad_check", 1.0),
        "losses.ms_per_step": _ratio(sum(secs(n) for n in loss_names) * 1e3, steps),
        "losses.calls_per_step": _ratio(sum(calls(n) for n in loss_names), steps),
        "evaluation.evaluate_ms": per_call("evaluation.evaluate", 1e3),
        "evaluation.boundary_grid_ms": per_call("evaluation.boundary_grid", 1e3),
        "evaluation.boundary_csv_ms": per_call("evaluation.boundary_csv", 1e3),
        "evaluation.svg_ms": per_call("evaluation.svg", 1e3),
        "evaluation.density_csv_ms": per_call("evaluation.density_csv", 1e3),
        "experiment.write_ms": _ratio(secs("experiment.write") * 1e3, n_ops),
        "experiment.artifact_bytes": _ratio(size("experiment.write"), n_ops),
        "data.build_scenario_ms": _ratio(setup[1] * 1e3, setup[0]),
        "data.minibatches_ms_per_epoch": _ratio(secs("data.minibatches") * 2e3,
                                                calls("data.minibatches")),
        "selfcheck.identities_ms": per_call("selfcheck.identities", 1e3),
        "selfcheck.gradients_s": per_call("selfcheck.gradients", 1.0),
        "selfcheck.selection_ms": per_call("selfcheck.selection", 1e3),
        "trace.overhead_pct": _ratio(sum(t for _, t in pairs) - base_s, base_s) * 100.0,
    }
    return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}


def span_table(traced) -> str:
    """Calls, total and self time per span name, busiest first."""
    tot = traced.totals()
    own = traced.self_times()
    lines = [f"{'span':32s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s}"]
    for name, (n, s, _) in sorted(tot.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:32s} {n:8d} {s * 1e3:10.1f} {own[name] * 1e3:10.1f}")
    return "\n".join(lines)

"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them
inline).

Reference metrics (criteria 5-7) were frozen from the shipped default
configuration at seed 7; cross-build drift tolerance is 0.02.
"""

import time

import numpy as np

from twohead import (MethodVariant, NoiseKind, NoiseSpec, TrainConfig,
                     inject_noise, make_transition_matrix)
from twohead.cli import main
from twohead.rng import make_rng
from twohead.selfcheck import (check_gradients, check_loss_identities,
                               check_selection_contract)
from twohead.trainer import train

# frozen from the reference ablation run (seed 7, default config)
REFERENCE_FULL_AVG = 0.996667
REFERENCE_MARGINS = {
    MethodVariant.SOURCE_ONLY: 0.288889,
    MethodVariant.NO_SELECT: 0.663333,
    MethodVariant.NO_SEP: 0.594444,
    MethodVariant.WITH_KL: 0.180000,
}
MARGIN_TOLERANCE = 0.02


def test_c1_loss_identities():
    t0 = time.perf_counter()
    result = check_loss_identities(n_pairs=1000)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 1.0
    print(f"\n[C1] PASS loss identities: {result.detail}, {elapsed:.2f}s")


def test_c2_gradient_oracle():
    t0 = time.perf_counter()
    results = check_gradients(tol=1e-4, h=1e-5)
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, [r.line() for r in failed]
    assert elapsed < 10.0
    worst = max(r.detail for r in results)
    print(f"\n[C2] PASS gradient oracle: {len(results)} objectives, "
          f"worst {worst}, {elapsed:.2f}s")


def test_c3_noise_statistics():
    t0 = time.perf_counter()
    n = 100_000
    rng = make_rng(0, "acceptance-noise")
    details = []
    for kind in (NoiseKind.SYMMETRIC_FLIP, NoiseKind.PAIR_FLIP):
        for rate in (0.2, 0.45):
            labels = rng.integers(0, 3, size=n)
            q = make_transition_matrix(NoiseSpec(kind, rate), 3)
            noisy = inject_noise(labels, q, seed=int(rate * 100))
            flipped = noisy != labels
            assert abs(flipped.mean() - rate) < 0.02, (kind, rate, flipped.mean())
            if kind is NoiseKind.PAIR_FLIP:
                partners = (labels + 1) % 3
                assert np.all(noisy[flipped] == partners[flipped])
            details.append(f"{kind.value}@{rate}:{flipped.mean():.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[C3] PASS noise statistics: {'  '.join(details)}, {elapsed:.2f}s")


def test_c4_selection_contract():
    t0 = time.perf_counter()
    result = check_selection_contract(n_vectors=10_000)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 1.0
    print(f"\n[C4] PASS selection contract: {result.detail}, {elapsed:.2f}s")


def test_c5_toy_reproduction(reference_run):
    state, report, elapsed = reference_run
    assert report.common_accuracy >= 0.90, report.per_class_accuracy
    assert report.unknown_recall >= 0.90, report.per_class_accuracy
    assert elapsed < 120.0
    print(f"\n[C5] PASS toy reproduction: common={report.common_accuracy:.4f} "
          f"unknown={report.unknown_recall:.4f} (train {elapsed:.0f}s)")


def test_c6_ablation_ordering(variant_reports):
    full = variant_reports[MethodVariant.FULL].average_accuracy
    assert abs(full - REFERENCE_FULL_AVG) <= MARGIN_TOLERANCE
    lines = []
    for variant, ref_margin in REFERENCE_MARGINS.items():
        margin = full - variant_reports[variant].average_accuracy
        assert margin > 0.0, f"full did not beat {variant.value}"
        assert abs(margin - ref_margin) <= MARGIN_TOLERANCE, \
            f"{variant.value}: margin {margin:.4f} vs recorded {ref_margin:.4f}"
        lines.append(f"{variant.value}:+{margin:.3f}")
    print(f"\n[C6] PASS ablation ordering: full={full:.4f}  {'  '.join(lines)}")


def test_c7_divergence_separation(reference_run):
    state, report, _ = reference_run
    delta = state.delta
    mean_common = report.common_divergences.mean()
    mean_private = report.private_divergences.mean()
    assert mean_common < delta < mean_private
    curves = report.density_curves   # fitted on each read
    gc, pdf_c = curves["common"]
    gp, pdf_p = curves["private"]
    mode_common = gc[np.argmax(pdf_c)]
    mode_private = gp[np.argmax(pdf_p)]
    assert mode_common < delta < mode_private
    print(f"\n[C7] PASS divergence separation: common {mean_common:.3f} "
          f"(mode {mode_common:.3f}) < delta {delta:.3f} < private "
          f"{mean_private:.3f} (mode {mode_private:.3f})")


def test_c8_freezing_and_determinism(toy_data, reference_run, observe_steps, tmp_path):
    source, target = toy_data
    t0 = time.perf_counter()

    def _blob(layers):
        return b"".join(np.concatenate([l.weight.ravel(), l.bias]).tobytes()
                        for l in layers)

    # compare each post-step snapshot against the previous one on the fly
    counts = {"B": 0, "C": 0, "gen_drift": 0, "head_drift": 0}
    prev = {}

    def record(step, epoch, model):
        gen = _blob(model.generator)
        heads = _blob(model.head1 + model.head2)
        if prev:
            if step == "B":
                counts["B"] += 1
                if gen != prev["gen"]:
                    counts["gen_drift"] += 1
            elif step == "C":
                counts["C"] += 1
                if heads != prev["heads"]:
                    counts["head_drift"] += 1
        prev["gen"], prev["heads"] = gen, heads

    observe_steps(record)
    instrumented = train(source, target, TrainConfig(seed=7))
    assert counts["B"] > 0 and counts["C"] > 0
    assert counts["gen_drift"] == 0, f"generator drifted in {counts['gen_drift']} B-updates"
    assert counts["head_drift"] == 0, f"heads drifted in {counts['head_drift']} C-updates"
    b_checked, c_checked = counts["B"], counts["C"]

    # the instrumented run doubles as the determinism twin
    ref_state = reference_run[0]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ref_state.trace_to_csv(a)
    instrumented.trace_to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"\n[C8] PASS freezing/determinism: {b_checked} B-updates, "
          f"{c_checked} C-updates frozen; traces bit-identical ({elapsed:.0f}s)")


def test_c9_sweep_harness(tmp_path):
    t0 = time.perf_counter()
    import json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))

    out_n = tmp_path / "sweep_n"
    rc = main(["sweep", "--config", str(cfg), "--param", "n_inner",
               "--values", "1,2,4,8", "--out", str(out_n), "--jobs", "4"])
    assert rc == 0
    lines_n = (out_n / "sweep.csv").read_text().splitlines()
    assert lines_n[0] == "param,value,avg_accuracy"
    assert len(lines_n) == 5
    for line in lines_n[1:]:
        param, value, acc = line.split(",")
        assert param == "n_inner"
        assert 0.0 <= float(acc) <= 1.0

    out_a = tmp_path / "sweep_alpha"
    rc = main(["sweep", "--config", str(cfg), "--param", "alpha",
               "--values", "0,0.1,0.2,0.3,0.5", "--out", str(out_a),
               "--jobs", "4"])
    assert rc == 0
    lines_a = (out_a / "sweep.csv").read_text().splitlines()
    assert len(lines_a) == 6
    assert lines_a[1].startswith("alpha,0,")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    print(f"\n[C9] PASS sweep harness: n x4 and alpha x5 runs complete "
          f"({elapsed:.0f}s)")

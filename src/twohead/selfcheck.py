"""Built-in verification suites: loss identities, gradient oracles, and
the selection contract.  The CLI exposes them as ``selftest``; the test
suite reuses them for acceptance checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, nn
from .errors import ConfigError, check_number
from .losses import SeparationParams
from .rng import make_rng


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def check_loss_identities(n_pairs: int = 1000, seed: int = 2024) -> CheckResult:
    """Random probability pairs over 2..20 classes must satisfy
    skld == crs - ent (within 1e-10), crs >= ent and ent <= 2 ln C."""
    check_number("n_pairs", n_pairs, integer=True)
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = make_rng(seed, "identities")
    worst_decomp = 0.0
    for c in range(2, 21):
        n = len(range(c - 2, n_pairs, 19))  # pairs i with 2 + i % 19 == c
        if not n:
            continue
        p = np.stack([rng.dirichlet(np.ones(c), size=n) for _ in range(2)])
        crs, ent = losses.crs_rows(p), losses.ent_rows(p)
        worst_decomp = max(worst_decomp,
                           float(np.abs(losses.skld_rows(p) - (crs - ent)).max()))
        if (ent > 2.0 * math.log(c) + 1e-12).any():
            return CheckResult("loss-identities", False,
                               f"ent exceeds 2 ln {c} for a {c}-class pair")
        if (crs < ent).any():
            return CheckResult("loss-identities", False,
                               f"crs < ent for a {c}-class pair")
    ok = worst_decomp < 1e-10
    return CheckResult("loss-identities", ok,
                       f"{n_pairs} pairs, max |skld - (crs - ent)| = {worst_decomp:.3e}")


def _grad_objectives(num_classes: int, n_samples: int, seed: int,
                     sep: SeparationParams, cap: float):
    """Named closures over the objectives in ``losses`` that training
    applies: the source-batch ones, on the (..., 2, n_samples, C) source
    rows, return the ``losses`` objective; the stacked ones, on the source
    rows stacked on as many target rows, return (value, dp), and the
    capped discriminator caps the target crs at ``cap``."""
    rng = make_rng(seed, "gradcheck-labels")
    labels = rng.integers(0, num_classes, size=n_samples)
    lam = 0.1

    def separation(**weights):
        return lambda p: losses.separation(p, sep, **weights)

    def discriminator(p, cap=None):
        # source rows with the joint loss, target rows entering negatively
        # through their mean (capped) crs, as step B applies them
        src = losses.source(p[..., :n_samples, :], labels, lam)
        tgt = losses.crs(p[..., n_samples:, :], weight=-1.0, cap=cap)
        return src.value + tgt.value, np.concatenate([src.dp, tgt.dp], axis=-2)

    def alignment(p):
        common = losses.crs(p[..., ::2, :])  # fixed detected-common subset
        d = np.zeros_like(p)
        d[..., ::2, :] = common.dp
        return common.value, d

    source = [("source-joint", lambda p: losses.source(p, labels, lam)),
              ("supervised-only", lambda p: losses.source(p, labels, 0.0)),
              ("separation-joint", separation()),
              ("separation-kl", separation(ent_weight=-1.0)),
              ("separation-crs-only", separation(ent_weight=0.0)),
              ("separation-ent-only", separation(crs_weight=0.0)),
              ("separation-saturated", separation(reach=sep.reach)),
              ("separation-off", separation(crs_weight=0.0, ent_weight=0.0))]
    stacked = [("discriminator", discriminator),
               ("discriminator-capped", lambda p: discriminator(p, cap=cap)),
               ("alignment", alignment)]
    return source, stacked


def _on_source_rows(objective, n_samples: int):
    """``objective`` read on the first ``n_samples`` rows of the stacked
    batch, as (value, dp) with dp zero on the target rows."""
    def loss_fn(p):
        out = objective(p[..., :n_samples, :])
        dp = np.zeros_like(p)
        dp[..., :n_samples, :] = out.dp
        return out.value, dp
    return loss_fn


def _hinge_gap(p: np.ndarray, sep: SeparationParams) -> float:
    """Distance of every per-sample crs/ent value of the (2, N, C) pair
    from the nearest hinge kink (band edge or saturation radius); finite
    differences need this to stay clear of zero."""
    vals = np.concatenate([losses.crs_rows(p), losses.ent_rows(p)])
    dist = np.abs(vals - sep.delta)
    gap_band = np.abs(dist - sep.margin).min()
    gap_reach = np.abs(dist - sep.reach).min()
    return float(min(gap_band, gap_reach))


def check_gradients(seed: int = 11, tol: float = 1e-4, h: float = 1e-5
                    ) -> list[CheckResult]:
    """Finite-difference oracle over every training objective on a small
    two-head network, in one ``nn.grad_check`` call on a 4-sample source
    batch stacked on a 4-sample target batch.  The source-batch
    objectives read the source rows only; the discriminator and alignment
    read both.  The capped discriminator's cap sits in the widest gap
    between the target rows' crs values, so rows on both sides of it are
    checked."""
    num_classes = 3
    n = 4
    rng = make_rng(seed, "gradcheck-data")
    x = np.vstack([rng.normal(scale=1.5, size=(n, 2)),
                   rng.normal(scale=1.5, size=(n, 2)) + 2.0])
    sep = SeparationParams(delta=math.log(num_classes), margin=0.35)
    model = nn.init_model([2, 8, 8, 8], num_classes, seed=seed)
    p = nn.forward(model, x).p
    crs_tgt = np.sort(losses.crs_rows(p[:, n:, :]))
    split = int(np.argmax(np.diff(crs_tgt)))
    cap = float(crs_tgt[split] + crs_tgt[split + 1]) / 2.0
    source, stacked = _grad_objectives(num_classes, n, seed, sep, cap)
    objectives = [(name, _on_source_rows(fn, n)) for name, fn in source] + stacked

    # every row an objective sees must sit clear of the kinks
    gap = min(_hinge_gap(p, sep), float(np.abs(crs_tgt - cap).min()))
    if gap < 1e-3:
        return [CheckResult("gradient-setup", False,
                            f"hinge kink too close to a sample ({gap:.2e})")]

    reports = nn.grad_check(model, [fn for _, fn in objectives], x, h=h, tol=tol)
    return [CheckResult(f"grad-{name}", report.passed,
                        f"max rel err {report.max_rel_error:.3e} "
                        f"(worst {report.worst_param or 'n/a'})")
            for (name, _), report in zip(objectives, reports)]


_SELECTION_MAX_N = 64   # vector i has length 1 + i % 64


def check_selection_contract(n_vectors: int = 10000, seed: int = 5) -> CheckResult:
    """Random loss vectors of 1 to 64 entries, each with its own uniform
    alpha: ``small_loss_mask`` keeps exactly ceil((1-alpha) N) of them, up
    to its float guard, and no kept loss above a dropped one.  Vector i has
    length 1 + i % 64; the vectors of one length are drawn, masked in one
    call and verified together.  The first vector of each length is also
    masked alone, through the 1-D path, which must keep exactly its row of
    the block mask.  The lowest failing vector is reported."""
    check_number("n_vectors", n_vectors, integer=True)
    if n_vectors < 1:
        raise ConfigError(f"n_vectors must be >= 1, got {n_vectors}")
    rng = make_rng(seed, "selection")
    failures = []
    for n in range(1, min(n_vectors, _SELECTION_MAX_N) + 1):
        count = len(range(n - 1, n_vectors, _SELECTION_MAX_N))
        values = rng.standard_normal((count, n))
        alphas = rng.random(count)
        mask = losses.small_loss_mask(values, alphas)
        kept = mask.sum(axis=1)
        # ceil((1 - alpha) N), where a count within the selector's guard
        # above an integer is that integer
        expect = np.ceil((1.0 - alphas) * n - losses.SELECTION_GUARD).astype(np.int64)
        top = np.where(mask, values, -np.inf).max(axis=1)
        low = np.where(mask, np.inf, values).min(axis=1)
        bad = (kept != expect) | (top > low)
        bad[0] |= not np.array_equal(losses.small_loss_mask(values[0], float(alphas[0])),
                                     mask[0])
        if bad.any():
            r = int(np.argmax(bad))
            if kept[r] != expect[r]:
                detail = f"kept {kept[r]}, expected {expect[r]}"
            elif top[r] > low[r]:
                detail = "selected loss above unselected"
            else:
                detail = "the 1-D mask differs from its block row"
            failures.append((n - 1 + _SELECTION_MAX_N * r, detail))
    if failures:
        vector, detail = min(failures)
        return CheckResult("selection-contract", False, f"vector {vector}: {detail}")
    return CheckResult("selection-contract", True, f"{n_vectors} random vectors")


def run_selftest(verbose: bool = True) -> bool:
    results = [check_loss_identities()]
    results.extend(check_gradients())
    results.append(check_selection_contract())
    for r in results:
        if verbose:
            print(r.line())
    return all(r.passed for r in results)

"""The selftest's own machinery: the gradient oracle's shared forwards, and
the block-wise selection-contract check against the per-vector loop it
replaced."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from twohead import ConfigError, losses, nn, selfcheck
from twohead.rng import make_rng
from twohead.selfcheck import (CheckResult, check_gradients, check_loss_identities,
                               check_selection_contract)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_check_gradients_runs_34_forwards_as_the_readme_says(monkeypatch):
    """One set-up forward, then one ``nn.grad_check`` call on the 8-row
    batch: one unperturbed forward and 32 member forwards (the selftest
    model's 510 parameters, 16 cells of the flat buffer a forward), so
    1 + 1 + 32.  The README's "N forwards in all" must give that count."""
    calls = []
    checks = []
    real, real_check = nn.forward, nn.grad_check

    def counting(*args, **kwargs):
        calls.append(args[0].members)
        return real(*args, **kwargs)

    def counting_check(*args, **kwargs):
        checks.append(args[2].shape)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting)
    monkeypatch.setattr(nn, "grad_check", counting_check)
    results = check_gradients()
    assert len(results) == 11 and all(r.passed for r in results)
    assert checks == [(8, 2)]
    assert len(calls) == 34
    assert calls.count((32,)) == 32
    stated = re.search(r"(\d+) forwards in all", README.read_text())
    assert stated is not None and int(stated.group(1)) == len(calls)


def _value_and_dp(objective):
    def loss_fn(p):
        out = objective(p)
        return out.value, out.dp
    return loss_fn


def test_source_objectives_report_what_a_check_on_the_source_rows_reports(monkeypatch):
    """Each source-batch objective, read on the source rows of the 8-row
    batch with a zero gradient on the target rows, gets the report a
    check of the bare objective on the 4-row source batch gives."""
    seen = {}
    real_check, real_objectives = nn.grad_check, selfcheck._grad_objectives

    def recording_check(model, loss_fns, x, **kwargs):
        seen.update(model=model, x=x, kwargs=kwargs)
        seen["reports"] = real_check(model, loss_fns, x, **kwargs)
        return seen["reports"]

    def recording_objectives(*args, **kwargs):
        seen["objectives"] = real_objectives(*args, **kwargs)
        return seen["objectives"]

    monkeypatch.setattr(nn, "grad_check", recording_check)
    monkeypatch.setattr(selfcheck, "_grad_objectives", recording_objectives)
    check_gradients()
    source, stacked = seen["objectives"]
    assert len(source) == 8 and len(seen["reports"]) == len(source) + len(stacked)
    for (name, objective), report in zip(source, seen["reports"]):
        alone, = real_check(seen["model"], [_value_and_dp(objective)], seen["x"][:4],
                            **seen["kwargs"])
        assert (report.max_rel_error, report.worst_param) == \
            (alone.max_rel_error, alone.worst_param), name


def _per_vector_contract(n_vectors: int, seed: int = 5) -> CheckResult:
    """The check as a loop that selects and verifies one vector at a time:
    the reference for the block-wise check, drawing the same vectors, a
    block of 200 at a time."""
    rng = make_rng(seed, "selection")
    for i in range(n_vectors):
        if i % 200 == 0:
            rows = min(200, n_vectors - i)
            sizes = rng.integers(1, 65, size=rows)
            alphas = rng.random(rows)
            values = rng.standard_normal((rows, 64))
        n, alpha = int(sizes[i % 200]), float(alphas[i % 200])
        vec = values[i % 200, :n]
        sel = losses.small_loss_select(vec, alpha)
        expect = math.ceil((1.0 - alpha) * n - losses.SELECTION_GUARD)
        kept = len(set(sel.tolist()))
        if kept != expect:
            return CheckResult("selection-contract", False,
                               f"vector {i}: kept {kept}, expected {expect}")
        if kept != len(sel):
            return CheckResult("selection-contract", False,
                               f"vector {i}: an index listed twice")
        rest = np.ones(n, dtype=bool)
        rest[sel] = False
        if rest.any() and vec[sel].max() > vec[rest].min():
            return CheckResult("selection-contract", False,
                               f"vector {i}: selected loss above unselected")
    return CheckResult("selection-contract", True, f"{n_vectors} random vectors")


_select = losses.small_loss_select   # the tests below patch the module's


def _wrong_from(call: int, wrong):
    """A selector that is right until its ``call``-th call (0-based), and
    ``wrong`` from then on."""
    calls = [0]

    def selector(vec, alpha):
        calls[0] += 1
        return (wrong if calls[0] > call else _select)(vec, alpha)

    return selector


def _largest(vec, alpha):
    kept = len(_select(vec, alpha))
    return np.sort(np.argsort(-vec, kind="stable")[:kept])


def _one_short(vec, alpha):
    return _select(vec, alpha)[1:]


def _repeat_last(vec, alpha):
    """The right count, with the first kept index swapped for a second
    copy of the last."""
    sel = _select(vec, alpha)
    return np.concatenate([sel[1:], sel[-1:]])


def _smallest_twice(vec, alpha):
    """As many indices as the right selection, with its largest loss
    dropped and its smallest listed twice."""
    sel = _select(vec, alpha)
    by_loss = sel[np.argsort(vec[sel], kind="stable")]
    return np.concatenate([by_loss[:1], by_loss[:-1]])


def _one_extra_twice(vec, alpha):
    """The right selection, with its first index listed a second time."""
    sel = _select(vec, alpha)
    return np.concatenate([sel, sel[:1]])


# name -> (selector factory, the first vector it gets wrong, or None)
_SELECTORS = {
    "right": (lambda: _select, None),
    "largest": (lambda: _largest, 0),
    "one short": (lambda: _one_short, 0),
    "repeats the last index": (lambda: _repeat_last, 0),
    "smallest twice, largest dropped": (lambda: _smallest_twice, 0),
    "first index twice": (lambda: _one_extra_twice, 0),
    "one short from vector 436": (lambda: _wrong_from(436, _one_short), 436),
    "one short from vector 1030": (lambda: _wrong_from(1030, _one_short), 1030),
}


@pytest.mark.parametrize("n_vectors", [200, 450, 1037])
@pytest.mark.parametrize("selector", list(_SELECTORS))
def test_block_check_matches_the_per_vector_loop(monkeypatch, selector, n_vectors):
    """Same verdict and message, for failures in the first, a middle and
    a partial last block of 200."""
    factory, first_wrong = _SELECTORS[selector]
    results = []
    for check in (check_selection_contract, _per_vector_contract):
        monkeypatch.setattr(losses, "small_loss_select", factory())
        results.append(check(n_vectors))
    assert results[0] == results[1]
    assert results[0].passed == (first_wrong is None or first_wrong >= n_vectors)
    if not results[0].passed:
        assert results[0].detail.startswith(f"vector {first_wrong}: ")
    if "from vector" in selector and not results[0].passed:
        assert results[0].detail.startswith(f"vector {first_wrong}: kept ")


def test_block_check_matches_the_per_vector_loop_on_the_selftest_draws():
    result = check_selection_contract()
    assert result == _per_vector_contract(10_000)
    assert result.passed


class _ScriptedRng:
    """Stands in for the check's generator: yields the given (n, alpha)
    pairs in order, a block at a time, with normal losses."""

    def __init__(self, pairs):
        self._pairs = iter(pairs)
        self._alphas = None
        self._normal = make_rng(0, "scripted")

    def integers(self, low, high, size):
        sizes, alphas = zip(*(next(self._pairs) for _ in range(size)))
        assert all(low <= n < high for n in sizes)
        self._alphas = np.array(alphas)
        return np.array(sizes)

    def random(self, size):
        assert size == len(self._alphas)
        return self._alphas

    def standard_normal(self, out):
        return self._normal.standard_normal(out=out)


def test_selection_contract_expects_what_the_guard_keeps(monkeypatch):
    """On a 1/1000 alpha grid, ceil((1 - alpha) N) in floats expects one
    row more than small_loss_select keeps at 28 (N, alpha) pairs, where
    1 - alpha rounds up (0.3 N for alpha = 0.7).  The selector's guard
    keeps the decimal count there, and the check expects it."""
    kept = {(n, i / 1000): len(losses.small_loss_select(np.zeros(n), i / 1000))
            for i in range(1000) for n in range(1, 65)}
    drift = [(n, alpha) for (n, alpha), k in kept.items()
             if math.ceil((1.0 - alpha) * n) != k]
    assert len(drift) == 28
    assert kept[10, 0.7] == 3 and kept[20, 0.85] == 3 and kept[25, 0.44] == 14
    assert {(10, 0.7), (20, 0.85), (25, 0.44)} <= set(drift)
    monkeypatch.setattr(selfcheck, "make_rng", lambda seed, label: _ScriptedRng(drift))
    assert check_selection_contract(n_vectors=len(drift)) == CheckResult(
        "selection-contract", True, "28 random vectors")
    monkeypatch.setattr(selfcheck, "make_rng", lambda seed, label: _ScriptedRng(kept))
    assert check_selection_contract(n_vectors=len(kept)).passed


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("check, name", [(check_selection_contract, "n_vectors"),
                                         (check_loss_identities, "n_pairs")])
def test_a_check_of_nothing_is_rejected(check, name, count):
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {count}"):
        check(count)

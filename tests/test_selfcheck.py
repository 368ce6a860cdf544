"""The selftest's own machinery: the gradient oracle's shared forwards, and
the per-length selection-contract check against a per-vector loop."""

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twohead import ConfigError, losses, nn, selfcheck
from twohead.rng import make_rng
from twohead.selfcheck import (CheckResult, check_gradients, check_loss_identities,
                               check_selection_contract)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_check_gradients_runs_10_forwards_as_the_readme_says(monkeypatch):
    """One set-up forward, then one ``nn.grad_check`` call on the 8-row
    batch: one unperturbed forward and 8 member forwards (the selftest
    model's 510 parameters, 64 cells of the flat buffer a forward), so
    1 + 1 + 8.  The README's "N forwards in all" must give that count."""
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
    assert len(calls) == 10
    assert calls.count((128,)) == 8
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


_mask = losses.small_loss_mask   # the tests below patch the module's


def _select(vec, alpha):
    """The indices the right mask keeps of one vector."""
    return np.flatnonzero(_mask(vec, alpha))


def _from(start: int, wrong):
    """A fault on vector ``start`` and every later one: the selection
    ``wrong(vec, alpha)`` there, the right one before."""
    return lambda i, vec, alpha: (wrong if i >= start else _select)(vec, alpha)


def _keep(n: int, indices) -> np.ndarray:
    keep = np.zeros(n, dtype=bool)
    keep[indices] = True
    return keep


def _per_vector_contract(n_vectors: int, seed: int = 5, mask_fault=_from(0, _select),
                         alone_fault=_from(0, _select)) -> CheckResult:
    """The check as a loop that verifies one vector at a time, in index
    order: the reference for the per-length check, on the same draws.
    ``mask_fault(i, vec, alpha)`` gives the indices vector i's row of its
    block mask keeps, and ``alone_fault`` those the 1-D path keeps of the
    first vector of each length."""
    rng = make_rng(seed, "selection")
    blocks = {}
    for n in range(1, min(n_vectors, 64) + 1):
        count = len(range(n - 1, n_vectors, 64))
        blocks[n] = rng.standard_normal((count, n)), rng.random(count)
    for i in range(n_vectors):
        n, r = 1 + i % 64, i // 64
        vec, alpha = blocks[n][0][r], float(blocks[n][1][r])
        keep = _keep(n, mask_fault(i, vec, alpha))
        kept = np.count_nonzero(keep)
        expect = math.ceil((1.0 - alpha) * n - losses.SELECTION_GUARD)
        if kept != expect:
            detail = f"kept {kept}, expected {expect}"
        elif not keep.all() and vec[keep].max() > vec[~keep].min():
            detail = "selected loss above unselected"
        elif r == 0 and not np.array_equal(_keep(n, alone_fault(i, vec, alpha)), keep):
            detail = "the 1-D mask differs from its block row"
        else:
            continue
        return CheckResult("selection-contract", False, f"vector {i}: {detail}")
    return CheckResult("selection-contract", True, f"{n_vectors} random vectors")


def _patch_mask(monkeypatch, mask_fault=None, alone_fault=None):
    """``small_loss_mask`` with row r of each (count, n) block set to what
    ``mask_fault`` keeps of vector n - 1 + 64 r, and a 1-D call, on vector
    N - 1 (the first of its length), to what ``alone_fault`` keeps; a
    fault of None leaves its path right."""
    def mask(values, alpha):
        got = _mask(values, alpha)
        fault = mask_fault if got.ndim == 2 else alone_fault
        if fault is not None:
            alphas = alpha.tolist() if got.ndim == 2 else [alpha]
            n = got.shape[-1]
            for r, (vec, a, row) in enumerate(zip(np.atleast_2d(values), alphas,
                                                  np.atleast_2d(got))):
                row[:] = _keep(n, fault(n - 1 + 64 * r, vec, a))
        return got
    monkeypatch.setattr(losses, "small_loss_mask", mask)


def _largest(vec, alpha):
    kept = len(_select(vec, alpha))
    return np.sort(np.argsort(-vec, kind="stable")[:kept])


def _one_short(vec, alpha):
    return _select(vec, alpha)[1:]


def _one_extra(vec, alpha):
    """The right selection plus the smallest loss it drops, if any."""
    sel = _select(vec, alpha)
    rest = np.setdiff1d(np.arange(len(vec)), sel)
    return np.sort(np.concatenate([sel, rest[np.argsort(vec[rest])][:1]]))


def _above(vec, alpha):
    """The right count, with its largest loss swapped for the smallest loss
    it drops, if any."""
    sel = _select(vec, alpha)
    rest = np.setdiff1d(np.arange(len(vec)), sel)
    if not rest.size:
        return sel
    return np.sort(np.concatenate([sel[vec[sel] != vec[sel].max()],
                                   rest[vec[rest] == vec[rest].min()]]))


_SIZES = (200, 450, 1037)

# name -> (the path it breaks: the block mask or the 1-D one, its fault,
# the first vector it gets wrong on the seed-5 draws of each of _SIZES, or
# None).  Each length draws as many vectors as n_vectors gives it, so a
# fault that shows only on some draws is first seen at vector 1 or 2 by
# n_vectors.  The check masks the first vector of each length (vector
# N - 1) alone too, through the 1-D path.
_SELECTORS = {
    "right": (None, None, None),
    "largest": ("mask", _from(0, _largest), (1, 2, 1)),
    "one short": ("mask", _from(0, _one_short), (0, 0, 0)),
    "one extra": ("mask", _from(0, _one_extra), (1, 2, 1)),
    "kept loss above an unselected one": ("mask", _from(0, _above), (1, 2, 1)),
    "1-D path largest": ("alone", _from(0, _largest), (1, 2, 1)),
    "1-D path one short": ("alone", _from(0, _one_short), (0, 0, 0)),
    "one short from vector 436": ("mask", _from(436, _one_short), (436,) * 3),
    "one short from vector 1030": ("mask", _from(1030, _one_short), (1030,) * 3),
}


@pytest.mark.parametrize("n_vectors", _SIZES)
@pytest.mark.parametrize("selector", list(_SELECTORS))
def test_block_check_matches_the_per_vector_loop(monkeypatch, selector, n_vectors):
    """Same verdict and message as the per-vector loop, for faults of the
    block mask and of the 1-D path, from the first vector on and from a
    middle one, with every length holding 3 to 17 vectors."""
    target, fault, first_wrong = _SELECTORS[selector]
    faults = {} if target is None else {f"{target}_fault": fault}
    _patch_mask(monkeypatch, **faults)
    result = check_selection_contract(n_vectors)
    assert result == _per_vector_contract(n_vectors, **faults)
    first_wrong = first_wrong and first_wrong[_SIZES.index(n_vectors)]
    assert result.passed == (first_wrong is None or first_wrong >= n_vectors)
    if not result.passed:
        assert result.detail.startswith(f"vector {first_wrong}: ")
    if "from vector" in selector and not result.passed:
        assert result.detail.startswith(f"vector {first_wrong}: kept ")


def test_block_check_matches_the_per_vector_loop_on_the_selftest_draws():
    result = check_selection_contract()
    assert result == _per_vector_contract(10_000)
    assert result.passed


class _ScriptedRng:
    """Stands in for the check's generator: for each length N, normal
    losses and the alphas scripted for N, padded with zeros to the
    vectors of that length."""

    def __init__(self, pairs):
        self._alphas = {}
        for n, alpha in pairs:
            self._alphas.setdefault(n, []).append(alpha)
        self._normal = make_rng(0, "scripted")
        self._n = None

    def standard_normal(self, size):
        self._n = size[1]
        return self._normal.standard_normal(size)

    def random(self, size):
        alphas = self._alphas.get(self._n, [])
        assert len(alphas) <= size
        return np.array(alphas + [0.0] * (size - len(alphas)))


def test_selection_contract_expects_what_the_guard_keeps(monkeypatch):
    """On a 1/1000 alpha grid, ceil((1 - alpha) N) in floats expects one
    row more than small_loss_mask keeps at 28 (N, alpha) pairs, where
    1 - alpha rounds up (0.3 N for alpha = 0.7).  The selector's guard
    keeps the decimal count there, and the check expects it: on those
    pairs alone, and on the whole grid, 1000 vectors of each length."""
    kept = {(n, i / 1000): np.count_nonzero(losses.small_loss_mask(np.zeros(n), i / 1000))
            for i in range(1000) for n in range(1, 65)}
    drift = [(n, alpha) for (n, alpha), k in kept.items()
             if math.ceil((1.0 - alpha) * n) != k]
    assert len(drift) == 28
    assert kept[10, 0.7] == 3 and kept[20, 0.85] == 3 and kept[25, 0.44] == 14
    assert {(10, 0.7), (20, 0.85), (25, 0.44)} <= set(drift)
    per_length = max(Counter(n for n, _ in drift).values())
    monkeypatch.setattr(selfcheck, "make_rng", lambda seed, label: _ScriptedRng(drift))
    assert check_selection_contract(n_vectors=64 * per_length) == CheckResult(
        "selection-contract", True, f"{64 * per_length} random vectors")
    monkeypatch.setattr(selfcheck, "make_rng", lambda seed, label: _ScriptedRng(kept))
    assert check_selection_contract(n_vectors=len(kept)).passed


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("check, name", [(check_selection_contract, "n_vectors"),
                                         (check_loss_identities, "n_pairs")])
def test_a_check_of_nothing_is_rejected(check, name, count):
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {count}"):
        check(count)

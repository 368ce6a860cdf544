import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twohead import (UNKNOWN, ConfigError, DataError, DimensionError, MethodVariant,
                     SeparationParams, UsageError, init_model, predict,
                     small_loss_mask, variant_losses)
from twohead import losses
from twohead.losses import crs_rows, ent_rows, skld_rows
from twohead.nn import forward, grad_check
from twohead.rng import make_rng

P = np.array([0.9, 0.1])
Q = np.array([0.5, 0.5])


def _kl_reference(p, q):
    # independent oracle: direct clamped summation
    eps = 1e-12
    return sum(pi * (math.log(max(pi, eps)) - math.log(max(qi, eps)))
               for pi, qi in zip(p, q))


def _pair(p1, p2):
    """The stacked (2, N, C) head pair the objectives take."""
    return np.stack([p1, p2])


def _pairs(seed, label, classes, n):
    rng = make_rng(seed, label)
    return rng.dirichlet(np.ones(classes), size=n), rng.dirichlet(np.ones(classes), size=n)


def test_kl_zero_for_identical():
    assert skld_rows(_pair(P[None, :], P[None, :]))[0] == 0.0
    assert losses.source(_pair(P[None, :], P[None, :]), [0], lam=1.0).skld == 0.0


def test_kl_frozen_value():
    assert abs(_kl_reference(P, Q) - 0.36814) < 1e-4
    pair = skld_rows(_pair(P[None, :], Q[None, :]))[0]
    assert abs(pair - (_kl_reference(P, Q) + _kl_reference(Q, P))) < 1e-12
    # KL(P||Q) = H(P, Q) - H(P): the cross term of crs minus P's share of ent
    h_pq = -(P * np.log(Q)).sum()
    h_p = -(P * np.log(P)).sum()
    assert abs((h_pq - h_p) - _kl_reference(P, Q)) < 1e-12


def test_kl_dimension_mismatch():
    """Every objective takes the stacked (2, N, C) head pair and nothing
    else, such as one head's (N, C) rows or a stack of three heads."""
    params = SeparationParams(delta=1.0, margin=0.5)
    for shape in [(2, 3), (3, 2, 3), (1, 2, 3), (2, 2, 3, 1), (3,)]:
        bad = np.full(shape, 1.0 / 3.0)
        with pytest.raises(DimensionError):
            losses.source(bad, [0, 1], lam=0.1)
        with pytest.raises(DimensionError):
            losses.separation(bad, params)
        with pytest.raises(DimensionError):
            losses.crs(bad)


def test_kl_nonnegative_random_pairs():
    for c in range(2, 21):
        p, q = _pairs(0, f"gibbs{c}", c, 60)
        assert (skld_rows(_pair(p, q)) >= 0.0).all()


def test_skld_frozen_value():
    expected = _kl_reference(P, Q) + _kl_reference(Q, P)
    assert abs(skld_rows(_pair(P[None, :], Q[None, :]))[0] - expected) < 1e-12
    assert abs(expected - 0.87897) < 1e-4
    with_div = losses.source(_pair(P[None, :], Q[None, :]), [0], lam=1.0)
    without = losses.source(_pair(P[None, :], Q[None, :]), [0], lam=0.0)
    assert abs(with_div.skld - expected) < 1e-12
    assert abs((with_div.value - without.value) - expected) < 1e-12


def test_skld_zero_and_symmetric():
    p1, p2 = _pairs(1, "sym", 4, 16)
    assert (skld_rows(_pair(p1, p1)) == 0.0).all()
    assert np.abs(skld_rows(_pair(p1, p2)) - skld_rows(_pair(p2, p1))).max() < 1e-12


def test_skld_empty_batch():
    with pytest.raises(UsageError):
        losses.source(_pair(np.zeros((0, 3)), np.zeros((0, 3))), np.zeros(0, dtype=int), lam=0.1)


def test_crs_ent_uniform():
    u = np.full((1, 3), 1.0 / 3.0)
    assert abs(crs_rows(_pair(u, u))[0] - 2.0 * math.log(3)) < 1e-12
    assert abs(ent_rows(_pair(u, u))[0] - 2.0 * math.log(3)) < 1e-12
    assert abs(losses.crs(_pair(u, u)).value - 2.0 * math.log(3)) < 1e-12


def test_crs_ent_frozen_values():
    c = crs_rows(_pair(P[None, :], Q[None, :]))[0]
    e = ent_rows(_pair(P[None, :], Q[None, :]))[0]
    # entropy sum from direct evaluation, cross term via the decomposition
    h_p = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    h_q = math.log(2)
    assert abs(e - (h_p + h_q)) < 1e-12
    assert abs(e - 1.01823) < 1e-4
    assert abs(c - 1.89720) < 1e-4
    assert losses.crs(_pair(P[None, :], Q[None, :])).value == c
    assert losses.crs(_pair(P[None, :], Q[None, :]), weight=-0.5).value == -0.5 * c


def test_decomposition_identity_random_pairs():
    worst = 0.0
    for c_n in range(2, 21):
        p1, p2 = _pairs(2, f"decomp{c_n}", c_n, 60)
        c, e = crs_rows(_pair(p1, p2)), ent_rows(_pair(p1, p2))
        worst = max(worst, float(np.abs(skld_rows(_pair(p1, p2)) - (c - e)).max()))
        assert (e <= 2.0 * math.log(c_n) + 1e-12).all()
        assert (c >= e).all()
    assert worst < 1e-10


def test_joint_divergence_values():
    u = np.full((1, 3), 1.0 / 3.0)
    assert abs(crs_rows(_pair(u, u))[0] + ent_rows(_pair(u, u))[0] - 4.0 * math.log(3)) < 1e-12
    onehot = np.array([[1.0, 0.0]])
    assert crs_rows(_pair(onehot, onehot))[0] + ent_rows(_pair(onehot, onehot))[0] <= 1e-9
    pq = _pair(P[None, :], Q[None, :])
    joint = crs_rows(pq)[0] + ent_rows(pq)[0]
    assert abs(joint - 2.91543) < 1e-4


def test_supervised_loss_values():
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert losses.source(_pair(onehot, onehot), [0, 1], lam=0.0).value <= 1e-9
    u = np.full((2, 3), 1.0 / 3.0)
    assert abs(losses.source(_pair(u, u), [0, 2], lam=0.0).value - 2.0 * math.log(3)) < 1e-12
    p1 = np.array([[0.5, 0.5]])
    p2 = np.array([[0.25, 0.75]])
    got = losses.source(_pair(p1, p2), [0], lam=0.0)
    assert abs(got.value - (math.log(2) + math.log(4))) < 1e-6
    assert got.sup == got.value


def test_supervised_loss_label_range():
    u = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(DataError):
        losses.source(_pair(u, u), np.array([0, 3]), lam=0.1)


def test_source_loss_degenerate_lambda():
    rng = make_rng(3, "src")
    p1 = rng.dirichlet(np.ones(3), size=8)
    p2 = rng.dirichlet(np.ones(3), size=8)
    y = rng.integers(0, 3, size=8)
    plain = losses.source(_pair(p1, p2), y, 0.0)
    assert plain.value == plain.sup
    assert plain.per_sample.shape == (8,)
    assert plain.rows.tolist() == [True] * 8
    # agreeing heads contribute no divergence term
    same = losses.source(_pair(p1, p1), y, 0.7)
    assert same.skld == 0.0
    assert abs(same.value - same.sup) < 1e-12


def test_source_loss_rejects_negative_lambda():
    u = np.full((1, 2), 0.5)
    with pytest.raises(ConfigError):
        losses.source(_pair(u, u), np.array([0]), -0.1)


def test_source_selects_on_its_own_per_sample_values():
    rng = make_rng(11, "srcsel")
    p1 = rng.dirichlet(np.ones(3), size=16)
    p2 = rng.dirichlet(np.ones(3), size=16)
    y = rng.integers(0, 3, size=16)
    got = losses.source(_pair(p1, p2), y, lam=0.1, alpha=0.25)
    assert np.array_equal(got.rows, small_loss_mask(got.per_sample, 0.25))
    assert np.count_nonzero(got.rows) == 12
    assert got.value == float(got.per_sample[got.rows].mean())
    assert not got.dp[:, ~got.rows].any()
    # the selected rows carry the same gradient as a source loss on them alone
    alone = losses.source(_pair(p1[got.rows], p2[got.rows]), y[got.rows], lam=0.1)
    assert np.array_equal(got.dp[0][got.rows], alone.dp[0])
    assert got.value == alone.value


def test_source_trace_means_invariants():
    rng = make_rng(10, "bd")
    p1 = rng.dirichlet(np.ones(4), size=32)
    p2 = rng.dirichlet(np.ones(4), size=32)
    y = rng.integers(0, 4, size=32)
    got = losses.source(_pair(p1, p2), y, lam=0.1, alpha=0.2)
    rows = got.rows
    c, e = crs_rows(_pair(p1, p2))[rows].mean(), ent_rows(_pair(p1, p2))[rows].mean()
    assert c >= e >= 0.0
    assert np.isfinite([got.value, got.sup, got.skld]).all()
    assert np.isfinite(got.per_sample).all() and got.per_sample.shape == (32,)
    assert abs(got.skld - (c - e)) < 1e-10
    assert abs(got.value - (got.sup + 0.1 * got.skld)) < 1e-12


def test_small_loss_select_examples():
    """Small-loss selection of one 1-D vector: ``small_loss_mask``'s 1-D
    path, ties going to the lower index."""
    keep = small_loss_mask(np.array([0.1, 5.0, 0.2, 0.3]), alpha=0.25)
    assert keep.tolist() == [True, False, True, True]
    keep = small_loss_mask(np.array([0.1, 5.0, 0.2, 0.3]), alpha=0.0)
    assert keep.tolist() == [True] * 4
    keep = small_loss_mask(np.full(4, 1.0), alpha=0.5)
    assert keep.tolist() == [True, True, False, False]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64),
       st.floats(0.0, 0.999))
@example([0.0] * 10, 0.7)
@example([0.0] * 20, 0.85)
@example([0.0] * 25, 0.44)
def test_small_loss_select_contract(losses_list, alpha):
    vec = np.asarray(losses_list)
    keep = small_loss_mask(vec, alpha)
    assert keep.shape == vec.shape and keep.dtype == bool
    kept = np.count_nonzero(keep)
    # ceil((1 - alpha) N), a float product within the guard above an
    # integer counting as it: alpha = 0.7 keeps 3 of 10
    assert kept == math.ceil((1.0 - alpha) * len(vec) - losses.SELECTION_GUARD)
    assert kept >= 1
    if not keep.all():
        assert vec[keep].max() <= vec[~keep].min()


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 30)).flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0])),
    arrays(np.float64, shape[:1], elements=st.integers(0, 999).map(lambda i: i / 1000)))))
@example((np.zeros((2, 10)), np.array([0.7, 0.0])))
@example((np.zeros((3, 20)), np.array([0.85, 0.95, 0.05])))
@example((np.ones((1, 25)), np.array([0.44])))
def test_small_loss_mask_matches_the_1d_selection_of_each_row(block):
    """On a (B, N) block with one alpha per row, each mask row is what
    the 1-D path gives that row alone, and what a plain sort by
    (loss, index) keeps: ties (the losses take 4 values) go to the lower
    index, and the 1/1000 alpha grid reaches the guard's cases."""
    values, alphas = block
    n = values.shape[1]
    mask = small_loss_mask(values, alphas)
    assert mask.shape == values.shape and mask.dtype == bool
    for vec, alpha, row in zip(values, alphas.tolist(), mask):
        k = math.ceil((1.0 - alpha) * n - losses.SELECTION_GUARD)
        reference = sorted(sorted(range(n), key=lambda i: (vec[i], i))[:k])
        assert np.flatnonzero(row).tolist() == reference
        assert np.array_equal(small_loss_mask(vec, alpha), row)
    # a float alpha is every row's, and a stacked block masks row by row
    assert np.array_equal(small_loss_mask(values, alphas[0]),
                          small_loss_mask(values, np.full(len(values), alphas[0])))
    assert np.array_equal(small_loss_mask(values[None], alphas[None]), mask[None])


def test_small_loss_mask_keeps_nan_losses_last():
    """NaN sorts after every number, as in the 1-D stable sort, whether
    the k-th kept loss is a number or NaN."""
    values = np.array([[np.nan, 1.0, np.inf, 0.0, np.nan, -np.inf]] * 3)
    mask = small_loss_mask(values, np.array([0.5, 0.3, 0.0]))
    assert mask.tolist() == [[False, True, False, True, False, True],
                             [True, True, True, True, False, True],
                             [True] * 6]
    for vec, alpha, row in zip(values, (0.5, 0.3), mask):
        assert np.array_equal(small_loss_mask(vec, alpha), row)


def test_small_loss_mask_validation():
    """One alpha per row, each in [0, 1) and keeping a row; the first bad
    alpha is named."""
    with pytest.raises(UsageError, match="nonempty"):
        small_loss_mask(np.zeros((3, 0)), 0.2)
    with pytest.raises(UsageError, match="nonempty"):
        small_loss_mask(np.float64(1.0), 0.2)
    with pytest.raises(DimensionError, match=r"got shape \(2,\)"):
        small_loss_mask(np.zeros((3, 4)), np.array([0.1, 0.2]))
    with pytest.raises(DimensionError):
        small_loss_mask(np.zeros(4), np.array([0.1]))
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ConfigError, match=f"alpha must be in \\[0, 1\\), got {bad}$"):
            small_loss_mask(np.zeros((3, 4)), np.array([0.1, bad, 2.0]))
    with pytest.raises(ConfigError, match="alpha 0.999999999999 keeps no row of a batch of 10$"):
        small_loss_mask(np.zeros((3, 10)), np.array([0.1, 0.999999999999, 0.9999999999991]))


def test_selection_contract_fails_a_wrong_selector(monkeypatch):
    """The selftest's contract check reports FAIL for a mask that keeps the
    largest losses, or one row too few."""
    from twohead.selfcheck import check_selection_contract

    real = losses.small_loss_mask

    def one_short(values, alpha):
        mask = real(values, alpha)
        np.put_along_axis(mask, mask.argmax(axis=-1)[..., None], False, axis=-1)
        return mask

    wrong = {
        "largest": lambda values, alpha: real(-np.asarray(values), alpha),
        "one short": one_short,
    }
    assert check_selection_contract(n_vectors=200).passed
    for name, mask in wrong.items():
        monkeypatch.setattr(losses, "small_loss_mask", mask)
        result = check_selection_contract(n_vectors=200)
        assert not result.passed, name
        assert result.line().startswith("[FAIL] selection-contract")


def test_small_loss_select_validation():
    """The 1-D path of ``small_loss_mask`` with a float alpha."""
    with pytest.raises(UsageError):
        small_loss_mask(np.array([]), 0.2)
    with pytest.raises(ConfigError):
        small_loss_mask(np.array([1.0]), 1.0)
    # alpha * N within the guard below N keeps no row; a little further
    # from 1, one row is kept
    for n in (1, 10, 64):
        with pytest.raises(ConfigError,
                           match=f"alpha 0.999999999999 keeps no row of a batch of {n}$"):
            small_loss_mask(np.zeros(n), 0.999999999999)
        keep = small_loss_mask(np.arange(n, 0.0, -1.0), 1.0 - 2e-9)
        assert np.flatnonzero(keep).tolist() == [n - 1]


def _hinge_reference(x, delta, m):
    return -abs(x - delta) if abs(x - delta) > m else 0.0


def test_separation_hinge_arithmetic():
    delta = math.log(3)
    assert abs(_hinge_reference(2.5, delta, 1.0) - (-1.40139)) < 1e-5
    assert _hinge_reference(1.2, delta, 1.0) == 0.0


def test_separation_loss_dead_band_and_values():
    params = SeparationParams(delta=math.log(3), margin=1.0)
    p1, p2 = _pairs(4, "sep", 3, 32)
    # reference: hinge applied to independently computed crs/ent rows
    c = crs_rows(_pair(p1, p2))
    e = ent_rows(_pair(p1, p2))
    expect = [_hinge_reference(ci, params.delta, 1.0) + _hinge_reference(ei, params.delta, 1.0)
              for ci, ei in zip(c, e)]
    got = losses.separation(_pair(p1, p2), params)
    assert np.abs(got.per_sample - expect).max() < 1e-12
    assert abs(got.value - np.mean(expect)) < 1e-12

    # everything inside the band contributes nothing
    mid = SeparationParams(delta=float(np.median(np.concatenate([c, e]))),
                           margin=10.0)
    inside = losses.separation(_pair(p1, p2), mid)
    assert inside.value == 0.0
    assert not inside.dp[0].any() and not inside.dp[1].any()


def test_separation_grad_is_banded_subgradient():
    params = SeparationParams(delta=math.log(3), margin=0.4)
    p1, p2 = _pairs(5, "sepg", 3, 16)
    c = crs_rows(_pair(p1, p2))
    _, g = losses._hinge(c, params, math.inf)
    assert set(np.unique(g)).issubset({-1.0, 0.0, 1.0})
    inside = np.abs(c - params.delta) <= params.margin
    assert np.all(g[inside] == 0.0)
    got = losses.separation(_pair(p1, p2), params, ent_weight=0.0)
    assert np.all(got.dp[0][inside] == 0.0) and np.all(got.dp[1][inside] == 0.0)


def test_separation_saturation_reach():
    params = SeparationParams(delta=1.0, margin=0.25)
    # crafted rows far outside the band stop contributing gradient
    rng = make_rng(6, "reach")
    p1 = rng.dirichlet(np.ones(3) * 0.05, size=64)  # spiky: large crs spread
    p2 = rng.dirichlet(np.ones(3) * 0.05, size=64)
    got = losses.separation(_pair(p1, p2), params, ent_weight=0.0, reach=0.5)
    c = crs_rows(_pair(p1, p2))
    beyond = np.abs(c - params.delta) >= 0.5
    assert beyond.any()
    assert np.all(got.dp[0][beyond] == 0.0)
    assert np.all(got.per_sample[beyond] == -0.5)


def test_common_mask_matches_threshold():
    params = SeparationParams(delta=3.0, margin=1.0)
    p1, p2 = _pairs(7, "mask", 3, 64)
    common = losses.crs(_pair(p1, p2), below=params.delta - params.margin)
    c = crs_rows(_pair(p1, p2))
    assert np.array_equal(common.rows, c < 2.0)
    assert common.value == float(c[common.rows].mean())
    assert not common.dp[:, ~common.rows].any()
    # margin equal to delta leaves nothing below the gate
    empty = losses.crs(_pair(p1, p2), below=0.0)
    assert not empty.rows.any() and empty.value == 0.0
    assert not empty.dp[0].any() and not empty.dp[1].any()


def test_crs_cap_stops_gradient_past_the_cap():
    p1, p2 = _pairs(12, "cap", 3, 64)
    c = crs_rows(_pair(p1, p2))
    cap = float(np.median(c))
    got = losses.crs(_pair(p1, p2), weight=-0.2, cap=cap)
    assert np.array_equal(got.per_sample, np.minimum(c, cap))
    assert got.value == -0.2 * float(np.minimum(c, cap).mean())
    past = c >= cap
    assert past.any() and (~past).any()
    assert (got.dp[0][past] == 0.0).all() and (got.dp[1][past] == 0.0).all()
    assert got.dp[0][~past].any()


def _predict_one(delta):
    model = init_model([2, 8, 8, 8], 3, seed=3)
    x = make_rng(3, "reject").normal(scale=2.0, size=(6, 2))
    labels, l_crs = predict(model, x, delta)
    return labels, l_crs


def test_reject_unknown_rule():
    """crs strictly above delta is unknown; exactly at delta is known."""
    _, l_crs = _predict_one(1.0)
    at = float(l_crs[0])
    labels, _ = _predict_one(at)
    assert labels[0] != UNKNOWN
    labels, _ = _predict_one(math.nextafter(at, -math.inf))
    assert labels[0] == UNKNOWN
    # threshold for 20 classes sits near 3 nats
    assert abs(math.log(20) - 3.0) < 0.01


def test_reject_unknown_monotone():
    """Raising delta never turns a known sample unknown."""
    _, l_crs = _predict_one(1.0)
    deltas = np.linspace(l_crs.min() - 0.1, l_crs.max() + 0.1, 13)
    flags = np.array([_predict_one(d)[0] == UNKNOWN for d in deltas])
    assert flags.any() and not flags.all()
    assert (np.diff(flags.astype(int), axis=0) <= 0).all()


def test_variant_plans():
    full = variant_losses(MethodVariant.FULL, alpha=0.2, lam=0.1)
    no_div = variant_losses(MethodVariant.NO_DIV, alpha=0.2, lam=0.1)
    assert full.lam == 0.1 and no_div.lam == 0.0
    assert (full.alpha, full.sep_crs, full.sep_ent, full.minimax) == \
        (no_div.alpha, no_div.sep_crs, no_div.sep_ent, no_div.minimax)

    no_select = variant_losses(MethodVariant.NO_SELECT, alpha=0.2, lam=0.1)
    assert no_select.alpha == 0.0 and no_select.lam == 0.1

    source_only = variant_losses(MethodVariant.SOURCE_ONLY, alpha=0.2, lam=0.1)
    assert source_only.alpha == 0.0 and source_only.lam == 0.0
    assert source_only.sep_crs == source_only.sep_ent == 0.0 and not source_only.minimax

    no_sep = variant_losses(MethodVariant.NO_SEP, alpha=0.2, lam=0.1)
    assert no_sep.sep_crs == no_sep.sep_ent == 0.0 and no_sep.minimax

    no_minimax = variant_losses(MethodVariant.NO_MINIMAX, alpha=0.2, lam=0.1)
    assert (no_minimax.sep_crs, no_minimax.sep_ent) == (1.0, 1.0) and not no_minimax.minimax

    no_crs = variant_losses(MethodVariant.NO_CRS, 0.2, 0.1)
    assert (no_crs.sep_crs, no_crs.sep_ent) == (0.0, 1.0)
    no_ent = variant_losses(MethodVariant.NO_ENT, 0.2, 0.1)
    assert (no_ent.sep_crs, no_ent.sep_ent) == (1.0, 0.0)
    with_kl = variant_losses(MethodVariant.WITH_KL, 0.2, 0.1)
    assert (with_kl.sep_crs, with_kl.sep_ent) == (1.0, -1.0)


def test_variant_table_has_one_entry_per_variant():
    """Every MethodVariant has its row of changes to the full plan, and
    nothing else does, so no value falls back to ``full``."""
    table = losses._VARIANT_CHANGES
    assert len(table) == len(MethodVariant) and set(table) == set(MethodVariant)
    with pytest.raises(KeyError):
        variant_losses("no_sep", 0.2, 0.1)


def test_with_kl_matches_independent_form():
    """The flipped-sign separation equals banded crs minus banded ent."""
    params = SeparationParams(delta=math.log(3), margin=0.5)
    p1, p2 = _pairs(8, "klvar", 3, 48)
    c = crs_rows(_pair(p1, p2))
    e = ent_rows(_pair(p1, p2))
    banded = np.array([_hinge_reference(v, params.delta, 0.5) for v in c]).mean() \
        - np.array([_hinge_reference(v, params.delta, 0.5) for v in e]).mean()
    got = losses.separation(_pair(p1, p2), params, ent_weight=-1.0)
    assert abs(got.value - banded) < 1e-12


def test_skld_grad_matches_numeric():
    # the source loss's lam-term gradient against finite differences of skld
    p1, p2 = _pairs(9, "sg", 3, 1)
    d1 = (losses.source(_pair(p1, p2), [0], lam=1.0).dp[0]
          - losses.source(_pair(p1, p2), [0], lam=0.0).dp[0])
    h = 1e-7
    for k in range(3):
        up = p1.copy(); up[0, k] += h
        dn = p1.copy(); dn[0, k] -= h
        num = (skld_rows(_pair(up, p2))[0] - skld_rows(_pair(dn, p2))[0]) / (2 * h)
        assert abs(num - d1[0, k]) < 1e-5


def test_saturation_reach_and_cap():
    """The divergence-raising flows saturate one extra margin past the
    band: the A-2 hinge at 2 margins from delta, B's target crs at
    delta + 2 margins."""
    sep = SeparationParams(delta=math.log(3), margin=0.7)
    assert sep.reach == 2.0 * 0.7
    assert sep.cap == math.log(3) + 2.0 * 0.7


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), classes=st.integers(2, 6), n=st.integers(1, 16),
       alpha=st.floats(0.0, 0.9), lam=st.floats(0.0, 2.0))
def test_objectives_match_the_row_functions(seed, classes, n, alpha, lam):
    """The objectives' per-sample values, detected rows and selected
    means are those of ``crs_rows``/``skld_rows`` on the same stacked pair,
    which prediction and the loss-identity check call: the same numbers
    bit for bit, one-hot rows (clamped logs) included."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(classes), size=(2, n))
    onehot = rng.random((2, n)) < 0.3
    p[onehot] = np.eye(classes)[rng.integers(0, classes, size=int(onehot.sum()))]
    labels = rng.integers(0, classes, size=n)

    c = crs_rows(p)
    assert losses.crs(p).per_sample.tobytes() == c.tobytes()
    # a threshold at one row's own crs: strictly below excludes that row
    t = c[rng.integers(n)]
    assert losses.crs(p, below=t).rows.tolist() == (c < t).tolist()

    src = losses.source(p, labels, lam, alpha)
    k = np.count_nonzero(src.rows)
    assert src.skld == float(skld_rows(p)[src.rows].sum() / k)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), classes=st.integers(2, 6), n=st.integers(1, 16),
       alpha=st.floats(0.0, 0.9), weight=st.sampled_from([1.0, -0.2]),
       cap=st.sampled_from([None, 1.0]))
def test_objective_rows_are_keep_masks(seed, classes, n, alpha, weight, cap):
    """Each objective's ``rows`` is an (N,) boolean keep-mask: its value is
    the weighted mean of ``per_sample`` over the mask, bit for bit, and its
    ``dp`` is zero outside it.  ``source`` keeps what ``small_loss_mask``
    keeps of its per-sample values, ``crs`` the rows below ``below``, and
    ``separation`` and an unthresholded ``crs`` every row."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(classes), size=(2, n))
    labels = rng.integers(0, classes, size=n)
    c = crs_rows(p)
    t = c[rng.integers(n)]
    sep = SeparationParams(delta=math.log(classes), margin=0.3)
    got = {
        "source": (losses.source(p, labels, 0.1, alpha), 1.0),
        "separation": (losses.separation(p, sep, reach=sep.reach), 1.0),
        "crs": (losses.crs(p, weight=weight, cap=cap), weight),
        "crs-below": (losses.crs(p, weight=weight, cap=cap, below=t), weight),
    }
    for name, (objective, w) in got.items():
        rows = objective.rows
        assert rows.shape == (n,) and rows.dtype == bool, name
        k = rows.sum()
        expect = w * (objective.per_sample[rows].sum() / k) if k else 0.0
        assert np.float64(objective.value).tobytes() == np.float64(expect).tobytes(), name
        assert not objective.dp[:, ~rows].any(), name
    source = got["source"][0]
    assert np.array_equal(source.rows, small_loss_mask(source.per_sample, alpha))
    assert np.array_equal(got["crs-below"][0].rows, c < t)
    assert got["crs"][0].rows.all() and got["separation"][0].rows.all()


# --- every objective's gradient against central differences of its value ---

KINK_GAP = 1e-3
FD_STEP = 1e-6


def _objective_cases(labels, sep):
    reach, cap = sep.reach, sep.cap
    return {
        "source": (lambda p: losses.source(p, labels, 0.3), ()),
        "source-selected": (lambda p: losses.source(p, labels, 0.3, alpha=0.4), ()),
        "separation": (lambda p: losses.separation(p, sep, reach=reach),
                       (sep.delta - reach, sep.delta - sep.margin,
                        sep.delta + sep.margin, sep.delta + reach)),
        "separation-kl": (lambda p: losses.separation(p, sep, ent_weight=-1.0),
                          (sep.delta - sep.margin, sep.delta + sep.margin)),
        "separation-crs-only": (lambda p: losses.separation(p, sep, ent_weight=0.0),
                                (sep.delta - sep.margin, sep.delta + sep.margin)),
        "crs-capped": (lambda p: losses.crs(p, weight=-0.2, cap=cap), (cap,)),
        "crs-below": (lambda p: losses.crs(p, below=sep.delta), (sep.delta,)),
    }


@pytest.mark.parametrize("name", ["source", "source-selected", "separation", "separation-kl",
                                  "separation-crs-only", "crs-capped", "crs-below"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), classes=st.integers(2, 5), n=st.integers(1, 6),
       margin=st.floats(0.05, 1.0))
def test_objective_gradients_match_central_differences(name, seed, classes, n, margin):
    rng = np.random.default_rng(seed)
    # the stacked (2, n, classes) head pair, mixed with the uniform pair so
    # no probability nears the clamp
    p = 0.8 * rng.dirichlet(np.ones(classes), size=(2, n)) + 0.2 / classes
    labels = rng.integers(0, classes, size=n)
    sep = SeparationParams(delta=math.log(classes), margin=margin)
    fn, kinks = _objective_cases(labels, sep)[name]

    # keep every row's crs and ent off the hinge kinks, the cap and the
    # detection gate, and the selection off ties, so +-FD_STEP moves no
    # row across a kink
    values = np.concatenate([crs_rows(p), ent_rows(p)])
    for kink in kinks:
        assume(np.abs(values - kink).min() > KINK_GAP)
    got = fn(p)
    assert got.dp.shape == p.shape
    k = np.count_nonzero(got.rows)
    if name == "source-selected" and k < n:
        ranked = np.sort(got.per_sample)
        assume(ranked[k] - ranked[k - 1] > KINK_GAP)

    for cell in np.ndindex(p.shape):
        moved = p.copy()
        moved[cell] += FD_STEP
        up = fn(moved).value
        moved[cell] -= 2 * FD_STEP
        down = fn(moved).value
        numeric = (up - down) / (2 * FD_STEP)
        assert abs(numeric - got.dp[cell]) <= 1e-6 + 1e-5 * abs(got.dp[cell]), \
            (cell, numeric, got.dp[cell])


# --- a leading member axis ------------------------------------------------------

def _member_stack(seed, members, classes, n):
    """(members, 2, n, classes) head pairs, some rows one-hot (clamped
    logs), and labels for them."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(classes), size=(members, 2, n))
    onehot = rng.random((members, 2, n)) < 0.2
    p[onehot] = np.eye(classes)[rng.integers(0, classes, size=int(onehot.sum()))]
    return p, rng.integers(0, classes, size=n)


def _assert_members_match(stacked, per_member):
    assert stacked.value.shape == (len(per_member),)
    for i, one in enumerate(per_member):
        assert isinstance(one.value, float)
        assert np.float64(one.value).tobytes() == stacked.value[i].tobytes()
        assert one.per_sample.tobytes() == stacked.per_sample[i].tobytes()
        assert one.dp.tobytes() == stacked.dp[i].tobytes()
        assert one.rows.tolist() == stacked.rows.tolist()


_member_draw = dict(seed=st.integers(0, 2**32 - 1), members=st.integers(1, 4),
                    classes=st.integers(2, 12), n=st.integers(1, 16))


@settings(max_examples=60, deadline=None)
@given(**_member_draw, lam=st.sampled_from([0.0, 0.1, 1.5]))
def test_source_on_members_matches_each_member(seed, members, classes, n, lam):
    p, labels = _member_stack(seed, members, classes, n)
    stacked = losses.source(p, labels, lam)
    per_member = [losses.source(p[i], labels, lam) for i in range(members)]
    _assert_members_match(stacked, per_member)
    for i, one in enumerate(per_member):
        assert np.float64(one.sup).tobytes() == stacked.sup[i].tobytes()
        assert np.float64(one.skld).tobytes() == stacked.skld[i].tobytes()


@settings(max_examples=60, deadline=None)
@given(**_member_draw, crs_weight=st.sampled_from([0.0, 1.0]),
       ent_weight=st.sampled_from([0.0, 1.0, -1.0]), saturate=st.booleans())
def test_separation_on_members_matches_each_member(seed, members, classes, n, crs_weight,
                                                   ent_weight, saturate):
    p, _ = _member_stack(seed, members, classes, n)
    sep = SeparationParams(delta=math.log(classes), margin=0.3)
    weights = dict(crs_weight=crs_weight, ent_weight=ent_weight,
                   reach=sep.reach if saturate else math.inf)
    _assert_members_match(losses.separation(p, sep, **weights),
                          [losses.separation(p[i], sep, **weights)
                           for i in range(members)])


@settings(max_examples=60, deadline=None)
@given(**_member_draw, weight=st.sampled_from([1.0, -1.0, -0.2]),
       cap=st.sampled_from([None, 0.5, 2.0, 30.0]))
def test_crs_on_members_matches_each_member(seed, members, classes, n, weight, cap):
    p, _ = _member_stack(seed, members, classes, n)
    _assert_members_match(losses.crs(p, weight=weight, cap=cap),
                          [losses.crs(p[i], weight=weight, cap=cap) for i in range(members)])


@pytest.mark.parametrize("cap", [None, 2.0])
def test_crs_keeps_a_nan_row_of_one_pair_as_a_stack_does(cap):
    """With the default ``below``, crs on one pair keeps every row, a NaN
    row too: its value is NaN, as on a stack of that pair, not the mean of
    the other rows."""
    p = _pair(*_pairs(5, "nan-row", 3, 3))
    p[:, 1] = np.nan
    one = losses.crs(p, cap=cap)
    assert one.rows.tolist() == [True] * 3 and math.isnan(one.value)
    _assert_members_match(losses.crs(p[None], cap=cap), [one])


def test_member_stack_rejects_per_member_row_sets():
    """Small-loss selection with alpha > 0 and the detection gate of crs
    pick rows per member; a stack shares one row set, so both raise."""
    p, labels = _member_stack(3, 2, 3, 8)
    with pytest.raises(UsageError, match="alpha"):
        losses.source(p, labels, 0.1, alpha=0.25)
    with pytest.raises(UsageError, match="below"):
        losses.crs(p, below=1.0)
    with pytest.raises(UsageError, match="below"):
        losses.crs(p[None], below=5.0)
    # alpha out of range is a config error before it is a stack error
    with pytest.raises(ConfigError):
        losses.source(p, labels, 0.1, alpha=1.5)
    # one pair takes both
    assert np.count_nonzero(losses.source(p[0], labels, 0.1, alpha=0.25).rows) == 6
    losses.crs(p[0], below=1.0)


def test_capped_crs_gradient_matches_finite_differences_across_the_cap():
    """B's target term, -mean min(crs, cap), through the network on a batch
    with rows on both sides of the cap: the capped rows carry no gradient,
    and the oracle sees it (the uncapped gradient fails it)."""
    model = init_model([2, 8, 8, 8], 3, seed=5)
    x = make_rng(5, "cap-batch").normal(scale=3.0, size=(12, 2))
    cache = forward(model, x)
    c = np.sort(losses.crs(cache.p).per_sample)
    split = int(np.argmax(np.diff(c)))          # the widest gap between rows
    cap = float(c[split] + c[split + 1]) / 2.0
    assert c[split + 1] - c[split] > 1e-3
    assert 0 < split + 1 < len(c)               # rows on both sides

    def capped(p):
        got = losses.crs(p, weight=-1.0, cap=cap)
        return got.value, got.dp

    def cap_ignored_in_dp(p):
        return losses.crs(p, weight=-1.0, cap=cap).value, losses.crs(p, weight=-1.0).dp

    good, ignored = grad_check(model, [capped, cap_ignored_in_dp], x)
    assert good.passed
    assert not ignored.passed

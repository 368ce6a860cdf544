import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohead import (Activation, ConfigError, DimensionError, Scope, SgdConfig,
                     UsageError, backward, forward, grad_check, init_model,
                     losses, nn, sgd_step)
from twohead.nn import TwoHeadModel, load_model_csv, save_model_csv, softmax_rows
from twohead.rng import make_rng


def test_softmax_uniform_on_zeros():
    p = softmax_rows(np.zeros((2, 3)))
    assert np.allclose(p, 1.0 / 3.0, atol=1e-15)


def test_softmax_shift_invariance():
    v = np.array([[0.3, -1.2, 2.5], [4.0, 0.0, -3.0]])
    assert np.allclose(softmax_rows(v), softmax_rows(v + 17.0), atol=1e-12)
    # each row is normalised on its own: shifting one row moves no other
    shifted = v.copy()
    shifted[1] += 900.0
    assert np.array_equal(softmax_rows(shifted)[0], softmax_rows(v)[0])


def test_softmax_frozen_values():
    # direct exp-normalize evaluation, frozen; the last axis of a stack
    p = softmax_rows(np.array([[[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]]]))
    assert np.allclose(p[0, 0], [0.09003057, 0.24472847, 0.66524096], atol=1e-5)
    assert np.allclose(p[1, 0], p[0, 0][::-1], atol=1e-15)


def test_init_model_shapes():
    m = init_model([2, 32, 32, 32], num_classes=3, seed=7)
    assert [l.weight.shape for l in m.generator] == [(32, 2), (32, 32), (32, 32)]
    assert m.head1[-1].weight.shape == (3, 32)
    assert m.head2[-1].weight.shape == (3, 32)
    assert len(m.head1) == 3 and len(m.head2) == 3


def test_init_model_deterministic_and_seed_sensitive():
    a = init_model([2, 8, 8, 8], 3, seed=7)
    b = init_model([2, 8, 8, 8], 3, seed=7)
    c = init_model([2, 8, 8, 8], 3, seed=8)
    assert a.parameters_blob() == b.parameters_blob()
    assert a.parameters_blob() != c.parameters_blob()


def test_init_model_heads_differ():
    m = init_model([2, 8, 8, 8], 3, seed=7)
    assert not np.array_equal(m.head1[0].weight, m.head2[0].weight)


def test_init_model_glorot_bounds():
    m = init_model([2, 8, 8, 8], 3, seed=7)
    for _, layer in m.named_layers():
        bound = math.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        assert np.abs(layer.weight).max() <= bound
        assert np.all(layer.bias == 0.0)


def test_init_model_rejects_bad_config():
    with pytest.raises(ConfigError):
        init_model([2, 0, 8], 3, seed=1)
    with pytest.raises(ConfigError):
        init_model([2, 8], 1, seed=1)
    with pytest.raises(ConfigError):
        init_model([2], 3, seed=1)


def test_forward_zero_weight_model_is_uniform():
    m = init_model([2, 8, 8, 8], 4, seed=7)
    for _, layer in m.named_layers():
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    p1, p2 = forward(m, np.array([[1.0, -2.0], [0.5, 3.0]])).p
    assert np.allclose(p1, 0.25, atol=1e-15)
    assert np.allclose(p2, 0.25, atol=1e-15)


def test_forward_rows_sum_to_one():
    m = init_model([2, 8, 8, 8], 3, seed=3)
    x = make_rng(0, "x").normal(size=(17, 2))
    p1, p2 = forward(m, x).p
    assert np.abs(p1.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(p2.sum(axis=1) - 1.0).max() < 1e-12
    assert p1.min() > 0 and p1.max() < 1


def test_forward_is_pure():
    m = init_model([2, 8, 8, 8], 3, seed=3)
    x = np.array([[0.1, 0.2], [3.0, -1.0]])
    a1, a2 = forward(m, x).p
    b1, b2 = forward(m, x).p
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_forward_shape_mismatch():
    m = init_model([2, 8, 8, 8], 3, seed=3)
    with pytest.raises(DimensionError):
        forward(m, np.zeros((4, 3)))


def test_backward_zero_upstream_gives_zero_grads():
    m = init_model([2, 8, 8, 8], 3, seed=3)
    x = np.array([[0.1, 0.2], [3.0, -1.0]])
    cache = forward(m, x)
    backward(m, cache, np.zeros_like(cache.p))
    for _, layer in m.named_layers():
        assert np.all(layer.grad_weight == 0.0)
        assert np.all(layer.grad_bias == 0.0)


def test_backward_is_linear_over_batch():
    m = init_model([2, 8, 8, 8], 3, seed=5)
    rng = make_rng(1, "lin")
    x = rng.normal(size=(4, 2))
    dp = np.stack([rng.normal(size=(4, 3)), rng.normal(size=(4, 3))])

    cache = forward(m, x)
    backward(m, cache, dp)
    full = [layer.grad_weight.copy() for _, layer in m.named_layers()]
    m.zero_grads()

    # same upstream applied sample by sample, accumulated
    cache = forward(m, x)
    for i in range(4):
        d = np.zeros_like(dp)
        d[:, i] = dp[:, i]
        backward(m, cache, d)
    parts = [layer.grad_weight.copy() for _, layer in m.named_layers()]
    for f, p in zip(full, parts):
        assert np.allclose(f, p, atol=1e-12)
    m.zero_grads()


def test_backward_rejects_stale_cache():
    m = init_model([2, 8, 8, 8], 3, seed=3)
    x = np.array([[0.1, 0.2]])
    cache = forward(m, x)
    backward(m, cache, np.zeros_like(cache.p))
    sgd_step(m, SgdConfig(learning_rate=0.1))
    with pytest.raises(UsageError):
        backward(m, cache, np.zeros_like(cache.p))


def _blob(layers):
    return b"".join(np.concatenate([l.weight.ravel(), l.bias]).tobytes() for l in layers)


@pytest.mark.parametrize("scope,frozen", [
    (Scope.GENERATOR_ONLY, "heads"),
    (Scope.HEADS_ONLY, "generator"),
])
def test_sgd_scope_freezes_complement(scope, frozen):
    m = init_model([2, 8, 8, 8], 3, seed=9)
    x = np.array([[0.4, -0.2], [1.0, 2.0]])
    cache = forward(m, x)
    p1, p2 = cache.p
    rng = make_rng(2, "up")
    backward(m, cache, np.stack([rng.normal(size=p1.shape), rng.normal(size=p2.shape)]))

    before_heads = _blob(m.head1 + m.head2)
    before_gen = _blob(m.generator)
    sgd_step(m, SgdConfig(learning_rate=0.05, momentum=0.9), scope)
    if frozen == "heads":
        assert _blob(m.head1 + m.head2) == before_heads
        assert _blob(m.generator) != before_gen
    else:
        assert _blob(m.generator) == before_gen
        assert _blob(m.head1 + m.head2) != before_heads


def test_sgd_zeroes_gradients():
    m = init_model([2, 8, 8, 8], 3, seed=9)
    x = np.array([[0.4, -0.2]])
    cache = forward(m, x)
    backward(m, cache, np.ones_like(cache.p))
    sgd_step(m, SgdConfig(learning_rate=0.01))
    for _, layer in m.named_layers():
        assert np.all(layer.grad_weight == 0.0)
        assert np.all(layer.grad_bias == 0.0)


def test_sgd_config_validation():
    # the config type requires a strictly positive rate, so a zero-rate
    # "no-op step" is unrepresentable by construction
    with pytest.raises(ConfigError):
        SgdConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        SgdConfig(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ConfigError):
        SgdConfig(learning_rate=0.1, weight_decay=-1e-3)
    # a non-finite rate or decay would write inf/NaN into the parameters
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            SgdConfig(learning_rate=bad)
        with pytest.raises(ConfigError, match="weight_decay must be finite"):
            SgdConfig(0.1, weight_decay=bad)
    with pytest.raises(ConfigError, match="momentum"):
        SgdConfig(0.1, momentum=math.nan)


def test_grad_check_constant_loss_is_zero():
    m = init_model([2, 8, 8, 8], 3, seed=4)
    x = np.array([[0.3, 0.4], [1.0, -1.0]])

    def const(p):
        return 1.0, np.zeros_like(p)

    report, = grad_check(m, [const], x)
    assert report.max_rel_error == 0.0
    assert report.passed


def test_grad_check_detects_corruption():
    m = init_model([2, 8, 8, 8], 3, seed=4)
    x = np.array([[0.3, 0.4], [1.0, -1.0]])

    def corrupted(p):
        d = np.zeros_like(p)
        d[0, 0, 0] = 1.0  # claims a gradient where the loss is constant
        return 1.0, d

    report, = grad_check(m, [corrupted], x, tol=1e-4)
    assert report.max_rel_error > 1e-4
    assert not report.passed


def test_grad_check_validates_h():
    m = init_model([2, 8, 8, 8], 3, seed=4)
    with pytest.raises(ConfigError):
        grad_check(m, [lambda p: (0.0, np.zeros_like(p))],
                   np.zeros((1, 2)), h=0.1)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_grad_check_validates_tol(tol):
    """A tolerance no error can be below would fail an exact gradient."""
    m = init_model([2, 8, 8, 8], 3, seed=4)
    with pytest.raises(ConfigError, match=f"tol must be (finite|> 0), got {tol}"):
        grad_check(m, [lambda p: (0.0, np.zeros_like(p))], np.zeros((1, 2)), tol=tol)


def test_model_csv_roundtrip(tmp_path):
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    loaded = load_model_csv(path)
    assert loaded.num_classes == 3
    assert loaded.parameters_blob() == m.parameters_blob()
    x = make_rng(3, "check").normal(size=(5, 2))
    a1, a2 = forward(m, x).p
    b1, b2 = forward(loaded, x).p
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)



@pytest.mark.parametrize("drop", ["head2.0", "gen.1", "head1.0"])
def test_model_csv_rejects_shapes_that_do_not_fit(tmp_path, drop):
    """A head whose shapes differ from the other head's, a generator whose
    layers do not chain, or heads that do not take the generator's output
    cannot share the stacked buffer."""
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    lines = path.read_text().splitlines()
    # drop the last weight column of one layer
    kept = [ln for ln in lines if not (ln.startswith(drop + ",") and ln.split(",")[2] == "7")]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ConfigError):
        load_model_csv(path)


@pytest.mark.parametrize("drop", ["gen.1,3,4,", "gen.1,3,-1,", "head1.2,0,-1,", "head2.0,7,7,"])
def test_model_csv_rejects_missing_cells(tmp_path, drop):
    """Every layer lists out*in weights and out biases; a dropped row,
    which would otherwise load as 0.0, is rejected."""
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    lines = path.read_text().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(drop)]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept))
    with pytest.raises(ConfigError, match=drop.split(",")[0]):
        load_model_csv(path)


def test_model_csv_rejects_a_cell_listed_twice(tmp_path):
    """The cell count cannot see a duplicate that replaces another cell's
    row, so a second row for one cell is rejected by itself."""
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    with open(path, "a") as fh:
        fh.write("gen.1,3,4,123.0\n")
    with pytest.raises(ConfigError, match=r"'gen\.1'.*\(3, 4\) twice"):
        load_model_csv(path)


def test_model_csv_rejects_a_missing_file(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(ConfigError, match="absent.csv"):
        load_model_csv(path)


def test_model_csv_rejects_a_file_without_the_header(tmp_path):
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("layer,cell,value\n" + "".join(lines[1:]))
    with pytest.raises(ConfigError, match=r"header \['layer', 'cell', 'value'\]"):
        load_model_csv(path)


def test_model_csv_rejects_a_layer_index_that_is_not_an_integer(tmp_path):
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    path.write_text(path.read_text().replace("gen.1,", "gen.x,"))
    with pytest.raises(ConfigError, match=r"'gen\.x'"):
        load_model_csv(path)


@pytest.mark.parametrize("rename, missing", [("gen.2,", "gen.2"), ("gen.0,", "gen.0"),
                                             ("head1.1,", "head1.1"), ("head2.1,", "head2.1")])
def test_model_csv_rejects_a_gap_in_layer_indices(tmp_path, rename, missing):
    """A layer renamed past the last index would load as a shallower
    network, its layers renumbered."""
    m = init_model([2, 8, 8, 8], 3, seed=11)
    path = tmp_path / "model.csv"
    save_model_csv(m, path)
    path.write_text(path.read_text().replace(rename, rename.split(".")[0] + ".7,"))
    with pytest.raises(ConfigError, match=rf"no '{re.escape(missing)}' layer"):
        load_model_csv(path)


def test_model_csv_saves_one_model_only(tmp_path):
    with pytest.raises(UsageError):
        save_model_csv(TwoHeadModel([2, 4], [4, 3], members=(2,)), tmp_path / "model.csv")


# --- flat parameter buffer ---------------------------------------------------

_SCOPE_LAYERS = {
    Scope.ALL: lambda m: m.generator + m.head1 + m.head2,
    Scope.GENERATOR_ONLY: lambda m: list(m.generator),
    Scope.HEADS_ONLY: lambda m: m.head1 + m.head2,
}

_model_args = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=3),  # hidden widths
    st.integers(2, 4),                                    # classes
    st.integers(0, 2**16),                                # seed
)


def _model(args):
    hidden, classes, seed = args
    return init_model([2] + hidden, classes, seed=seed)


def _assert_layers_tile_buffers(m):
    """Every layer array is a view into its model buffer, and together the
    layers cover each buffer exactly once."""
    for kind, flat, parts in (("params", m.params, ("weight", "bias")),
                              ("grads", m.grads, ("grad_weight", "grad_bias"))):
        saved = flat.copy()
        flat[:] = np.arange(flat.size)
        seen = np.concatenate([getattr(layer, part).ravel()
                               for _, layer in m.named_layers() for part in parts])
        assert np.array_equal(np.sort(seen), np.arange(flat.size)), kind
        flat[:] = saved


@settings(max_examples=40, deadline=None)
@given(_model_args, st.integers(1, 6), st.sampled_from(list(Scope)))
def test_scoped_backward_fills_only_its_slice(args, rows, scope):
    m = _model(args)
    rng = make_rng(args[2], "scoped-backward")
    x = rng.normal(size=(rows, 2))
    dp = np.stack([rng.normal(size=(rows, m.num_classes)),
                   rng.normal(size=(rows, m.num_classes))])
    cache = forward(m, x)
    backward(m, cache, dp)
    full = m.grads.copy()
    m.zero_grads()
    backward(m, cache, dp, scope)
    inside = np.zeros(m.grads.size, dtype=bool)
    inside[m.scope_slice(scope)] = True
    assert m.grads[inside].tobytes() == full[inside].tobytes()
    assert not m.grads[~inside].any()


@settings(max_examples=40, deadline=None)
@given(_model_args, st.integers(0, 100), st.integers(0, 100))
def test_layer_edit_shows_in_buffer(args, pick, cell):
    m = _model(args)
    _assert_layers_tile_buffers(m)
    layers = [layer for _, layer in m.named_layers()]
    layer = layers[pick % len(layers)]
    r, c = divmod(cell % layer.weight.size, layer.in_dim)
    before = m.params.copy()
    w_new, b_new = layer.weight[r, c] + 1.0, layer.bias[r] - 1.0
    layer.weight[r, c] = w_new
    layer.bias[r] = b_new
    changed = np.flatnonzero(m.params != before)
    assert sorted(m.params[changed]) == sorted([w_new, b_new])


@settings(max_examples=15, deadline=None)
@given(_model_args)
def test_loaded_model_layers_view_its_buffer(tmp_path_factory, args):
    m = _model(args)
    m.params += make_rng(args[2], "load").normal(size=m.params.size)
    path = tmp_path_factory.mktemp("model") / "model.csv"
    save_model_csv(m, path)
    loaded = load_model_csv(path)
    _assert_layers_tile_buffers(loaded)
    assert loaded.parameters_blob() == m.parameters_blob()
    for (_, a), (_, b) in zip(m.named_layers(), loaded.named_layers()):
        assert a.activation is b.activation


@settings(max_examples=30, deadline=None)
@given(_model_args)
def test_model_csv_matches_ndenumerate_reference(tmp_path_factory, args):
    """One csv.writer row per weight cell in np.ndenumerate order, then
    one per bias entry, layer by layer."""
    m = _model(args)
    m.params += make_rng(args[2], "save").normal(size=m.params.size)
    path = tmp_path_factory.mktemp("model") / "model.csv"
    save_model_csv(m, path)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["layer", "row", "col", "value"])
    for name, layer in m.named_layers():
        for (r, c), v in np.ndenumerate(layer.weight):
            writer.writerow([name, r, c, repr(float(v))])
        for r, v in enumerate(layer.bias):
            writer.writerow([name, r, -1, repr(float(v))])
    assert path.read_bytes() == expected.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=3), st.integers(2, 4),
       st.integers(0, 2**16), st.integers(0, 10**6),
       st.sampled_from(["abc", "nan", "inf", "-inf", "", "missing", "duplicate",
                        "row out", "row -1", "col -2", "huge row", "huge col",
                        "rows below 0", "cols below -1", "gen past the end",
                        "head2 past the end", "head1 deeper"]))
def test_model_csv_rejects_one_corrupted_cell(tmp_path_factory, hidden, classes, seed,
                                              pick, corruption):
    """A non-numeric, NaN, infinite, missing, duplicated or out-of-shape
    cell anywhere in the file raises ConfigError naming its layer; so does
    a layer past the last index, or a head1 deeper than head2.  An index
    far out of shape, or a layer all of whose rows or columns are below
    range, is rejected before any buffer is sized from it."""
    path = tmp_path_factory.mktemp("model") / "model.csv"
    save_model_csv(init_model([2] + hidden, classes, seed=seed), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    i = pick % len(rows)
    layer, r, c, _ = rows[i].rstrip("\n").split(",")
    out = 1 + max(int(row.split(",")[1]) for row in rows if row.startswith(layer + ","))
    depth = len(hidden)   # of the generator and of each head
    if corruption == "missing":
        del rows[i]
    elif corruption in ("duplicate", "row out", "row -1", "col -2", "huge row", "huge col"):
        r, c = {"duplicate": (r, c), "row out": (out, c), "row -1": (-1, c),
                "col -2": (r, -2), "huge row": (10**12, c),
                "huge col": (r, 10**12)}[corruption]
        rows.append(f"{layer},{r},{c},0.5\n")
    elif corruption in ("rows below 0", "cols below -1"):
        field = 1 if corruption == "rows below 0" else 2

        def shift(row):
            parts = row.split(",")
            if parts[0] == layer:
                parts[field] = str(int(parts[field]) - 10**6)
            return ",".join(parts)
        rows = [shift(row) for row in rows]
    elif corruption.endswith("past the end"):
        layer = f"{corruption.split()[0]}.{depth}"
        rows.append(f"{layer},{r},{c},0.5\n")
    elif corruption == "head1 deeper":
        layer = f"head2.{depth - 1}"
        rows = [row for row in rows if not row.startswith(layer + ",")]
    else:
        rows[i] = f"{layer},{r},{c},{corruption}\n"
    path.write_text(header + "".join(rows))
    with pytest.raises(ConfigError, match=re.escape(f"'{layer}'")):
        load_model_csv(path)


@settings(max_examples=30, deadline=None)
@given(_model_args, st.integers(0, 2**16))
def test_model_csv_loads_rows_in_any_order(tmp_path_factory, args, shuffle):
    """Cells are found by layer, row and column, not by their place in the
    file."""
    m = _model(args)
    m.params += make_rng(args[2], "load").normal(size=m.params.size)
    path = tmp_path_factory.mktemp("model") / "model.csv"
    save_model_csv(m, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    order = make_rng(shuffle, "shuffle").permutation(len(rows))
    path.write_text(header + "".join(rows[i] for i in order))
    assert load_model_csv(path).parameters_blob() == m.parameters_blob()


def _velocity_of(m, arr):
    """The view of ``m.velocity`` that ``arr`` is of ``m.params``."""
    offset = arr.__array_interface__["data"][0] - m.params.__array_interface__["data"][0]
    return np.ndarray(arr.shape, arr.dtype, m.velocity, offset, arr.strides)


def _reference_sgd(m, layers, cfg):
    """The per-layer momentum SGD loop the whole-slice step replaced, on
    copies: returns (weight, bias, weight velocity, bias velocity) per
    layer."""
    out = []
    for layer in layers:
        w, b = layer.weight.copy(), layer.bias.copy()
        vw, vb = _velocity_of(m, layer.weight).copy(), _velocity_of(m, layer.bias).copy()
        for p, v, g in ((w, vw, layer.grad_weight), (b, vb, layer.grad_bias)):
            v *= cfg.momentum
            v += g
            if cfg.weight_decay:
                v += cfg.weight_decay * p
            p -= cfg.learning_rate * v
        out.append((w, b, vw, vb))
    return out


@settings(max_examples=40, deadline=None)
@given(_model_args, st.sampled_from(list(Scope)), st.floats(1e-4, 1.0),
       st.floats(0.0, 0.99), st.sampled_from([0.0, 5e-4, 0.1]))
def test_sgd_step_matches_layer_loop_and_freezes_the_rest(args, scope, lr, momentum, decay):
    m = _model(args)
    rng = make_rng(args[2], "sgd")
    m.grads[:] = rng.normal(size=m.grads.size)
    m.velocity[:] = rng.normal(size=m.velocity.size)
    cfg = SgdConfig(learning_rate=lr, momentum=momentum, weight_decay=decay)
    expect = _reference_sgd(m, _SCOPE_LAYERS[scope](m), cfg)
    outside = np.ones(m.params.size, dtype=bool)
    outside[m.scope_slice(scope)] = False
    params_out, vel_out = m.params[outside].tobytes(), m.velocity[outside].tobytes()

    sgd_step(m, cfg, scope)
    for layer, (w, b, vw, vb) in zip(_SCOPE_LAYERS[scope](m), expect):
        assert layer.weight.tobytes() == w.tobytes()
        assert layer.bias.tobytes() == b.tobytes()
        assert _velocity_of(m, layer.weight).tobytes() == vw.tobytes()
        assert _velocity_of(m, layer.bias).tobytes() == vb.tobytes()
    assert m.params[outside].tobytes() == params_out
    assert m.velocity[outside].tobytes() == vel_out
    assert not m.grads.any()


def _reference_head(layers, feats):
    out = feats
    for layer in layers:
        z = out @ layer.weight.T + layer.bias
        out = np.maximum(z, 0.0) if layer.activation is Activation.RELU else z
    e = np.exp(out - out.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@settings(max_examples=30, deadline=None)
@given(_model_args, st.integers(1, 9))
def test_stacked_heads_match_separate_heads(args, rows):
    m = _model(args)
    x = make_rng(args[2], "stacked").normal(size=(rows, 2))
    cache = forward(m, x)
    p1, p2 = cache.p
    feats = cache.head_io[0][0]
    assert p1.tobytes() == _reference_head(m.head1, feats).tobytes()
    assert p2.tobytes() == _reference_head(m.head2, feats).tobytes()


# --- forward reuse -----------------------------------------------------------

def _stepped(m, x, scope):
    """One SGD step on ``scope`` from a random upstream gradient."""
    cache = forward(m, x)
    backward(m, cache, make_rng(len(x), "reuse-step").normal(size=cache.p.shape), scope)
    sgd_step(m, SgdConfig(learning_rate=0.05, momentum=0.9), scope)


@settings(max_examples=30, deadline=None)
@given(_model_args, st.integers(1, 9), st.booleans())
def test_forward_reuse_after_heads_step_matches_fresh(args, rows, copy_input):
    """A cache reused after a heads-only step (as C reuses B's) runs only
    the heads and equals a fresh forward bit for bit; with no step between
    (as B reuses A-2's), the cache itself comes back."""
    m = _model(args)
    x = make_rng(args[2], "reuse").normal(size=(rows, 2))
    cache = forward(m, x)
    again = x.copy() if copy_input else x
    assert forward(m, again, reuse=cache) is cache

    _stepped(m, x, Scope.HEADS_ONLY)
    reused = forward(m, again, reuse=cache)
    r1, r2 = reused.p
    fresh = forward(m, x)
    f1, f2 = fresh.p
    assert reused is not cache
    assert reused.version == fresh.version and reused.gen_version == fresh.gen_version
    assert r1.tobytes() == f1.tobytes() and r2.tobytes() == f2.tobytes()
    for (a_in, a_z), (b_in, b_z) in zip(reused.head_io, fresh.head_io):
        assert a_in.tobytes() == b_in.tobytes() and a_z.tobytes() == b_z.tobytes()
    # backward through the reused cache fills the same gradients
    dp = make_rng(args[2], "reuse-dp").normal(size=fresh.p.shape)
    backward(m, reused, dp)
    via_reuse = m.grads.copy()
    m.zero_grads()
    backward(m, fresh, dp)
    assert via_reuse.tobytes() == m.grads.tobytes()


@pytest.mark.parametrize("scope", [Scope.ALL, Scope.GENERATOR_ONLY])
def test_forward_reuse_after_a_generator_step_runs_afresh(scope):
    """A cache whose generator has moved since (as A-2's after an update,
    handed to B) gives a fresh forward, bit for bit."""
    m = init_model([2, 8, 8, 8], 3, seed=3)
    x = make_rng(3, "stale").normal(size=(5, 2))
    cache = forward(m, x)
    _stepped(m, x, scope)
    again = forward(m, x, reuse=cache)
    fresh = forward(m, x)
    assert again is not cache
    assert again.version == fresh.version and again.gen_version == fresh.gen_version
    assert again.p.tobytes() == fresh.p.tobytes()
    for (a_in, a_z), (b_in, b_z) in zip(again.gen_io + again.head_io,
                                        fresh.gen_io + fresh.head_io):
        assert a_in.tobytes() == b_in.tobytes() and a_z.tobytes() == b_z.tobytes()


def test_forward_reuse_rejects_another_batch():
    """Whatever moved since the cache was made, or nothing, a cache of
    another batch is refused."""
    m = init_model([2, 8, 8, 8], 3, seed=3)
    x = make_rng(3, "batch").normal(size=(5, 2))
    other = x.copy()
    other[4, 1] += 1e-9
    for scope in (None, *Scope):
        cache = forward(m, x)
        if scope is not None:
            _stepped(m, x, scope)
        for batch in (other, x[:4], np.zeros((0, 2))):
            with pytest.raises(UsageError, match="another batch"):
                forward(m, batch, reuse=cache)


# --- member axis ---------------------------------------------------------------

_wide_model_args = st.tuples(
    # hidden widths past 8, where numpy's sums along a row turn pairwise
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.integers(2, 5),      # classes
    st.integers(0, 2**16),  # seed
)


def _members(m, count, seed):
    """A model whose ``count`` members are perturbed copies of ``m``, and
    the unbatched model of each member."""
    stacked = TwoHeadModel(*m.widths, members=(count,))
    stacked.params[:] = m.params + make_rng(seed, "members").normal(
        scale=0.3, size=stacked.params.shape)
    singles = []
    for i in range(count):
        single = TwoHeadModel(*m.widths)
        single.params[:] = stacked.params[i]
        singles.append(single)
    return stacked, singles


@settings(max_examples=40, deadline=None)
@given(_wide_model_args, st.integers(1, 5), st.integers(1, 12))
def test_member_forward_matches_each_member_alone(args, count, rows):
    m = _model(args)
    stacked, singles = _members(m, count, args[2])
    assert stacked.generator[0].weight.shape == (count,) + m.generator[0].weight.shape
    assert stacked.heads[0].weight.shape == (count, 2) + m.heads[0].weight.shape[1:]
    assert stacked.head2[-1].bias.shape == (count, m.num_classes)
    x = make_rng(args[2], "member-x").normal(size=(rows, 2))
    cache = forward(stacked, x)
    q1, q2 = cache.p[:, 0], cache.p[:, 1]
    assert cache.p.shape == (count, 2, rows, m.num_classes)
    for i, single in enumerate(singles):
        one = forward(single, x)
        p1, p2 = one.p
        assert cache.p[i].tobytes() == one.p.tobytes()
        assert q1[i].tobytes() == p1.tobytes() and q2[i].tobytes() == p2.tobytes()


@settings(max_examples=30, deadline=None)
@given(_wide_model_args, st.integers(1, 4), st.integers(1, 9), st.sampled_from(list(Scope)))
def test_member_backward_and_sgd_match_each_member_alone(args, count, rows, scope):
    m = _model(args)
    stacked, singles = _members(m, count, args[2])
    rng = make_rng(args[2], "member-dp")
    x = rng.normal(size=(rows, 2))
    dp = rng.normal(size=(count, 2, rows, m.num_classes))
    cache = forward(stacked, x)
    backward(stacked, cache, dp, scope)
    cfg = SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4)
    grads = stacked.grads.copy()
    sgd_step(stacked, cfg, scope)
    for i, single in enumerate(singles):
        one = forward(single, x)
        backward(single, one, dp[i], scope)
        assert single.grads.tobytes() == grads[i].tobytes()
        sgd_step(single, cfg, scope)
        assert single.params.tobytes() == stacked.params[i].tobytes()


def test_grad_check_takes_no_members():
    m = init_model([2, 8, 8, 8], 3, seed=4)
    stacked = TwoHeadModel(*m.widths, members=(2,))
    with pytest.raises(UsageError, match="members"):
        grad_check(stacked, [lambda p: (0.0, np.zeros_like(p))], np.zeros((1, 2)))


def test_grad_check_fails_a_loss_that_is_not_finite():
    """A NaN difference is the worst error, not one that is skipped."""
    m = init_model([2, 8, 8, 8], 3, seed=4)
    x = np.array([[0.3, 0.4], [1.0, -1.0]])

    def nan_in_first_member(p):
        if p.ndim == 3:
            return 0.0, np.zeros_like(p)
        value = np.zeros(len(p))
        value[0] = math.nan   # every forward's first +h copy
        return value, np.zeros_like(p)

    report, = grad_check(m, [nan_in_first_member], x)
    assert math.isnan(report.max_rel_error) and not report.passed
    assert report.worst_param == "gen.0.w[0]"


@pytest.mark.parametrize("name, flat, cell", [
    ("gen.0.w[0]", 0, lambda m: (m.generator[0].grad_weight, (0, 0))),
    ("head2.2.b[2]", -1, lambda m: (m.head2[-1].grad_bias, (2,))),
])
def test_grad_check_names_a_corrupted_cell_at_either_end_of_the_buffer(
        monkeypatch, name, flat, cell):
    """The first and the last cell of the flat parameter buffer are both
    perturbed: a gradient wrong in that cell alone is caught there."""
    m = init_model([2, 8, 8, 8], 3, seed=4)
    grad, index = cell(m)
    grad[index] = 1.0
    assert np.flatnonzero(m.grads).tolist() == [flat % m.grads.size]
    m.zero_grads()
    rng = make_rng(4, "corrupted-cell")
    x = rng.normal(scale=1.5, size=(5, 2))
    labels = rng.integers(0, 3, size=5)
    real = nn.backward

    def corrupting(model, *args, **kwargs):
        real(model, *args, **kwargs)
        grad, index = cell(model)
        grad[index] += 1.0

    def loss_fn(p):
        got = losses.source(p, labels, 0.1)
        return got.value, got.dp

    assert grad_check(m, [loss_fn], x)[0].passed
    monkeypatch.setattr(nn, "backward", corrupting)
    report, = grad_check(m, [loss_fn], x)
    assert not report.passed
    assert report.worst_param == name


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 6))
def test_grad_check_reports_do_not_depend_on_the_cells_per_forward(seed, rows):
    """Which cells share a forward moves no value: one cell a forward,
    chunks that cross layer boundaries, and one chunk for the whole
    buffer give the same reports."""
    m = init_model([2, 5, 4], 3, seed=seed)
    rng = make_rng(seed, "fd-cells")
    x = rng.normal(scale=1.5, size=(rows, 2))
    labels = rng.integers(0, 3, size=rows)
    sep = losses.SeparationParams(delta=math.log(3), margin=0.35)

    def objective(fn):
        def loss_fn(p):
            got = fn(p)
            return got.value, got.dp
        return loss_fn

    loss_fns = [objective(lambda p: losses.source(p, labels, 0.1)),
                objective(lambda p: losses.separation(p, sep))]
    reports = []
    for cells in (1, 5, 16, 600):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_FD_CELLS", cells)
            reports.append([(r.max_rel_error, r.worst_param)
                            for r in grad_check(m, loss_fns, x)])
    assert m.params.size < 600
    assert all(r == reports[0] for r in reports[1:])


def _loop_grad_check(model, loss_fn, x, h=1e-5):
    """The per-parameter loop the batched oracle replaced: one cell at a
    time, two unbatched forwards each.  Returns (max_rel_error,
    worst_param)."""
    model.zero_grads()
    cache = forward(model, x)
    backward(model, cache, loss_fn(cache.p)[1])
    worst, worst_param = 0.0, ""
    for name, layer in model.named_layers():
        for kind, param, grad in (("w", layer.weight, layer.grad_weight),
                                  ("b", layer.bias, layer.grad_bias)):
            flat_p, flat_g = param.reshape(-1), grad.reshape(-1)
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                up = loss_fn(forward(model, x).p)[0]
                flat_p[idx] = orig - h
                down = loss_fn(forward(model, x).p)[0]
                flat_p[idx] = orig
                numeric = (up - down) / (2.0 * h)
                analytic = flat_g[idx]
                denom = max(abs(analytic), abs(numeric))
                err = abs(analytic - numeric)
                if denom >= 1e-6:
                    err /= denom
                if err > worst:
                    worst, worst_param = err, f"{name}.{kind}[{idx}]"
    model.zero_grads()
    return worst, worst_param


@pytest.mark.parametrize("seed", [4, 19])
@pytest.mark.parametrize("objective", ["source", "separation"])
def test_grad_check_matches_the_per_parameter_loop(seed, objective):
    m = init_model([2, 8, 8, 8], 3, seed=seed)
    rng = make_rng(seed, "loop-parity")
    x = rng.normal(scale=1.5, size=(5, 2))
    labels = rng.integers(0, 3, size=5)
    sep = losses.SeparationParams(delta=math.log(3), margin=0.35)
    objectives = {"source": lambda p: losses.source(p, labels, 0.1),
                  "separation": lambda p: losses.separation(p, sep)}

    def loss_fn(p):
        got = objectives[objective](p)
        return got.value, got.dp

    report, = grad_check(m, [loss_fn], x)
    worst, worst_param = _loop_grad_check(m, loss_fn, x)
    assert report.max_rel_error == worst
    assert report.worst_param == worst_param
    assert not m.grads.any()


@pytest.mark.parametrize("seed", [4, 19])
def test_multi_objective_grad_check_matches_one_objective_at_a_time(seed):
    """One shared forward per perturbed model gives each objective the
    report of a call for it alone and of the per-parameter loop."""
    m = init_model([2, 8, 8, 8], 3, seed=seed)
    rng = make_rng(seed, "multi-objective")
    x = rng.normal(scale=1.5, size=(5, 2))
    labels = rng.integers(0, 3, size=5)
    sep = losses.SeparationParams(delta=math.log(3), margin=0.35)

    def objective(fn):
        def loss_fn(p):
            got = fn(p)
            return got.value, got.dp
        return loss_fn

    loss_fns = [objective(lambda p: losses.source(p, labels, 0.1)),
                objective(lambda p: losses.separation(p, sep, ent_weight=-1.0)),
                objective(lambda p: losses.crs(p, weight=-1.0)),
                lambda p: (1.0, np.zeros_like(p))]
    reports = grad_check(m, loss_fns, x)
    assert not m.grads.any()
    assert len(reports) == len(loss_fns)
    for loss_fn, report in zip(loss_fns, reports):
        alone, = grad_check(m, [loss_fn], x)
        assert (report.max_rel_error, report.worst_param) == \
            (alone.max_rel_error, alone.worst_param) == _loop_grad_check(m, loss_fn, x)
    assert reports[-1].max_rel_error == 0.0 and reports[-1].worst_param == ""

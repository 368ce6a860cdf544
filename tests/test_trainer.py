import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twohead import (ConfigError, MethodVariant, NonFiniteLossError,
                     NumericError, SeparationParams, SgdConfig, TrainConfig,
                     boundary_grid, build_toy_scenario, evaluate, init_model, nn,
                     trainer, variant_losses)
from twohead import losses
from twohead.losses import crs_rows
from twohead.nn import forward
from twohead.rng import make_rng
from twohead.experiment import TOY_BOUNDS, ExperimentSpec
from twohead.trainer import (init_state, step_a1, step_a2, step_b, step_c, train,
                             train_epoch, _check_finite)

SHORT = dict(epochs=2, seed=7)


def _blob(layers):
    return b"".join(np.concatenate([l.weight.ravel(), l.bias]).tobytes() for l in layers)


def test_train_config_defaults_match_method():
    cfg = TrainConfig()
    assert cfg.lam == 0.1
    assert cfg.margin == 1.0
    assert cfg.n_inner == 4
    assert cfg.delta is None
    assert abs(cfg.separation(3).delta - math.log(3)) < 1e-12
    assert abs(cfg.separation(20).delta - math.log(20)) < 1e-12
    assert cfg.sgd == SgdConfig(learning_rate=0.01, momentum=0.9, weight_decay=5e-4)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(delta=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(n_inner=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    # the SGD settings are checked with the config, not when train() starts
    for name, value in (("learning_rate", 0.0), ("momentum", 1.0), ("weight_decay", -1e-4)):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})


# every field annotated as a float, delta's ``float | None`` included
_FLOAT_FIELDS = ["alpha", "lam", "delta", "margin", "learning_rate", "momentum",
                 "weight_decay", "minimax_weight"]


def test_float_fields_are_the_annotated_ones():
    annotated = [f.name for f in dataclasses.fields(TrainConfig) if "float" in str(f.type)]
    assert _FLOAT_FIELDS == annotated


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.2", True, None])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_train_config_rejects_non_finite_floats(name, value):
    """margin=inf would train with loss_sep and loss_c both 0 (no A-2, no
    C), and delta=inf would train every epoch before evaluate raised.  A
    string or None failed with TypeError, and lam=True trained at 1; None
    is delta's default, ln C."""
    if name == "delta" and value is None:
        assert TrainConfig(delta=None).separation(3).delta == math.log(3)
        return
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("kwargs", [dict(margin=0.0), dict(margin=-0.5),
                                    dict(delta=1.0, margin=1.0), dict(delta=1.0, margin=1.2)])
def test_train_config_rejects_a_margin_outside_zero_to_delta(kwargs):
    """At margin >= delta, C's subset (crs < delta - margin) is empty and C
    never updates; at margin 0, A-2's hinge saturates where it starts, and
    A-2 never updates."""
    with pytest.raises(ConfigError, match="margin"):
        TrainConfig(**kwargs)


def test_train_rejects_a_margin_at_or_above_the_default_delta(toy_data, observe_steps):
    """With delta None, margin is checked against ln(3) = 1.0986 before the
    first step, not after a run in which C never updated."""
    source, target = toy_data
    steps = []
    observe_steps(lambda step, epoch, model: steps.append(step))
    with pytest.raises(ConfigError, match="margin"):
        train(source, target, TrainConfig(margin=1.2, **SHORT))
    assert steps == []


def test_separation_resolves_delta_for_a_class_count():
    """A set delta holds for every class count; a None delta is ln(C),
    and the margin must lie below it."""
    assert TrainConfig(delta=0.5, margin=0.25).separation(20) == SeparationParams(0.5, 0.25)
    cfg = TrainConfig(margin=1.2)
    assert cfg.separation(4) == SeparationParams(math.log(4), 1.2)
    with pytest.raises(ConfigError, match="margin"):
        cfg.separation(3)


def test_sgd_is_not_a_config_field():
    """``sgd`` is derived from three fields, so the config format, the
    manifest and equality see only those."""
    assert "sgd" not in {f.name for f in dataclasses.fields(TrainConfig)}
    assert "sgd" not in ExperimentSpec.default_dict()
    cfg = dataclasses.replace(TrainConfig(), learning_rate=0.05)
    assert cfg.sgd.learning_rate == 0.05


@pytest.mark.parametrize("value", [1.5, 64.0, True, "4", None])
@pytest.mark.parametrize("name", ["n_inner", "epochs", "batch_size", "seed"])
def test_train_config_rejects_integer_settings_that_are_not_ints(name, value):
    """``range`` in train() would raise TypeError for a float after the
    config was accepted."""
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("variant", ["no_sep", "full", None, 0])
def test_train_config_rejects_a_variant_that_is_not_a_method_variant(variant):
    """A string equal to a variant's value is not that variant: it used to
    fall through variant_losses' checks and train ``full``."""
    with pytest.raises(ConfigError, match="variant"):
        TrainConfig(variant=variant)


def _observed_iterations(observe_steps, source, target, config):
    """Train recording (step, model.version) after every step and split
    the records into batch iterations, each starting at A-1."""
    events = []
    observe_steps(lambda step, epoch, model: events.append((step, model.version)))
    state = train(source, target, config)
    iterations = []
    for event in events:
        if event[0] == "A-1":
            iterations.append([])
        iterations[-1].append(event)
    assert len(iterations) == state.step_counter
    return iterations


def _check_c_counts(iterations, prefix):
    """Each iteration is ``prefix`` then one C entry per generator update
    that C applied.  Every SGD step bumps the model version and the C
    records are made after the last C update, so the C updates of an
    iteration are the version change from the record of its last prefix
    step to its last record.  Returns the C count per iteration."""
    counts = []
    for it in iterations:
        steps = [step for step, _ in it]
        n_c = len(steps) - len(prefix)
        assert steps == prefix + ["C"] * n_c
        assert n_c == it[-1][1] - it[len(prefix) - 1][1]
        assert 0 <= n_c <= TrainConfig().n_inner
        counts.append(n_c)
    return counts


def test_step_ordering_full(toy_data, observe_steps):
    source, target = toy_data
    iterations = _observed_iterations(observe_steps, source, target, TrainConfig(**SHORT))
    assert len(iterations) == 2 * (900 // 64)
    counts = _check_c_counts(iterations, ["A-1", "A-2", "B"])
    assert sum(counts) > 0


@pytest.mark.parametrize("variant,expected", [
    (MethodVariant.SOURCE_ONLY, ["A-1"]),
    (MethodVariant.NO_MINIMAX, ["A-1", "A-2"]),
    (MethodVariant.NO_SEP, ["A-1", "B"]),
])
def test_step_ordering_variants(toy_data, observe_steps, variant, expected):
    source, target = toy_data
    iterations = _observed_iterations(observe_steps, source, target,
                                      TrainConfig(variant=variant, **SHORT))
    counts = _check_c_counts(iterations, expected)
    assert (sum(counts) > 0) == (variant is MethodVariant.NO_SEP)


def test_scope_enforcement_instrumented(toy_data, observe_steps):
    """A snapshot is taken after every step, so comparing each post-B
    snapshot with the preceding one proves B never moves the generator
    (and C never moves the heads)."""
    source, target = toy_data
    log, gen_snaps, head_snaps = [], [], []

    def record(step, epoch, model):
        log.append(step)
        gen_snaps.append(_blob(model.generator))
        head_snaps.append(_blob(model.head1 + model.head2))

    observe_steps(record)
    train(source, target, TrainConfig(**SHORT))
    b_steps = c_steps = 0
    for i, step in enumerate(log):
        if i == 0:
            continue
        if step == "B":
            b_steps += 1
            assert gen_snaps[i] == gen_snaps[i - 1], "B moved the generator"
        if step == "C":
            c_steps += 1
            assert head_snaps[i] == head_snaps[i - 1], "C moved the heads"
    assert b_steps > 0 and c_steps > 0


def test_step_a2_noop_inside_band(toy_data):
    source, _ = toy_data
    model = init_model([2, 8, 8, 8], 3, seed=1)
    x = make_rng(0, "a2").normal(size=(8, 2))
    p1, p2 = forward(model, x).p
    vals = np.concatenate([crs_rows(np.stack([p1, p2])),
                           -(p1 * np.log(p1) + p2 * np.log(p2)).sum(1)])
    sep = SeparationParams(delta=float(np.mean(vals)),
                           margin=float(np.ptp(vals)) + 1.0)
    plan = variant_losses(MethodVariant.FULL, 0.2, 0.1)
    before = model.parameters_blob()
    value, cache = step_a2(model, x, sep, plan, SgdConfig(0.05, 0.9))
    assert value == 0.0
    assert model.parameters_blob() == before
    # no update was applied, so A-2's forward still matches the model
    assert cache.version == model.version


def test_step_a2_disabled_for_no_sep(toy_data, monkeypatch):
    """The variant plan alone gates A-2: NO_SEP never calls step_a2."""
    source, target = toy_data

    def fail(*args, **kwargs):
        raise AssertionError("step_a2 ran under NO_SEP")

    monkeypatch.setattr(trainer, "step_a2", fail)
    state = train(source, target, TrainConfig(epochs=1, seed=7,
                                              variant=MethodVariant.NO_SEP))
    assert state.step_counter > 0
    assert all(r.loss_sep == 0.0 for r in state.trace)


def test_step_b_raises_target_divergence(toy_data):
    """One discriminator update increases mean crs on a frozen probe."""
    source, target = toy_data
    model = init_model([2, 32, 32, 32], 3, seed=7)
    plan = variant_losses(MethodVariant.FULL, 0.2, 0.1)
    sgd = SgdConfig(0.01, momentum=0.0)
    rng = make_rng(1, "b")
    # a few supervised steps first so the state is not at the uniform
    # critical point where divergence gradients vanish
    for _ in range(20):
        idx = rng.integers(0, len(source.features), size=64)
        step_a1(model, source.features[idx], source.observed_labels[idx], plan, sgd)

    probe = target.features[:256]
    p1, p2 = forward(model, probe).p
    before = crs_rows(np.stack([p1, p2])).mean()
    idx = rng.integers(0, len(source.features), size=64)
    tdx = rng.integers(0, len(target.features), size=64)
    # a cap above every target row: B runs uncapped
    top = float(crs_rows(forward(model, target.features[tdx]).p).max())
    sep = SeparationParams(delta=top + 1.0, margin=0.0)
    step_b(model, source.features[idx], source.observed_labels[idx],
           target.features[tdx], sep, plan, sgd)
    p1, p2 = forward(model, probe).p
    after = crs_rows(np.stack([p1, p2])).mean()
    assert after > before


def test_step_c_generator_only_and_empty_mask(monkeypatch):
    model = init_model([2, 8, 8, 8], 3, seed=2)
    x = make_rng(2, "c").normal(size=(8, 2))
    heads = _blob(model.head1 + model.head2)
    forwards = []

    def counting_forward(m, xs, reuse=None):
        forwards.append(len(xs))
        return forward(m, xs, reuse=reuse)

    monkeypatch.setattr(trainer, "forward", counting_forward)
    # impossible gate: mask empty, generator untouched, and the first empty
    # subset ends the loop
    sep = SeparationParams(delta=1.0, margin=1.0)  # gate at 0: crs never < 0
    out = step_c(model, x, sep, SgdConfig(0.05, 0.9), n_inner=3)
    assert out == []
    assert forwards == [8]
    assert model.version == 0
    assert _blob(model.head1 + model.head2) == heads
    # permissive gate: generator moves, heads still frozen
    gen = _blob(model.generator)
    sep = SeparationParams(delta=50.0, margin=1.0)
    out = step_c(model, x, sep, SgdConfig(0.05, 0.9), n_inner=2)
    assert len(out) == 2
    assert _blob(model.head1 + model.head2) == heads
    assert _blob(model.generator) != gen


def test_train_reuses_handed_on_target_forwards(toy_data, monkeypatch):
    """Generator and head passes of a 1-epoch run (14 steps).  Each step's
    first C repeat runs only the heads on B's generator activations, so
    there are 14 fewer generator passes than head passes; B takes A-2's
    forward whole, running neither, when A-2 applies no update."""
    source, target = toy_data
    passes = collections.Counter()
    real = nn._run_stack

    def counting_run_stack(layers, x):
        passes[id(layers)] += 1
        return real(layers, x)

    monkeypatch.setattr(nn, "_run_stack", counting_run_stack)
    state = train(source, target, TrainConfig(epochs=1, seed=7))
    assert state.step_counter == 14
    assert passes[id(state.model.generator)] == 69
    assert passes[id(state.model.heads)] == 83


def test_selection_reduces_noise(toy_data):
    """Small-loss selection keeps a cleaner-than-base-rate subset."""
    source, target = toy_data
    state = train(source, target, TrainConfig(epochs=2, seed=7))
    late = [r.clean_fraction_selected for r in state.trace if r.epoch == 1]
    assert np.mean(late) > 0.8


def test_training_deterministic(toy_data):
    source, target = toy_data
    a = train(source, target, TrainConfig(**SHORT))
    b = train(source, target, TrainConfig(**SHORT))
    assert a.model.parameters_blob() == b.model.parameters_blob()
    ta = [(r.loss_sup, r.loss_skld, r.loss_sep, r.loss_b, r.loss_c) for r in a.trace]
    tb = [(r.loss_sup, r.loss_skld, r.loss_sep, r.loss_b, r.loss_c) for r in b.trace]
    assert ta == tb


def test_traces_finite_and_csv(toy_data, tmp_path):
    source, target = toy_data
    state = train(source, target, TrainConfig(**SHORT))
    for r in state.trace:
        for v in (r.loss_sup, r.loss_skld, r.loss_sep, r.loss_b, r.loss_c):
            assert math.isfinite(v)
    path = tmp_path / "trace.csv"
    state.trace_to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("epoch,step,loss_sup,loss_skld,loss_sep,"
                        "loss_b,loss_c,clean_fraction_selected")
    assert len(lines) == 1 + 2 * 14


def _run_bytes(state, tmp_path, name):
    """The run's parameters and its loss_trace.csv bytes."""
    state.trace_to_csv(tmp_path / name)
    return state.model.parameters_blob(), (tmp_path / name).read_bytes()


def test_train_epoch_calls_equal_train(toy_data, tmp_path):
    """train is init_state plus one train_epoch call per epoch."""
    source, target = toy_data
    config = TrainConfig(epochs=3, seed=7)
    state = init_state(source, target, config)
    assert state.epoch == 0 and state.trace == []
    for _ in range(3):
        train_epoch(state)
    assert state.epoch == 3
    assert _run_bytes(state, tmp_path, "epochs.csv") == \
        _run_bytes(train(source, target, config), tmp_path, "train.csv")


def test_evaluating_between_epochs_leaves_the_run_unchanged(toy_data, tmp_path):
    """A caller may evaluate and draw the model between epochs, as a
    checkpoint does; the run then continues bit for bit as if it had not."""
    source, target = toy_data
    config = TrainConfig(**SHORT)
    state = init_state(source, target, config)
    train_epoch(state)
    report = evaluate(state.model, target, state.delta)
    grid = boundary_grid(state.model, TOY_BOUNDS, 20, state.delta)
    assert 0.0 <= report.average_accuracy <= 1.0 and grid.unknown.shape == (20, 20)
    train_epoch(state)
    assert _run_bytes(state, tmp_path, "checked.csv") == \
        _run_bytes(train(source, target, config), tmp_path, "train.csv")


def test_train_epoch_appends_rows_of_its_own_epoch(toy_data):
    """The rows one train_epoch call appends carry the epoch it ran, and
    their step indices continue the trace."""
    source, target = toy_data
    state = init_state(source, target, TrainConfig(**SHORT))
    train_epoch(state)
    before = len(state.trace)
    train_epoch(state)
    added = state.trace[before:]
    assert before == len(added) == 14
    assert [r.epoch for r in added] == [1] * 14
    assert [r.step for r in state.trace] == list(range(28))
    assert state.epoch == 2


def test_check_finite_raises_with_context():
    with pytest.raises(NonFiniteLossError) as err:
        _check_finite(float("nan"), "B", 12)
    assert err.value.step == "B"
    assert err.value.epoch == 12


# which call of which objective each step makes, told apart by its arguments
_STEP_OBJECTIVES = {
    "A-1": ("source", lambda args, kwargs: len(args) == 4),
    "A-2": ("separation", lambda args, kwargs: True),
    "B": ("crs", lambda args, kwargs: "cap" in kwargs),
    "C": ("crs", lambda args, kwargs: "below" in kwargs),
}
_FIRST_BAD_LAYER = {"A-1": "gen.0", "A-2": "gen.0", "B": "head1.0", "C": "gen.0"}


@pytest.mark.parametrize("bad", ["value", "gradient"])
@pytest.mark.parametrize("step", ["A-1", "A-2", "B", "C"])
def test_nonfinite_objective_raises_before_the_update(toy_data, monkeypatch, observe_steps,
                                                     step, bad):
    """A NaN objective value or gradient raises NonFiniteLossError before
    its step's update: the parameters are those the last completed step
    left.  A bad gradient names the first layer that holds one."""
    source, target = toy_data
    name, hit = _STEP_OBJECTIVES[step]
    real = getattr(losses, name)

    def poisoned(*args, **kwargs):
        got = real(*args, **kwargs)
        if not hit(args, kwargs):
            return got
        if bad == "value":
            return got._replace(value=math.nan,
                                per_sample=np.full_like(got.per_sample, np.nan))
        return got._replace(dp=np.full_like(got.dp, np.nan))

    monkeypatch.setattr(losses, name, poisoned)
    models, blobs = [], []
    real_init = trainer.init_model

    def capture(*args, **kwargs):
        models.append(real_init(*args, **kwargs))
        blobs.append(models[0].parameters_blob())
        return models[0]

    monkeypatch.setattr(trainer, "init_model", capture)
    observe_steps(lambda s, e, model: blobs.append(model.parameters_blob()))
    with pytest.raises(NonFiniteLossError) as err:
        train(source, target, TrainConfig(**SHORT))
    assert (err.value.step, err.value.epoch) == (step, 0)
    assert err.value.layer == (None if bad == "value" else _FIRST_BAD_LAYER[step])
    assert models[0].parameters_blob() == blobs[-1]
    assert np.isfinite(models[0].params).all()


def test_source_only_uses_whole_batch():
    model = init_model([2, 8, 8, 8], 3, seed=3)
    plan = variant_losses(MethodVariant.SOURCE_ONLY, alpha=0.2, lam=0.1)
    rng = make_rng(3, "so")
    x = rng.normal(size=(16, 2))
    y = rng.integers(0, 3, size=16)
    res = step_a1(model, x, y, plan, SgdConfig(0.01))
    assert res.rows.tolist() == [True] * 16


def test_full_variant_selects_subset():
    model = init_model([2, 8, 8, 8], 3, seed=3)
    plan = variant_losses(MethodVariant.FULL, alpha=0.25, lam=0.1)
    rng = make_rng(4, "sel")
    x = rng.normal(size=(16, 2))
    y = rng.integers(0, 3, size=16)
    res = step_a1(model, x, y, plan, SgdConfig(0.01))
    assert np.count_nonzero(res.rows) == 12


@pytest.mark.parametrize("side", ["source", "target"])
def test_train_rejects_nonfinite_features_before_any_step(toy_data, observe_steps, side):
    source, target = toy_data
    data = {"source": source, "target": target}
    features = data[side].features.copy()
    features[5, 1] = np.nan
    data[side] = dataclasses.replace(data[side], features=features)
    steps = []
    observe_steps(lambda step, epoch, model: steps.append(step))
    with pytest.raises(NumericError, match=side):
        train(data["source"], data["target"], TrainConfig(**SHORT))
    assert steps == []


def test_train_rejects_mismatched_dims(toy_data):
    source, target = toy_data
    bad = dataclasses.replace(target, features=np.zeros((10, 3)))
    with pytest.raises(ConfigError):
        train(source, bad, TrainConfig(**SHORT))


def _rows(dataset, idx):
    obs = dataset.observed_labels
    return dataclasses.replace(
        dataset, features=dataset.features[idx], true_labels=dataset.true_labels[idx],
        observed_labels=None if obs is None else obs[idx])


def _first_rows(dataset, n):
    return _rows(dataset, slice(n))


@pytest.mark.parametrize("side", ["source", "target"])
def test_train_rejects_domain_smaller_than_a_batch(toy_data, side):
    source, target = toy_data
    data = {"source": source, "target": target}
    data[side] = _first_rows(data[side], 63)
    with pytest.raises(ConfigError, match=side):
        train(data["source"], data["target"], TrainConfig(**SHORT))


def test_train_rejects_domains_with_different_batch_counts(toy_data):
    """640 source rows give 10 batches per epoch and the 900 target rows
    14: pairing them would never train on 4 of the target batches."""
    source, target = toy_data
    with pytest.raises(ConfigError, match=r"source gives 10 .* target 14"):
        train(_first_rows(source, 640), target, TrainConfig(**SHORT))
    # each epoch drops the rows past the last whole batch anyway, so
    # domains of different sizes with equal batch counts still train
    state = train(_first_rows(source, 14 * 64), target, TrainConfig(epochs=1, seed=7))
    assert state.step_counter == 900 // 64


@settings(max_examples=30, deadline=None)
@given(batch_size=st.integers(2, 48), counts=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       data=st.data())
def test_train_runs_or_raises_config_error_for_any_domain_sizes(toy_data, batch_size,
                                                                counts, data):
    """Random rows of each domain, ``counts`` whole batches and a random
    remainder each: training runs one step per pair of whole batches, or
    raises ConfigError when a domain has no whole batch or the two have
    different batch counts."""
    source, target = toy_data
    rng = make_rng(data.draw(st.integers(0, 2**16)), "domain-sizes")

    def sample(domain, count):
        n = count * batch_size + data.draw(st.integers(0, batch_size - 1))
        return _rows(domain, rng.permutation(len(domain))[:n])

    src, tgt = sample(source, counts[0]), sample(target, counts[1])
    config = TrainConfig(epochs=1, batch_size=batch_size, seed=7)
    if 0 < counts[0] == counts[1]:
        assert train(src, tgt, config).step_counter == counts[0]
    else:
        with pytest.raises(ConfigError):
            train(src, tgt, config)


def test_step_b_reports_the_capped_objective():
    """loss_b is the source loss minus the mean capped target crs: the
    value whose gradient B applies."""
    model = init_model([2, 8, 8, 8], 3, seed=5)
    rng = make_rng(5, "bcap")
    x_s, x_t = rng.normal(size=(8, 2)), rng.normal(scale=3.0, size=(8, 2))
    y_s = rng.integers(0, 3, size=8)
    plan = variant_losses(MethodVariant.FULL, 0.2, 0.1)
    ps1, ps2 = forward(model, x_s).p
    pt1, pt2 = forward(model, x_t).p
    c = crs_rows(np.stack([pt1, pt2]))
    cap = float(np.median(c))
    expect = (losses.source(np.stack([ps1, ps2]), y_s, 0.1).value
              - float(np.minimum(c, cap).mean()))
    sep = SeparationParams(delta=cap, margin=0.0)   # sep.cap == cap
    got, _ = step_b(model, x_s, y_s, x_t, sep, plan, SgdConfig(0.01), weight=0.2)
    assert got == expect


@settings(max_examples=40, deadline=None)
@given(learning_rate=st.floats(1e-4, 0.1) | st.floats(-1.0, 0.0),
       momentum=(st.floats(0.0, 0.95) | st.floats(1.0, 2.0)
                 | st.floats(-1.0, 0.0, exclude_max=True)),
       weight_decay=st.floats(0.0, 1e-2) | st.floats(-1.0, 0.0, exclude_max=True),
       delta=st.none() | st.floats(-1.0, 3.0),
       margin=st.floats(-1.0, 3.0),
       seed=st.integers(0, 2**16))
@example(learning_rate=0.0, momentum=0.9, weight_decay=5e-4, delta=None, margin=1.0, seed=7)
@example(learning_rate=0.01, momentum=1.0, weight_decay=5e-4, delta=None, margin=1.0, seed=7)
def test_settings_are_refused_with_the_config_exactly_when_a_rule_is_broken(
        learning_rate, momentum, weight_decay, delta, margin, seed):
    """``from_dict`` raises ConfigError exactly when a rule is broken, and
    a config it accepts trains an epoch without a ConfigError or a
    TypeError.  The toy source has 3 classes, so a None delta is ln 3."""
    raw = dict(learning_rate=learning_rate, momentum=momentum, weight_decay=weight_decay,
               delta=delta, margin=margin, epochs=1, seed=seed)
    broken = (not learning_rate > 0 or not 0 <= momentum < 1 or weight_decay < 0
              or (delta is not None and delta <= 0)
              or not 0 < margin < (math.log(3) if delta is None else delta))
    if broken:
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)
        return
    spec = ExperimentSpec.from_dict(raw)
    source, target = build_toy_scenario(seed, samples_per_class=64)
    assert train(source, target, spec.train).step_counter == 3

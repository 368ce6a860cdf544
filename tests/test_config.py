"""One number rule for every setting: a config file and a constructor
accept exactly the same values, and every library call that takes a
number refuses a bool, a string or a non-finite value with a ConfigError
that names the setting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twohead import (BlobSpec, ConfigError, MethodVariant, NoiseKind, NoiseSpec,
                     SeparationParams, SgdConfig, TrainConfig, boundary_grid,
                     build_toy_scenario, grad_check, init_model, minibatches, predict,
                     variant_losses)
from twohead.experiment import TOY_BOUNDS, ExperimentSpec, _config_fields
from twohead.selfcheck import check_loss_identities, check_selection_contract

_MODEL = init_model([2, 8, 8, 8], 3, seed=4)


def _zero_loss(p):
    return 0.0, np.zeros_like(p)


@pytest.mark.parametrize("call, setting", [
    (lambda: ExperimentSpec.from_dict({"alpha": "0.2"}), "alpha"),
    (lambda: TrainConfig(alpha="0.2"), "alpha"),
    (lambda: TrainConfig(alpha=np.float32(0.2)), "alpha"),
    (lambda: ExperimentSpec(stddev=math.inf), "stddevs"),
    (lambda: SgdConfig(True), "learning_rate"),
    (lambda: SgdConfig("0.1"), "learning_rate"),
    (lambda: SgdConfig(0.1, momentum=None), "momentum"),
    (lambda: SeparationParams(1.0, margin=math.nan), "margin"),
    (lambda: SeparationParams("1", 0.5), "delta"),
    (lambda: BlobSpec([(0.0, 0.0)], [math.inf], 5), "stddevs"),
    (lambda: boundary_grid(_MODEL, TOY_BOUNDS, 10.5, 1.0), "resolution"),
    (lambda: predict(_MODEL, np.zeros((2, 2)), delta="1"), "delta"),
    (lambda: grad_check(_MODEL, [_zero_loss], np.zeros((1, 2)), h="x"), "h"),
    (lambda: minibatches(build_toy_scenario(0, samples_per_class=4)[0], 2.5, 0, 0),
     "batch_size"),
    (lambda: check_loss_identities("3"), "n_pairs"),
    (lambda: check_selection_contract("3"), "n_vectors"),
], ids=["from_dict-str", "TrainConfig-str", "TrainConfig-float32", "ExperimentSpec-inf",
        "SgdConfig-bool", "SgdConfig-str", "SgdConfig-None", "SeparationParams-nan",
        "SeparationParams-str", "BlobSpec-inf", "boundary_grid-float", "predict-str",
        "grad_check-str", "minibatches-float", "check_loss_identities-str",
        "check_selection_contract-str"])
def test_a_setting_that_is_not_a_finite_number_is_refused(call, setting):
    """Each call raised TypeError or trained, or was refused by one of the
    config file and the constructor but not the other.  A numpy float32
    trained and then broke the run's manifest after its artifacts were
    written."""
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value).startswith(f"{setting} must be ")


# (owner, field name, type) by config key, for ExperimentSpec and its TrainConfig
_FIELDS = {key: (owner, name, kind) for owner in (ExperimentSpec, TrainConfig)
           for name, key, kind in _config_fields(owner)}
# the keys whose field holds a number (delta's may also be None)
_NUMBER_KEYS = sorted(k for k, (_, _, kind) in _FIELDS.items()
                      if kind in (int, float, float | None))
_VALUES = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                    st.one_of(st.integers(), st.floats()).map(str))


def _converted(kind, value):
    """What a constructor is handed for a JSON ``value``: a float for an
    int in a float field, an int for an integral float in an int field."""
    if kind in (float, float | None) and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # past the float range: passed on as it is
            return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    return value


def _construct(key, value):
    owner, name, _ = _FIELDS[key]
    if owner is TrainConfig:
        return ExperimentSpec(train=TrainConfig(**{name: value}))
    return ExperimentSpec(**{name: value})


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(ExperimentSpec.default_dict())), value=_VALUES)
@example(key="alpha", value="0.2")
@example(key="epochs", value="40")
@example(key="epochs", value=40.0)
@example(key="learning_rate", value=10 ** 400)
@example(key="noise_rate", value=math.nan)
def test_from_dict_accepts_what_the_constructor_accepts(key, value):
    """from_dict raises nothing but ConfigError; it refuses a string for a
    number key; and it accepts a number exactly when the dataclass accepts
    the converted number, to the same spec."""
    try:
        spec = ExperimentSpec.from_dict({key: value})
    except ConfigError:
        spec = None
    if isinstance(value, str) and key in _NUMBER_KEYS:
        assert spec is None
    if isinstance(value, str):
        return
    try:
        direct = _construct(key, _converted(_FIELDS[key][2], value))
    except ConfigError:
        direct = None
    assert (spec is None) == (direct is None)
    if spec is not None:
        assert spec.to_dict() == direct.to_dict()


@pytest.mark.parametrize("config, name", [
    (TrainConfig(), "learning_rate"),
    (SgdConfig(0.01), "learning_rate"),
    (SeparationParams(1.0, 0.5), "margin"),
    (variant_losses(MethodVariant.FULL, 0.2, 0.1), "minimax"),
    (NoiseSpec(NoiseKind.SYMMETRIC_FLIP, 0.2), "rate"),
    (BlobSpec([(0.0, 0.0)], [1.0], 5), "samples_per_class"),
    (ExperimentSpec(), "train"),
], ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v)
def test_a_config_cannot_change_after_its_check(config, name):
    """A field assigned after the check trained a value nothing had
    checked: ``cfg.learning_rate = 5.0`` left ``cfg.sgd`` at 0.01, and
    ``n_inner = 0`` with ``minimax_weight = -3.0`` skipped C and flipped
    B's target push without an error."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))


@pytest.mark.parametrize("key, value", [("epochs", 0), ("n_inner", 0),
                                        ("minimax_weight", -3.0), ("learning_rate", -1.0)])
def test_replace_checks_the_changed_config_again(key, value):
    """``dataclasses.replace`` is the one way to change a setting, and it
    runs every check the constructor runs."""
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(TrainConfig(), **{key: value})


def test_experiment_spec_train_defaults_to_a_fresh_config():
    """``train`` has a default factory, not a None that the spec replaced
    after construction."""
    train = {f.name: f for f in dataclasses.fields(ExperimentSpec)}["train"]
    assert train.default is dataclasses.MISSING and train.default_factory is TrainConfig
    assert ExperimentSpec().train == TrainConfig()

"""Shared fixtures.  The trained reference run and the variant suite are
expensive, so they are session-scoped and reused by the unit tests and
the acceptance criteria alike."""

import time

import pytest

from twohead import MethodVariant, TrainConfig, build_toy_scenario, evaluate, trainer
from twohead.trainer import train
from test_acceptance import REFERENCE_MARGINS

REFERENCE_SEED = 7
# the fixtures and tests that train the default 400 epochs
_SLOW_FIXTURES = {"reference_run", "variant_reports"}
_SLOW_TESTS = {"test_c8_freezing_and_determinism", "test_c9_sweep_harness"}


def pytest_collection_modifyitems(items):
    """Mark ``slow`` every test that trains 400 epochs, so that
    ``pytest -m "not slow"`` skips the trainings that take most of the
    suite's time."""
    for item in items:
        if item.originalname in _SLOW_TESTS or _SLOW_FIXTURES & set(item.fixturenames):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def toy_data():
    return build_toy_scenario(REFERENCE_SEED)


@pytest.fixture(scope="session")
def reference_run(toy_data):
    """Full-variant training at the frozen default config; returns
    (state, report, wall_seconds)."""
    source, target = toy_data
    t0 = time.perf_counter()
    state = train(source, target, TrainConfig(seed=REFERENCE_SEED))
    elapsed = time.perf_counter() - t0
    report = evaluate(state.model, target, state.delta)
    return state, report, elapsed


@pytest.fixture(scope="session")
def variant_reports(toy_data, reference_run):
    """EvalReport of ``full`` and of each variant the ablation criterion
    reads (``REFERENCE_MARGINS``), all on identical data and seed."""
    source, target = toy_data
    reports = {MethodVariant.FULL: reference_run[1]}
    for variant in REFERENCE_MARGINS:
        state = train(source, target, TrainConfig(seed=REFERENCE_SEED, variant=variant))
        reports[variant] = evaluate(state.model, target, state.delta)
    return reports


# the trainer's step functions by the name of the step they run
_STEPS = {"A-1": "step_a1", "A-2": "step_a2", "B": "step_b", "C": "step_c"}


@pytest.fixture
def observe_steps(monkeypatch):
    """Watch training from outside.  ``observe_steps(record)`` wraps the
    trainer's step functions, the names the benchmark's tracer wraps, and
    calls ``record(step, epoch, model)`` after each call that returns:
    once for A-1, A-2 and B, and for C once per update applied, counted
    from the values ``step_c`` returns.  A step that raises records
    nothing."""

    def observe(record):
        def wrap(step, fn):
            def wrapper(model, *args, **kwargs):
                out = fn(model, *args, **kwargs)
                # step_c returns one value per update it applied
                for _ in range(len(out) if step == "C" else 1):
                    record(step, kwargs.get("epoch", 0), model)
                return out
            return wrapper

        for step, name in _STEPS.items():
            monkeypatch.setattr(trainer, name, wrap(step, getattr(trainer, name)))

    return observe

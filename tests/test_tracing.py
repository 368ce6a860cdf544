"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
by the names through which their callers reach them.  Entering and leaving
it here makes a renamed or removed traced name fail in the test suite, not
first in a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from twohead import TrainConfig, trainer  # noqa: E402


def test_tracer_wraps_a_training_run_and_restores_the_program(toy_data):
    source, target = toy_data
    originals = dict(vars(trainer))
    tracer = tracing.Tracer()
    with tracer.active():
        state = trainer.train(source, target, TrainConfig(epochs=1, seed=7))
    assert dict(vars(trainer)) == originals

    totals = tracer.totals()
    for name in ("trainer.train", "trainer.a1", "trainer.a2", "trainer.b", "trainer.c",
                 "nn.forward", "nn.backward", "nn.sgd_step", "data.minibatches",
                 "losses.variant_losses", "losses.source", "losses.separation",
                 "losses.crs"):
        assert name in totals, name
    steps = state.step_counter
    assert totals["trainer.train"][2] == steps
    assert totals["trainer.a1"][0] == steps

"""Spans and counts at the twohead module boundaries, recorded from outside.

``Tracer`` replaces each public function with a timing wrapper under the
name through which its caller reaches it: ``twohead.trainer.forward`` for
the trainer's forwards, ``twohead.evaluation.forward`` for evaluation's,
``twohead.nn.forward`` for nn's own and for callers that go through the
module, and so on.  Each wrapper calls the original function, so a call is
recorded once whichever name it came through.  No program file changes;
``Tracer.active()`` installs the wrappers and restores the originals on
exit.

A span is ``[name, parent index, start, end, size]``; ``size`` is rows for
forwards, steps for training calls and bytes for artifact writes.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict


def _rows(args, result):
    return len(args[1])


def _steps(args, result):
    return result.step_counter


def _bytes_written(args, result):
    return os.path.getsize(args[0])


class _ModuleProxy:
    """Stands in for a module that a caller reaches as ``module.f``: every
    function looked up through it is wrapped as ``<prefix>.<name>``."""

    def __init__(self, tracer: "Tracer", module, prefix: str):
        self._tracer = tracer
        self._module = module
        self._prefix = prefix

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if callable(value) and not isinstance(value, type):
            value = self._tracer.wrap(value, f"{self._prefix}.{name}")
        setattr(self, name, value)
        return value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(args, result)
            return result

        return wrapper

    def _targets(self):
        from twohead import data, evaluation, experiment, nn, selfcheck, trainer
        from twohead.evaluation import BoundaryGrid

        fwd = ("nn.forward", _rows)
        return [
            (trainer, "step_a1", ("trainer.a1",)),
            (trainer, "step_a2", ("trainer.a2",)),
            (trainer, "step_b", ("trainer.b",)),
            (trainer, "step_c", ("trainer.c",)),
            (trainer, "forward", fwd),
            (trainer, "backward", ("nn.backward",)),
            (trainer, "sgd_step", ("nn.sgd_step",)),
            (trainer, "minibatches", ("data.minibatches",)),
            (trainer, "losses", _ModuleProxy(self, trainer.losses, "losses")),
            (trainer, "train", ("trainer.train", _steps)),
            (experiment, "train", ("trainer.train", _steps)),
            (experiment, "build_toy_scenario", ("data.build_scenario",)),
            (experiment, "dataset_to_csv", ("data.dataset_csv",)),
            (experiment, "evaluate", ("evaluation.evaluate",)),
            (experiment, "boundary_grid", ("evaluation.boundary_grid",)),
            (experiment, "density_to_csv", ("evaluation.density_csv",)),
            (experiment, "write_boundary_svg", ("evaluation.svg",)),
            (experiment, "save_model_csv", ("nn.save_model_csv",)),
            (experiment, "atomic_write", ("experiment.write", _bytes_written)),
            (experiment, "atomic_write_text", ("experiment.write", _bytes_written)),
            (evaluation, "forward", fwd),
            (evaluation, "evaluate", ("evaluation.evaluate",)),
            (evaluation, "boundary_grid", ("evaluation.boundary_grid",)),
            (evaluation, "density_to_csv", ("evaluation.density_csv",)),
            (evaluation, "write_boundary_svg", ("evaluation.svg",)),
            (BoundaryGrid, "to_csv", ("evaluation.boundary_csv",)),
            (nn, "forward", fwd),
            (nn, "backward", ("nn.backward",)),
            (nn, "grad_check", ("nn.grad_check",)),
            (nn, "save_model_csv", ("nn.save_model_csv",)),
            (nn, "load_model_csv", ("nn.load_model_csv",)),
            (data, "build_toy_scenario", ("data.build_scenario",)),
            (data, "dataset_to_csv", ("data.dataset_csv",)),
            (selfcheck, "check_loss_identities", ("selfcheck.identities",)),
            (selfcheck, "check_gradients", ("selfcheck.gradients",)),
            (selfcheck, "check_selection_contract", ("selfcheck.selection",)),
        ]

    @contextlib.contextmanager
    def active(self, only: set[str] | None = None):
        """Install the wrappers (those whose span name is in ``only``, if
        given) for the duration of the block."""
        for owner, attr, how in self._targets():
            if only is not None and (isinstance(how, _ModuleProxy) or how[0] not in only):
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, how if isinstance(how, _ModuleProxy)
                    else self.wrap(original, *how))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # --- summaries -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, int]]:
        """name -> (calls, seconds, size) summed over all spans."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for name, _, t0, t1, size in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += size
        return {k: tuple(v) for k, v in out.items()}

    def self_times(self) -> dict[str, float]:
        """name -> seconds not covered by child spans."""
        own = [t1 - t0 for _, _, t0, t1, _ in self.spans]
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        out: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            out[span[0]] += t
        return dict(out)

    def children(self, parent_name: str, child_name: str) -> list[int]:
        """For each span named ``parent_name``, the number of its direct
        children named ``child_name``."""
        index = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, parent, *_ in self.spans:
            if name == child_name and parent in index:
                index[parent] += 1
        return list(index.values())

    def write(self, path) -> None:
        """All spans as CSV: name, parent index, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s,size\n")
            for i, (name, parent, t0, t1, size) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{t0!r},{t1!r},{size}\n")

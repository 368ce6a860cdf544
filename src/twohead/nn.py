"""Minimal dense network engine: forward, reverse-mode gradients, momentum SGD.

Everything runs on float64 numpy arrays (shape (rows, cols), row per
sample) so gradient checks and bit-identity tests stay tight.  The model
is one shared feature generator feeding two independently initialized
classifier heads, with all parameters in one flat buffer per kind (see
``TwoHeadModel``).

``forward`` returns a ``ForwardCache`` whose ``p`` is the stacked
(2, N, C) pair of the two heads' probabilities; the objectives in
``losses`` take that pair and return one (2, N, C) gradient, which
``backward`` takes as it is.  Besides ``p`` and the feature norms, a cache
keeps one array per layer: the batch, then each generator layer's output
(``gen``, the last being the raw features), and each head layer's input
(``heads``); a ReLU layer's output is also its backward mask.
``forward(..., reuse=cache)`` takes what of an earlier cache of the same
batch still matches the model: all of it when no parameter has changed
since, its ``gen`` when only the heads have, and nothing otherwise.
``sgd_step`` bumps ``model.version`` on every update, ``model.gen_version``
when the generator moves; a cache of another batch is refused (UsageError).

A model built with ``members=(M,)`` holds M copies of its parameters, and
``forward``, ``backward`` and ``sgd_step`` run all of them at once, each
member bit for bit as a model of its own; ``grad_check`` evaluates its
perturbed models that way, and every objective it checks reads the same
perturbed forwards.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, UsageError, check_number
from .rng import make_rng


class Activation(Enum):
    RELU = "relu"
    IDENTITY = "identity"


class Scope(Enum):
    """Which parameter subset a backward pass fills and an SGD step
    updates: a slice of the model's flat buffers (``scope_slice``)."""

    ALL = "all"
    HEADS_ONLY = "heads_only"
    GENERATOR_ONLY = "generator_only"


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        # an infinite rate or decay writes inf/NaN into every parameter
        for name in ("learning_rate", "momentum", "weight_decay"):
            check_number(name, getattr(self, name))
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


class DenseLayer:
    """Fully connected layer with weight (out, in), bias (out,) and an
    activation, or a stack of such layers sharing one activation, with
    weight (k, out, in) and bias (k, out), each behind the model's member
    axes if it has any.  The weight, bias and gradient arrays are views
    into the owning model's flat buffers, so an in-place edit of any of
    them edits the model."""

    def __init__(self, params: tuple[np.ndarray, np.ndarray],
                 grads: tuple[np.ndarray, np.ndarray], activation: Activation):
        self.weight, self.bias = params
        self.grad_weight, self.grad_bias = grads
        self.activation = activation

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    def member(self, k: int) -> DenseLayer:
        """Layer ``k`` of a stacked layer, as views into the same buffers.
        The stack axis is the one before (out, in), behind any leading
        member axes."""
        return DenseLayer((self.weight[..., k, :, :], self.bias[..., k, :]),
                          (self.grad_weight[..., k, :, :], self.grad_bias[..., k, :]),
                          self.activation)


FEATURE_SCALE = 10.0  # inverse temperature applied to the unit-norm features


class TwoHeadModel:
    """Shared generator feeding two classifier heads.

    The generator's output is L2-normalized per sample and scaled by
    ``FEATURE_SCALE`` before entering the heads (normalized-feature
    classifier convention); this bounds attainable confidence by the head
    weight norms instead of the input magnitude.  The scale is fixed, as
    the model file has no field for it.

    All parameters live in one flat float64 array, ``params``, with
    ``grads`` and ``velocity`` laid out alike: each generator layer's
    weight then bias, then per head depth both heads stacked as a
    (2, out, in) weight and a (2, out) bias.  ``heads[d]`` is that stacked
    layer; ``head1[d]`` and ``head2[d]`` are its two members.  So the
    generator is ``[0, gen_end)`` of each buffer and the heads are the rest.

    ``members`` is a leading shape for the buffers, ``(M,)`` for M copies
    of the model's parameters: each buffer is then ``(M, size)``, and the
    layers' arrays gain the same leading axes, ``(M, out, in)`` for a
    generator weight and ``(M, 2, out, in)`` for a stacked head weight.
    ``forward`` runs every member on the same batch at once.
    """

    def __init__(self, gen_widths: Sequence[int], head_widths: Sequence[int],
                 members: tuple[int, ...] = ()):
        if gen_widths[-1] != head_widths[0]:
            raise DimensionError(f"generator output width {gen_widths[-1]} does not "
                                 f"match head input width {head_widths[0]}")
        gen_shapes = [(gen_widths[i + 1], gen_widths[i]) for i in range(len(gen_widths) - 1)]
        head_shapes = [(2, head_widths[i + 1], head_widths[i])
                       for i in range(len(head_widths) - 1)]
        size = sum(math.prod(s) + math.prod(s[:-1]) for s in gen_shapes + head_shapes)
        self.params = np.zeros(members + (size,))
        self.grads = np.zeros(members + (size,))
        self.velocity = np.zeros(members + (size,))
        offset = 0

        def carve(shape: tuple[int, ...], activation: Activation) -> DenseLayer:
            nonlocal offset
            n_w, n_b = math.prod(shape), math.prod(shape[:-1])

            def views(flat):
                return (flat[..., offset:offset + n_w].reshape(members + shape),
                        flat[..., offset + n_w:offset + n_w + n_b].reshape(
                            members + shape[:-1]))

            layer = DenseLayer(views(self.params), views(self.grads), activation)
            offset += n_w + n_b
            return layer

        self.generator = [carve(s, Activation.RELU) for s in gen_shapes]
        self.gen_end = offset
        last = len(head_shapes) - 1
        self.heads = [carve(s, Activation.IDENTITY if i == last else Activation.RELU)
                      for i, s in enumerate(head_shapes)]
        self.head1 = [layer.member(0) for layer in self.heads]
        self.head2 = [layer.member(1) for layer in self.heads]
        self.widths = (tuple(gen_widths), tuple(head_widths))
        self.members = members
        self.num_classes = head_widths[-1]
        # bumped on every parameter update, and gen_version on every update
        # that moves the generator; they tell what of a forward cache holds
        self.version = 0
        self.gen_version = 0

    @property
    def input_dim(self) -> int:
        return self.generator[0].in_dim

    def named_layers(self) -> Iterator[tuple[str, DenseLayer]]:
        for i, layer in enumerate(self.generator):
            yield f"gen.{i}", layer
        for i, layer in enumerate(self.head1):
            yield f"head1.{i}", layer
        for i, layer in enumerate(self.head2):
            yield f"head2.{i}", layer

    def scope_slice(self, scope: Scope) -> slice:
        """The part of each flat buffer that ``scope`` covers."""
        if scope is Scope.GENERATOR_ONLY:
            return slice(0, self.gen_end)
        if scope is Scope.HEADS_ONLY:
            return slice(self.gen_end, None)
        return slice(None)

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    def parameters_blob(self) -> bytes:
        """All parameters as one byte string, for bit-identity checks."""
        return self.params.tobytes()


@dataclass
class ForwardCache:
    version: int
    gen_version: int
    gen: list[np.ndarray]     # the batch, then each generator layer's output
    feat_norms: np.ndarray    # per row, the L2 norm of gen[-1], the raw features
    heads: list[np.ndarray]   # each head layer's input: the features, then stacked outputs
    p: np.ndarray             # (2, N, C): p1 and p2, or (M, 2, N, C)

    def __iter__(self):
        # perfbench/test_checks.py unpacks forward()'s result as (p1, p2, cache)
        return iter((self.p[..., 0, :, :], self.p[..., 1, :, :], self))


def _glorot(rng, weight: np.ndarray) -> None:
    out_dim, in_dim = weight.shape
    bound = math.sqrt(6.0 / (in_dim + out_dim))
    weight[...] = rng.uniform(-bound, bound, size=weight.shape)


def init_model(layer_widths: Sequence[int], num_classes: int, seed: int) -> TwoHeadModel:
    """Build generator + two heads with Glorot-uniform weights and zero
    biases.

    ``layer_widths`` describes the generator (input width first); each head
    mirrors the generator depth at the last hidden width and ends in a
    linear layer with ``num_classes`` outputs.  The two heads draw from
    distinct sub-seed streams so they start different.
    """
    if len(layer_widths) < 2:
        raise ConfigError("layer_widths needs an input width and at least one layer")
    if any(w <= 0 for w in layer_widths):
        raise ConfigError(f"layer widths must be positive, got {list(layer_widths)}")
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")

    feat = layer_widths[-1]
    head_widths = [feat] * len(layer_widths[:-1]) + [num_classes]
    model = TwoHeadModel(layer_widths, head_widths)
    for label, layers in (("generator", model.generator), ("head1", model.head1),
                          ("head2", model.head2)):
        rng = make_rng(seed, label)
        for layer in layers:
            _glorot(rng, layer.weight)
    return model


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis.  The row max is a chain of
    elementwise maxima over the class columns, which is exact and, for a
    few classes, cheaper than a reduction over the short last axis; the
    normalising sum keeps numpy's reduction and its summation order."""
    top = logits[..., 0]
    for k in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., k])
    e = np.exp(logits - top[..., None])
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _run_stack(layers: list[DenseLayer], x: np.ndarray) -> list[np.ndarray]:
    """Run ``layers`` on ``x``; returns ``x`` and then each layer's output,
    a ReLU layer's rectified in place.  A layer with leading axes (members,
    a stack or both) maps (N, in), or an input with matching leading axes,
    to (..., N, out)."""
    acts = [x]
    for layer in layers:
        z = acts[-1] @ layer.weight.swapaxes(-1, -2)
        z += layer.bias[..., None, :]
        acts.append(np.maximum(z, 0.0, out=z) if layer.activation is Activation.RELU else z)
    return acts


def forward(model: TwoHeadModel, x: np.ndarray, reuse: ForwardCache | None = None
            ) -> ForwardCache:
    """Run both heads on a batch; returns a cache for ``backward`` whose
    ``p`` is the stacked (2, N, C) class probabilities, head 1's then head
    2's.  The input is not checked for NaN/Inf here: callers that take data
    from outside (training, prediction, grids) check it once at their
    boundary.

    A model with members (see ``TwoHeadModel``) runs each member on the
    same (N, in) batch, and ``p`` is (M, 2, N, C); member i is bit for bit
    the forward of a model holding member i's parameters alone.

    ``reuse`` is an earlier cache of the same batch; one of another batch
    raises UsageError.  If no parameter has changed since it was made, it
    is returned itself; if only the heads have (the generator's
    ``gen_version`` is unchanged), its generator activations are taken and
    only the heads run again; otherwise the forward runs afresh.  The
    result is bit-identical to a fresh forward.  Parameters edited in
    place, not through ``sgd_step``, are not tracked.
    """
    x = np.asarray(x, dtype=np.float64)
    if reuse is not None:
        seen = reuse.gen[0]
        if x is not seen and not np.array_equal(x, seen):
            raise UsageError("forward cache is for another batch")
        if reuse.version == model.version:
            return reuse
    if reuse is not None and reuse.gen_version == model.gen_version:
        gen, norms, feats = reuse.gen, reuse.feat_norms, reuse.heads[0]
    else:
        if x.ndim != 2 or x.shape[1] != model.input_dim:
            raise DimensionError(f"input must be (N, {model.input_dim}), got {x.shape}")
        gen = _run_stack(model.generator, x)
        raw = gen[-1]
        norms = np.maximum(np.sqrt(np.add.reduce(raw * raw, axis=-1, keepdims=True)), 1e-12)
        feats = FEATURE_SCALE * raw / norms
        if model.members:
            feats = feats[..., None, :, :]   # (M, 1, N, F): both heads read it
    heads = _run_stack(model.heads, feats)   # its last entry is the logits
    return ForwardCache(model.version, model.gen_version, gen, norms, heads[:-1],
                        softmax_rows(heads[-1]))


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    inner = np.add.reduce(dp * p, axis=-1, keepdims=True)
    return p * (dp - inner)


def _stack_backward(layers: list[DenseLayer], acts: list[np.ndarray], dout: np.ndarray,
                    param_grads: bool, input_grad: bool) -> np.ndarray | None:
    """Backpropagate through ``layers`` given ``_run_stack``'s ``acts`` (a
    last linear layer's output may be left off), masking a ReLU on its
    output, positive exactly where its input was: accumulate the parameter
    grads if ``param_grads``; return the input's gradient if ``input_grad``."""
    for i in reversed(range(len(layers))):
        layer = layers[i]
        dz = dout * (acts[i + 1] > 0.0) if layer.activation is Activation.RELU else dout
        if param_grads:
            layer.grad_weight += dz.swapaxes(-1, -2) @ acts[i]
            layer.grad_bias += np.add.reduce(dz, axis=-2)
        if i == 0 and not input_grad:
            return None
        dout = dz @ layer.weight
    return dout


def backward(model: TwoHeadModel, cache: ForwardCache, dp: np.ndarray,
             scope: Scope = Scope.ALL) -> None:
    """Accumulate d(loss)/d(theta) into the grad buffer, given the upstream
    gradient ``dp`` on the stacked (2, N, C) probabilities, as the
    objectives in ``losses`` return it.  The generator gradient is the sum
    of both heads' contributions.

    Only ``scope``'s slice of the grad buffer is written: HEADS_ONLY stops
    at the features, and GENERATOR_ONLY carries only dX through the heads.
    """
    if cache.version != model.version:
        raise UsageError("stale forward cache: parameters changed since forward()")
    if dp.shape != cache.p.shape:
        raise DimensionError(f"upstream gradient shape {dp.shape} does not match "
                             f"the probabilities' {cache.p.shape}")

    to_heads = scope is not Scope.GENERATOR_ONLY
    to_gen = scope is not Scope.HEADS_ONLY
    dz = _softmax_backward(cache.p, dp)
    dfeat = _stack_backward(model.heads, cache.heads, dz, to_heads, to_gen)
    if not to_gen:
        return
    dfeat = dfeat[..., 0, :, :] + dfeat[..., 1, :, :]
    # through h -> scale * h / ||h||: project out the radial component
    unit = cache.gen[-1] / cache.feat_norms
    radial = np.add.reduce(dfeat * unit, axis=-1, keepdims=True)
    draw = FEATURE_SCALE * (dfeat - unit * radial) / cache.feat_norms
    _stack_backward(model.generator, cache.gen, draw, True, False)


def sgd_step(model: TwoHeadModel, cfg: SgdConfig, scope: Scope = Scope.ALL) -> None:
    """Momentum SGD (with optional L2 weight decay folded into the
    gradient) on ``scope``'s slice of the parameter buffer; out-of-scope
    parameters stay bit-identical.  The whole grad buffer is zeroed
    afterward.  Bumps ``model.version``, and ``model.gen_version`` when the
    scope includes the generator."""
    s = model.scope_slice(scope)
    params, vel = model.params[..., s], model.velocity[..., s]
    vel *= cfg.momentum
    vel += model.grads[..., s]
    if cfg.weight_decay:
        vel += cfg.weight_decay * params
    params -= cfg.learning_rate * vel
    model.zero_grads()
    model.version += 1
    if scope is not Scope.HEADS_ONLY:
        model.gen_version += 1


# --- gradient verification -------------------------------------------------

LossFn = Callable[[np.ndarray], tuple[float | np.ndarray, np.ndarray]]
# maps stacked probabilities p -> (loss value, d loss/d p).  p is the
# (2, N, C) pair, or (M, 2, N, C) for a model with M members; the value is
# then one per member, or a scalar that holds for every member.

_ZERO_GRAD_FLOOR = 1e-6  # below this magnitude, compare absolutely
# parameter cells per batched forward, two members each; more cells take
# fewer forwards, but each member holds ~20 KB of buffers, activations and
# loss temporaries on an 8-row batch of the selftest model: 2.5 MB at 64
_FD_CELLS = 64


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(model: TwoHeadModel, loss_fns: Sequence[LossFn], x: np.ndarray,
               h: float = 1e-5, tol: float = 1e-4) -> list[GradCheckReport]:
    """Compare analytic gradients against central finite differences for
    every parameter, for each loss in ``loss_fns``; returns one report per
    loss, in order.

    One unperturbed forward serves every loss's backward.  The perturbed
    models run as the members of one model: each forward holds +h and -h
    copies for the next ``_FD_CELLS`` cells of the flat parameter buffer,
    across layer boundaries, and every loss reads its (M, 2, N, C)
    probabilities.  Each loss value is the one a forward of that single
    perturbed model gives, bit for bit, so a loss gets the report it would
    get checked alone.

    Entries where both gradients are below 1e-6 in magnitude are compared
    absolutely (the relative measure is meaningless at zero); everything
    else uses |a - n| / max(|a|, |n|).  The worst entry is the first
    largest error in ``named_layers`` order; a NaN error (a loss that is
    not finite) counts as the worst.  The grad buffer is left zero.
    """
    check_number("h", h)
    check_number("tol", tol)
    if not 0.0 < h <= 1e-3:
        raise ConfigError(f"h must be in (0, 1e-3], got {h}")
    # no error is below a tolerance <= 0: an exact gradient would fail
    if tol <= 0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    if model.members:
        raise UsageError("grad_check takes a model without members")

    n_fns, size = len(loss_fns), model.params.size
    # row j holds loss j's analytic gradient, and then its error per cell
    err = np.empty((n_fns, size))
    cache = forward(model, x)
    for j, loss_fn in enumerate(loss_fns):
        model.zero_grads()
        backward(model, cache, loss_fn(cache.p)[1])
        err[j] = model.grads
    # every cell's flat index and name, in named_layers order: the grad
    # views read back a buffer that holds its own indices
    model.grads[:] = np.arange(size)
    order, names = zip(*[(int(i), f"{name}.{kind}[{k}]")
                         for name, layer in model.named_layers()
                         for kind, cells in (("w", layer.grad_weight), ("b", layer.grad_bias))
                         for k, i in enumerate(cells.ravel().tolist())])
    model.zero_grads()

    copies = TwoHeadModel(*model.widths, members=(2 * _FD_CELLS,))
    numeric = np.empty((n_fns, size))
    for start in range(0, size, _FD_CELLS):
        idx = np.arange(start, min(start + _FD_CELLS, size))
        k = np.arange(idx.size)
        # members k hold params + h in cell idx[k], members _FD_CELLS + k params - h
        copies.params[:] = model.params
        copies.params[k, idx] = model.params[idx] + h
        copies.params[_FD_CELLS + k, idx] = model.params[idx] - h
        p = forward(copies, x).p
        for j, loss_fn in enumerate(loss_fns):
            value = np.broadcast_to(loss_fn(p)[0], (2 * _FD_CELLS,))
            numeric[j, idx] = (value[k] - value[_FD_CELLS + k]) / (2.0 * h)
    denom = np.maximum(np.abs(err), np.abs(numeric))
    err -= numeric
    np.abs(err, out=err)
    np.divide(err, denom, out=err, where=denom >= _ZERO_GRAD_FLOOR)

    err = err[:, list(order)]
    first = np.argmax(err, axis=1)   # per loss, the first largest error, or the first NaN
    return [GradCheckReport(max_rel_error=e, tol=tol,
                            worst_param=names[i] if e > 0.0 or math.isnan(e) else "")
            for i, e in zip(first.tolist(), err[np.arange(n_fns), first].tolist())]


# --- parameter serialization -------------------------------------------------

_MODEL_HEADER = ["layer", "row", "col", "value"]
_LAYER_NAME = re.compile(r"(gen|head1|head2)\.(0|[1-9][0-9]*)")


def save_model_csv(model: TwoHeadModel, path) -> None:
    """Flat (layer, row, col, value) CSV; bias entries use col = -1."""
    if model.members:
        raise UsageError("save_model_csv writes one model, not a member stack")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_MODEL_HEADER) + "\n")
        for name, layer in model.named_layers():
            fh.write("".join(f"{name},{r},{c},{v!r}\n"
                             for r, row in enumerate(layer.weight.tolist())
                             for c, v in enumerate(row)))
            fh.write("".join(f"{name},{r},-1,{v!r}\n"
                             for r, v in enumerate(layer.bias.tolist())))


def load_model_csv(path) -> TwoHeadModel:
    """Rebuild a model from ``save_model_csv`` output.  The file must start
    with the header ``layer,row,col,value``, and each row names a layer
    ``gen.<i>``, ``head1.<i>`` or ``head2.<i>`` and gives one cell, not
    listed before, an integral row and column and a finite value.  Its
    widths (1 + the largest column of ``gen.0``, then 1 + the largest row
    of each ``gen.<i>`` and ``head1.<i>`` up to the first missing index)
    describe a ``TwoHeadModel``: the file must list exactly that model's
    layers and exactly the weight and bias cells of each.  A file that
    cannot be read or breaks this raises ConfigError naming the layer."""
    entries: dict[str, dict[tuple[int, int], float]] = {}
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"model file {path}: cannot read: {exc}") from exc
    header = rows[0] if rows else []
    if header != _MODEL_HEADER:
        raise ConfigError(f"model file {path}: header {header} is not {_MODEL_HEADER}")
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 4:
            raise ConfigError(f"model file {path}: expected 4 fields, got {row}")
        name, r, c, v = row
        if not _LAYER_NAME.fullmatch(name):
            raise ConfigError(f"model file layer '{name}': expected gen, head1 or "
                              f"head2 and an integer index, such as 'gen.0'")
        try:
            key, value = (int(r), int(c)), float(v)
            if not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise ConfigError(
                f"model file layer '{name}' cell ({r}, {c}) = {v!r}: expected an "
                f"integral row and column and a finite value") from None
        cells = entries.setdefault(name, {})
        if key in cells:
            raise ConfigError(f"model file layer '{name}' lists cell ({r}, {c}) twice")
        cells[key] = value

    for name in ("gen.0", "head1.0"):
        if name not in entries:
            raise ConfigError(f"model file has no '{name}' layer")

    def widths(prefix: str, first: int) -> list[int]:
        out = [first]
        while (cells := entries.get(name := f"{prefix}.{len(out) - 1}")) is not None:
            rows = 1 + max(cells)[0]   # the largest (row, col) key has the largest row
            # fail before a corrupted index can size the model's buffers
            if min(rows, out[-1] + 1) < 1 or rows * (out[-1] + 1) > len(cells):
                raise ConfigError(f"model file layer '{name}' lists {len(cells)} cells, "
                                  f"which cannot fill a ({rows}, {out[-1]}) weight and bias")
            out.append(rows)
        return out

    gen_widths = widths("gen", 1 + max(c for _, c in entries["gen.0"]))
    model = TwoHeadModel(gen_widths, widths("head1", gen_widths[-1]))
    layers = dict(model.named_layers())
    if missing := next((name for name in layers if name not in entries), None):
        raise ConfigError(f"model file has no '{missing}' layer")
    for name in entries:
        if name not in layers:
            prefix = name.split(".")[0]
            depth = sum(n.startswith(prefix + ".") for n in layers)
            if f"{prefix}.{depth}" in entries:
                # only head2 gets here: gen and head1 end at their first gap
                raise ConfigError(f"model file lists '{prefix}.{depth}' but no "
                                  f"'head1.{depth}': both heads must have the same depth")
            raise ConfigError(f"model file has no '{prefix}.{depth}' layer but lists "
                              f"'{name}': '{prefix}' indices must run 0, 1, ...")
    for name, layer in layers.items():
        cells = entries[name]
        out, n_in = layer.weight.shape
        keys = list(product(range(out), range(-1, n_in)))
        try:
            values = np.fromiter(map(cells.__getitem__, keys), np.float64, len(keys))
        except KeyError as exc:
            raise ConfigError(f"model file layer '{name}' has no cell {exc.args[0]} "
                              f"of its ({out}, {n_in}) weight and bias") from None
        if len(cells) > len(keys):
            raise ConfigError(f"model file layer '{name}' lists cell "
                              f"{min(cells.keys() - set(keys))} outside its "
                              f"({out}, {n_in}) weight and bias")
        values = values.reshape(out, n_in + 1)   # column 0 is the bias
        layer.bias[...], layer.weight[...] = values[:, 0], values[:, 1:]
    return model

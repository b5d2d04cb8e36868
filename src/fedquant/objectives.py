"""Training objectives, synthetic data generation, and client partitioning.

Three model families share one flat-parameter interface:

* ``quadratic``: least squares, ``f(w) = ||Xw - y||^2 / (2m)``
* ``logistic``: binary logistic regression with a bias term stored as the
  last parameter; labels are 0/1
* ``mlp``: one hidden ReLU layer and a softmax output; parameters are
  flattened as ``[W1 rows..., b1, W2 rows..., b2]``; labels are class ids

All losses are means over the supplied rows, so minibatch gradients are
unbiased estimates of the full-data gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _checks

__all__ = [
    "Dataset",
    "ModelSpec",
    "ClientShard",
    "loss",
    "gradient",
    "sample_batch",
    "accuracy",
    "init_params",
    "generate_synthetic",
    "partition",
    "load_delimited",
]

_MODEL_KINDS = ("quadratic", "logistic", "mlp")
_DATA_KINDS = ("regression", "classification")
_PARTITION_MODES = ("iid", "sorted_label")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix plus labels.

    ``planted_params`` carries the generating parameters for synthetic data
    so tests can check optima; it is None for data loaded from files.
    """

    features: np.ndarray
    labels: np.ndarray
    planted_params: np.ndarray | None = None

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64).copy()
        labels = np.asarray(self.labels).copy()
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be 1-D with one entry per row")
        _checks.finite("features", features)
        _checks.finite("labels", labels.astype(np.float64))
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if self.planted_params is not None:
            planted = np.asarray(self.planted_params, dtype=np.float64).copy()
            planted.setflags(write=False)
            object.__setattr__(self, "planted_params", planted)

    @classmethod
    def _adopt(cls, features: np.ndarray, labels: np.ndarray, planted_params=None) -> Dataset:
        """Wrap valid rows just built, read-only or referenced nowhere else:
        they are frozen in place rather than copied and checked again."""
        for array in (features, labels, planted_params):
            if array is not None:
                array.setflags(write=False)
        data = object.__new__(cls)
        data.__dict__.update(features=features, labels=labels, planted_params=planted_params)
        return data

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray | slice) -> "Dataset":
        """The rows at ``indices``, read-only and sharing ``planted_params``:
        gathered once for an index array, a view for a slice."""
        features = self.features[indices]
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        return Dataset._adopt(features, self.labels[indices], self.planted_params)


@dataclass(frozen=True)
class ModelSpec:
    """Which objective to train and its shape."""

    kind: str
    n_features: int
    hidden: int = 0
    n_classes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {_MODEL_KINDS}")
        _checks.integer("n_features", self.n_features, 1)
        if self.kind == "mlp":
            _checks.integer("mlp hidden", self.hidden, 1)
            _checks.integer("mlp n_classes", self.n_classes, 2)
        elif self.hidden != 0:
            raise ValueError("hidden layers are only configurable for mlp models")
        elif self.n_classes not in (0, 2 if self.kind == "logistic" else 0):
            raise ValueError("n_classes is only configurable for mlp models")

    @classmethod
    def quadratic(cls, n_features: int) -> "ModelSpec":
        return cls(kind="quadratic", n_features=n_features)

    @classmethod
    def logistic(cls, n_features: int) -> "ModelSpec":
        return cls(kind="logistic", n_features=n_features)

    @classmethod
    def mlp(cls, n_features: int, hidden: int, n_classes: int) -> "ModelSpec":
        return cls(kind="mlp", n_features=n_features, hidden=hidden, n_classes=n_classes)

    @property
    def dim(self) -> int:
        """Length of the flat parameter vector."""
        if self.kind == "quadratic":
            return self.n_features
        if self.kind == "logistic":
            return self.n_features + 1
        f, h, c = self.n_features, self.hidden, self.n_classes
        return f * h + h + h * c + c


@dataclass(frozen=True)
class ClientShard:
    """One client's slice of the training data plus its aggregation weight."""

    client_id: int
    data: Dataset
    weight: float

    def __post_init__(self) -> None:
        _checks.non_negative("client_id", self.client_id)
        _checks.in_range("weight", self.weight, 0, 1)
        _checks.positive("weight", self.weight)


def _check_params(model: ModelSpec, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (model.dim,):
        raise ValueError(f"expected parameter vector of length {model.dim}, got shape {w.shape}")
    return w


def _check_data(model: ModelSpec, data: Dataset) -> None:
    if data.n_features != model.n_features:
        raise ValueError(
            f"data has {data.n_features} features, model expects {model.n_features}"
        )
    if model.kind == "logistic":
        labels = np.asarray(data.labels)
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("logistic labels must be 0 or 1")
    elif model.kind == "mlp":
        labels = np.asarray(data.labels)
        if np.any(labels < 0) or np.any(labels >= model.n_classes):
            raise ValueError(f"mlp labels must lie in [0, {model.n_classes})")


def _sigmoid(z: np.ndarray, out=None, denominator=None, nonneg=None) -> np.ndarray:
    """The logistic function of ``z``, in ``out``; ``denominator`` and the
    bool ``nonneg`` are its work buffers, shaped like ``z`` and made where
    None.  ``out`` may be ``z``: the logistic step passes its kernel's own
    buffers, so it allocates nothing."""
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    # overflows; both share e = e^-|z|, formed in out (so the sign is read
    # first), which then becomes the numerator once 1 + e is taken
    nonneg = np.greater_equal(z, 0, out=nonneg)
    e = np.copysign(z, -1.0, out=out)
    np.exp(e, out=e)
    denominator = np.add(1.0, e, out=denominator)
    np.copyto(e, 1.0, where=nonneg)
    e /= denominator
    return e


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow for large |z|
    return np.maximum(z, 0.0) + np.log1p(np.exp(np.copysign(z, -1.0)))


def _unpack_mlp(model: ModelSpec, w: np.ndarray):
    """Views of the layer blocks of ``w``, over its last axis."""
    f, h, c = model.n_features, model.hidden, model.n_classes
    lead = w.shape[:-1]
    i = 0
    w1 = w[..., i : i + f * h].reshape(lead + (f, h))
    i += f * h
    b1 = w[..., i : i + h]
    i += h
    w2 = w[..., i : i + h * c].reshape(lead + (h, c))
    i += h * c
    b2 = w[..., i : i + c]
    return w1, b1, w2, b2


def _mlp_forward(layers, features: np.ndarray):
    """Forward pass for one client (``layers`` of a 1-D ``w``, ``features``
    2-D) or for a stack of them (of a ``(n, dim)`` plane, ``features`` is
    ``(n, b, f)``); ``layers`` is :func:`_unpack_mlp` of the parameters."""
    w1, b1, w2, b2 = layers
    pre = features @ w1 + b1[..., None, :]
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ w2 + b2[..., None, :]
    return pre, hidden, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _losses(model: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean objective at one parameter vector over each of a stack of row
    blocks.

    Raw arrays, no checks: ``w`` is ``(dim,)``, ``x`` is ``(n, b, f)`` and
    ``y`` is ``(n, b)`` in the kernels' label dtype.  Entry ``i`` is bit for
    bit what block ``i`` alone gets: each block keeps its own BLAS call
    inside the stacked ``matmul`` and its own mean over its rows.
    """
    n, b, _ = x.shape
    if model.kind == "quadratic":
        r = x @ w - y
        return 0.5 * np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0] / b
    if model.kind == "logistic":
        z = x @ w[:-1] + w[-1]
        # mean(axis=1) is add.reduce and a divide by the count, done here
        return np.add.reduce(_softplus(z) - y * z, axis=1) / b
    _, _, logits = _mlp_forward(_unpack_mlp(model, w), x)
    log_p = _log_softmax(logits)
    return -(np.add.reduce(log_p[np.arange(n)[:, None], np.arange(b), y], axis=1) / b)


def _gradient_kernel(model: ModelSpec, w: np.ndarray, out: np.ndarray):
    """The gradient step of :func:`loss` for a stack of clients at the
    parameter plane ``w``: a function of ``(x, y)`` that writes the
    gradients into ``out`` and returns it.

    Raw arrays, no checks: ``w`` and ``out`` are ``(n, dim)``, ``x`` is
    ``(n, b, f)`` and ``y`` is ``(n, b)``, float labels for the convex
    models and class ids for the mlp.  Row ``i`` of ``out`` is the gradient
    at ``w[i]`` over the rows ``x[i]``, ``y[i]``, bit for bit what one
    client alone gets: every product is the stacked form of the single
    client's ``matmul``, so each client keeps its own BLAS call, and every
    sum runs over one client's axis in the same order.  The views of ``w``
    and ``out`` are made here, once, so the step reads ``w`` as it is when
    called: a plane stepped in place needs no new kernel.

    The logistic step's temporaries (``z``, the sigmoid's buffers and the
    residual) live in the kernel, made at its first call, so after that it
    allocates nothing; every call must give the first call's row count.  A
    step's result and residual hold only until its next call.  The mlp
    step still allocates its temporaries: buffering them gained nothing
    measurable.
    """
    if model.kind == "quadratic":
        w_col, out_col = w[:, :, None], out[:, :, None]

        def step(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            r = np.matmul(x, w_col)[:, :, 0] - y
            np.matmul(x.swapaxes(1, 2), r[:, :, None], out=out_col)
            return np.divide(out, x.shape[1], out=out)

        return step
    if model.kind == "logistic":
        w_col, bias = w[:, :-1, None], w[:, -1:]
        out_col, out_bias = out[:, :-1, None], out[:, -1]
        scratch = None  # z, then the residual, its column, 1 + e^-|z| and z >= 0

        def step(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            nonlocal scratch
            if scratch is None:  # the first call
                z = np.empty(y.shape)
                scratch = z, z[:, :, None], np.empty(y.shape), np.empty(y.shape, dtype=bool)
            z, z_col, denominator, nonneg = scratch
            # the bias goes through the denominator's buffer: a ufunc given
            # it broadcast over clients buffers it; y, a step's contiguous
            # labels in the gather buffer, is subtracted as it is
            np.matmul(x, w_col, out=z_col)
            np.copyto(denominator, bias)
            z += denominator
            _sigmoid(z, z, denominator, nonneg)
            z -= y
            np.matmul(x.swapaxes(1, 2), z_col, out=out_col)
            np.add.reduce(z, axis=1, out=out_bias)  # the residual's mean once divided, as in _losses
            return np.divide(out, x.shape[1], out=out)

        return step
    layers = _unpack_mlp(model, w)
    w2_t = layers[2].swapaxes(1, 2)
    g_w1, g_b1, g_w2, g_b2 = _unpack_mlp(model, out)
    clients = np.arange(len(w))[:, None]

    def step(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        b = x.shape[1]
        pre, hidden, logits = _mlp_forward(layers, x)
        probs = np.exp(_log_softmax(logits))
        probs[clients, np.arange(b), y] -= 1.0
        probs /= b
        np.matmul(hidden.swapaxes(1, 2), probs, out=g_w2)
        g_b2[...] = probs.sum(axis=1)
        back = np.matmul(probs, w2_t) * (pre > 0.0)
        np.matmul(x.swapaxes(1, 2), back, out=g_w1)
        g_b1[...] = back.sum(axis=1)
        return out

    return step


def _labels(model: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """Labels in the dtype the kernels take: class ids for the mlp, floats
    otherwise."""
    return np.asarray(labels, dtype=np.int64 if model.kind == "mlp" else np.float64)


# bytes of minibatch rows gathered at once, and of the sampler's index plane
_GATHER_BYTES = 1 << 20


class _BatchWorkspace:
    """Every block-sized array :func:`_draw_batches` fills, one stream's
    doubles, and the constants it reads, for minibatches of ``batch_size``
    of ``ms[i]`` rows from stream ``i``, at most ``count`` per stream a
    call.  Built once, so a draw makes no array of its size; a draw of
    fewer minibatches uses a prefix of each buffer.  The index plane's
    chunks of rows are sized here, from ``_GATHER_BYTES``.  Every
    ``ms[i]`` must exceed ``batch_size``.
    """

    def __init__(self, ms: Sequence[int], batch_size: int, count: int) -> None:
        b = batch_size
        if not all(b < m for m in ms):
            raise ValueError(f"need batch_size < m rows, got {b} of {list(ms)}")
        self.ms, self.batch_size = list(ms), b
        width = max(ms)
        dtype = np.min_scalar_type(width)
        size = len(ms) * count * b
        self.u = np.empty(count * b)
        self.targets = np.empty(size, dtype=np.intp)
        self.entries = np.empty(size, dtype=dtype)
        self.result = np.empty(size, dtype=dtype)
        # step i of a stream's shuffle scales its draw by m - i, then offsets
        # the target by i; a plane row starts at a multiple of the width
        self.scale = np.asarray(ms, dtype=np.float64)[:, None] - np.arange(b)
        self.step = np.arange(b)[:, None]
        self.chunk_rows = max(1, min(len(ms) * count, _GATHER_BYTES // (width * dtype.itemsize)))
        self.offsets = np.arange(0, self.chunk_rows * width, width)
        self.template = np.arange(width, dtype=dtype)
        self.plane = np.empty(self.chunk_rows * width, dtype=dtype)


def _draw_batches(workspace: _BatchWorkspace, rngs: Sequence, count: int) -> np.ndarray:
    """Minibatch row indices, ``count`` per stream: entry ``[i, t]`` is the
    ``t``-th minibatch of ``batch_size`` of ``ms[i]`` rows from ``rngs[i]``,
    the sizes those of ``workspace``.  The result is a view into
    ``workspace``, which the next draw through it overwrites.

    A minibatch reads ``b`` doubles ``u`` from its stream and is the first
    ``b`` entries of a partial Fisher-Yates shuffle of ``arange(m)``: step
    ``i`` swaps positions ``i`` and ``j = i + floor(u[i] * (m - i))``.  It is
    a function of its draws alone, and a stream's minibatches read
    consecutive draws, so one call for ``count`` minibatches equals
    ``count`` calls for one.  All the shuffles run in lockstep on an index
    plane of a row per minibatch, ``max(ms)`` wide in the narrowest dtype
    that holds ``max(ms)``, in chunks of rows within ``_GATHER_BYTES`` (one
    row at least).  No later step reads position ``i``, so step ``i`` writes
    the entry at ``j`` straight to the result, as the minibatch's entry
    ``i``, and moves the entry at ``i`` to ``j``: two NumPy calls a step.
    """
    ws, b = workspace, workspace.batch_size
    n_rows, size, width = len(ws.ms) * count, len(ws.ms) * count * b, len(ws.template)
    # each row's swap targets, offsets from its row's start in the plane,
    # indexed (step, row) so that a step's targets, and results, are
    # contiguous; a stream's doubles at a time, so they need one stream's room
    u = ws.u[: count * b].reshape(count, b)
    targets = ws.targets[:size].reshape(b, n_rows)
    for i, (rng, scale) in enumerate(zip(rngs, ws.scale)):
        rng.random(out=u)
        u *= scale
        np.copyto(targets[:, i * count : (i + 1) * count].T, u, casting="unsafe")
    targets += ws.step
    out = ws.entries[:size].reshape(b, n_rows)
    for a in range(0, n_rows, ws.chunk_rows):
        n = min(ws.chunk_rows, n_rows - a)
        plane = ws.plane[: n * width]
        grid = plane.reshape(n, width)
        grid[...] = ws.template
        steps = targets[:, a : a + n]
        steps += ws.offsets[:n]
        for i, (j, entries) in enumerate(zip(steps, out[:, a : a + n])):
            plane.take(j, out=entries, mode="clip")  # j is in range: "clip" skips a buffered out
            plane[j] = grid[:, i]
    result = ws.result[:size].reshape(n_rows, b)
    np.copyto(result, out.T)
    return result.reshape(len(ws.ms), count, b)


def loss(model: ModelSpec, w: np.ndarray, data: Dataset) -> float:
    """Mean objective value over the rows of ``data``."""
    w = _check_params(model, w)
    _check_data(model, data)
    y = _labels(model, data.labels)
    return float(_losses(model, w, data.features[None], y[None])[0])


def gradient(model: ModelSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Exact gradient of :func:`loss` at ``w`` over the rows of ``data``."""
    w = _check_params(model, w)
    _check_data(model, data)
    out = np.empty((1, model.dim))
    y = _labels(model, data.labels)
    return _gradient_kernel(model, w[None], out)(data.features[None], y[None])[0]


def sample_batch(
    data: Dataset, batch_size: int, rng: np.random.Generator
) -> Dataset:
    """Uniform minibatch without replacement.

    When ``batch_size`` covers the whole dataset the data is returned as-is
    and the generator is left untouched.
    """
    _checks.at_least("batch_size", batch_size, 1)
    if batch_size >= data.m:
        return data
    return data.subset(_draw_batches(_BatchWorkspace([data.m], batch_size, 1), [rng], 1)[0, 0])


def accuracy(model: ModelSpec, w: np.ndarray, data: Dataset) -> float:
    """Fraction of rows classified correctly; classifiers only."""
    w = _check_params(model, w)
    _check_data(model, data)
    if model.kind == "logistic":
        z = data.features @ w[:-1] + w[-1]
        pred = (z > 0.0).astype(np.int64)
        return float(np.mean(pred == np.asarray(data.labels, dtype=np.int64)))
    if model.kind == "mlp":
        _, _, logits = _mlp_forward(_unpack_mlp(model, w), data.features)
        pred = logits.argmax(axis=1)
        return float(np.mean(pred == np.asarray(data.labels, dtype=np.int64)))
    raise ValueError("accuracy is undefined for quadratic models")


def init_params(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial parameter vector: zeros for the convex models, scaled normal
    weights (zero biases) for the mlp."""
    if model.kind in ("quadratic", "logistic"):
        return np.zeros(model.dim)
    f, h, c = model.n_features, model.hidden, model.n_classes
    w1 = rng.standard_normal((f, h)) * np.sqrt(2.0 / f)
    w2 = rng.standard_normal((h, c)) * np.sqrt(2.0 / h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def generate_synthetic(
    kind: str,
    m: int,
    n_features: int,
    noise: float = 0.0,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    n_classes: int = 2,
) -> Dataset:
    """Draw a synthetic task from a planted model.

    ``kind`` is ``"regression"`` (Gaussian features, linear targets plus
    Gaussian noise of the given strength) or ``"classification"`` (linear
    or, for ``n_classes > 2``, argmax-linear labels with ``noise`` as the
    label-flip probability).
    """
    if kind not in _DATA_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    _checks.at_least("m and n_features", np.array([m, n_features]), 1)
    _checks.non_negative("noise", noise)
    if kind == "classification":
        _checks.in_range("label-flip noise", noise, 0, 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n_features))
    if kind == "regression":
        planted = rng.standard_normal(n_features) / np.sqrt(n_features)
        y = x @ planted
        if noise > 0.0:
            y = y + noise * rng.standard_normal(m)
        _checks.finite("labels", y)  # a huge noise overflows
        return Dataset._adopt(x, y, planted)
    _checks.at_least("n_classes", n_classes, 2)
    if n_classes == 2:
        planted = rng.standard_normal(n_features)
        y = (x @ planted > 0.0).astype(np.int64)
        if noise > 0.0:
            flip = rng.random(m) < noise
            y = np.where(flip, 1 - y, y)
        return Dataset._adopt(x, y, planted)
    planted = rng.standard_normal((n_features, n_classes))
    y = (x @ planted).argmax(axis=1).astype(np.int64)
    if noise > 0.0:
        flip = rng.random(m) < noise
        shift = rng.integers(1, n_classes, size=m)
        y = np.where(flip, (y + shift) % n_classes, y)
    return Dataset._adopt(x, y, planted.ravel())


def _partition_order(labels: np.ndarray, mode: str, seed) -> np.ndarray:
    """The order :func:`partition` deals the rows of ``labels`` in: a uniform
    permutation for ``iid``, a stable sort by label for ``sorted_label``."""
    if mode == "iid":
        return np.random.default_rng(seed).permutation(len(labels))
    if mode == "sorted_label":
        return np.argsort(np.asarray(labels), kind="stable")
    raise ValueError(f"unknown partition mode {mode!r}, expected one of {_PARTITION_MODES}")


def _deal(block: Dataset, n: int) -> list[ClientShard]:
    """``n`` shards of consecutive rows of ``block``, in order, sizes within
    one of each other and the larger first, each a view of ``block``."""
    _checks.in_range("clients", n, 1, block.m)
    base, extra = divmod(block.m, n)
    shards, start = [], 0
    for i in range(n):
        size = base + (i < extra)
        shards.append(ClientShard(i, block.subset(slice(start, start + size)), size / block.m))
        start += size
    return shards


def partition(
    data: Dataset,
    n: int,
    mode: str = "iid",
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> list[ClientShard]:
    """Split ``data`` into ``n`` client shards weighted by shard size.

    ``iid`` shuffles rows uniformly; ``sorted_label`` orders rows by label
    before slicing, so each client sees a narrow label range.  The rows are
    gathered once, in that order, and each shard is a view of the block.
    """
    return _deal(data.subset(_partition_order(data.labels, mode, seed)), n)


def load_delimited(
    path: str, kind: str = "classification", delimiter: str | None = None
) -> Dataset:
    """Read a numeric table; last column is the label, the rest features.
    With no ``delimiter``, a comma in the first data line makes the table
    comma-delimited, else whitespace-delimited."""
    if kind not in _DATA_KINDS:
        raise ValueError(f"unknown data kind {kind!r}")
    if delimiter is None:
        with open(path, encoding="utf-8") as fh:
            first = next((line for line in fh if line.split("#", 1)[0].strip()), "")
        delimiter = "," if "," in first.split("#", 1)[0] else None
    try:
        table = np.loadtxt(path, delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"could not parse {path}: {exc}") from exc
    if table.size == 0 or table.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label column")
    features = table[:, :-1]
    labels = table[:, -1]
    if kind == "classification":
        rounded = np.rint(labels)
        if not np.allclose(labels, rounded):
            raise ValueError(f"{path}: classification labels must be integers")
        labels = rounded.astype(np.int64)
    return Dataset(features=features, labels=labels)

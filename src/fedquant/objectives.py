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

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if not np.all(np.isfinite(labels.astype(np.float64))):
            raise ValueError("labels must be finite")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if self.planted_params is not None:
            planted = np.asarray(self.planted_params, dtype=np.float64).copy()
            planted.setflags(write=False)
            object.__setattr__(self, "planted_params", planted)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            planted_params=self.planted_params,
        )


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
        if self.n_features < 1:
            raise ValueError("n_features must be at least 1")
        if self.kind == "mlp":
            if self.hidden < 1:
                raise ValueError("mlp requires hidden >= 1")
            if self.n_classes < 2:
                raise ValueError("mlp requires n_classes >= 2")
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
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    # overflows; both share e = e^-|z|
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow for large |z|
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


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


def _mlp_forward(model: ModelSpec, w: np.ndarray, features: np.ndarray):
    """Forward pass for one client (``w`` 1-D, ``features`` 2-D) or for a
    stack of them (``w`` is ``(n, dim)``, ``features`` is ``(n, b, f)``)."""
    w1, b1, w2, b2 = _unpack_mlp(model, w)
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
        return (_softplus(z) - y * z).mean(axis=1)
    _, _, logits = _mlp_forward(model, w, x)
    log_p = _log_softmax(logits)
    return -log_p[np.arange(n)[:, None], np.arange(b), y].mean(axis=1)


def _gradients(
    model: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Gradients of :func:`loss` for a stack of clients, written into ``out``.

    Raw arrays, no checks: ``w`` and ``out`` are ``(n, dim)``, ``x`` is
    ``(n, b, f)`` and ``y`` is ``(n, b)``, float labels for the convex
    models and class ids for the mlp.  Row ``i`` of ``out`` is the gradient
    at ``w[i]`` over the rows ``x[i]``, ``y[i]``, bit for bit what one
    client alone gets: every product is the stacked form of the single
    client's ``matmul``, so each client keeps its own BLAS call, and every
    sum runs over one client's axis in the same order.
    """
    n, b, _ = x.shape
    xt = x.swapaxes(1, 2)
    if model.kind == "quadratic":
        r = np.matmul(x, w[:, :, None])[:, :, 0] - y
        np.matmul(xt, r[:, :, None], out=out[:, :, None])
        out /= b
        return out
    if model.kind == "logistic":
        z = np.matmul(x, w[:, :-1, None])[:, :, 0] + w[:, -1:]
        resid = _sigmoid(z) - y
        np.matmul(xt, resid[:, :, None], out=out[:, :-1, None])
        out[:, :-1] /= b
        out[:, -1] = resid.mean(axis=1)
        return out
    pre, hidden, logits = _mlp_forward(model, w, x)
    probs = np.exp(_log_softmax(logits))
    probs[np.arange(n)[:, None], np.arange(b), y] -= 1.0
    probs /= b
    g_w1, g_b1, g_w2, g_b2 = _unpack_mlp(model, out)
    np.matmul(hidden.swapaxes(1, 2), probs, out=g_w2)
    g_b2[...] = probs.sum(axis=1)
    back = np.matmul(probs, _unpack_mlp(model, w)[2].swapaxes(1, 2)) * (pre > 0.0)
    np.matmul(xt, back, out=g_w1)
    g_b1[...] = back.sum(axis=1)
    return out


def _labels(model: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """Labels in the dtype the kernels take: class ids for the mlp, floats
    otherwise."""
    return np.asarray(labels, dtype=np.int64 if model.kind == "mlp" else np.float64)


# Generator.choice(m, b, replace=False) (numpy/random/_generator.pyx) takes
# a sample with Floyd's algorithm and shuffles it, unless m > 10000 and
# b > m // 50, where it shuffles the tail of arange(m) instead.  Every bound
# it draws under is fixed by (m, b), so all the draws of many calls can be
# made at once and the steps that depend on their values applied after.
_FLOYD_MAX_ROWS = 10000
_TAIL_CUTOFF = 50
_U32 = 1 << 32


class _ChoicePlan:
    """What ``count`` calls of ``choice(m, b, replace=False)`` draw on each
    of a list of streams, and the constants that turn the draws into
    samples.  Built once per shape, and shared: its arrays are read-only."""

    def __init__(self, ms: tuple[int, ...], b: int, count: int) -> None:
        if not all(b < m <= _U32 for m in ms):
            raise ValueError(f"need batch_size < m <= 2**32 rows, got {b} of {ms}")
        self.b = b
        self.floyd = [m <= _FLOYD_MAX_ROWS or b <= m // _TAIL_CUTOFF for m in ms]
        self.sizes = [(2 * b - 1 if fl else b) * count for fl in self.floyd]
        highs = np.concatenate([
            # Floyd: one draw below j + 1 for j = m-b .. m-1, then the
            # shuffle's swaps below i + 1 for i = b-1 .. 1; tail: swaps for
            # i = m-1 .. m-b
            np.tile(np.r_[m - b + 1 : m + 1, b:1:-1] if fl else np.r_[m : m - b : -1], count)
            for m, fl in zip(ms, self.floyd)
        ]).astype(np.uint64)
        self.highs, self.thresholds = highs, (_U32 - highs) % highs
        # the words of the raw layout of bit generators that draws use: not
        # the spare high half of an odd stream's last 64-bit word
        pairs = [(n + 1) // 2 * 2 for n in self.sizes]
        self.used = None if pairs == self.sizes else np.concatenate(
            [np.arange(p) < n for p, n in zip(pairs, self.sizes)]
        )
        # sort keys (draw << shift | tag): Floyd draw k tagged k; the swap of
        # step i tagged i and placed after all of them by ``offset``
        self.shift = b.bit_length()
        self.offset = 1 << max(ms).bit_length()
        self.code = np.r_[0:b, (self.offset << self.shift) + np.arange(b - 1, 0, -1)]
        rows = self.floyd.count(True) * count
        self.lo = np.repeat([m - b for m, fl in zip(ms, self.floyd) if fl], count)[:, None]
        self.j = self.lo + np.arange(b)
        self.k = np.arange(b, dtype=np.uint64)
        self.base = b * np.arange(rows)[:, None]
        # flat index of each row's Floyd draw 0 in the pointer forest
        self.draw_base = self.base + rows * b
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@functools.lru_cache(maxsize=64)
def _choice_plan(ms: tuple[int, ...], b: int, count: int) -> _ChoicePlan:
    return _ChoicePlan(ms, b, count)


def _stream_words(streams, plan: _ChoicePlan) -> tuple[np.ndarray, Callable]:
    """The 32-bit words every stream's draws start from, in order, and a
    function giving stream ``i``'s next word after them.

    A ``Generator`` is read through ``integers(0, 2**32, dtype=uint32)``,
    word by word as its bounded draws read it, whatever its bit generator
    and state.  A bare ``PCG64`` is read as a fresh ``Generator`` on it
    would be: the low, then the high half of each raw 64-bit output; that
    read costs a tenth of the ``integers`` call, which costs about what a
    ``choice`` call does.
    """
    if isinstance(streams[0], np.random.Generator):
        words = np.concatenate(
            [g.integers(0, _U32, n, dtype=np.uint32) for g, n in zip(streams, plan.sizes)]
        )
        return words, lambda i: streams[i].integers(0, _U32, 1, dtype=np.uint32)
    raw = np.concatenate([bg.random_raw((n + 1) // 2) for bg, n in zip(streams, plan.sizes)])
    full = np.empty(2 * len(raw), dtype=np.uint32)
    full[0::2], full[1::2] = raw, raw >> 32
    words = full if plan.used is None else full[plan.used]
    spares: dict[int, list[int]] = {}

    def more(i: int) -> np.ndarray:
        if i not in spares:  # an odd stream's spare half word comes first
            end = sum((n + 1) // 2 * 2 for n in plan.sizes[: i + 1])
            spares[i] = [int(full[end - 1])] if plan.sizes[i] % 2 else []
        if not spares[i]:
            r = int(streams[i].random_raw())
            spares[i] = [r & 0xFFFF_FFFF, r >> 32]
        return np.array([spares[i].pop(0)], dtype=np.uint32)

    return words, more


def _bounded(streams, plan: _ChoicePlan) -> np.ndarray:
    """Every draw of the plan, as ``Generator.integers`` makes it.

    Below 2**32 NumPy draws with Lemire's method on 32-bit words: ``word *
    high`` keeps its high half unless the low half falls below the
    threshold, when the next word is tried; about one word in ``2**32 /
    high`` is.
    """
    words, more = _stream_words(streams, plan)
    highs, thresholds = plan.highs, plan.thresholds
    prod = words * highs
    if ((prod & 0xFFFF_FFFF) < thresholds).any():
        for i, (end, n) in enumerate(zip(itertools.accumulate(plan.sizes), plan.sizes)):
            seg = slice(end - n, end)
            w = words[seg]
            while (bad := np.flatnonzero((w * highs[seg] & 0xFFFF_FFFF) < thresholds[seg])).size:
                w = np.concatenate([w[: bad[0]], w[bad[0] + 1 :], more(i)])
            prod[seg] = w * highs[seg]
    return (prod >> 32).astype(np.int64)


def _link_swaps(ptr, target, step, base, first):
    """Point each position of a swap sequence at where its value comes from.

    Position ``i`` is swapped with ``target <= i`` for ``i`` from the last
    step down to ``first``; each row holds its swaps sorted by (target,
    step), and ``base`` is the flat index in ``ptr`` of a row's position 0.
    A position ``p`` holds what the first swap after step ``p`` into it
    brought (a swap of ``p`` with itself moves nothing), and that swap
    brings what position ``i`` held just before it: chains to higher steps.
    """
    node = step + base
    repeat = target[:, 1:] == target[:, :-1]
    noop = target == step
    lead = ~noop
    lead[:, 1:] &= ~repeat | noop[:, :-1]
    if first > 1:
        lead &= target >= first - 1
    into = target + base
    ptr[into[lead]] = node[lead]
    return node, repeat, into


def _roots(ptr: np.ndarray) -> np.ndarray:
    """Follow every pointer of a forest to its root, a node pointing to
    itself, by pointer doubling.  A shuffle's chains seldom pass 8 links,
    so three doublings go unchecked."""
    for _ in range(3):
        ptr = ptr[ptr]
    while not ((nxt := ptr[ptr]) == ptr).all():
        ptr = nxt
    return ptr


def _sources(ptr, node, repeat, into):
    """After :func:`_roots`: step ``i`` takes what its target held, the
    value of the next swap into the same target or the target's own.
    Returns ``ptr`` with each step's position pointing at its source."""
    into[:, :-1][repeat] = ptr[node[:, 1:][repeat]]
    ptr[node] = into
    return ptr


def _floyd_choice(u: np.ndarray, plan: _ChoicePlan) -> np.ndarray:
    """Samples from rows of Floyd-regime draws: ``b`` for Floyd's algorithm,
    then ``b - 1`` for the shuffle's swaps.

    Floyd's draw ``k`` lies below ``j + 1`` for ``j = m - b + k`` and is
    kept unless the sample holds it already, when ``j`` is taken: the
    sample holds it when an earlier draw equals it, or when it is an
    earlier ``j`` that was taken.  Both chains, this and the swaps', are
    followed in one pointer forest: the shuffle's positions (flat, as in
    the sample) and then the Floyd draws.
    """
    n_rows, b = len(u), plan.b
    flat = n_rows * b
    keys = u << plan.shift | plan.code
    keys.sort(axis=1)
    value, tag = keys >> plan.shift, keys & ((1 << plan.shift) - 1)
    draws, v, k = u[:, :b], value[:, :b], tag[:, :b]
    ptr = np.arange(2 * flat)
    repeated = np.zeros(2 * flat, dtype=bool)
    repeated[(k[:, 1:] + plan.draw_base)[v[:, 1:] == v[:, :-1]]] = True
    earlier = draws - plan.lo
    chain = (earlier.view(np.uint64) < plan.k) & ~repeated[flat:].reshape(n_rows, b)
    ptr[flat:][chain.reshape(-1)] = (earlier + plan.draw_base)[chain]
    if b > 1:
        swaps = _link_swaps(ptr, value[:, b:] - plan.offset, tag[:, b:], plan.base, 1)
    ptr = _roots(ptr)
    sample = np.where(repeated[ptr[flat:]].reshape(n_rows, b), plan.j, draws)
    if b == 1:
        return sample
    return sample.reshape(-1)[_sources(ptr, *swaps)[:flat]].reshape(n_rows, b)


def _tail_choice(u: np.ndarray, m: int, b: int) -> np.ndarray:
    """Samples from rows of tail-regime draws: the swaps of steps ``m-1``
    down to ``m-b`` on ``arange(m)``, whose last ``b`` entries are taken."""
    count, first, width = len(u), m - b, b + 1
    shift = b.bit_length()
    keys = u[:, ::-1] << shift | np.arange(b)
    keys.sort(axis=1)
    base = width * np.arange(count)[:, None] - (first - 1)
    ptr = np.arange(count * width)
    swaps = _link_swaps(ptr, keys >> shift, (keys & ((1 << shift) - 1)) + first, base, first)
    ptr = _sources(_roots(ptr), *swaps)
    return (ptr.reshape(count, width) - base)[:, 1:]


def _draw_batches(streams, ms: Sequence[int], batch_size: int, count: int = 1) -> np.ndarray:
    """Minibatch row indices for several streams, ``count`` each.

    Entry ``[i, t]`` is bit for bit what the ``t``-th of ``count``
    successive ``choice(ms[i], batch_size, replace=False)`` calls of a
    ``Generator`` on stream ``i`` return.  ``streams`` are all Generators,
    left in the state those calls leave, or all ``PCG64`` bit generators
    that no ``Generator`` has read from, read as a fresh one would be and
    left advanced by the 64-bit words read.  Each stream is read once, for all
    its draws; Floyd's duplicate replacement and the shuffles then run on
    all minibatches together.  Every ``ms[i]`` must exceed ``batch_size``.
    """
    b = batch_size
    plan = _choice_plan(tuple(ms), b, count)
    draws = _bounded(streams, plan)
    if all(plan.floyd):
        return _floyd_choice(draws.reshape(-1, 2 * b - 1), plan).reshape(len(ms), count, b)
    out = np.empty((len(ms), count, b), dtype=np.int64)
    rows, segments = [], []
    for i, (m, fl, end, n) in enumerate(
        zip(ms, plan.floyd, itertools.accumulate(plan.sizes), plan.sizes)
    ):
        seg = draws[end - n : end].reshape(count, -1)
        if fl:
            rows.append(i)
            segments.append(seg)
        else:
            out[i] = _tail_choice(seg, m, b)
    if rows:
        u = np.concatenate(segments)
        out[rows] = _floyd_choice(u, plan).reshape(len(rows), count, b)
    return out


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
    return _gradients(model, w[None], data.features[None], y[None], out)[0]


def sample_batch(
    data: Dataset, batch_size: int, rng: np.random.Generator
) -> Dataset:
    """Uniform minibatch without replacement.

    When ``batch_size`` covers the whole dataset the data is returned as-is
    and the generator is left untouched.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if batch_size >= data.m:
        return data
    return data.subset(_draw_batches([rng], [data.m], batch_size)[0, 0])


def accuracy(model: ModelSpec, w: np.ndarray, data: Dataset) -> float:
    """Fraction of rows classified correctly; classifiers only."""
    w = _check_params(model, w)
    _check_data(model, data)
    if model.kind == "logistic":
        z = data.features @ w[:-1] + w[-1]
        pred = (z > 0.0).astype(np.int64)
        return float(np.mean(pred == np.asarray(data.labels, dtype=np.int64)))
    if model.kind == "mlp":
        _, _, logits = _mlp_forward(model, w, data.features)
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
    if m < 1 or n_features < 1:
        raise ValueError("m and n_features must be at least 1")
    if noise < 0.0:
        raise ValueError("noise must be non-negative")
    if kind == "classification" and not 0.0 <= noise <= 1.0:
        raise ValueError("label-flip noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n_features))
    if kind == "regression":
        planted = rng.standard_normal(n_features) / np.sqrt(n_features)
        y = x @ planted
        if noise > 0.0:
            y = y + noise * rng.standard_normal(m)
        return Dataset(features=x, labels=y, planted_params=planted)
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if n_classes == 2:
        planted = rng.standard_normal(n_features)
        y = (x @ planted > 0.0).astype(np.int64)
        if noise > 0.0:
            flip = rng.random(m) < noise
            y = np.where(flip, 1 - y, y)
        return Dataset(features=x, labels=y, planted_params=planted)
    planted = rng.standard_normal((n_features, n_classes))
    y = (x @ planted).argmax(axis=1).astype(np.int64)
    if noise > 0.0:
        flip = rng.random(m) < noise
        shift = rng.integers(1, n_classes, size=m)
        y = np.where(flip, (y + shift) % n_classes, y)
    return Dataset(features=x, labels=y, planted_params=planted.ravel())


def partition(
    data: Dataset,
    n: int,
    mode: str = "iid",
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> list[ClientShard]:
    """Split ``data`` into ``n`` client shards weighted by shard size.

    ``iid`` shuffles rows uniformly; ``sorted_label`` orders rows by label
    before slicing, so each client sees a narrow label range.
    """
    if not 1 <= n <= data.m:
        raise ValueError(f"need 1 <= n <= {data.m} clients, got {n}")
    if mode == "iid":
        order = np.random.default_rng(seed).permutation(data.m)
    elif mode == "sorted_label":
        order = np.argsort(np.asarray(data.labels), kind="stable")
    else:
        raise ValueError(f"unknown partition mode {mode!r}, expected one of {_PARTITION_MODES}")
    base, extra = divmod(data.m, n)
    shards = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        rows = order[start : start + size]
        start += size
        shards.append(
            ClientShard(client_id=i, data=data.subset(rows), weight=size / data.m)
        )
    return shards


def load_delimited(
    path: str, kind: str = "classification", delimiter: str | None = None
) -> Dataset:
    """Read a numeric table; last column is the label, the rest features."""
    if kind not in _DATA_KINDS:
        raise ValueError(f"unknown data kind {kind!r}")
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

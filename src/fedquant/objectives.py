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
        # mean(axis=1) is add.reduce and a divide by the count, done here
        return np.add.reduce(_softplus(z) - y * z, axis=1) / b
    _, _, logits = _mlp_forward(model, w, x)
    log_p = _log_softmax(logits)
    return -(np.add.reduce(log_p[np.arange(n)[:, None], np.arange(b), y], axis=1) / b)


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
        out[:, -1] = np.add.reduce(resid, axis=1) / b  # resid.mean(axis=1), as in _losses
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


class _Regime:
    """The streams of a plan in one of ``choice``'s regimes: their
    positions in the plan's list and the bounds one call draws under, a
    row per distinct row count ``ms[r]``; stream ``positions[i]`` has row
    ``rows[i]``.  The rows are broadcast over the calls, and over the
    streams when they share one, so they do not grow with either."""

    def __init__(self, positions: list[int], ms: list[int], bounds: Callable) -> None:
        self.positions = positions
        self.ms, self.rows = np.unique(ms, return_inverse=True)
        self.highs = np.array([bounds(m) for m in self.ms.tolist()], dtype=np.uint64)[:, None]
        self.thresholds = ((_U32 - self.highs) % self.highs).astype(np.uint32)
        for value in (self.ms, self.rows, self.highs, self.thresholds):
            value.setflags(write=False)


@functools.lru_cache(maxsize=64)
def _choice_plan(ms: tuple[int, ...], b: int) -> tuple[_Regime | None, _Regime | None]:
    """The streams of ``ms`` rows in Floyd's regime of ``choice(m, b,
    replace=False)`` and those in the tail regime, each None when no
    stream is in it.  Built once per shape, and shared."""
    if not all(b < m <= _U32 for m in ms):
        raise ValueError(f"need batch_size < m <= 2**32 rows, got {b} of {ms}")
    floyd = [i for i, m in enumerate(ms) if m <= _FLOYD_MAX_ROWS or b <= m // _TAIL_CUTOFF]
    tail = sorted(set(range(len(ms))) - set(floyd))
    # Floyd: one draw below j + 1 for j = m-b .. m-1, then the shuffle's
    # swaps below i + 1 for i = b-1 .. 1; tail: swaps for i = m-1 .. m-b
    bounds = (lambda m: np.r_[m - b + 1 : m + 1, b:1:-1], lambda m: np.r_[m : m - b : -1])
    return tuple(
        _Regime(positions, [ms[i] for i in positions], bound) if positions else None
        for positions, bound in zip((floyd, tail), bounds)
    )


def _stream_words(streams, n: int) -> tuple[np.ndarray, Callable]:
    """The first ``n`` 32-bit words each stream's draws read, a row per
    stream held in 64 bits, and a function giving stream ``i``'s next word
    after them.

    A ``Generator`` is read through ``integers(0, 2**32, dtype=uint32)``,
    word by word as its bounded draws read it, whatever its bit generator
    and state.  A bare ``PCG64`` is read as a fresh ``Generator`` on it
    would be: the low, then the high half of each raw 64-bit output; that
    read costs a tenth of the ``integers`` call, which costs about what a
    ``choice`` call does.
    """
    if isinstance(streams[0], np.random.Generator):
        words = np.stack([g.integers(0, _U32, n, dtype=np.uint32) for g in streams])
        return words.astype(np.uint64), lambda i: streams[i].integers(0, _U32, 1, dtype=np.uint32)
    raw = np.concatenate([bg.random_raw((n + 1) // 2) for bg in streams]).reshape(len(streams), -1)
    full = np.empty((len(streams), 2 * raw.shape[1]), dtype=np.uint64)
    np.bitwise_and(raw, 0xFFFF_FFFF, out=full[:, 0::2])
    np.right_shift(raw, 32, out=full[:, 1::2])
    spares: dict[int, list[int]] = {}

    def more(i: int) -> np.ndarray:
        if i not in spares:  # an odd stream's spare half word comes first
            spares[i] = [int(full[i, n])] if n % 2 else []
        if not spares[i]:
            r = int(streams[i].random_raw())
            spares[i] = [r & 0xFFFF_FFFF, r >> 32]
        return np.array([spares[i].pop(0)], dtype=np.uint32)

    return full[:, :n], more


def _bounded(streams, regime: _Regime, count: int) -> np.ndarray:
    """Every draw of ``count`` calls on each of the regime's streams, as
    ``Generator.integers`` makes it: uint32, indexed (stream, call, draw).

    Below 2**32 NumPy draws with Lemire's method on 32-bit words: ``word *
    high`` keeps its high half unless the low half falls below the
    threshold, when the next word is tried; about one word in ``2**32 /
    high`` is.
    """
    rows = slice(None) if len(regime.ms) == 1 else regime.rows  # one row broadcasts
    highs, thresholds = regime.highs[rows], regime.thresholds[rows]
    words, more = _stream_words(streams, count * highs.shape[-1])
    prod = words.reshape(len(streams), count, -1)
    prod *= highs  # in place: each word is prod // high
    low = prod.astype(np.uint32)
    rejected = low < thresholds
    if rejected.any():
        for i in np.flatnonzero(rejected.any(axis=(1, 2))):
            h, t = (np.broadcast_to(a, prod.shape)[i].ravel() for a in (highs, thresholds))
            w = prod[i].ravel() // h
            while (bad := np.flatnonzero((w * h & 0xFFFF_FFFF) < t)).size:
                w = np.concatenate([w[: bad[0]], w[bad[0] + 1 :], more(i)])
            prod[i] = (w * h).reshape(count, -1)
    prod >>= 32
    low[...] = prod
    return low


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


def _floyd_taken(u: np.ndarray, sample: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Which of Floyd's draws, ``sample`` indexed (step, row), are not kept:
    flat, like ``sample``.  Draw ``k`` of a row lies below ``j + 1`` for
    ``j = lo + k`` and is not kept when the sample holds it already: when
    an earlier draw of its row equals it, or when it is the ``j`` of an
    earlier step whose draw was not kept, which ``j`` the sample then
    holds."""
    b, n = sample.shape
    taken = np.zeros(b * n, dtype=bool)
    # draws equal to an earlier one: each row's (draw, step) keys, sorted
    shift = b.bit_length()
    narrow = (int(lo.max()) + b) << shift <= _U32
    keys = u[:, :b].astype(np.uint32 if narrow else np.uint64)
    keys <<= shift
    keys |= np.arange(b, dtype=keys.dtype)
    keys.sort(axis=1)
    keys = keys.reshape(-1)
    repeat = (keys[1:] >> shift) == (keys[:-1] >> shift)
    repeat[b - 1 :: b] = False  # a row's first key follows the last row's last
    later = np.flatnonzero(repeat) + 1
    taken[(keys[later] & ((1 << shift) - 1)).astype(np.intp) * n + later // b] = True
    # draws equal to an earlier step's j (below lo the difference wraps);
    # each pass carries the marks one link further along a chain
    earlier = sample - lo
    hit = np.flatnonzero(earlier < np.arange(b, dtype=np.uint32)[:, None])
    source = earlier.reshape(-1)[hit].astype(np.intp) * n + hit % n
    while (grow := taken[source] & ~taken[hit]).any():
        taken[hit[grow]] = True
    return taken


def _floyd_samples(u: np.ndarray, lo: np.ndarray, b: int) -> np.ndarray:
    """Samples from rows of Floyd-regime draws, ``b`` for Floyd's algorithm
    and then ``b - 1`` for the shuffle's swaps, resolved in lockstep across
    the rows; ``lo = m - b`` is given per row.  The result has a column
    per row."""
    n = len(u)
    sample = u[:, :b].T.copy()
    flat = sample.reshape(-1)
    at = np.flatnonzero(_floyd_taken(u, sample, lo))
    flat[at] = lo[at % n] + at // n  # the j of each draw not kept
    # the shuffle: step i swaps position i with one at or before it
    swaps = u[:, b:].T.astype(np.intp)
    swaps *= n
    swaps += np.arange(n)
    for i, j in zip(range(b - 1, 0, -1), swaps):
        held = flat[j]
        flat[j] = sample[i]
        sample[i] = held
    return sample


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
    floyd, tail = _choice_plan(tuple(ms), b)
    out = np.empty((len(ms), count, b), dtype=np.int64)
    if floyd:
        lo = np.repeat((floyd.ms - b).astype(np.uint32)[floyd.rows], count)
        draws = _bounded([streams[i] for i in floyd.positions], floyd, count)
        samples = _floyd_samples(draws.reshape(-1, 2 * b - 1), lo, b)
        out[floyd.positions] = samples.T.reshape(len(floyd.positions), count, b)
    if tail:
        draws = _bounded([streams[i] for i in tail.positions], tail, count)
        for i, m, u in zip(tail.positions, tail.ms[tail.rows].tolist(), draws):
            out[i] = _tail_choice(u.astype(np.int64), m, b)
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

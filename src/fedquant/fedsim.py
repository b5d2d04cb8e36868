"""Synchronous federated training loop with quantized uplinks.

Every round, each client takes ``local_steps`` SGD steps from the current
global parameters, quantizes the resulting parameter delta, and sends it
up; the server dequantizes, averages by shard weight, and applies the
result.  Only uplink traffic is metered.  The uplink quantizes the
clients' deltas as planes of as many clients as fit in a cache-sized
buffer, in a workspace (:class:`_UplinkWorkspace`) built once per run;
it is bit for bit ``aggregate(w, [quantize(delta, s, rng), ...],
weights)`` but builds no ``QuantizedUpdate``.  Local SGD and the loss
estimate read the clients' rows from one row source per role
(:class:`_Rows`), built once per run with each step's views of its
buffers.  A row source reads ``Problem.train_data`` in place: each group
of clients gets its rows for a span of steps from one ``take`` of rows
and one of labels, into step-major buffers, through an index workspace
of block rows that holds a block of rounds' minibatches, drawn at once
into buffers it allocates once, so a block's indices hold only until the
next block is drawn.  Local SGD's parameter planes, and their gradient
kernels, are made in a run's first round and kept on its row source.

Determinism contract: a run derives one generator per (role, client)
from ``(master_seed, role, client_id)`` and reads it in round order, so
results do not depend on client execution order, and reruns with the same
config are bit-identical.  A client's round reads its streams where the
rounds before it left them: it is replayed by rerunning the run up to it.
Drawing minibatches for several rounds at once reads the same draws.
``run_round`` stands alone, on streams keyed by the round as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _checks, objectives, quantizer
from .config import AdaquantMode, FileData, SyntheticData, TrainingConfig
from .controller import QuantSchedule, interval_tick, lr_condition_fixed
from .objectives import ClientShard, Dataset, ModelSpec
# quantize is not called here; perfbench's tracer wraps fedsim.quantize by name
from .quantizer import QuantizedUpdate, bits_per_update, dequantize, quantize  # noqa: F401

__all__ = [
    "ROLE_INIT",
    "ROLE_DATA",
    "ROLE_PARTITION",
    "ROLE_SGD",
    "ROLE_QUANT",
    "ROLE_LOSS",
    "GlobalState",
    "RoundRecord",
    "Problem",
    "TrainingRun",
    "TrainingDiverged",
    "derive_rng",
    "local_round",
    "aggregate",
    "global_loss",
    "run_round",
    "build_problem",
    "run_training",
    "run_unquantized",
]

# Stream roles; each (role, client) pair of a run owns an independent stream.
ROLE_INIT = 0
ROLE_DATA = 1
ROLE_PARTITION = 2
ROLE_SGD = 3
ROLE_QUANT = 4
ROLE_LOSS = 5

_WEIGHT_TOL = 1e-9
# bytes of client deltas the uplink quantizes as one plane; with its three
# buffers of the same size, a group stays within a 2 MiB cache
_UPLINK_BYTES = 1 << 18
# rounds whose minibatches are drawn at once
_STREAM_ROUNDS = 16


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (role, client, ...) slot:
    ``default_rng(SeedSequence(master_seed, spawn_key=key))``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


class _Rows:
    """The rows one role of a run reads from its checked shards, a round at
    a time: ``count`` row sets a round, ``local_steps`` minibatches for
    local SGD or one for the loss estimate.

    The rows are read in place from one block whose consecutive rows the
    shards are, in shard order: ``block`` (``_train`` passes
    ``Problem.train_data``) or, where None, the shards' rows concatenated
    once (a lone shard is its own block); its labels are converted to the
    kernels' dtype once.  The shards are grouped by their effective row
    count ``b``, ``min(batch_size, m)``, or ``m`` with ``batch_size`` None:
    group ``g`` holds the shards at ``positions[g]``, in shard order, and
    gets step-major buffers of rows and labels, ``(span, clients, b, f)``
    and ``(span, clients, b)``, filled once for a group of whole shards.
    The shards with more than ``batch_size`` rows sample; they all sit in
    the group of ``batch_size`` rows, which gathers ``span`` steps at a
    time, as many as fit in ``objectives._GATHER_BYTES`` (at least one),
    with one ``take`` of rows and one of labels, at the block rows in
    ``index``, ``(rounds, count, clients, b)``: a sampling shard's are its
    draws from ``rngs(position)`` plus its first row (see :meth:`batches`),
    a whole shard's its own rows, set once.  Everything here is built once
    and lives as long as the rows are read: ``index`` and the sampler's
    workspace, sized to the largest block, ``min(_STREAM_ROUNDS, rounds)``
    rounds, into which every block is drawn, and each step's list of views
    of the groups' buffers, which every round gives again.
    """

    def __init__(
        self,
        model: ModelSpec,
        shards: Sequence[ClientShard],
        batch_size: int | None,
        count: int,
        rngs: Callable[[int], np.random.Generator],
        rounds: int = 1,
        block: Dataset | None = None,
    ) -> None:
        _checks.at_least("local_steps", count, 1)
        if batch_size is not None:
            _checks.at_least("batch_size", batch_size, 1)
        if block is None:
            block = shards[0].data if len(shards) == 1 else Dataset._adopt(
                np.concatenate([shard.data.features for shard in shards]),
                np.concatenate([shard.data.labels for shard in shards]),
            )
        sizes = [shard.data.m for shard in shards]
        first = np.cumsum([0] + sizes[:-1])  # each shard's first row in the block
        groups: dict[int, list[int]] = {}
        for p, m in enumerate(sizes):
            groups.setdefault(m if batch_size is None else min(batch_size, m), []).append(p)
        self.model, self.shards, self.count = model, shards, count
        self.batch_size, self.rounds = batch_size, rounds
        self.features, self.labels = block.features, objectives._labels(model, block.labels)
        self.positions, self.groups = list(groups.values()), []
        self.streams, self.span, self.sampler = [], 1, None
        for b, positions in groups.items():
            sampled = [j for j, p in enumerate(positions) if sizes[p] > b]
            step_bytes = len(positions) * b * model.n_features * 8
            span = max(1, min(count if sampled else 1, objectives._GATHER_BYTES // step_bytes))
            x = np.empty((span, len(positions), b, model.n_features))
            y = np.empty((span, len(positions), b), dtype=self.labels.dtype)
            own = first[positions, None] + np.arange(b)  # each client's first b rows
            if sampled:  # the group of batch_size rows
                blocks = min(_STREAM_ROUNDS, rounds)
                self.index = np.empty((blocks, count, len(positions), b), dtype=np.intp)
                self.index[...] = own
                self.sampled = [(j, first[positions[j]]) for j in sampled]
                self.streams = [rngs(positions[j]) for j in sampled]
                self.span, self.x, self.y = span, x, y
                self.sampler = objectives._BatchWorkspace(
                    [sizes[positions[j]] for j in sampled], b, blocks * count
                )
            else:
                self.features.take(own, axis=0, out=x[0], mode="clip")
                self.labels.take(own, out=y[0], mode="clip")
            self.groups.append((x, y, span))
        # each step's views of the groups' buffers, made once
        self.steps = [[(x[t % span], y[t % span]) for x, y, span in self.groups] for t in range(count)]
        self.start = self.drawn = 0  # no block yet
        self.bound = self.deltas = None  # local SGD's, see _sgd

    def batches(self, k: int) -> np.ndarray:
        """Round ``k``'s block rows of the sampling group, ``(count,
        clients, b)``: ``self.batches(k)[t, j]`` are the rows the group's
        ``j``-th client steps on at step ``t`` of round ``k``.  The rounds
        are asked for in order, up to the run's last, so each stream gives
        its minibatches in round order; no minibatch depends on the model,
        so those of ``_STREAM_ROUNDS`` rounds, never past ``rounds``, come
        from one ``_draw_batches`` call.  The view returned lies in the
        index workspace, so it holds only until the next block is drawn."""
        stop = self.start + self.drawn
        if not self.start <= k < stop:
            if k >= self.rounds:
                raise ValueError(f"round {k} asked for past the run's last round {self.rounds - 1}")
            if k != stop:
                raise ValueError(f"round {k} asked for after round {stop - 1}")
            n = min(_STREAM_ROUNDS, self.rounds - k)
            drawn = objectives._draw_batches(self.sampler, self.streams, n * self.count)
            index = self.index.reshape(-1, *self.index.shape[2:])[: n * self.count]
            for (j, row), rows in zip(self.sampled, drawn):
                np.copyto(index[:, j], rows)  # the sampler's narrow dtype, cast
                index[:, j] += row
            self.start, self.drawn = k, n
        return self.index[k - self.start]

    def __call__(self, k: int):
        """Round ``k``'s row sets, the rounds asked for in order: for each of
        the ``count`` steps, each group's rows and labels, ``(clients, b,
        f)`` and ``(clients, b)``.  The round's indices are all drawn before
        its first set is given.  The sets given are the same lists of views
        every round, into buffers the next gather overwrites."""
        index = None if self.sampler is None else self.batches(k)
        for t, views in enumerate(self.steps):
            if index is not None and t % self.span == 0:
                rows = index[t : t + self.span]
                # the indices lie in the block, so "clip" never clips; it
                # lets take write straight into the buffer
                self.features.take(rows, axis=0, out=self.x[: len(rows)], mode="clip")
                self.labels.take(rows, out=self.y[: len(rows)], mode="clip")
            yield views


class TrainingDiverged(RuntimeError):
    """Parameters left the finite floats.

    Carries whatever context is known at the failure site: the local step,
    the client, the round, and the records of all complete rounds.
    """

    def __init__(
        self,
        message: str,
        *,
        step: int | None = None,
        client_id: int | None = None,
        round_index: int | None = None,
        records: tuple["RoundRecord", ...] = (),
    ) -> None:
        super().__init__(message)
        self.step = step
        self.client_id = client_id
        self.round_index = round_index
        self.records = records


@dataclass(frozen=True)
class GlobalState:
    """Server-side snapshot between rounds."""

    w: np.ndarray
    round_index: int
    cumulative_bits: int

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64).copy()
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w must be a non-empty 1-D vector")
        _checks.finite("w", w)
        for name in ("round_index", "cumulative_bits"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        _checks.non_negative("round_index and cumulative_bits", np.array([self.round_index, self.cumulative_bits]))
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @classmethod
    def _adopt(cls, w: np.ndarray, round_index: int, cumulative_bits: int) -> GlobalState:
        """Wrap parameters the round loop just built: ``w`` is a fresh 1-D
        float64 array referenced nowhere else, so it is frozen in place
        rather than copied and checked again."""
        w.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(w=w, round_index=round_index, cumulative_bits=cumulative_bits)
        return state


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one communication round.

    ``train_loss`` is the loss at the parameters the round started from;
    ``cumulative_bits`` includes this round's uplink.  ``eval_metric``,
    ``interval``, and ``feasible`` are None when not computed.
    """

    round_index: int
    s: int
    element_bits: int
    eta: float
    bits_this_round: int
    cumulative_bits: int
    train_loss: float
    eval_metric: float | None = None
    interval: int | None = None
    feasible: bool | None = None


@dataclass(frozen=True)
class Problem:
    """A concrete instance: model, shards, and an optional held-out split.
    The shards are consecutive rows of ``train_data``, in shard order,
    which the training loop reads them from."""

    model: ModelSpec
    shards: tuple[ClientShard, ...]
    train_data: Dataset
    eval_data: Dataset | None


@dataclass(frozen=True)
class TrainingRun:
    """Everything a finished run produced.  ``saturated_recomputations``
    counts the recorded rounds whose adaptive level was recomputed at a
    loss at or below ``f_star``, and so set to ``s_max``."""

    records: tuple[RoundRecord, ...]
    final_state: GlobalState
    problem: Problem
    parameter_trail: tuple[np.ndarray, ...] | None = None
    saturated_recomputations: int = 0


def _blown_up(w: np.ndarray, positions: Sequence[int], flat: np.ndarray) -> list[int]:
    """The ``positions`` of the rows of the parameter plane ``w`` that left
    the finite floats or passed 1e18; ``flat`` is ``w.ravel()``.

    Magnitudes past 1e18 are unambiguous divergence, and catching them
    keeps the update norm within float32 range downstream.  A plane whose
    sum of squares is at most 1e35 has no ``|w_i|`` past 3.2e17; NaN, inf
    and overflowed squares fail that test, and then each row's ``max`` and
    ``min`` decide (a NaN fails both comparisons).
    """
    with np.errstate(over="ignore"):
        if np.vecdot(flat, flat) <= 1e35:
            return []
    bad = ~((w.max(axis=1) <= 1e18) & (w.min(axis=1) >= -1e18))
    return [p for p, b in zip(positions, bad) if b]


def _sgd(rows: _Rows, w_start: np.ndarray, k: int, eta: float) -> np.ndarray:
    """Local SGD of all clients of round ``k``, stepped together on the
    minibatches of ``rows`` (a :class:`_Rows` of ``local_steps`` row sets a
    round).

    Client ``i`` takes its steps from ``w_start`` on shard ``i``; the
    result is the ``(clients, dim)`` plane of parameter deltas, a row per
    shard in shard order, which the next round through ``rows`` overwrites.
    The parameters and ``eta``, which may decay to 0.0, are checked here;
    the shards, ``local_steps`` and the batch size, which never change,
    where ``rows`` is built.  Each group of ``rows`` steps its clients as
    one parameter plane and gets their gradients from one stacked kernel
    call, so the deltas are bit-identical to stepping the clients one at a
    time.  The planes, each with its kernel and raveled view, and the
    deltas (the one plane itself, with one group) are made in the first
    round and kept on ``rows``, so they die with the run; each round
    copies ``w_start`` into the planes.

    Every client steps to the end of the round, with float errors ignored:
    a client that diverges changes no other client's row, and
    :func:`_blown_up`, after each step, reports any overflow or NaN.  The
    error raised names the lowest shard position it ever flags, at its
    first flagged step: the client a client-by-client loop would have
    stopped at.
    """
    if not eta > 0.0:  # on the round path: the checker only raises
        _checks.positive("eta", eta)
    model = rows.model
    w_start = objectives._check_params(model, w_start)
    if rows.bound is None:  # the run's first round
        planes = [np.empty((len(positions), model.dim)) for positions in rows.positions]
        grad = np.empty((max(map(len, planes)), model.dim))  # the groups' gradients, one at a time
        rows.bound = [(w, objectives._gradient_kernel(model, w, grad[: len(w)]), w.ravel()) for w in planes]
        rows.deltas = planes[0] if len(planes) == 1 else np.empty((len(rows.shards), model.dim))
    for w, _, _ in rows.bound:
        np.copyto(w, w_start)
    first_blowup: tuple[int, int] | None = None  # (shard position, step)
    with np.errstate(all="ignore"):
        for t, sets in enumerate(rows(k)):
            for (w, step, _), (x, y) in zip(rows.bound, sets):
                g = step(x, y)
                g *= eta
                w -= g
            for positions, (w, _, flat) in zip(rows.positions, rows.bound):
                for pos in _blown_up(w, positions, flat):
                    if first_blowup is None or pos < first_blowup[0]:
                        first_blowup = (pos, t)
    if first_blowup is not None:
        pos, t = first_blowup
        client_id = rows.shards[pos].client_id
        raise TrainingDiverged(
            f"client {client_id}: parameters blew up at local step {t}",
            step=t,
            client_id=client_id,
        )
    for positions, (w, _, _) in zip(rows.positions, rows.bound):
        w -= w_start
        if w is not rows.deltas:  # one plane is the deltas: its positions are every shard's
            rows.deltas[positions] = w
    return rows.deltas


def local_round(
    model: ModelSpec,
    shard: ClientShard,
    w_start: np.ndarray,
    local_steps: int,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one client's local steps; returns the parameter delta.

    ``rng`` gives the minibatches of all ``local_steps`` up front, so it
    has advanced by all of them even when the call raises
    :class:`TrainingDiverged`.
    """
    objectives._check_data(model, shard.data)
    _checks.finite("w_start", objectives._check_params(model, w_start))
    return _sgd(_Rows(model, [shard], batch_size, local_steps, [rng].__getitem__), w_start, 0, eta)[0]


def _check_weights(weights: Sequence[float]) -> None:
    for p in weights:
        _checks.finite("weights", p)
    total = float(sum(weights))
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    _checks.positive("weights", min(weights))


def aggregate(
    w: np.ndarray,
    updates: Sequence[QuantizedUpdate],
    weights: Sequence[float],
) -> np.ndarray:
    """Apply the weighted average of dequantized updates to ``w``."""
    if len(updates) == 0 or len(updates) != len(weights):
        raise ValueError("need one weight per update, at least one of each")
    w = np.asarray(w, dtype=np.float64)
    _check_weights(weights)
    out = w.copy()
    for q, p in zip(updates, weights):
        if q.d != w.size:
            raise ValueError(f"update dimension {q.d} does not match parameters ({w.size})")
        step = dequantize(q)
        step *= p
        out += step
    return out


class _UplinkWorkspace:
    """The buffers :func:`_uplink` quantizes ``(clients, d)`` delta planes
    in, for clients of the given ``weights``: groups of as many rows as fit
    in ``_UPLINK_BYTES`` (at least one), the three float buffers and the
    carry mask of a group, their rows as lists of views, and the weights
    as a column.  A run builds one and reuses it every round, so it dies
    with the run; a round's short last group uses a prefix of each buffer.
    """

    def __init__(self, weights: Sequence[float], d: int) -> None:
        self.group = g = max(1, min(len(weights), _UPLINK_BYTES // (8 * d)))
        self.frac, self.lower, self.u = np.empty((3, g, d))
        self.carry = np.empty((g, d), dtype=bool)
        self.weights = np.array(weights, dtype=np.float64)[:, None]
        # the rows as lists of views, made once: at large d the caches are cold
        # between steps, where each array index or iteration costs microseconds
        self.lower_rows, self.u_rows = list(self.lower), list(self.u)


def _uplink(
    w: np.ndarray, deltas: np.ndarray, s: int, rngs: Sequence, workspace: _UplinkWorkspace
) -> np.ndarray:
    """``aggregate(w, [quantize(delta, s, rng), ...], weights)`` bit for bit,
    on checked weights, with no ``QuantizedUpdate`` or integer level built;
    the weights, and the buffers, are the ``workspace``'s.

    ``deltas`` are the rows of a plane, checked and quantized in the
    workspace's groups.  The lattice, carry, sign and scale steps run once
    per group; each row has its own norm and draws from its own generator,
    none when its norm is zero in float32; the rows are added to ``w`` one
    at a time, in order.
    """
    plane = np.asarray(deltas, dtype=np.float64)
    ws, g = workspace, workspace.group
    out = np.array(w, dtype=np.float64)
    frac, lower, u, carry = ws.frac, ws.lower, ws.u, ws.carry
    for a in range(0, len(plane), g):
        rows, norms, norms32 = quantizer._check_input(plane[a : a + g], s)
        if len(rows) < g:  # the last group is short: its prefix of each buffer
            frac, lower, u, carry = (buf[: len(rows)] for buf in (frac, lower, u, carry))
        zero = [norm32 == 0.0 for norm32 in norms32.tolist()]
        if any(zero):
            # quantize's zero path: dividing by inf puts every level and carry
            # probability at 0, so the row's levels are 0, and signed zeros below
            norms[zero] = np.inf
        quantizer._lattice(rows, s, norms[:, None], frac, lower)
        for rng, draws, no_draw in zip(rngs[a : a + g], ws.u_rows, zero):
            if no_draw:
                draws.fill(0.0)  # not below a carry probability of 0
            else:
                rng.random(out=draws)
        quantizer._carry(lower, frac, u, carry)
        quantizer._scale(lower, norms32[:, None], s, quantizer._signs(rows, out=carry))
        lower *= ws.weights[a : a + g]
        for row in ws.lower_rows[: len(rows)]:
            out += row
    return out


def global_loss(model: ModelSpec, shards: Sequence[ClientShard], w: np.ndarray) -> float:
    """Weight-averaged full loss across all shards."""
    return float(sum(sh.weight * objectives.loss(model, w, sh.data) for sh in shards))


def _check_shards(model: ModelSpec, shards: Sequence[ClientShard]) -> None:
    for shard in shards:
        objectives._check_data(model, shard.data)
    _check_weights([shard.weight for shard in shards])


def _loss_estimate(rows: _Rows, w: np.ndarray, k: int) -> float:
    """Round ``k``'s training-loss estimate at ``w``, on a :class:`_Rows` of
    one row set a round: the full loss with whole shards, else each
    shard's minibatch loss.  A group's losses come from one stacked kernel
    call; the weighted sum runs in shard order."""
    losses = [0.0] * len(rows.shards)
    for positions, (x, y) in zip(rows.positions, next(rows(k))):
        for p, value in zip(positions, objectives._losses(rows.model, w, x, y).tolist()):
            losses[p] = value
    total = 0.0
    for shard, value in zip(rows.shards, losses):
        total += shard.weight * value
    return float(total)


def run_round(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    state: GlobalState,
    s: int,
    eta: float,
    *,
    local_steps: int,
    batch_size: int,
    master_seed: int,
    train_loss: float | None = None,
) -> tuple[GlobalState, RoundRecord]:
    """One synchronous round at level ``s``, on streams keyed by (role,
    client, ``state.round_index``); returns new state and record."""
    _check_shards(model, shards)
    if train_loss is None:
        train_loss = global_loss(model, shards, state.w)
    k = state.round_index
    sgd = [derive_rng(master_seed, ROLE_SGD, sh.client_id, k) for sh in shards]
    quant = [derive_rng(master_seed, ROLE_QUANT, sh.client_id, k) for sh in shards]
    try:
        deltas = _sgd(_Rows(model, shards, batch_size, local_steps, sgd.__getitem__), state.w, 0, eta)
    except TrainingDiverged as exc:
        exc.round_index = k
        raise
    cost = bits_per_update(model.dim, s)
    spent = state.cumulative_bits + cost.total_bits
    w_next = _uplink(state.w, deltas, s, quant, _UplinkWorkspace([sh.weight for sh in shards], model.dim))
    record = RoundRecord(
        round_index=k, s=s, element_bits=cost.element_bits, eta=eta,
        bits_this_round=cost.total_bits, cumulative_bits=spent, train_loss=float(train_loss),
    )
    return GlobalState._adopt(w_next, k + 1, spent), record


def build_problem(config: TrainingConfig) -> Problem:
    """Materialize data and shards for a config, deterministically.
    ``train_data`` holds the training rows in partition order, each shard a
    view of its rows there; the eval rows, the source's tail, are copied."""
    data = config.data
    if isinstance(data, SyntheticData):
        full = objectives.generate_synthetic(
            kind=data.kind,
            m=data.samples + data.eval_samples,
            n_features=data.n_features,
            noise=data.noise,
            seed=derive_rng(config.master_seed, ROLE_DATA),
            n_classes=data.n_classes,
        )
        split = data.samples
    elif isinstance(data, FileData):
        full = objectives.load_delimited(data.path, kind=data.kind)
        if data.eval_samples >= full.m:
            raise ValueError("eval_samples must leave at least one training row")
        split = full.m - data.eval_samples
    else:
        raise TypeError(f"unsupported data source {type(data).__name__}")
    order = objectives._partition_order(
        full.labels[:split], config.partition_mode, derive_rng(config.master_seed, ROLE_PARTITION)
    )
    train = full.subset(order)
    eval_data = full.subset(np.arange(split, full.m)) if split < full.m else None
    shards = objectives._deal(train, config.n_clients)
    return Problem(
        model=config.model, shards=tuple(shards), train_data=train, eval_data=eval_data
    )


def _eval_metric(problem: Problem, w: np.ndarray) -> float | None:
    if problem.eval_data is None or problem.model.kind == "quadratic":
        return None
    return objectives.accuracy(problem.model, w, problem.eval_data)


def run_training(
    config: TrainingConfig,
    *,
    on_record: Callable[[RoundRecord], None] | None = None,
    keep_parameters: bool = False,
) -> TrainingRun:
    """Run a full configured experiment.

    Stops at ``config.rounds``, or earlier when the next round would
    overrun ``bit_budget`` or the recorded loss reaches
    ``loss_threshold``.  ``on_record`` fires after every completed round,
    which is how the CSV writer streams rows.
    """
    return _train(config, on_record, keep_parameters)


def _exact_uplink(
    w: np.ndarray, deltas: Sequence[np.ndarray], s: int, rngs: Sequence, weights: Sequence[float]
) -> np.ndarray:
    """The weighted sum of the exact deltas, in shard order, applied to
    ``w``; ``s`` and ``rngs`` are unused."""
    delta = np.zeros_like(w)
    for p, client_delta in zip(weights, deltas):
        delta += p * client_delta
    return w + delta


def run_unquantized(config: TrainingConfig) -> list[np.ndarray]:
    """Reference trajectory with exact (unquantized) uplinks.

    Runs :func:`run_training`'s loop on the same data, init, and SGD
    streams, so any drift from it is attributable to quantization alone.
    Neither ``bit_budget`` nor ``loss_threshold`` stops it: it returns the
    global parameters after each of ``config.rounds`` rounds.
    """
    unlimited = replace(config, bit_budget=None, loss_threshold=None)
    return list(_train(unlimited, None, True, exact=True).parameter_trail)


def _train(
    config: TrainingConfig,
    on_record: Callable[[RoundRecord], None] | None,
    keep_parameters: bool,
    *,
    exact: bool = False,
) -> TrainingRun:
    """The round loop of :func:`run_training`, on streams derived once per
    run; with ``exact`` the uplink is :func:`_exact_uplink`, and no
    ``ROLE_QUANT`` stream is derived."""
    problem = build_problem(config)
    model, shards = problem.model, problem.shards
    _check_shards(model, shards)
    seed, rounds = config.master_seed, config.rounds
    sgd_rows = _Rows(
        model, shards, config.batch_size, config.local_steps,
        lambda p: derive_rng(seed, ROLE_SGD, shards[p].client_id), rounds, problem.train_data,
    )
    loss_rows = _Rows(
        model, shards, None if config.loss_estimate == "full" else config.batch_size, 1,
        lambda p: derive_rng(seed, ROLE_LOSS, shards[p].client_id), rounds, problem.train_data,
    )
    weights = [sh.weight for sh in shards]
    quant_rngs = () if exact else [derive_rng(seed, ROLE_QUANT, sh.client_id) for sh in shards]
    # the exact uplink takes the weights where _uplink takes its workspace
    uplink, workspace = (_exact_uplink, weights) if exact else (_uplink, _UplinkWorkspace(weights, model.dim))
    w0 = objectives.init_params(model, derive_rng(config.master_seed, ROLE_INIT))
    state = GlobalState(w=w0, round_index=0, cumulative_bits=0)
    quant = config.quantization
    schedule: QuantSchedule | None = None
    if isinstance(quant, AdaquantMode):
        schedule = QuantSchedule(
            s0=quant.s0,
            interval_bits=config.interval_bits,
            s_max=quant.s_max,
            eta0=config.lr.eta0,
            f_star=quant.f_star,
        )
    records: list[RoundRecord] = []
    trail: list[np.ndarray] = []
    saturated = 0
    for k in range(config.rounds):
        f_wk = _loss_estimate(loss_rows, state.w, k)
        if not math.isfinite(f_wk):
            raise TrainingDiverged(
                f"non-finite training loss at round {k}", round_index=k, records=tuple(records)
            )
        eta_k = config.lr.eta_for_round(k)
        saturating = False
        if schedule is not None:
            ticked = schedule.interval_index
            s_k, schedule = interval_tick(schedule, state.cumulative_bits, f_wk, eta_k)
            interval = schedule.interval_index
            saturating = schedule.saturated and interval != ticked
        else:
            s_k = quant.s
            interval = None
        cost = bits_per_update(model.dim, s_k)
        spent = state.cumulative_bits + cost.total_bits
        if config.bit_budget is not None and spent > config.bit_budget:
            break
        saturated += saturating
        feasible = None
        if config.smoothness is not None:
            feasible = lr_condition_fixed(
                eta_k, config.smoothness, model.dim, config.local_steps, s_k, config.n_clients
            )
        metric = _eval_metric(problem, state.w) if k % config.eval_every == 0 else None
        try:
            # no name holds the deltas, so they are freed when the round ends
            w_next = uplink(state.w, _sgd(sgd_rows, state.w, k, eta_k), s_k, quant_rngs, workspace)
        except TrainingDiverged as exc:
            exc.round_index, exc.records = k, tuple(records)
            raise
        state = GlobalState._adopt(w_next, k + 1, spent)
        record = RoundRecord(
            round_index=k, s=s_k, element_bits=cost.element_bits, eta=eta_k,
            bits_this_round=cost.total_bits, cumulative_bits=spent,
            train_loss=f_wk, eval_metric=metric, interval=interval, feasible=feasible,
        )
        records.append(record)
        if keep_parameters:
            trail.append(state.w)
        if on_record is not None:
            on_record(record)
        if config.loss_threshold is not None and record.train_loss <= config.loss_threshold:
            break
    return TrainingRun(
        records=tuple(records),
        final_state=state,
        problem=problem,
        parameter_trail=tuple(trail) if keep_parameters else None,
        saturated_recomputations=saturated,
    )

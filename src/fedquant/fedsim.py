"""Synchronous federated training loop with quantized uplinks.

Every round, each client takes ``local_steps`` SGD steps from the current
global parameters, quantizes the resulting parameter delta, and sends it
up; the server dequantizes, averages by shard weight, and applies the
result.  Only uplink traffic is metered.  The uplink quantizes the
clients' deltas as planes of as many clients as fit in a cache-sized
buffer, reused across the round; it is bit for bit
``aggregate(w, [quantize(delta, s, rng), ...], weights)`` but builds no
``QuantizedUpdate``.

Determinism contract: a run derives one generator per (role, client)
from ``(master_seed, role, client_id)`` and reads it in round order, so
results do not depend on client execution order, and reruns with the same
config are bit-identical.  A client's round reads its streams where the
rounds before it left them: it is replayed by rerunning the run up to it.
Drawing minibatches for several rounds at once reads the same draws.
``run_round`` stands alone, on streams keyed by the round as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import objectives, quantizer
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


class _Batches:
    """Minibatch row indices of ``shards``, each sampling ``b`` of its rows
    ``count`` times a round from its ``role`` stream of the run:
    ``self(k)[i, t]`` is shard ``i``'s ``t``-th of round ``k``.  The rounds
    are asked for in order, so each stream gives its minibatches in round
    order; no minibatch depends on the model, so those of
    ``_STREAM_ROUNDS`` rounds, never past ``rounds``, come from one
    ``_draw_batches`` call."""

    def __init__(self, master_seed, role, shards, b: int, count: int, rounds: int) -> None:
        self.rngs = [derive_rng(master_seed, role, sh.client_id) for sh in shards]
        self.ms, self.b, self.count, self.rounds = [sh.data.m for sh in shards], b, count, rounds
        self.start, self.drawn = 0, np.empty((len(shards), 0, count, b), dtype=np.int64)

    def __call__(self, k: int) -> np.ndarray:
        stop = self.start + self.drawn.shape[1]
        if not self.start <= k < stop:
            if k != stop:
                raise ValueError(f"round {k} asked for after round {stop - 1}")
            n = min(_STREAM_ROUNDS, self.rounds - k)
            drawn = objectives._draw_batches(self.rngs, self.ms, self.b, n * self.count)
            self.start, self.drawn = k, drawn.reshape(len(self.ms), n, self.count, self.b)
        return self.drawn[:, k - self.start]


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
        if self.round_index < 0 or self.cumulative_bits < 0:
            raise ValueError("round_index and cumulative_bits must be non-negative")
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
    """A concrete instance: model, shards, and an optional held-out split."""

    model: ModelSpec
    shards: tuple[ClientShard, ...]
    train_data: Dataset
    eval_data: Dataset | None


@dataclass(frozen=True)
class TrainingRun:
    """Everything a finished run produced."""

    records: tuple[RoundRecord, ...]
    final_state: GlobalState
    problem: Problem
    parameter_trail: tuple[np.ndarray, ...] | None = None


class _ClientStack:
    """The clients of a round that share one effective minibatch size ``b``.

    Row ``i`` of ``w`` belongs to the client at shard position
    ``positions[i]``: its parameters.  The clients that sample (``m > b``)
    bring their minibatch indices for all local steps, ``drawn``, a row per
    such client in shard order; their rows and labels are gathered into
    ``x`` and ``y``, ``x[i, t % span]`` at step ``t``, for ``span`` steps
    at a time, as many as fit in ``objectives._GATHER_BYTES`` (at least
    one).  A client whose minibatch is its whole shard has its rows filled
    in once, here.
    """

    def __init__(self, model, shards, labels, positions, w_start, b, local_steps, drawn):
        self.positions = positions
        self.w = np.repeat(w_start[None, :], len(positions), axis=0)
        data = [shards[p].data for p in positions]
        rows = iter(() if drawn is None else drawn)
        idx = [next(rows) if d.m > b else None for d in data]
        step_bytes = len(positions) * b * model.n_features * 8
        span = max(1, min(local_steps if drawn is not None else 1, objectives._GATHER_BYTES // step_bytes))
        self.x = np.empty((len(positions), span, b, model.n_features))
        self.y = np.empty((len(positions), span, b), dtype=labels[positions[0]].dtype)
        for i, (d, p) in enumerate(zip(data, positions)):
            if idx[i] is None:
                self.x[i], self.y[i] = d.features, labels[p]
        self.sources = list(zip(data, [labels[p] for p in positions], idx))

    def minibatch(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Every client's rows and labels at local step ``t``, the steps
        taken in order."""
        span = self.x.shape[1]
        if t % span == 0:
            for i, (data, labels, idx) in enumerate(self.sources):
                if idx is not None:
                    steps = idx[t : t + span]
                    # the indices lie in [0, m), so "clip" never clips; it
                    # lets take write straight into the buffer
                    data.features.take(steps, axis=0, out=self.x[i, : len(steps)], mode="clip")
                    labels.take(steps, out=self.y[i, : len(steps)], mode="clip")
        return self.x[:, t % span], self.y[:, t % span]

    def blown_up(self) -> list[int]:
        """Shard positions whose parameters left the finite floats or
        passed 1e18.

        Magnitudes past 1e18 are unambiguous divergence, and catching them
        keeps the update norm within float32 range downstream.  A plane
        whose sum of squares is at most 1e35 has no ``|w_i|`` past 3.2e17;
        NaN, inf and overflowed squares fail that test, and then each row's
        ``max`` and ``min`` decide (a NaN fails both comparisons).
        """
        w = self.w
        with np.errstate(over="ignore"):
            if np.vecdot(w.ravel(), w.ravel()) <= 1e35:
                return []
        bad = ~((w.max(axis=1) <= 1e18) & (w.min(axis=1) >= -1e18))
        return [p for p, b in zip(self.positions, bad) if b]

    def keep(self, rows: np.ndarray) -> None:
        """Drop the clients whose entry in the boolean ``rows`` is false."""
        self.positions = [p for p, k in zip(self.positions, rows) if k]
        self.sources = [c for c, k in zip(self.sources, rows) if k]
        self.w, self.x, self.y = self.w[rows], self.x[rows], self.y[rows]


def _sgd(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    labels: Sequence[np.ndarray],
    w_start: np.ndarray,
    local_steps: int,
    eta: float,
    batch_size: int,
    draw: Callable[[int, list[int]], np.ndarray],
) -> np.ndarray:
    """Local SGD of all clients of a round, stepped together.

    Client ``i`` takes ``local_steps`` steps from ``w_start`` on
    ``shards[i]``, whose labels in the kernels' dtype are ``labels[i]``;
    the result is the ``(len(shards), dim)`` plane of parameter deltas, a
    row per shard in shard order.  The parameters are checked here; the
    shards, which never change, by the caller.  Then ``draw(b, positions)``
    gives the minibatch indices, (client, step, row), of the clients of
    effective batch size ``b = min(batch_size, m)`` that sample (``m >
    b``).  The clients that share an effective batch size get their
    gradients from one stacked kernel call, so the deltas are
    bit-identical to stepping the clients one at a time.

    A client that diverges stops stepping, and so do the clients after it
    in shard order; their minibatches were all drawn before.  The error
    raised names the first client in shard order that diverges at all, at
    its first diverging step: the one a client-by-client loop would have
    stopped at.
    """
    if local_steps < 1:
        raise ValueError("local_steps must be at least 1")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    w_start = objectives._check_params(model, w_start)
    groups: dict[int, list[int]] = {}
    for i, shard in enumerate(shards):
        groups.setdefault(min(batch_size, shard.data.m), []).append(i)
    stacks = []
    for b, positions in groups.items():
        sampled = [p for p in positions if shards[p].data.m > b]
        drawn = draw(b, sampled) if sampled else None
        stacks.append(_ClientStack(model, shards, labels, positions, w_start, b, local_steps, drawn))
    grad = np.empty((max(len(stack.positions) for stack in stacks), model.dim))
    first_blowup: tuple[int, int] | None = None  # (shard position, step)
    for t in range(local_steps):
        for stack in stacks:
            x, y = stack.minibatch(t)
            g = objectives._gradients(model, stack.w, x, y, grad[: len(stack.w)])
            g *= eta
            stack.w -= g
        for stack in stacks:
            for pos in stack.blown_up():
                if first_blowup is None or pos < first_blowup[0]:
                    first_blowup = (pos, t)
        if first_blowup is not None:
            for stack in stacks:
                stack.keep(np.asarray(stack.positions) < first_blowup[0])
            stacks = [stack for stack in stacks if stack.positions]
            if not stacks:
                break
    if first_blowup is not None:
        pos, t = first_blowup
        client_id = shards[pos].client_id
        raise TrainingDiverged(
            f"client {client_id}: parameters blew up at local step {t}",
            step=t,
            client_id=client_id,
        )
    for stack in stacks:
        stack.w -= w_start
    if len(stacks) == 1:  # its positions are every shard's, in order
        return stacks[0].w
    deltas = np.empty((len(shards), model.dim))
    for stack in stacks:
        deltas[stack.positions] = stack.w
    return deltas


def _local_sgd(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    w_start: np.ndarray,
    local_steps: int,
    eta: float,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """:func:`_sgd` with each client's minibatches for all ``local_steps``
    drawn from ``rngs[i]`` when the round starts, the indices it would
    draw alone step by step."""

    def draw(b: int, positions: list[int]) -> np.ndarray:
        ms = [shards[p].data.m for p in positions]
        return objectives._draw_batches([rngs[p] for p in positions], ms, b, local_steps)

    labels = [objectives._labels(model, shard.data.labels) for shard in shards]
    return _sgd(model, shards, labels, w_start, local_steps, eta, batch_size, draw)


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
    return _local_sgd(model, [shard], w_start, local_steps, eta, batch_size, [rng])[0]


def _check_weights(weights: Sequence[float]) -> None:
    if not all(math.isfinite(p) for p in weights):
        raise ValueError("weights must be finite")
    total = float(sum(weights))
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    if any(p <= 0.0 for p in weights):
        raise ValueError("weights must be positive")


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


def _uplink(
    w: np.ndarray, deltas: np.ndarray, s: int, rngs: Sequence, weights: Sequence[float]
) -> np.ndarray:
    """``aggregate(w, [quantize(delta, s, rng), ...], weights)`` bit for bit,
    on checked weights, with no ``QuantizedUpdate`` or integer level built.

    ``deltas`` are the rows of a plane, checked and quantized in groups of
    as many rows as fit in ``_UPLINK_BYTES`` (at least one), in buffers
    allocated once per call.  The lattice, carry, sign and scale steps run
    once per group; each row has its own norm and draws from its own
    generator, none when its norm is zero in float32; the rows are added
    to ``w`` one at a time, in order.
    """
    plane = np.asarray(deltas, dtype=np.float64)
    d = plane.shape[-1]
    g = max(1, min(len(plane), _UPLINK_BYTES // (8 * d)))
    out = np.array(w, dtype=np.float64)
    frac, lower, u = np.empty((3, g, d))
    carry = np.empty((g, d), dtype=bool)
    weights = np.array(weights, dtype=np.float64)[:, None]
    # the rows as lists of views, made once: at large d the caches are cold
    # between steps, where each array index or iteration costs microseconds
    lower_rows, u_rows = list(lower), list(u)
    for a in range(0, len(plane), g):
        rows, norms, norms32 = quantizer._check_input(plane[a : a + g], s)
        if len(rows) < g:  # the last group is short
            frac, lower, u, carry = (buf[: len(rows)] for buf in (frac, lower, u, carry))
        zero = [norm32 == 0.0 for norm32 in norms32.tolist()]
        if any(zero):
            # quantize's zero path: dividing by inf puts every level and carry
            # probability at 0, so the row's levels are 0, and signed zeros below
            norms[zero] = np.inf
        quantizer._lattice(rows, s, norms[:, None], frac, lower)
        for rng, draws, no_draw in zip(rngs[a : a + g], u_rows, zero):
            if no_draw:
                draws.fill(0.0)  # not below a carry probability of 0
            else:
                rng.random(out=draws)
        quantizer._carry(lower, frac, u, carry)
        quantizer._scale(lower, norms32[:, None], s, quantizer._signs(rows, out=carry))
        lower *= weights[a : a + g]
        for row in lower_rows[: len(rows)]:
            out += row
    return out


def global_loss(model: ModelSpec, shards: Sequence[ClientShard], w: np.ndarray) -> float:
    """Weight-averaged full loss across all shards."""
    return float(sum(sh.weight * objectives.loss(model, w, sh.data) for sh in shards))


def _check_shards(model: ModelSpec, shards: Sequence[ClientShard]) -> None:
    for shard in shards:
        objectives._check_data(model, shard.data)
    _check_weights([shard.weight for shard in shards])


class _LossEstimate:
    """A run's per-round training-loss estimate, on checked shards.

    With ``batch_size`` None this is the full loss on every row of every
    shard; otherwise each round draws each shard's ``min(batch_size, m)``
    rows from the shard's ``ROLE_LOSS`` stream of the run, as
    ``sample_batch`` would, in blocks of rounds (see :class:`_Batches`) up
    to ``rounds``; the rounds are estimated in order.  Shards with
    the same row count get their losses from one stacked kernel call.  Its
    buffers, and the rows that never change, are set up once per run.  The
    weighted sum runs in shard order.
    """

    def __init__(
        self,
        model: ModelSpec,
        shards: Sequence[ClientShard],
        batch_size: int | None,
        master_seed: int,
        rounds: int,
    ) -> None:
        self.model = model
        labels = [objectives._labels(model, sh.data.labels) for sh in shards]
        self.weights = [sh.weight for sh in shards]
        groups: dict[int, list[int]] = {}
        for i, sh in enumerate(shards):
            rows = sh.data.m if batch_size is None else min(batch_size, sh.data.m)
            groups.setdefault(rows, []).append(i)
        self.groups = []
        for rows, positions in groups.items():
            x = np.empty((len(positions), rows, model.n_features))
            y = np.empty((len(positions), rows), dtype=labels[positions[0]].dtype)
            sampled = [(j, p) for j, p in enumerate(positions) if shards[p].data.m > rows]
            for j, p in enumerate(positions):
                if shards[p].data.m == rows:
                    x[j], y[j] = shards[p].data.features, labels[p]
            draws = [(j, shards[p].data, labels[p]) for j, p in sampled]
            members = [shards[p] for _, p in sampled]
            batches = _Batches(master_seed, ROLE_LOSS, members, rows, 1, rounds) if sampled else None
            self.groups.append((positions, x, y, draws, batches))

    def __call__(self, w: np.ndarray, round_index: int) -> float:
        losses = [0.0] * len(self.weights)
        for positions, x, y, draws, batches in self.groups:
            if draws:
                for (j, data, labels), rows in zip(draws, batches(round_index)[:, 0]):
                    data.features.take(rows, axis=0, out=x[j], mode="clip")  # as in _ClientStack
                    labels.take(rows, out=y[j], mode="clip")
            for p, value in zip(positions, objectives._losses(self.model, w, x, y)):
                losses[p] = value
        total = 0.0
        for weight, value in zip(self.weights, losses):
            total += weight * value
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
        deltas = _local_sgd(model, shards, state.w, local_steps, eta, batch_size, sgd)
    except TrainingDiverged as exc:
        exc.round_index = k
        raise
    cost = bits_per_update(model.dim, s)
    return _round(shards, state, s, eta, deltas, quant, cost, _uplink, train_loss=float(train_loss))


def _round(
    shards: Sequence[ClientShard],
    state: GlobalState,
    s: int,
    eta: float,
    deltas: np.ndarray,
    quant_rngs: Sequence[np.random.Generator],
    cost: quantizer.BitCost,
    uplink: Callable[..., np.ndarray],
    **fields,
) -> tuple[GlobalState, RoundRecord]:
    """The rest of :func:`run_round` once the clients' ``deltas`` are in.

    ``quant_rngs`` are the ``ROLE_QUANT`` generators the round draws from,
    one per shard; ``cost`` is ``bits_per_update(model.dim, s)``;
    ``uplink`` takes the deltas to the next global parameters, which it
    builds fresh, with :func:`_uplink`'s signature.  ``fields`` are the
    record's ``train_loss``, ``eval_metric``, ``interval`` and
    ``feasible``.
    """
    k = state.round_index
    w_next = uplink(state.w, deltas, s, quant_rngs, [sh.weight for sh in shards])
    new_state = GlobalState._adopt(w_next, k + 1, state.cumulative_bits + cost.total_bits)
    record = RoundRecord(
        round_index=k,
        s=s,
        element_bits=cost.element_bits,
        eta=eta,
        bits_this_round=cost.total_bits,
        cumulative_bits=new_state.cumulative_bits,
        **fields,
    )
    return new_state, record


def build_problem(config: TrainingConfig) -> Problem:
    """Materialize data and shards for a config, deterministically."""
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
        train = full.subset(np.arange(data.samples))
        eval_data = (
            full.subset(np.arange(data.samples, full.m)) if data.eval_samples else None
        )
    elif isinstance(data, FileData):
        full = objectives.load_delimited(data.path, kind=data.kind)
        if data.eval_samples >= full.m:
            raise ValueError("eval_samples must leave at least one training row")
        split = full.m - data.eval_samples
        train = full.subset(np.arange(split))
        eval_data = full.subset(np.arange(split, full.m)) if data.eval_samples else None
    else:
        raise TypeError(f"unsupported data source {type(data).__name__}")
    shards = objectives.partition(
        train,
        config.n_clients,
        mode=config.partition_mode,
        seed=derive_rng(config.master_seed, ROLE_PARTITION),
    )
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
    labels = [objectives._labels(model, sh.data.labels) for sh in shards]
    batch = None if config.loss_estimate == "full" else config.batch_size
    loss_estimate = _LossEstimate(model, shards, batch, config.master_seed, config.rounds)
    blocks: dict[int, _Batches] = {}  # by effective batch size

    def sgd_batches(b: int, positions: list[int], k: int) -> np.ndarray:
        """The ``draw`` of :func:`_sgd` in round ``k``."""
        if b not in blocks:
            members = [shards[p] for p in positions]
            blocks[b] = _Batches(config.master_seed, ROLE_SGD, members, b, config.local_steps, config.rounds)
        return blocks[b](k)

    quant_rngs = () if exact else [derive_rng(config.master_seed, ROLE_QUANT, sh.client_id) for sh in shards]
    uplink = _exact_uplink if exact else _uplink
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
    for k in range(config.rounds):
        f_wk = loss_estimate(state.w, k)
        if not np.isfinite(f_wk):
            raise TrainingDiverged(
                f"non-finite training loss at round {k}",
                round_index=k,
                records=tuple(records),
            )
        eta_k = config.lr.eta_for_round(k)
        if schedule is not None:
            s_k, schedule = interval_tick(schedule, state.cumulative_bits, f_wk, eta_k)
            interval = schedule.interval_index
        else:
            s_k = quant.s
            interval = None
        cost = bits_per_update(model.dim, s_k)
        spent = state.cumulative_bits + cost.total_bits
        if config.bit_budget is not None and spent > config.bit_budget:
            break
        feasible = None
        if config.smoothness is not None:
            feasible = lr_condition_fixed(
                eta_k, config.smoothness, model.dim, config.local_steps, s_k, config.n_clients
            )
        metric = _eval_metric(problem, state.w) if k % config.eval_every == 0 else None
        draw = functools.partial(sgd_batches, k=k)
        try:
            # no name holds the deltas, so they are freed when the round ends
            state, record = _round(
                shards, state, s_k, eta_k,
                _sgd(model, shards, labels, state.w, config.local_steps, eta_k, config.batch_size, draw),
                quant_rngs, cost, uplink,
                train_loss=f_wk, eval_metric=metric, interval=interval, feasible=feasible,
            )
        except TrainingDiverged as exc:
            exc.round_index, exc.records = k, tuple(records)
            raise
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
    )

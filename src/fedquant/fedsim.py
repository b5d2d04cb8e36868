"""Synchronous federated training loop with quantized uplinks.

Every round, each client takes ``local_steps`` SGD steps from the current
global parameters, quantizes the resulting parameter delta, and sends it
up; the server dequantizes, averages by shard weight, and applies the
result.  Only uplink traffic is metered.

Determinism contract: every random draw comes from a generator derived
from ``(master_seed, role, client_id, round_index)``, so results do not
depend on client execution order and any single client round can be
replayed in isolation.  Reruns with the same config are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import objectives
from .config import AdaquantMode, FileData, SyntheticData, TrainingConfig
from .controller import QuantSchedule, interval_tick, lr_condition_fixed
from .objectives import ClientShard, Dataset, ModelSpec
from .quantizer import QuantizedUpdate, bits_per_update, dequantize, quantize

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

# Stream roles; each (role, client, round) triple owns an independent stream.
ROLE_INIT = 0
ROLE_DATA = 1
ROLE_PARTITION = 2
ROLE_SGD = 3
ROLE_QUANT = 4
ROLE_LOSS = 5

_WEIGHT_TOL = 1e-9


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (role, client, round, ...) slot."""
    if master_seed < 0 or any(k < 0 for k in key):
        raise ValueError("seed components must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


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
    """The clients of a round that share one effective minibatch size.

    Row ``i`` of ``w``, ``x`` and ``y`` belongs to the client at shard
    position ``positions[i]``: its parameters, and the rows and labels of
    its current minibatch.  A client whose minibatch is its whole shard
    has them filled in once, here.
    """

    def __init__(self, model, shards, rngs, positions, w_start, batch_size):
        self.positions = positions
        self.batch_size = batch_size
        self.clients = [
            (shards[p].data, objectives._labels(model, shards[p].data.labels), rngs[p])
            for p in positions
        ]
        self.w = np.repeat(w_start[None, :], len(positions), axis=0)
        b = min(batch_size, shards[positions[0]].data.m)
        self.x = np.empty((len(positions), b, model.n_features))
        self.y = np.empty((len(positions), b), dtype=self.clients[0][1].dtype)
        for i, (data, labels, _) in enumerate(self.clients):
            if batch_size >= data.m:
                self.x[i] = data.features
                self.y[i] = labels

    def draw(self) -> None:
        """Gather every client's next minibatch from its own stream."""
        for i, (data, labels, rng) in enumerate(self.clients):
            idx = objectives._draw_indices(data.m, self.batch_size, rng)
            if idx is not None:
                # the indices lie in [0, m), so "clip" never clips; it
                # lets take write straight into the buffer
                data.features.take(idx, axis=0, out=self.x[i], mode="clip")
                labels.take(idx, out=self.y[i], mode="clip")

    def blown_up(self) -> list[int]:
        """Shard positions whose parameters left the finite floats or
        passed 1e18.

        Magnitudes past 1e18 are unambiguous divergence, and catching them
        keeps the update norm within float32 range downstream.  ``max`` and
        ``min`` carry a NaN through, and it fails both comparisons.
        """
        w = self.w
        if w.max() <= 1e18 and w.min() >= -1e18:
            return []
        bad = ~((w.max(axis=1) <= 1e18) & (w.min(axis=1) >= -1e18))
        return [p for p, b in zip(self.positions, bad) if b]

    def keep(self, rows: np.ndarray) -> None:
        """Drop the clients whose entry in the boolean ``rows`` is false."""
        self.positions = [p for p, k in zip(self.positions, rows) if k]
        self.clients = [c for c, k in zip(self.clients, rows) if k]
        self.w, self.x, self.y = self.w[rows], self.x[rows], self.y[rows]


def _local_sgd(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    w_start: np.ndarray,
    local_steps: int,
    eta: float,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
) -> list[np.ndarray]:
    """Local SGD of all clients of a round, stepped together.

    Client ``i`` takes ``local_steps`` steps from ``w_start`` on
    ``shards[i]``, drawing its minibatches from ``rngs[i]``; the result is
    the list of parameter deltas in shard order.  The parameters and every
    shard are checked once.  At each step every client draws its indices
    from its own stream, as it would alone, and the clients that share an
    effective batch size ``min(batch_size, m)`` get their gradients from
    one stacked kernel call, so the deltas are bit-identical to stepping
    the clients one at a time.

    A client that diverges stops stepping, and so do the clients after it
    in shard order.  The error raised names the first client in shard
    order that diverges at all, at its first diverging step: the one a
    client-by-client loop would have stopped at.
    """
    if local_steps < 1:
        raise ValueError("local_steps must be at least 1")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    w_start = objectives._check_params(model, w_start)
    for shard in shards:
        objectives._check_data(model, shard.data)
    groups: dict[int, list[int]] = {}
    for i, shard in enumerate(shards):
        groups.setdefault(min(batch_size, shard.data.m), []).append(i)
    stacks = [
        _ClientStack(model, shards, rngs, positions, w_start, batch_size)
        for positions in groups.values()
    ]
    grad = np.empty((max(len(p) for p in groups.values()), model.dim))
    first_blowup: tuple[int, int] | None = None  # (shard position, step)
    for t in range(local_steps):
        for stack in stacks:
            stack.draw()
            g = objectives._gradients(model, stack.w, stack.x, stack.y, grad[: len(stack.w)])
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
    deltas: dict[int, np.ndarray] = {}
    for stack in stacks:
        stack.w -= w_start
        deltas.update(zip(stack.positions, stack.w))
    return [deltas[i] for i in range(len(shards))]


def local_round(
    model: ModelSpec,
    shard: ClientShard,
    w_start: np.ndarray,
    local_steps: int,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one client's local steps; returns the parameter delta."""
    return _local_sgd(model, [shard], w_start, local_steps, eta, batch_size, [rng])[0]


def aggregate(
    w: np.ndarray,
    updates: Sequence[QuantizedUpdate],
    weights: Sequence[float],
) -> np.ndarray:
    """Apply the weighted average of dequantized updates to ``w``."""
    if len(updates) == 0 or len(updates) != len(weights):
        raise ValueError("need one weight per update, at least one of each")
    w = np.asarray(w, dtype=np.float64)
    if not all(math.isfinite(p) for p in weights):
        raise ValueError("weights must be finite")
    total = float(sum(weights))
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    if any(p <= 0.0 for p in weights):
        raise ValueError("weights must be positive")
    out = w.copy()
    for q, p in zip(updates, weights):
        if q.d != w.size:
            raise ValueError(f"update dimension {q.d} does not match parameters ({w.size})")
        step = dequantize(q)
        step *= p
        out += step
    return out


def global_loss(model: ModelSpec, shards: Sequence[ClientShard], w: np.ndarray) -> float:
    """Weight-averaged full loss across all shards."""
    return float(sum(sh.weight * objectives.loss(model, w, sh.data) for sh in shards))


def _loss_estimate(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    w: np.ndarray,
    config: TrainingConfig,
    round_index: int,
) -> float:
    if config.loss_estimate == "full":
        return global_loss(model, shards, w)
    w = objectives._check_params(model, w)
    value = 0.0
    for sh in shards:
        objectives._check_data(model, sh.data)
        rng = derive_rng(config.master_seed, ROLE_LOSS, sh.client_id, round_index)
        x, y = sh.data.features, sh.data.labels
        idx = objectives._draw_indices(sh.data.m, config.batch_size, rng)
        if idx is not None:
            x, y = x[idx], y[idx]
        value += sh.weight * objectives._loss(model, w, x, y)
    return float(value)


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
    eval_metric: float | None = None,
    interval: int | None = None,
    feasible: bool | None = None,
) -> tuple[GlobalState, RoundRecord]:
    """One synchronous round at level ``s``; returns new state and record."""
    k = state.round_index
    if train_loss is None:
        train_loss = global_loss(model, shards, state.w)
    rngs = [derive_rng(master_seed, ROLE_SGD, sh.client_id, k) for sh in shards]
    try:
        deltas = _local_sgd(model, shards, state.w, local_steps, eta, batch_size, rngs)
    except TrainingDiverged as exc:
        exc.round_index = k
        raise
    updates = [
        quantize(delta, s, derive_rng(master_seed, ROLE_QUANT, sh.client_id, k))
        for sh, delta in zip(shards, deltas)
    ]
    del deltas  # the stacked parameters, freed before aggregating
    w_next = aggregate(state.w, updates, [sh.weight for sh in shards])
    cost = bits_per_update(model.dim, s)
    new_state = GlobalState(
        w=w_next, round_index=k + 1, cumulative_bits=state.cumulative_bits + cost.total_bits
    )
    record = RoundRecord(
        round_index=k,
        s=s,
        element_bits=cost.element_bits,
        eta=eta,
        bits_this_round=cost.total_bits,
        cumulative_bits=new_state.cumulative_bits,
        train_loss=float(train_loss),
        eval_metric=eval_metric,
        interval=interval,
        feasible=feasible,
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
            seed=np.random.SeedSequence(config.master_seed, spawn_key=(ROLE_DATA,)),
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
        seed=np.random.SeedSequence(config.master_seed, spawn_key=(ROLE_PARTITION,)),
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
    problem = build_problem(config)
    model, shards = problem.model, problem.shards
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
        f_wk = _loss_estimate(model, shards, state.w, config, k)
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
        cost = bits_per_update(model.dim, s_k).total_bits
        if config.bit_budget is not None and state.cumulative_bits + cost > config.bit_budget:
            break
        feasible = None
        if config.smoothness is not None:
            feasible = lr_condition_fixed(
                eta_k, config.smoothness, model.dim, config.local_steps, s_k, config.n_clients
            )
        metric = _eval_metric(problem, state.w) if k % config.eval_every == 0 else None
        try:
            state, record = run_round(
                model,
                shards,
                state,
                s_k,
                eta_k,
                local_steps=config.local_steps,
                batch_size=config.batch_size,
                master_seed=config.master_seed,
                train_loss=f_wk,
                eval_metric=metric,
                interval=interval,
                feasible=feasible,
            )
        except TrainingDiverged as exc:
            exc.records = tuple(records)
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


def run_unquantized(config: TrainingConfig, rounds: int | None = None) -> list[np.ndarray]:
    """Reference trajectory with exact (unquantized) uplinks.

    Consumes the same data, init, and SGD streams as :func:`run_training`,
    so any drift from it is attributable to quantization alone.  Returns
    the global parameters after each round.
    """
    problem = build_problem(config)
    model, shards = problem.model, problem.shards
    w = objectives.init_params(model, derive_rng(config.master_seed, ROLE_INIT))
    total = config.rounds if rounds is None else rounds
    trail = []
    for k in range(total):
        eta_k = config.lr.eta_for_round(k)
        rngs = [derive_rng(config.master_seed, ROLE_SGD, sh.client_id, k) for sh in shards]
        deltas = _local_sgd(model, shards, w, config.local_steps, eta_k, config.batch_size, rngs)
        delta = np.zeros_like(w)
        for shard, client_delta in zip(shards, deltas):
            delta += shard.weight * client_delta
        w = w + delta
        trail.append(w.copy())
    return trail

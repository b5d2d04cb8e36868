"""Synchronous federated training loop with quantized uplinks.

Every round, each client takes ``local_steps`` SGD steps from the current
global parameters, quantizes the resulting parameter delta, and sends it
up; the server dequantizes, averages by shard weight, and applies the
result.  Only uplink traffic is metered.  The uplink runs client by
client in buffers reused across clients; it is bit for bit
``aggregate(w, [quantize(delta, s, rng), ...], weights)`` but builds no
``QuantizedUpdate``.

Determinism contract: every random draw comes from a generator derived
from ``(master_seed, role, client_id, round_index)``, so results do not
depend on client execution order and any single client round can be
replayed in isolation.  Reruns with the same config are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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

# Stream roles; each (role, client, round) triple owns an independent stream.
ROLE_INIT = 0
ROLE_DATA = 1
ROLE_PARTITION = 2
ROLE_SGD = 3
ROLE_QUANT = 4
ROLE_LOSS = 5

_WEIGHT_TOL = 1e-9
# rounds of loss-estimate minibatches drawn per sampler call
_LOSS_DRAW_ROUNDS = 16
# bytes of minibatch rows a client stack gathers at once
_GATHER_BYTES = 1 << 20


# derive_rng reproduces NumPy's SeedSequence hash (numpy/random/
# bit_generator.pyx) bit for bit.  The entropy words are the master seed's
# little-endian 32-bit words, zero-padded to the pool size when a key
# follows, then the words of each key part.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715


def _hash_steps(h: int, mult: int):
    """The (xor, multiplier) constants of successive hash steps from ``h``."""
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hash(value: int, xor: int, mult: int) -> int:
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ (x >> 16)


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an integer: little-endian 32-bit words."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _absorb_steps(h: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.islice(_hash_steps(h, _MULT_A), _POOL_SIZE))


def _absorb(pool: list[int], h: int, words: list[int]) -> int:
    """Mix each word into every pool word, in place; returns the next ``h``."""
    for word in words:
        steps = _absorb_steps(h)
        for i, (xor, mult) in enumerate(steps):
            # pool[i] = _mix(pool[i], _hash(word, xor, mult)), inlined
            x = ((word ^ xor) * mult) & _MASK32
            x = (_MIX_L * pool[i] - _MIX_R * (x ^ (x >> 16))) & _MASK32
            pool[i] = x ^ (x >> 16)
        h = steps[-1][1]
    return h


# typed: a float that equals a cached int must still be rejected
@functools.lru_cache(maxsize=1024, typed=True)
def _seed_prefix(keyed: bool, master_seed: int, *head: int):
    """The pool after the master seed and ``head``, the key parts before the
    last, and the hash constant that comes next.  These are fixed for each
    (role, client) of a run, so they are mixed once."""
    master_seed, head = operator.index(master_seed), [operator.index(k) for k in head]
    if master_seed < 0 or any(k < 0 for k in head):
        raise ValueError("seed components must be non-negative")
    words = _words(master_seed)
    if keyed:
        words += [0] * (_POOL_SIZE - len(words))
    for part in head:
        words += _words(part)
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(words[i] if i < len(words) else 0, *next(steps)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    h = _absorb(pool, next(steps)[0], words[_POOL_SIZE:])
    return tuple(pool), h


# generate_state(4, uint64) hashes the pool, cycled, into eight 32-bit words
# and pairs them low word first: (pool index, xor, multiplier) twice per pair
_GENERATE = list(itertools.islice(_hash_steps(_INIT_B, _MULT_B), 2 * _POOL_SIZE))
_GENERATE_PAIRS = tuple(
    (k % _POOL_SIZE, *_GENERATE[k], (k + 1) % _POOL_SIZE, *_GENERATE[k + 1]) for k in range(0, 8, 2)
)


class _StreamSeed(ISeedSequence):
    """The four PCG64 seed words of one stream; it seeds PCG64 and cannot
    spawn."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("this seed only generates PCG64's four uint64 words")
        return self._state


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (role, client, round, ...) slot.

    Bit for bit ``default_rng(SeedSequence(master_seed, spawn_key=key))``,
    except that the generator's ``seed_seq`` cannot spawn.  The part of the
    hash fixed by ``master_seed`` and ``key[:-1]`` is cached, so a call
    mixes in only ``key[-1]``.
    """
    pool, h = _seed_prefix(bool(key), master_seed, *key[:-1])
    if key:
        last = operator.index(key[-1])
        if last < 0:
            raise ValueError("seed components must be non-negative")
        pool = list(pool)
        _absorb(pool, h, _words(last))
    state = []
    for i, xor_lo, mult_lo, j, xor_hi, mult_hi in _GENERATE_PAIRS:
        lo = ((pool[i] ^ xor_lo) * mult_lo) & _MASK32
        hi = ((pool[j] ^ xor_hi) * mult_hi) & _MASK32
        state.append((lo ^ (lo >> 16)) | (hi ^ (hi >> 16)) << 32)
    return np.random.Generator(np.random.PCG64(_StreamSeed(np.array(state, dtype=np.uint64))))


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

    Row ``i`` of ``w`` belongs to the client at shard position
    ``positions[i]``: its parameters.  Every client's minibatch indices for
    all local steps are drawn when the round starts; their rows and labels
    are gathered into ``x`` and ``y``, ``x[i, t % span]`` at step ``t``, for
    ``span`` steps at a time, as many as fit in ``_GATHER_BYTES`` (at least
    one).  A client whose minibatch is its whole shard has its rows filled
    in once, here.
    """

    def __init__(self, model, shards, rngs, positions, w_start, batch_size, local_steps):
        self.positions = positions
        self.w = np.repeat(w_start[None, :], len(positions), axis=0)
        data = [shards[p].data for p in positions]
        labels = [objectives._labels(model, d.labels) for d in data]
        b = min(batch_size, data[0].m)
        sampled = [i for i, d in enumerate(data) if d.m > b]
        idx = [None] * len(data)
        if sampled:
            drawn = objectives._draw_batches(
                [rngs[positions[i]] for i in sampled], [data[i].m for i in sampled], b, local_steps
            )
            for i, steps in zip(sampled, drawn):
                idx[i] = steps
        step_bytes = len(positions) * b * model.n_features * 8
        span = max(1, min(local_steps if sampled else 1, _GATHER_BYTES // step_bytes))
        self.x = np.empty((len(positions), span, b, model.n_features))
        self.y = np.empty((len(positions), span, b), dtype=labels[0].dtype)
        for i, d in enumerate(data):
            if idx[i] is None:
                self.x[i], self.y[i] = d.features, labels[i]
        self.sources = list(zip(data, labels, idx))

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
        self.sources = [c for c, k in zip(self.sources, rows) if k]
        self.w, self.x, self.y = self.w[rows], self.x[rows], self.y[rows]


def _local_sgd(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    w_start: np.ndarray,
    local_steps: int,
    eta: float,
    batch_size: int,
    rngs: Sequence,
) -> list[np.ndarray]:
    """Local SGD of all clients of a round, stepped together.

    Client ``i`` takes ``local_steps`` steps from ``w_start`` on
    ``shards[i]``, drawing its minibatches from ``rngs[i]``, all Generators
    or all fresh ``PCG64`` bit generators (see
    ``objectives._draw_batches``); the result is the list of parameter
    deltas in shard order.  The parameters are checked here; the shards,
    which never change, by the caller.  Every client's minibatches for all
    ``local_steps`` are drawn when the round starts, the indices it would
    draw alone step by step, and the clients that share an effective batch
    size ``min(batch_size, m)`` get their gradients from one stacked kernel
    call, so the deltas are bit-identical to stepping the clients one at a
    time.

    A client that diverges stops stepping, and so do the clients after it
    in shard order; their streams have given all their draws already.  The
    error raised names the first client in shard order that diverges at
    all, at its first diverging step: the one a client-by-client loop would
    have stopped at.
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
    stacks = [
        _ClientStack(model, shards, rngs, positions, w_start, batch_size, local_steps)
        for positions in groups.values()
    ]
    grad = np.empty((max(len(p) for p in groups.values()), model.dim))
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


def _accumulate(out: np.ndarray, step: np.ndarray, p: float) -> None:
    """``out += p * step`` in place; ``step`` is overwritten."""
    step *= p
    out += step


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
        _accumulate(out, dequantize(q), p)
    return out


def _uplink(
    w: np.ndarray, deltas: Sequence[np.ndarray], s: int, rngs: Sequence, weights: Sequence[float]
) -> np.ndarray:
    """``aggregate(w, [quantize(delta, s, rng), ...], weights)`` bit for bit,
    on checked weights, client by client in buffers allocated once per call:
    no ``QuantizedUpdate``, integer level or per-client array is built."""
    out = np.array(w, dtype=np.float64)
    frac, lower, u = np.empty((3, out.size))
    carry = np.empty(out.size, dtype=bool)
    for delta, rng, p in zip(deltas, rngs, weights):
        delta, norm, norm32 = quantizer._check_input(delta, s)
        if norm32 == 0.0:
            lower.fill(0.0)  # quantize's zero path: no draw, signed zeros below
        else:
            quantizer._lattice(delta, s, norm, frac, lower)
            quantizer._carry(lower, frac, rng, u, carry)
        signs = quantizer._signs(delta, out=carry)
        _accumulate(out, quantizer._scale(lower, norm32, s, signs), p)
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
    shard; otherwise each shard's ``min(batch_size, m)`` rows are drawn from
    its ``ROLE_LOSS`` stream of the round, as ``sample_batch`` would.  No
    minibatch depends on the model, so those of ``_LOSS_DRAW_ROUNDS``
    rounds are drawn in one call.  Shards with the same row count get their
    losses from one stacked kernel call.  Its buffers, and the rows that
    never change, are set up once per run.  The weighted sum runs in shard
    order.
    """

    def __init__(
        self,
        model: ModelSpec,
        shards: Sequence[ClientShard],
        batch_size: int | None,
        master_seed: int,
    ) -> None:
        self.model = model
        self.weights = [sh.weight for sh in shards]
        self.master_seed = master_seed
        groups: dict[int, list[int]] = {}
        for i, sh in enumerate(shards):
            rows = sh.data.m if batch_size is None else min(batch_size, sh.data.m)
            groups.setdefault(rows, []).append(i)
        self.groups = []
        for rows, positions in groups.items():
            members = [(shards[p].client_id, shards[p].data) for p in positions]
            members = [(c, data, objectives._labels(model, data.labels)) for c, data in members]
            x = np.empty((len(positions), rows, model.n_features))
            y = np.empty((len(positions), rows), dtype=members[0][2].dtype)
            draws = []
            for j, (client_id, data, labels) in enumerate(members):
                if rows == data.m:
                    x[j], y[j] = data.features, labels
                else:
                    draws.append((j, client_id, data, labels))
            self.groups.append((positions, x, y, draws))
        self.drawn = [(0, np.empty((0,)))] * len(self.groups)  # (first round, indices)

    def _indices(self, g: int, round_index: int) -> np.ndarray:
        """Group ``g``'s minibatch indices at ``round_index``, a row per
        sampling shard."""
        start, idx = self.drawn[g]
        if not start <= round_index < start + len(idx):
            _, x, _, draws = self.groups[g]
            start, stop = round_index, round_index + _LOSS_DRAW_ROUNDS
            seed, clients = self.master_seed, [c for _, c, _, _ in draws]
            keys = [(c, k) for k in range(start, stop) for c in clients]
            rngs = [derive_rng(seed, ROLE_LOSS, c, k).bit_generator for c, k in keys]
            ms = [data.m for _, _, data, _ in draws] * (stop - start)
            b = x.shape[1]
            idx = objectives._draw_batches(rngs, ms, b).reshape(stop - start, len(draws), b)
            self.drawn[g] = start, idx
        return idx[round_index - start]

    def __call__(self, w: np.ndarray, round_index: int) -> float:
        losses = [0.0] * len(self.weights)
        for g, (positions, x, y, draws) in enumerate(self.groups):
            if draws:
                idx = self._indices(g, round_index)
                for (j, _, data, labels), rows in zip(draws, idx):
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
    """One synchronous round at level ``s``; returns new state and record."""
    _check_shards(model, shards)
    if train_loss is None:
        train_loss = global_loss(model, shards, state.w)
    return _round(
        model, shards, state, s, eta, local_steps, batch_size, master_seed,
        bits_per_update(model.dim, s), _uplink, train_loss=float(train_loss),
    )


def _round(
    model: ModelSpec,
    shards: Sequence[ClientShard],
    state: GlobalState,
    s: int,
    eta: float,
    local_steps: int,
    batch_size: int,
    master_seed: int,
    cost: quantizer.BitCost,
    uplink: Callable[..., np.ndarray],
    **fields,
) -> tuple[GlobalState, RoundRecord]:
    """:func:`run_round` on shards already checked against the model.

    ``cost`` is ``bits_per_update(model.dim, s)``; ``uplink`` takes the
    deltas to the next global parameters, with :func:`_uplink`'s
    signature.  ``fields`` are the record's ``train_loss``,
    ``eval_metric``, ``interval`` and ``feasible``.
    """
    k = state.round_index
    rngs = [derive_rng(master_seed, ROLE_SGD, sh.client_id, k).bit_generator for sh in shards]
    try:
        deltas = _local_sgd(model, shards, state.w, local_steps, eta, batch_size, rngs)
    except TrainingDiverged as exc:
        exc.round_index = k
        raise
    rngs = [derive_rng(master_seed, ROLE_QUANT, sh.client_id, k) for sh in shards]
    w_next = uplink(state.w, deltas, s, rngs, [sh.weight for sh in shards])
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
    return _train(config, _uplink, on_record, keep_parameters)


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
    exact = replace(config, bit_budget=None, loss_threshold=None)
    return list(_train(exact, _exact_uplink, None, True).parameter_trail)


def _train(
    config: TrainingConfig,
    uplink: Callable[..., np.ndarray],
    on_record: Callable[[RoundRecord], None] | None,
    keep_parameters: bool,
) -> TrainingRun:
    """The round loop of :func:`run_training`, with the uplink as a
    function of :func:`_uplink`'s signature."""
    problem = build_problem(config)
    model, shards = problem.model, problem.shards
    _check_shards(model, shards)
    batch = None if config.loss_estimate == "full" else config.batch_size
    loss_estimate = _LossEstimate(model, shards, batch, config.master_seed)
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
        try:
            state, record = _round(
                model,
                shards,
                state,
                s_k,
                eta_k,
                config.local_steps,
                config.batch_size,
                config.master_seed,
                cost,
                uplink,
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

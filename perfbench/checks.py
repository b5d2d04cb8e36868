"""Output checks computed apart from fedquant.

Each function returns a list of failure messages, empty when the output is
right.  Nothing here calls into fedquant: the checks recompute what the
program reports from its inputs and the properties the method must have.
"""

from __future__ import annotations

import math

import numpy as np


def element_bits(s: int) -> int:
    """Smallest b with 2**b >= s + 1."""
    b = 0
    while 2**b < s + 1:
        b += 1
    return b


def round_bits(records, d: int, budget: int | None) -> list[str]:
    """Every round costs d*b + d + 32 bits; the running total adds up and
    stays within the budget."""
    errors = []
    total = 0
    for r in records:
        b = element_bits(r.s)
        if r.element_bits != b or r.bits_this_round != d * b + d + 32:
            errors.append(f"round {r.round_index}: s={r.s} metered {r.bits_this_round} bits")
        total += d * b + d + 32
        if r.cumulative_bits != total:
            errors.append(f"round {r.round_index}: cumulative {r.cumulative_bits} != {total}")
        if budget is not None and total > budget:
            errors.append(f"round {r.round_index}: {total} bits exceed the budget {budget}")
    return errors


def adaquant_levels(records, s0: int, s_max: int, eta0: float, f_star: float, interval_bits: int) -> list[str]:
    """The level is recomputed by the paper's rule exactly when the uplink
    total enters a new interval, and held otherwise:
    s = round(sqrt((eta_k/eta0)^2 (f0 - f*) / (f_k - f*)) * s0), clamped to
    [1, s_max], with f0 the first round's loss."""
    errors = []
    if not records:
        return errors
    f0 = records[0].train_loss
    s, index, sent = s0, 0, 0
    for r in records:
        new_index = sent // interval_bits
        if new_index > index:
            index = new_index
            if f0 <= f_star:
                s = 1
            elif r.train_loss <= f_star:
                s = s_max
            else:
                raw = math.sqrt((r.eta / eta0) ** 2 * (f0 - f_star) / (r.train_loss - f_star)) * s0
                s = min(max(math.floor(raw + 0.5), 1), s_max)
        if r.interval != index or r.s != s:
            errors.append(
                f"round {r.round_index}: level {r.s} in interval {r.interval}, "
                f"rule gives {s} in interval {index}"
            )
        sent = r.cumulative_bits
    return errors


def full_loss(kind: str, shape: tuple[int, int, int], w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean training loss over every row, written out for the two models the
    training workloads use."""
    if kind == "logistic":
        z = x @ w[:-1] + w[-1]
        return float(np.mean(np.logaddexp(0.0, z) - y * z))
    f, h, c = shape
    w1 = w[: f * h].reshape(f, h)
    b1 = w[f * h : f * h + h]
    w2 = w[f * h + h : f * h + h + h * c].reshape(h, c)
    b2 = w[f * h + h + h * c :]
    logits = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    top = logits.max(axis=1)
    log_norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return float(np.mean(log_norm - logits[np.arange(len(y)), y]))


def final_loss(program_value: float, own_final: float, own_initial: float) -> list[str]:
    errors = []
    if not abs(program_value - own_final) <= 1e-9 * max(1.0, abs(own_final)):
        errors.append(f"final loss {program_value!r} != recomputed {own_final!r}")
    if not own_final < own_initial:
        errors.append(f"final loss {own_final!r} is not below the initial loss {own_initial!r}")
    return errors


def codec_case(w: np.ndarray, s: int, q, blob: bytes, q2, v: np.ndarray) -> list[str]:
    """One quantize -> encode -> decode -> dequantize pass over ``w``."""
    d = w.size
    errors = []
    if not (
        q2.norm == q.norm
        and q2.s == q.s == s
        and q2.d == q.d == d
        and np.array_equal(q2.signs, q.signs)
        and np.array_equal(q2.levels, q.levels)
    ):
        errors.append(f"d={d} s={s}: decode(encode(q)) differs from q")
    size = 15 + math.ceil(d * (1 + element_bits(s)) / 8)
    if len(blob) != size:
        errors.append(f"d={d} s={s}: {len(blob)} bytes, expected {size}")
    norm = float(np.sqrt(np.sum(w * w)))
    if np.any(v * w < 0.0) or np.any((v != 0.0) & (w == 0.0)):
        errors.append(f"d={d} s={s}: a coordinate changed sign")
    # the lattice step is norm/s; the norm travels as float32, which moves
    # every lattice point by at most a relative 2**-24 of the norm
    slack = norm / s + norm * 2.0**-23 + 1e-12
    if np.any(np.abs(v - w) > slack):
        errors.append(f"d={d} s={s}: a coordinate moved by more than norm/s")
    return errors

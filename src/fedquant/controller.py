"""Quantization-level scheduling and convergence diagnostics.

The fixed-level analysis bounds the optimality gap after spending a bit
budget ``B`` by

    A1 * log2(4 s) + A2 / s**2 + A3

which trades compression error (the ``1/s**2`` term) against the number of
rounds the budget affords (the ``log2`` term).  The adaptive schedule keeps
re-solving for the minimizing level as the loss falls, coarsening early
rounds and refining later ones.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .quantizer import NORM_BITS

__all__ = [
    "BoundConstants",
    "QuantSchedule",
    "LrSchedule",
    "bound_value",
    "optimal_s_closed_form",
    "adaquant_level",
    "interval_tick",
    "lr_condition_fixed",
    "adaptive_bound_terms",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundConstants:
    """Problem constants the convergence bounds are built from.

    ``grad_variance`` is the per-sample gradient variance proxy and may be
    zero (a noiseless problem); everything else must be strictly positive,
    and the initial loss must exceed the optimal loss.
    """

    eta: float
    smoothness: float
    grad_variance: float
    local_steps: int
    n_clients: int
    dim: int
    bit_budget: float
    initial_loss: float
    optimal_loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta", "smoothness", "bit_budget"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("local_steps", "n_clients", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.grad_variance < 0.0:
            raise ValueError("grad_variance must be non-negative")
        if not self.initial_loss > self.optimal_loss:
            raise ValueError("initial_loss must exceed optimal_loss")

    @property
    def gap(self) -> float:
        return self.initial_loss - self.optimal_loss

    @property
    def log2_coefficient(self) -> float:
        """Weight of the log2(4s) term: rounds lost to per-element bits."""
        return (
            2.0
            * self.gap
            * self.dim
            / (self.eta * self.bit_budget * self.local_steps)
        )

    @property
    def inv_square_coefficient(self) -> float:
        """Weight of the 1/s**2 term: quantization noise."""
        return (
            self.eta
            * self.smoothness
            * self.dim
            * self.grad_variance
            / self.n_clients
        )

    @property
    def constant_term(self) -> float:
        """Level-independent floor: SGD noise plus the fixed header cost."""
        eta, l, var, tau, n = (
            self.eta,
            self.smoothness,
            self.grad_variance,
            self.local_steps,
            self.n_clients,
        )
        sgd = eta * eta * var * (tau - 1) * l * l * (n + 1) / n + eta * l * var / n
        header = self.log2_coefficient * (self.dim + NORM_BITS) / self.dim
        return sgd + header


def bound_value(s, constants: BoundConstants):
    """The fixed-level gap bound ``A1 log2(4 s) + A2 / s**2 + A3`` at level ``s``.

    Accepts scalar or array ``s`` (real-valued, so the curve can be plotted
    or searched on a continuous grid).
    """
    s_arr = np.asarray(s, dtype=np.float64)
    if np.any(s_arr <= 0.0):
        raise ValueError("s must be positive")
    value = (
        constants.log2_coefficient * np.log2(4.0 * s_arr)
        + constants.inv_square_coefficient / (s_arr * s_arr)
        + constants.constant_term
    )
    return float(value) if np.isscalar(s) or s_arr.ndim == 0 else value


def optimal_s_closed_form(constants: BoundConstants) -> float:
    """Stationary point of :func:`bound_value` in continuous ``s``.

    Setting the derivative to zero gives ``s* = sqrt(2 A2 / (A1 log2 e))``,
    which expands to the expression below.  Requires gradient noise to be
    strictly positive, otherwise the bound is monotone and has no interior
    minimum.
    """
    if constants.grad_variance <= 0.0:
        raise ValueError("optimal level is undefined for zero gradient variance")
    c = constants
    return math.sqrt(
        c.eta**2
        * c.smoothness
        * c.grad_variance
        * c.local_steps
        * c.bit_budget
        * math.log(2.0)
        / (c.n_clients * c.gap)
    )


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Refuse a ``value`` that is not finite, or, with ``positive``, not
    above zero, in a ``ValueError`` that names it."""
    if not (0.0 < value < math.inf if positive else math.isfinite(value)):
        raise ValueError(f"{name} must be finite{' and positive' if positive else ''}, got {value}")


@dataclass(frozen=True)
class QuantSchedule:
    """State of the adaptive level schedule.

    The schedule re-solves for the level every ``interval_bits`` of uplink
    traffic, scaling the starting level ``s0`` by how far the loss has
    fallen (and the step size with it) since training began.  ``f_w0`` is
    captured from the first observed loss when not set up front; it must
    lie above ``f_star``, or the rule has no loss gap to scale by.
    ``saturated`` says whether the last recomputation saw a loss at or
    below ``f_star``.
    """

    s0: int
    interval_bits: int
    s_max: int
    eta0: float
    f_star: float = 0.0
    f_w0: float | None = None
    interval_index: int = 0
    current_s: int | None = None
    saturated: bool = False

    def __post_init__(self) -> None:
        if self.s0 < 1:
            raise ValueError("s0 must be at least 1")
        if self.s_max < self.s0:
            raise ValueError("s_max must be at least s0")
        if self.interval_bits < 1:
            raise ValueError("interval_bits must be at least 1")
        _check_finite("eta0", self.eta0, positive=True)
        _check_finite("f_star", self.f_star)
        if self.f_w0 is not None:
            _check_finite("f_w0", self.f_w0)
            if self.f_w0 <= self.f_star:
                raise ValueError(f"initial loss {self.f_w0} is at or below f_star {self.f_star}")
        if self.current_s is None:
            object.__setattr__(self, "current_s", self.s0)


def adaquant_level(f_wk: float, eta_k: float, schedule: QuantSchedule) -> int:
    """Level the adaptive rule picks for loss ``f_wk`` at step size ``eta_k``.

    The raw value ``sqrt(eta_k^2 (f(w0) - f*) / (eta0^2 (f(wk) - f*))) * s0``
    is rounded half-up and clamped to ``[1, s_max]``.  A loss at or below
    ``f_star`` would send the level to infinity, so it saturates at
    ``s_max`` with a warning.
    """
    _check_finite("f_wk", f_wk)
    _check_finite("eta_k", eta_k, positive=True)
    return _level(f_wk, eta_k, schedule, warn=True)[0]


def _level(f_wk: float, eta_k: float, schedule: QuantSchedule, warn: bool) -> tuple[int, bool]:
    """:func:`adaquant_level`, and whether the loss saturated it; the
    saturation warning is logged only when ``warn`` is set.  The inputs
    are checked by its callers."""
    if schedule.f_w0 is None:
        raise ValueError("schedule has no recorded initial loss")
    base = schedule.f_w0 - schedule.f_star
    excess = f_wk - schedule.f_star
    if excess <= 0.0:
        if warn:
            logger.warning(
                "loss %.6g at or below f_star; saturating at s_max=%d", f_wk, schedule.s_max
            )
        return schedule.s_max, True
    raw = math.sqrt((eta_k / schedule.eta0) ** 2 * base / excess) * schedule.s0
    return int(min(max(math.floor(raw + 0.5), 1), schedule.s_max)), False


def interval_tick(
    schedule: QuantSchedule, cumulative_bits: int, f_wk: float, eta_k: float
) -> tuple[int, QuantSchedule]:
    """Advance the schedule to the current traffic level.

    Returns the level to use this round and the updated schedule.  The
    level is recomputed only when ``cumulative_bits`` has crossed into a
    new ``interval_bits``-sized window since the last recomputation.  A
    loss at or below ``f_star`` is warned about once, when the schedule
    enters saturation, not at every recomputation that stays there.
    ``f_wk`` and ``eta_k`` are checked at every tick, recomputing or not;
    the first tick captures ``f_wk`` as ``f_w0``, so a first loss at or
    below ``f_star`` is refused there.
    """
    if cumulative_bits < 0:
        raise ValueError("cumulative_bits must be non-negative")
    _check_finite("f_wk", f_wk)
    _check_finite("eta_k", eta_k, positive=True)
    if schedule.f_w0 is None:
        schedule = replace(schedule, f_w0=f_wk)
    index = cumulative_bits // schedule.interval_bits
    if index > schedule.interval_index:
        level, saturated = _level(f_wk, eta_k, schedule, warn=not schedule.saturated)
        schedule = replace(
            schedule, interval_index=index, current_s=level, saturated=saturated
        )
    return schedule.current_s, schedule


def _lr_margin(eta: float, smoothness: float, dim: int, local_steps: int, s: int, n_clients: int) -> float:
    return (
        1.0
        - eta * smoothness * (1.0 + dim * local_steps / (s * s * n_clients))
        - 2.0 * eta * eta * smoothness * smoothness * local_steps * (local_steps - 1)
    )


def lr_condition_fixed(
    eta: float, smoothness: float, dim: int, local_steps: int, s: int, n_clients: int
) -> bool:
    """Whether step size ``eta`` at level ``s`` meets the analysis's condition.

    ``run_training`` applies it each round to that round's ``eta_k`` and ``s_k``.
    """
    if eta <= 0.0 or smoothness <= 0.0:
        raise ValueError("eta and smoothness must be positive")
    if min(dim, local_steps, s, n_clients) < 1:
        raise ValueError("dim, local_steps, s, n_clients must be at least 1")
    return _lr_margin(eta, smoothness, dim, local_steps, s, n_clients) >= 0.0


def adaptive_bound_terms(
    etas, levels, constants: BoundConstants
) -> tuple[float, float, float, float]:
    """The four terms of the varying-level gap bound.

    In order: the optimization term (shrinks with total step mass), the SGD
    variance term, the local-drift term, and the quantization term driven
    by the per-round levels.
    """
    etas = np.asarray(etas, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    if etas.ndim != 1 or etas.size < 1:
        raise ValueError("etas must be a non-empty 1-D sequence")
    if levels.shape != etas.shape:
        raise ValueError("levels must match etas in length")
    if np.any(etas <= 0.0):
        raise ValueError("step sizes must be positive")
    if np.any(levels < 1.0):
        raise ValueError("levels must be at least 1")
    c = constants
    s1 = float(etas.sum())
    s2 = float((etas**2).sum())
    s3 = float((etas**3).sum())
    sq = float(((etas**2) * c.dim / (levels**2)).sum())
    l, var, tau, n = c.smoothness, c.grad_variance, c.local_steps, c.n_clients
    t_opt = 2.0 * c.gap / s1
    t_sgd = l * tau * var * s2 / (n * s1)
    t_drift = var * (n + 1) * tau * (tau - 1) * l * l * s3 / (n * s1)
    t_quant = l * tau * var * sq / (n * s1)
    return t_opt, t_sgd, t_drift, t_quant


@dataclass(frozen=True)
class LrSchedule:
    """Step size per round: constant, or decayed by a factor every so many
    rounds."""

    eta0: float
    decay_factor: float = 1.0
    decay_every: int | None = None

    def __post_init__(self) -> None:
        _check_finite("eta0", self.eta0, positive=True)
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.decay_every is not None and self.decay_every < 1:
            raise ValueError("decay_every must be at least 1")

    @classmethod
    def constant(cls, eta0: float) -> "LrSchedule":
        return cls(eta0=eta0)

    def eta_for_round(self, k: int) -> float:
        if k < 0:
            raise ValueError("round index must be non-negative")
        if self.decay_every is None or self.decay_factor == 1.0:
            return self.eta0
        return self.eta0 * self.decay_factor ** (k // self.decay_every)

"""Adversarial delay schedulers for the asynchronous clique.

A scheduler assigns each message a transmission delay in ``(0, 1]`` — one
*time unit* is, by definition, an upper bound on any transmission time.
The engine additionally enforces FIFO per directed link by never letting a
later send on a link overtake an earlier one.  A scheduler whose delay
never varies says so in :attr:`DelayScheduler.constant_delay`: its links
are FIFO by construction, and the engine then times a whole send batch
with one addition instead of one delay call and clamp per message.

The paper's adversary may pick delays arbitrarily (after seeing the random
bits, but with an obliviously-chosen port mapping); we therefore provide a
family of concrete adversaries that benches run side by side:

* :class:`UnitDelayScheduler` — every delay is exactly 1.  This maximizes
  the time span of any fixed communication dag and is the canonical
  worst case for time-complexity measurements.
* :class:`UniformDelayScheduler` — i.i.d. uniform delays, the "random
  network weather" baseline.
* :class:`RushScheduler` — near-zero delays; an adversary that executes
  message chains as fast as possible, exposing race conditions (many
  algorithm bugs only show up when some chains run far ahead of others).
* :class:`PerLinkDelayScheduler` — a fixed random delay per directed
  link: a heterogeneous network in which some links are persistently slow.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DelayScheduler",
    "UnitDelayScheduler",
    "UniformDelayScheduler",
    "RushScheduler",
    "PerLinkDelayScheduler",
    "TargetedDelayScheduler",
]


class DelayScheduler:
    """Strategy assigning per-message delays in ``(0, 1]``."""

    #: The delay :meth:`delay` returns for every message, or ``None``
    #: when it varies.  A subclass that overrides :meth:`delay` without
    #: restating it falls back to ``None``.
    constant_delay: Optional[float] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "delay" in cls.__dict__ and "constant_delay" not in cls.__dict__:
            cls.constant_delay = None

    def delay(self, src: int, dst: int, send_time: float, payload: Any) -> float:
        raise NotImplementedError


class UnitDelayScheduler(DelayScheduler):
    """Every message takes exactly one time unit."""

    constant_delay = 1.0

    def delay(self, src: int, dst: int, send_time: float, payload: Any) -> float:
        return 1.0


class UniformDelayScheduler(DelayScheduler):
    """I.i.d. uniform delays in ``[lo, hi] ⊆ (0, 1]``."""

    def __init__(self, rng: random.Random, lo: float = 0.05, hi: float = 1.0) -> None:
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("need 0 < lo <= hi <= 1")
        self.rng = rng
        self.lo = lo
        self.hi = hi

    def delay(self, src: int, dst: int, send_time: float, payload: Any) -> float:
        return self.rng.uniform(self.lo, self.hi)


class RushScheduler(DelayScheduler):
    """Near-instant delivery (``epsilon`` per hop).

    Time spans measured under this scheduler are near zero by
    construction; its purpose is correctness testing under extreme event
    interleavings, not time measurement.
    """

    def __init__(self, epsilon: float = 1e-6) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("need 0 < epsilon <= 1")
        self.epsilon = epsilon

    @property
    def constant_delay(self) -> float:
        return self.epsilon

    def delay(self, src: int, dst: int, send_time: float, payload: Any) -> float:
        return self.epsilon


class PerLinkDelayScheduler(DelayScheduler):
    """A fixed delay per directed link, drawn once per link.

    Models persistent heterogeneity (slow links stay slow), which is the
    adversary that separates FIFO-per-link behaviour from global-order
    behaviour.
    """

    def __init__(self, rng: random.Random, lo: float = 0.05, hi: float = 1.0) -> None:
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("need 0 < lo <= hi <= 1")
        self.rng = rng
        self.lo = lo
        self.hi = hi
        self._link_delay: Dict[Tuple[int, int], float] = {}

    def delay(self, src: int, dst: int, send_time: float, payload: Any) -> float:
        key = (src, dst)
        value = self._link_delay.get(key)
        if value is None:
            value = self.rng.uniform(self.lo, self.hi)
            self._link_delay[key] = value
        return value


class TargetedDelayScheduler(DelayScheduler):
    """Per-message-kind delays: the protocol-aware adversary.

    The paper's adversary may inspect the algorithm (and even its random
    bits) when choosing delays.  The sharpest executions it can force
    differentiate by *message role*: e.g. rushing every ``compete`` while
    stalling every ``win`` maximizes the number of referees whose stored
    winner is consulted and overturned — the exact interleavings the
    uniqueness argument of Lemma 5.9 has to survive.

    ``kind_delays`` maps a payload kind (the first element of tuple
    payloads, see :func:`repro.common.message_kind`) to a fixed delay in
    ``(0, 1]``; unspecified kinds get ``default``.
    """

    def __init__(self, kind_delays: Dict[str, float], default: float = 0.5) -> None:
        for kind, value in kind_delays.items():
            if not 0.0 < value <= 1.0:
                raise ValueError(f"delay for kind {kind!r} outside (0, 1]: {value}")
        if not 0.0 < default <= 1.0:
            raise ValueError("default delay outside (0, 1]")
        self.kind_delays = dict(kind_delays)
        self.default = default

    def delay(self, src: int, dst: int, send_time: float, payload: Any) -> float:
        kind = None
        if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
            kind = payload[0]
        elif isinstance(payload, str):
            kind = payload
        return self.kind_delays.get(kind, self.default)

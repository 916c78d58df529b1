"""Retry policy (exponential backoff + deterministic jitter) and a
per-scenario circuit breaker.

Both pieces are deliberately free of wall-clock and OS state so the
supervisor's decisions are reproducible: the jitter is derived from a
hash of ``(key, attempt)`` rather than a live RNG, and the breaker is a
plain counter.  Waiting is the caller's job (the supervisor time-gates
a retrying group instead of sleeping, so other groups run meanwhile).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RetryPolicy", "CircuitBreaker"]


def _unit_hash(key: str, attempt: int) -> float:
    """Deterministic pseudo-uniform draw in [0, 1) from (key, attempt)."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with +/- ``jitter`` fractional spread."""

    max_attempts: int = 3
    base_delay: float = 0.5
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def allows(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) may run."""
        return attempt <= self.max_attempts

    def backoff(self, attempt: int, key: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based failures so far).

        Exponential in the attempt, clamped to ``max_delay``, then
        spread by the deterministic jitter so colliding retries
        de-synchronise the same way on every run.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * _unit_hash(key, attempt) - 1.0)
        return raw


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker keyed by scenario (or experiment).

    ``threshold`` consecutive failures on one key open its circuit;
    any success on the key resets the count.  An open circuit remembers
    the reason that tripped it so skipped work is explainable.
    """

    threshold: int = 3
    _failures: dict[str, int] = field(default_factory=dict)
    _open_reasons: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    def record_failure(self, key: str, reason: str) -> bool:
        """Count one failure; returns True when this call opened the circuit."""
        if self.is_open(key):
            return False
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        if count >= self.threshold:
            self._open_reasons[key] = (
                f"{count} consecutive failures (last: {reason})")
            return True
        return False

    def record_success(self, key: str) -> None:
        self._failures.pop(key, None)

    def is_open(self, key: str) -> bool:
        return key in self._open_reasons

    def reason(self, key: str) -> Optional[str]:
        return self._open_reasons.get(key)

"""Actual (not estimated) KV-cache occupancy tracking per node.

The scheduler works from *estimates* (:mod:`repro.scheduling.kv_estimator`);
the simulator tracks the truth. Overflowing the pool does not crash the
simulation — real engines offload to host memory at a throughput cost — but
every overflow is counted so experiments can report whether the scheduler's
high-water masking actually prevented oversubscription.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class KVCachePool:
    """Token-granularity KV pool of one node.

    Attributes:
        node_id: Owning node.
        capacity_tokens: Tokens of KV the node can hold for its resident
            layers.
    """

    node_id: str
    capacity_tokens: int
    used_tokens: int = 0
    peak_tokens: int = 0
    overflow_events: int = 0

    def allocate(self, tokens: int) -> bool:
        """Reserve ``tokens``; returns False (and counts) on overflow.

        The allocation proceeds even on overflow — the engine would spill
        to host memory rather than lose the request.
        """
        if tokens < 0:
            raise ValueError(f"negative allocation of {tokens} tokens")
        overflowed = self.used_tokens + tokens > self.capacity_tokens
        if overflowed:
            self.overflow_events += 1
        self.used_tokens += tokens
        self.peak_tokens = max(self.peak_tokens, self.used_tokens)
        return not overflowed

    def charge_run(self, tokens: int) -> None:
        """Charge a decode run of ``tokens`` single-token allocations.

        Equivalent to ``tokens`` calls of ``allocate(1)`` folded into one
        update: the overflow counter advances by how many of those
        single-token allocations would have landed past capacity
        (``min(tokens, used_after - capacity)`` when positive), and the
        peak is taken once at the end — the running maximum of a
        monotonically growing occupancy is its final value. This is the
        simulator's vectorized decode fast path; it must stay observably
        identical to the per-token loop.
        """
        used = self.used_tokens + tokens
        over = used - self.capacity_tokens
        if over > 0:
            self.overflow_events += tokens if over > tokens else over
        self.used_tokens = used
        if used > self.peak_tokens:
            self.peak_tokens = used

    def free(self, tokens: int) -> None:
        """Release ``tokens`` (clamped at zero)."""
        if tokens < 0:
            raise ValueError(f"negative free of {tokens} tokens")
        self.used_tokens = max(0, self.used_tokens - tokens)

    @property
    def utilization(self) -> float:
        """Occupancy fraction (may exceed 1.0 while overflowing)."""
        if self.capacity_tokens <= 0:
            return 0.0
        return self.used_tokens / self.capacity_tokens

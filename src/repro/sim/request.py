"""Request descriptor for the simulator and trace generators."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One inference request.

    Attributes:
        request_id: Unique identifier.
        input_len: Prompt length in tokens.
        output_len: Number of tokens to generate (fixed by the trace; the
            serving system does not know it in advance).
        arrival_time: Seconds since simulation start when the request
            reaches the coordinator.
        tenant_id: Owning tenant under multi-tenant serving; empty string
            (the default) means the single-tenant legacy configuration.
    """

    request_id: str
    input_len: int
    output_len: int
    arrival_time: float = 0.0
    tenant_id: str = ""

    def __post_init__(self) -> None:
        if self.input_len < 1:
            raise ValueError(f"input_len must be >= 1, got {self.input_len}")
        if self.output_len < 1:
            raise ValueError(f"output_len must be >= 1, got {self.output_len}")
        if not math.isfinite(self.arrival_time):
            raise ValueError(
                f"arrival_time must be finite, got {self.arrival_time}"
            )
        if self.arrival_time < 0:
            raise ValueError(f"negative arrival_time {self.arrival_time}")

    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens."""
        return self.input_len + self.output_len

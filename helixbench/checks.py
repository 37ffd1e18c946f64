"""Correctness checks the benchmark applies to every result it reports.

Each check returns a list of failure strings (empty = correct), so the
command can print all of them before exiting non-zero, and tests can feed
doctored results in and expect a rejection.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ServingOutcome:
    """Request accounting of one serving simulation.

    ``submitted`` is the length of the trace the benchmark generated;
    every other field is counted from the simulation's request records.
    """

    label: str
    submitted: int
    finished: int
    shed: int
    lost: int
    unfinished: int
    decode_tokens: int
    finished_output_tokens: int

    @classmethod
    def from_records(cls, label: str, submitted: int, records) -> "ServingOutcome":
        finished = [r for r in records if r.finished]
        return cls(
            label=label,
            submitted=submitted,
            finished=len(finished),
            shed=sum(1 for r in records if r.shed),
            lost=sum(1 for r in records if r.lost),
            unfinished=sum(
                1 for r in records if not (r.finished or r.shed or r.lost)
            ),
            decode_tokens=sum(r.tokens_generated for r in records),
            finished_output_tokens=sum(r.output_len for r in finished),
        )


def check_serving(outcome: ServingOutcome) -> list[str]:
    """Conservation: every submitted request is accounted for exactly once,
    and the tokens generated are exactly the finished requests' outputs."""
    failures = []
    accounted = (
        outcome.finished + outcome.shed + outcome.lost + outcome.unfinished
    )
    if accounted != outcome.submitted:
        failures.append(
            f"{outcome.label}: finished {outcome.finished} + shed "
            f"{outcome.shed} + lost {outcome.lost} + unfinished "
            f"{outcome.unfinished} = {accounted} != submitted "
            f"{outcome.submitted}"
        )
    if outcome.decode_tokens != outcome.finished_output_tokens:
        failures.append(
            f"{outcome.label}: decode tokens {outcome.decode_tokens} != "
            f"sum of finished output lengths {outcome.finished_output_tokens}"
        )
    return failures


def check_all_served(outcome: ServingOutcome) -> list[str]:
    """A serving workload without faults or shedding must finish everything."""
    if outcome.finished != outcome.submitted:
        return [
            f"{outcome.label}: only {outcome.finished} of "
            f"{outcome.submitted} requests finished"
        ]
    return []


def check_flow_bound(offline_tok_per_s: float, planned_tok_per_s: float) -> list[str]:
    """Served offline throughput can never beat the plan's max flow."""
    if offline_tok_per_s > planned_tok_per_s * (1.0 + 1e-9):
        return [
            f"offline throughput {offline_tok_per_s} tok/s exceeds the "
            f"planned max flow {planned_tok_per_s} tok/s"
        ]
    return []


def check_cells(records: list[dict]) -> list[str]:
    """Every verify cell must pass all of its invariants and oracles."""
    return [
        f"verify cell {r.get('params', {}).get('family')}/"
        f"{r.get('params', {}).get('seed')} failed: "
        f"{[v.get('invariant') for v in r.get('violations', [])]}"
        for r in records
        if not r.get("ok")
    ]


def check_same(kind: str, digests: list[str]) -> list[str]:
    """All digests of one kind within a run must agree.

    This is the benchmark's determinism guard: it compares the repeated
    set-ups (plan digests), every measured pass and the traced pass
    (simulated-outcome digests) of one invocation. Comparing simulated
    metrics across commits is left to the metric comparison itself.
    """
    if len(set(digests)) > 1:
        return [f"{kind} digest differs between repeats in one run: {digests}"]
    return []


def digest(value) -> str:
    """Short stable digest of plain JSON-able data (floats via ``repr``)."""
    payload = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def plan_digest(placement, planned_tok_per_s: float) -> str:
    """Digest of a placement's intervals and its planned max flow."""
    intervals = sorted(
        (node_id, stage.start, stage.end)
        for node_id, stage in placement.assignments.items()
    )
    return digest([intervals, repr(planned_tok_per_s)])


def finite_or_fail(name: str, value: float) -> list[str]:
    if not math.isfinite(value):
        return [f"{name} is not finite ({value})"]
    return []

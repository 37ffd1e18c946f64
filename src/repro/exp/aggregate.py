"""Aggregators: per-run records -> the experiment's headline document.

Each aggregator takes ``(spec, records)`` — records in manifest order —
and returns the experiment's JSON report: the document ``--output``
writes and the source of the ``BENCH_*`` headline files that perf-tracking
diffs and plotting scripts read.

Aggregates deliberately exclude wall-clock fields (per-cell ``seconds``,
sweep wall time): a resumed run re-executes some cells with different
timings, and the aggregate must come out byte-identical to an
uninterrupted run. Timings stay in the per-run records and ``runs.csv``.
"""

from __future__ import annotations

#: Record keys excluded from aggregate rows (nondeterministic or
#: redundant with the row's own fields).
_VOLATILE_KEYS = ("seconds", "kind", "params")


def _mean(samples: list[float]) -> float | None:
    return round(sum(samples) / len(samples), 4) if samples else None


def _row(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE_KEYS}


def _failing(rows: list[dict]) -> list[dict]:
    return [
        {
            "family": r.get("family"),
            "seed": r.get("seed"),
            "repro": r.get("repro"),
        }
        for r in rows if not r.get("ok")
    ]


def _grid_axis(spec, axis: str) -> tuple:
    for name, values in spec.grid:
        if name == axis:
            return values
    return ()


def _split(records: list[dict], kind: str) -> tuple[list[dict], list[dict]]:
    """Partition records into (matching kind, the rest)."""
    matching = [r for r in records if r.get("kind") == kind]
    rest = [r for r in records if r.get("kind") != kind]
    return matching, rest


def _counter_totals(rows: list[dict]) -> dict:
    totals = {"submitted": 0, "finished": 0, "shed": 0, "lost": 0}
    for row in rows:
        counters = row.get("counters") or {}
        for key in totals:
            totals[key] += counters.get(key, 0)
    return totals


def generic_aggregate(spec, records: list[dict]) -> dict:
    rows = [_row(r) for r in records]
    return {
        "experiment": spec.name,
        "total_cells": len(rows),
        "failures": sum(1 for r in rows if not r.get("ok")),
        "failing_addresses": _failing(rows),
        "results": rows,
    }


def scenario_sweep_aggregate(spec, records: list[dict]) -> dict:
    rows = [_row(r) for r in records]
    base = spec.base_dict
    return {
        "experiment": spec.name,
        "size": base.get("size", "full"),
        "seeds_per_family": len(_grid_axis(spec, "seed")),
        "milp_oracles": base.get("milp_oracles", False),
        "total_addresses": len(rows),
        "failures": sum(1 for r in rows if not r.get("ok")),
        "failing_addresses": _failing(rows),
        "results": rows,
    }


def chaos_sweep_aggregate(spec, records: list[dict]) -> dict:
    rows = [_row(r) for r in records]
    mttd_means: list[float] = []
    mttd_maxes: list[float] = []
    mttr_samples: list[float] = []
    recovery_ratios: list[float] = []
    false_positives = 0
    for row in rows:
        disruption = row.get("disruption") or {}
        false_positives += disruption.get("false_positives") or 0
        if disruption.get("mttd_mean_s") is not None:
            mttd_means.append(disruption["mttd_mean_s"])
            mttd_maxes.append(disruption["mttd_max_s"])
        if disruption.get("time_to_recovery_s") is not None:
            mttr_samples.append(disruption["time_to_recovery_s"])
        if disruption.get("recovery_ratio") is not None:
            recovery_ratios.append(disruption["recovery_ratio"])
    totals = _counter_totals(rows)
    submitted = totals["submitted"]
    headline = {
        "addresses": len(rows),
        "failures": sum(1 for r in rows if not r.get("ok")),
        "addresses_with_detections": len(mttd_means),
        "mttd_mean_s": _mean(mttd_means),
        "mttd_max_s": round(max(mttd_maxes), 4) if mttd_maxes else None,
        "mttr_mean_s": _mean(mttr_samples),
        "recovery_ratio_mean": _mean(recovery_ratios),
        "false_positives": false_positives,
        "requests_submitted": submitted,
        "requests_finished": totals["finished"],
        "requests_shed": totals["shed"],
        "requests_lost": totals["lost"],
        "shed_rate": (
            round(totals["shed"] / submitted, 6) if submitted else None
        ),
        "lost_rate": (
            round(totals["lost"] / submitted, 6) if submitted else None
        ),
    }
    return {
        "experiment": spec.name,
        "family": "chaos",
        "size": spec.base_dict.get("size", "full"),
        "seeds": len(_grid_axis(spec, "seed")),
        "failures": headline["failures"],
        "failing_addresses": _failing(rows),
        "headline": headline,
        "results": rows,
    }


def elastic_sweep_aggregate(spec, records: list[dict]) -> dict:
    spare_records, sweep_records = _split(records, "spare_recovery")
    rows = [_row(r) for r in sweep_records]
    mttr_samples: list[float] = []
    recovery_ratios: list[float] = []
    warmups = drains = scale_ups = scale_downs = 0
    warmup_seconds = 0.0
    warmup_bytes = 0
    for row in rows:
        elasticity = row.get("elasticity") or {}
        warmups += elasticity.get("warmups", 0)
        warmup_seconds += elasticity.get("warmup_seconds_total", 0.0)
        warmup_bytes += elasticity.get("warmup_bytes_total", 0)
        drains += elasticity.get("drains", 0)
        actions = elasticity.get("autoscaler_actions", [])
        scale_ups += sum(1 for _, a, _ in actions if a == "add")
        scale_downs += sum(1 for _, a, _ in actions if a == "drain")
        disruption = row.get("disruption") or {}
        if disruption.get("mttr_s") is not None:
            mttr_samples.append(disruption["mttr_s"])
        if disruption.get("recovery_ratio") is not None:
            recovery_ratios.append(disruption["recovery_ratio"])
    totals = _counter_totals(rows)
    submitted = totals["submitted"]

    # Warm-vs-cold contrast from the two hand-placed spare-recovery cells.
    warm = next(
        (_row(r) for r in spare_records if r.get("warm")), {}
    )
    cold = next(
        (_row(r) for r in spare_records if r.get("warm") is False), {}
    )
    speedup = None
    if warm.get("mttr_s") and cold.get("mttr_s"):
        speedup = round(cold["mttr_s"] / warm["mttr_s"], 4)
    recovery = {
        "warm": warm,
        "cold": cold,
        "mttr_warm_s": warm.get("mttr_s"),
        "mttr_cold_s": cold.get("mttr_s"),
        "cold_over_warm_mttr": speedup,
        "goodput_dip_ratio_cold": cold.get("goodput_dip_ratio"),
    }
    headline = {
        "addresses": len(rows),
        "failures": sum(1 for r in rows if not r.get("ok")),
        "warmups": warmups,
        "warmup_seconds_total": round(warmup_seconds, 4),
        "warmup_gbytes_total": round(warmup_bytes / 1e9, 3),
        "drains": drains,
        "autoscaler_scale_ups": scale_ups,
        "autoscaler_scale_downs": scale_downs,
        "mttr_mean_s": _mean(mttr_samples),
        "recovery_ratio_mean": _mean(recovery_ratios),
        "mttr_warm_s": recovery["mttr_warm_s"],
        "mttr_cold_s": recovery["mttr_cold_s"],
        "cold_over_warm_mttr": recovery["cold_over_warm_mttr"],
        "goodput_dip_ratio_cold": recovery["goodput_dip_ratio_cold"],
        "requests_submitted": submitted,
        "requests_finished": totals["finished"],
        "requests_shed": totals["shed"],
        "requests_lost": totals["lost"],
        "shed_rate": (
            round(totals["shed"] / submitted, 6) if submitted else None
        ),
        "lost_rate": (
            round(totals["lost"] / submitted, 6) if submitted else None
        ),
    }
    failures = headline["failures"] + sum(
        1 for r in spare_records if not r.get("ok")
    )
    return {
        "experiment": spec.name,
        "family": "elastic",
        "size": spec.base_dict.get("size", "full"),
        "seeds": len(_grid_axis(spec, "seed")),
        "failures": failures,
        "failing_addresses": _failing(rows),
        "headline": headline,
        "warm_vs_cold": recovery,
        "results": rows,
    }


def tenant_sweep_aggregate(spec, records: list[dict]) -> dict:
    contrast_records, sweep_records = _split(records, "selector_contrast")
    rows = [_row(r) for r in sweep_records]
    fairness_samples: list[float] = []
    slo_pairs = slo_met = starvation_events = 0
    shed_by_priority: dict[str, int] = {}
    for row in rows:
        tenancy = row.get("tenancy") or {}
        if tenancy.get("fairness_index") is not None:
            fairness_samples.append(tenancy["fairness_index"])
        starvation_events += tenancy.get("starvation_events", 0)
        for priority, count in (tenancy.get("shed_by_priority") or {}).items():
            shed_by_priority[priority] = (
                shed_by_priority.get(priority, 0) + count
            )
        slo_pairs += tenancy.get("slo_pairs", 0)
        slo_met += tenancy.get("slo_met", 0)
    totals = _counter_totals(rows)
    submitted = totals["submitted"]

    # Deficit-vs-priority contrast from the two hand-placed cells.
    deficit = next(
        (_row(r) for r in contrast_records
         if r.get("selector") == "deficit"), {}
    )
    priority = next(
        (_row(r) for r in contrast_records
         if r.get("selector") == "priority"), {}
    )
    contrast = {
        "deficit": deficit,
        "priority": priority,
        "starvation_events_deficit": deficit.get("starvation_events"),
        "starvation_events_priority": priority.get("starvation_events"),
        # The control MUST starve and the fair selector MUST not; a sweep
        # where this flips means the invariant lost its teeth.
        "control_demonstrates_starvation": bool(
            (priority.get("starvation_events") or 0) > 0
            and deficit.get("starvation_events") == 0
        ),
    }
    headline = {
        "addresses": len(rows),
        "failures": sum(1 for r in rows if not r.get("ok")),
        "fairness_index_mean": _mean(fairness_samples),
        "fairness_index_min": (
            round(min(fairness_samples), 4) if fairness_samples else None
        ),
        "slo_pairs": slo_pairs,
        "slo_met": slo_met,
        "slo_attainment_rate": (
            round(slo_met / slo_pairs, 4) if slo_pairs else None
        ),
        "starvation_events": starvation_events,
        "shed_by_priority": {
            p: shed_by_priority[p] for p in sorted(shed_by_priority)
        },
        "starvation_events_deficit": contrast["starvation_events_deficit"],
        "starvation_events_priority": contrast["starvation_events_priority"],
        "control_demonstrates_starvation": contrast[
            "control_demonstrates_starvation"
        ],
        "requests_submitted": submitted,
        "requests_finished": totals["finished"],
        "requests_shed": totals["shed"],
        "requests_lost": totals["lost"],
        "shed_rate": (
            round(totals["shed"] / submitted, 6) if submitted else None
        ),
    }
    failures = headline["failures"] + sum(
        1 for r in contrast_records if not r.get("ok")
    )
    return {
        "experiment": spec.name,
        "family": "tenant",
        "size": spec.base_dict.get("size", "full"),
        "seeds": len(_grid_axis(spec, "seed")),
        "failures": failures,
        "failing_addresses": _failing(rows),
        "headline": headline,
        "deficit_vs_priority": contrast,
        "results": rows,
    }


def fast_path_soak_aggregate(spec, records: list[dict]) -> dict:
    diurnal_records, sweep_records = _split(records, "diurnal_perf")
    rows = [_row(r) for r in sweep_records]
    failures = sum(1 for r in rows if not r.get("ok"))
    diurnal = _row(diurnal_records[0]) if diurnal_records else {}
    headline = {
        "addresses": len(rows),
        "failures": failures,
        "diurnal_tier": diurnal.get("tier"),
        "diurnal_tokens_per_s": diurnal.get("tokens_per_s"),
        "diurnal_span_days": diurnal.get("span_days"),
    }
    failures += sum(1 for r in diurnal_records if not r.get("ok"))
    return {
        "experiment": spec.name,
        "families": list(_grid_axis(spec, "family")),
        "size": spec.base_dict.get("size", "full"),
        "seeds": len(_grid_axis(spec, "seed")),
        "failures": failures,
        "failing_addresses": _failing(rows),
        "headline": headline,
        "results": rows,
    }


def policy_compare_aggregate(spec, records: list[dict]) -> dict:
    """Per-scheduler roll-up: same addresses, different policies."""
    rows = [_row(r) for r in records]
    by_policy: dict[str, dict] = {}
    for row in rows:
        policy = row.get("scheduler") or "default"
        bucket = by_policy.setdefault(policy, {
            "addresses": 0,
            "failures": 0,
            "decode_throughput": [],
            "finished": 0,
            "shed": 0,
        })
        bucket["addresses"] += 1
        if not row.get("ok"):
            bucket["failures"] += 1
        if row.get("decode_throughput") is not None:
            bucket["decode_throughput"].append(row["decode_throughput"])
        counters = row.get("counters") or {}
        bucket["finished"] += counters.get("finished", 0)
        bucket["shed"] += counters.get("shed", 0)
    policies = {
        policy: {
            "addresses": bucket["addresses"],
            "failures": bucket["failures"],
            "decode_throughput_mean": _mean(bucket["decode_throughput"]),
            "requests_finished": bucket["finished"],
            "requests_shed": bucket["shed"],
        }
        for policy, bucket in sorted(by_policy.items())
    }
    return {
        "experiment": spec.name,
        "size": spec.base_dict.get("size", "full"),
        "seeds": len(_grid_axis(spec, "seed")),
        "failures": sum(1 for r in rows if not r.get("ok")),
        "failing_addresses": _failing(rows),
        "headline": {"policies": policies},
        "results": rows,
    }


def perf_suite_aggregate(spec, records: list[dict]) -> dict:
    """Single-cell BENCH_* regeneration: surface the derived numbers."""
    rows = [_row(r) for r in records]
    derived = {}
    for row in rows:
        derived.update(row.get("derived") or {})
    return {
        "experiment": spec.name,
        "failures": sum(1 for r in rows if not r.get("ok")),
        "headline": derived,
        "results": rows,
    }


#: Aggregator registry: ``ExperimentSpec.aggregate`` -> callable.
AGGREGATORS = {
    "generic": generic_aggregate,
    "scenario_sweep": scenario_sweep_aggregate,
    "chaos_sweep": chaos_sweep_aggregate,
    "elastic_sweep": elastic_sweep_aggregate,
    "tenant_sweep": tenant_sweep_aggregate,
    "fast_path_soak": fast_path_soak_aggregate,
    "policy_compare": policy_compare_aggregate,
    "perf_suite": perf_suite_aggregate,
}

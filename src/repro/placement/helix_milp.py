"""Helix's MILP-based model placement planner (paper §4.4-4.6).

The formulation follows Tables 5 and 6 of the paper exactly:

* per node ``c_i``: an integer ``s_i`` (first layer held) and binaries
  ``b_i^j`` (``c_i`` holds exactly ``j`` layers), with
  ``e_i = s_i + Σ j·b_i^j``;
* per candidate connection: a continuous flow ``f_{u,v}``, a validity
  binary ``d_{u,v}``, and (for compute-compute links) the two auxiliary
  binaries ``cond1``/``cond2`` that linearize the partial-inference
  validity test ``s_j <= e_i < e_j``;
* constraint groups 1-5 (placement, flow conservation, inference
  throughput, connection validity, transmission throughput);
* objective: maximize total flow out of the source.

The §4.5 optimizations are all implemented: cluster pruning
(:func:`~repro.placement.pruning.prune_cluster`), heuristic warm starts
(best-of Swarm/Petals/SP, injected as an objective cutoff for HiGHS or as
the initial incumbent for our branch-and-bound), and the compute-sum upper
bound both as a strengthening cut and as an early-stop criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import PlacementError, SolverError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import connection_is_valid
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.model import MilpProblem, Variable, lin_sum
from repro.milp.scipy_backend import solve_with_highs
from repro.milp.solution import MilpSolution, SolveStatus
from repro.models.specs import ModelSpec
from repro.placement.base import PlacementPlanner, PlannerResult
from repro.placement.pruning import prune_cluster


@dataclass
class MilpFormulation:
    """The compiled MILP plus handles to its variables.

    Attributes:
        problem: The MILP.
        s_vars: Node id -> first-layer integer variable.
        b_vars: Node id -> list of layer-count binaries (index ``j-1``).
        f_vars: Connection ``(src, dst)`` -> flow variable. Endpoints are
            node ids or :data:`~repro.cluster.node.COORDINATOR`.
        d_vars: Connection -> validity binary.
        throughputs: Node id -> ``T_j`` table (index ``j-1``).
        capacities: Connection -> token capacity ``S_{u,v}``.
        upper_bound: The §4.5 compute-sum throughput upper bound.
    """

    problem: MilpProblem
    s_vars: dict[str, Variable]
    b_vars: dict[str, list[Variable]]
    f_vars: dict[tuple[str, str], Variable]
    d_vars: dict[tuple[str, str], Variable]
    throughputs: dict[str, list[float]]
    capacities: dict[tuple[str, str], float]
    upper_bound: float


class HelixMilpPlanner(PlacementPlanner):
    """Optimal model placement by maximizing cluster max-flow with MILP.

    Args:
        cluster: The target cluster.
        model: The model to place.
        profiler: Performance model supplying ``T_j`` and link capacities.
        partial_inference: Allow ``s_j <= e_i < e_j`` handoffs (§4.4). When
            false, the simplified exact-boundary validity constraints are
            used instead.
        prune_degree: If set, plan on a pruned copy of the cluster keeping
            at most this many outgoing links per node (§4.5).
        time_limit: Solver wall-clock budget in seconds.
        hints: Heuristic placements used to warm-start the solver. The
            string ``"auto"`` (default) derives them from the Swarm, Petals,
            and separate-pipelines planners; ``None`` disables hinting.
        backend: ``"highs"`` (scipy/HiGHS, default) or ``"bnb"`` (our
            branch-and-bound, which records an incumbent trajectory).
        mip_rel_gap: Relative optimality gap at which the solver may stop.
        adaptive_budget: Spend the HiGHS time budget in growing slices and
            stop as soon as a slice fails to improve on the best incumbent
            seen (including the heuristic hint). scipy's ``milp`` cannot
            report incumbents mid-solve, so this is the only way to stop
            paying for wall-clock that is no longer buying solution
            quality. Disable to reproduce the single full-budget solve.
        lns_mode: ``"incremental"`` (default) freezes nodes outside each
            LNS window by tightening variable *bounds* on the cached
            compiled formulation — no rebuild, no recompile, and HiGHS
            presolve eliminates the frozen variables. ``"rebuild"``
            reproduces the pre-optimization behaviour (equality
            constraints appended per round, full recompile) for perf
            baselines.
        lns_seed: Seed of the LNS window-selection RNG. The search never
            touches global random state, so a planner configuration plus
            this seed reproduces the exact round sequence.
    """

    name = "helix"

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        profiler: Profiler | None = None,
        partial_inference: bool = True,
        prune_degree: int | None = None,
        time_limit: float = 120.0,
        hints: str | list[ModelPlacement] | None = "auto",
        backend: str = "highs",
        mip_rel_gap: float = 1e-4,
        lns_rounds: int = 0,
        lns_window: int = 8,
        lns_time_limit: float = 20.0,
        adaptive_budget: bool = True,
        lns_mode: str = "incremental",
        lns_seed: int = 0,
    ) -> None:
        super().__init__(cluster, model, profiler, partial_inference)
        if backend not in ("highs", "bnb"):
            raise ValueError(f"unknown backend {backend!r}")
        if lns_mode not in ("incremental", "rebuild"):
            raise ValueError(f"unknown lns_mode {lns_mode!r}")
        self.prune_degree = prune_degree
        self.time_limit = time_limit
        self.hints = hints
        self.backend = backend
        self.mip_rel_gap = mip_rel_gap
        self.lns_rounds = lns_rounds
        self.lns_window = lns_window
        self.lns_time_limit = lns_time_limit
        self.adaptive_budget = adaptive_budget
        self.lns_mode = lns_mode
        self.lns_seed = lns_seed
        self.last_trajectory = None  # set by the bnb backend
        self.last_solver_stats = None  # set by the bnb backend
        #: Telemetry: MILP solve calls issued during the last plan().
        self.milp_solve_count = 0
        # Formulation reused across replan() calls (the LNS rounds only
        # tighten bounds and append/truncate constraints, so the compiled
        # structure cache stays valid between calls).
        self._replan_formulation: MilpFormulation | None = None
        # Layer-residency hint (set by the online controller before a
        # replan): node_id -> resident layer set, plus the relative bonus
        # a fully-resident placement earns in candidate scoring.
        self._residency_hint: dict[str, frozenset[int]] | None = None
        self._residency_bonus: float = 0.0

    def set_residency_hint(
        self,
        resident: dict[str, frozenset[int]] | None,
        warm_bonus: float = 0.15,
    ) -> None:
        """Bias candidate scoring toward layers already in VRAM.

        With a hint installed, :meth:`_placement_value` multiplies a
        placement's max-flow by ``1 + warm_bonus * resident_fraction``,
        where the fraction counts assigned layers already resident on
        their assigned node. A warm spare (layers staged, zero transfer
        needed) therefore beats an equal-throughput cold candidate and
        the repaired placement starts serving sooner — the
        residency-aware half of MTTR. Pass ``None`` to clear.
        """
        self._residency_hint = resident
        self._residency_bonus = warm_bonus

    # ------------------------------------------------------------------
    # Formulation (Tables 5 and 6)
    # ------------------------------------------------------------------
    def build_formulation(self, cluster: Cluster | None = None) -> MilpFormulation:
        """Build the MILP for ``cluster`` (default: the planner's cluster)."""
        cluster = cluster or self.cluster
        model = self.model
        num_layers = model.num_layers
        problem = MilpProblem(name=f"helix-{cluster.name}")

        placeable = [
            nid for nid in cluster.node_ids
            if self.profiler.max_layers(cluster.node(nid), model) >= 1
        ]
        if not placeable:
            raise PlacementError("no node can hold even a single layer")

        s_vars: dict[str, Variable] = {}
        b_vars: dict[str, list[Variable]] = {}
        throughputs: dict[str, list[float]] = {}
        end_exprs = {}
        for nid in placeable:
            node = cluster.node(nid)
            k = min(self.profiler.max_layers(node, model), num_layers)
            s = problem.add_var(f"s[{nid}]", 0, num_layers - 1, integer=True)
            bs = [problem.add_binary(f"b[{nid}][{j}]") for j in range(1, k + 1)]
            throughputs[nid] = [
                self.profiler.throughput(node, model, j) for j in range(1, k + 1)
            ]
            s_vars[nid] = s
            b_vars[nid] = bs
            # Constraint-1: exactly one layer count, and e_i <= L.
            problem.add_constraint(lin_sum(bs) == 1, name=f"one_count[{nid}]")
            end = s + lin_sum((j + 1) * b for j, b in enumerate(bs))
            end_exprs[nid] = end
            problem.add_constraint(end <= num_layers, name=f"end_bound[{nid}]")

        f_vars: dict[tuple[str, str], Variable] = {}
        d_vars: dict[tuple[str, str], Variable] = {}
        capacities: dict[tuple[str, str], float] = {}

        for (src, dst), link in cluster.links.items():
            if src != COORDINATOR and src not in s_vars:
                continue
            if dst != COORDINATOR and dst not in s_vars:
                continue
            carries_activations = src != COORDINATOR and dst != COORDINATOR
            capacity = self.profiler.link_token_capacity(
                link, model, carries_activations
            )
            key = (src, dst)
            f = problem.add_var(f"f[{src}->{dst}]", 0.0, capacity)
            d = problem.add_binary(f"d[{src}->{dst}]")
            f_vars[key] = f
            d_vars[key] = d
            capacities[key] = capacity
            # Constraint-5: transmission throughput through valid links only.
            problem.add_constraint(f <= capacity * d, name=f"trans[{src}->{dst}]")

            # Constraint-4: connection validity.
            if src == COORDINATOR:
                problem.add_constraint(
                    s_vars[dst] <= num_layers * (1 - d),
                    name=f"valid_src[{dst}]",
                )
            elif dst == COORDINATOR:
                problem.add_constraint(
                    num_layers * d <= end_exprs[src],
                    name=f"valid_sink[{src}]",
                )
            elif self.partial_inference:
                cond1 = problem.add_binary(f"cond1[{src}->{dst}]")
                cond2 = problem.add_binary(f"cond2[{src}->{dst}]")
                # Per-link big-M constants (§4.5, tighter than the global
                # L+1): each must only dominate its condition's worst-case
                # RHS given the endpoints' layer bounds, which tightens the
                # LP relaxation of every cond binary.
                #   cond1 slack: max(s_j - e_i) with e_i >= s_i_lo + 1;
                #   cond2 slack: 1 + max(e_i) - min(e_j), where e_i is
                #   capped both by L and by s_i_hi + max_layers(src).
                src_end_upper = min(
                    float(num_layers),
                    s_vars[src].upper + len(b_vars[src]),
                )
                big_m1 = max(
                    1.0, s_vars[dst].upper - (s_vars[src].lower + 1.0)
                )
                big_m2 = max(
                    1.0, 1.0 + src_end_upper - (s_vars[dst].lower + 1.0)
                )
                # cond1 = 1 only if s_j <= e_i.
                problem.add_constraint(
                    big_m1 * (1 - cond1) >= s_vars[dst] - end_exprs[src],
                    name=f"cond1[{src}->{dst}]",
                )
                # cond2 = 1 only if e_i < e_j.
                problem.add_constraint(
                    end_exprs[dst] - end_exprs[src] >= 1 - big_m2 * (1 - cond2),
                    name=f"cond2[{src}->{dst}]",
                )
                problem.add_constraint(
                    d <= 0.5 * cond1 + 0.5 * cond2,
                    name=f"valid[{src}->{dst}]",
                )
            else:
                # Simplified validity: d = 1 only if e_i == s_j.
                problem.add_constraint(
                    num_layers * d <= num_layers + s_vars[dst] - end_exprs[src],
                    name=f"valid_eq1[{src}->{dst}]",
                )
                problem.add_constraint(
                    num_layers * d <= num_layers - s_vars[dst] + end_exprs[src],
                    name=f"valid_eq2[{src}->{dst}]",
                )

        # Symmetry breaking: nodes with identical hardware in the same
        # region are interchangeable, so force their first layers into
        # non-decreasing order by node id. This is throughput-preserving
        # (any optimum can be permuted to satisfy it) and removes the
        # factorial permutation symmetry that otherwise drowns the solver.
        groups: dict[tuple[str, str], list[str]] = {}
        for nid in placeable:
            node = cluster.node(nid)
            groups.setdefault((node.gpu_label, node.region), []).append(nid)
        for members in groups.values():
            members.sort()
            for left, right in zip(members, members[1:]):
                problem.add_constraint(
                    s_vars[left] <= s_vars[right],
                    name=f"sym[{left}<={right}]",
                )

        # Constraints 2 and 3: flow conservation and inference throughput.
        for nid in placeable:
            inflow = lin_sum(
                f for (src, dst), f in f_vars.items() if dst == nid
            )
            outflow = lin_sum(
                f for (src, dst), f in f_vars.items() if src == nid
            )
            problem.add_constraint(inflow == outflow, name=f"conserve[{nid}]")
            capacity_expr = lin_sum(
                t * b for t, b in zip(throughputs[nid], b_vars[nid])
            )
            problem.add_constraint(
                inflow <= capacity_expr, name=f"throughput[{nid}]"
            )

        source_flow = lin_sum(
            f for (src, _), f in f_vars.items() if src == COORDINATOR
        )
        sink_flow = lin_sum(
            f for (_, dst), f in f_vars.items() if dst == COORDINATOR
        )
        # Source out-flow equals sink in-flow (coordinator conservation).
        problem.add_constraint(source_flow == sink_flow, name="coordinator_balance")

        upper_bound = self.compute_upper_bound()
        # §4.5 upper bound as a strengthening cut.
        problem.add_constraint(source_flow <= upper_bound, name="compute_sum_ub")
        problem.set_objective(source_flow, maximize=True)

        return MilpFormulation(
            problem=problem,
            s_vars=s_vars,
            b_vars=b_vars,
            f_vars=f_vars,
            d_vars=d_vars,
            throughputs=throughputs,
            capacities=capacities,
            upper_bound=upper_bound,
        )

    # ------------------------------------------------------------------
    # Warm starts
    # ------------------------------------------------------------------
    def heuristic_hints(self, cluster: Cluster) -> list[ModelPlacement]:
        """Candidate placements from the heuristic baselines on ``cluster``."""
        from repro.placement.petals import PetalsPlanner
        from repro.placement.separate import SeparatePipelinesPlanner
        from repro.placement.swarm import SwarmPlanner

        hints: list[ModelPlacement] = []
        factories = (
            lambda: SwarmPlanner(
                cluster, self.model, self.profiler,
                partial_inference=self.partial_inference,
            ),
            lambda: PetalsPlanner(
                cluster, self.model, self.profiler,
                partial_inference=self.partial_inference,
            ),
            # SP hints must stay inside the MILP's half-VRAM feasible
            # space, so the fraction relaxation is disabled here.
            lambda: SeparatePipelinesPlanner(
                cluster, self.model, self.profiler,
                partial_inference=self.partial_inference,
                max_weight_fraction=self.profiler.weight_fraction,
            ),
        )
        for factory in factories:
            try:
                hints.append(factory().plan().placement)
            except PlacementError:
                continue
        return hints

    def assignment_from_placement(
        self,
        formulation: MilpFormulation,
        placement: ModelPlacement,
        cluster: Cluster,
    ) -> dict[str, float]:
        """Translate a placement into a full, feasible MILP assignment.

        Nodes the placement leaves unused are given a one-layer dummy
        assignment with zero flow (the MILP requires every node to hold
        layers, per Table 6's Σb = 1). Flow variables take the max-flow
        values of the placement's graph abstraction, which satisfy the
        conservation and capacity constraints by construction. The
        placement is first canonicalized (intervals sorted within groups of
        identical nodes) so it satisfies the symmetry-breaking constraints.
        """
        num_layers = self.model.num_layers
        intervals = {
            nid: (stage.start, stage.end)
            for nid, stage in placement.assignments.items()
        }
        for nid in formulation.s_vars:
            intervals.setdefault(nid, (0, 1))
        intervals = self._canonicalize(intervals, cluster)
        full = ModelPlacement.from_intervals(num_layers, intervals)

        solution = self.evaluate_placement(full, cluster)

        values: dict[str, float] = {}
        for nid, s_var in formulation.s_vars.items():
            stage = full.interval(nid)
            values[s_var.name] = float(stage.start)
            for j, b_var in enumerate(formulation.b_vars[nid], start=1):
                values[b_var.name] = 1.0 if stage.num_layers == j else 0.0
        for (src, dst), f_var in formulation.f_vars.items():
            flow = solution.connection_flows.get((src, dst), 0.0)
            valid = connection_is_valid(full, src, dst, self.partial_inference)
            values[f_var.name] = flow if valid else 0.0
            values[formulation.d_vars[(src, dst)].name] = 1.0 if valid else 0.0
            if src != COORDINATOR and dst != COORDINATOR:
                e_i = full.interval(src).end
                s_j = full.interval(dst).start
                e_j = full.interval(dst).end
                cond1_name = f"cond1[{src}->{dst}]"
                cond2_name = f"cond2[{src}->{dst}]"
                if self.partial_inference:
                    values[cond1_name] = 1.0 if s_j <= e_i else 0.0
                    values[cond2_name] = 1.0 if e_i < e_j else 0.0
        return values

    def _placement_value(
        self, placement: ModelPlacement, cluster: Cluster | None = None
    ) -> float:
        """Max-flow value of a placement, 0 when it cannot serve at all.

        Routed through the per-cluster incremental evaluator
        (:meth:`PlacementPlanner.evaluate_placement`), so the thousands of
        calls issued by hint ranking, LNS windows, and incumbent checks
        rewrite a few edge capacities instead of rebuilding the graph.

        With a residency hint installed (:meth:`set_residency_hint`) the
        raw max-flow is scaled by the warm-start bonus, so two servable
        candidates tie-break toward the one whose layers need no weight
        transfer.
        """
        value = self.placement_throughput(placement, cluster)
        hint = self._residency_hint
        if hint is None or value <= 0:
            return value
        total = 0
        resident = 0
        for nid, stage in placement.assignments.items():
            total += stage.num_layers
            have = hint.get(nid)
            if have:
                resident += sum(
                    1 for layer in range(stage.start, stage.end)
                    if layer in have
                )
        if total == 0:
            return value
        return value * (1.0 + self._residency_bonus * resident / total)

    def _extended_placement(
        self, formulation: MilpFormulation, placement: ModelPlacement,
        cluster: Cluster,
    ) -> ModelPlacement:
        """Extend a placement to all MILP nodes and canonicalize it."""
        intervals = {
            nid: (stage.start, stage.end)
            for nid, stage in placement.assignments.items()
            if nid in formulation.s_vars
        }
        for nid in formulation.s_vars:
            intervals.setdefault(nid, (0, 1))
        intervals = self._canonicalize(intervals, cluster)
        return ModelPlacement.from_intervals(self.model.num_layers, intervals)

    def _lns_window_size(self, num_nodes: int) -> int:
        """Effective LNS window: never free most of the cluster at once.

        A window that frees more than about a third of the nodes re-solves
        nearly the full MILP, which defeats the decomposition — measured on
        the Fig. 12 small cluster, such rounds burn their entire time limit
        without returning, while windows of a third solve (or prove
        no-improvement) in well under a second.
        """
        if self.lns_mode == "rebuild":
            return min(self.lns_window, num_nodes)
        return min(self.lns_window, num_nodes, max(2, (num_nodes + 2) // 3))

    def _lns_free_window(
        self, round_index: int, window: int, node_ids: list[str], by_rate, rng
    ) -> set[str]:
        """The set of nodes left free to move in one LNS round."""
        phase = round_index % 3
        if phase == 0:
            # Contiguous rotating window: local boundary adjustments.
            start = ((round_index // 3) * window) % len(node_ids)
            return {
                node_ids[(start + offset) % len(node_ids)]
                for offset in range(window)
            }
        if phase == 1:
            # Random mixed window: cross-GPU-type moves (e.g. swap an
            # A100's span against several T4 spans).
            return set(rng.sample(node_ids, window))
        # High-impact window: the fastest nodes plus random fill —
        # repositioning the big GPUs moves the min cut the most.
        half = max(1, window // 2)
        free = set(by_rate[:half])
        remainder = [nid for nid in node_ids if nid not in free]
        free.update(rng.sample(remainder, min(window - half, len(remainder))))
        return free

    def _lns_round_incremental(
        self,
        formulation: MilpFormulation,
        free: set[str],
        best: ModelPlacement,
        best_value: float,
    ):
        """One LNS re-solve that only tightens bounds on the cached arrays.

        Frozen nodes get their ``s``/``b`` variables pinned via variable
        bounds (restored afterwards); the improvement cutoff rides on a
        single appended constraint, which the model layer's incremental
        structure cache turns into a one-row delta instead of a recompile.
        HiGHS presolve then eliminates every pinned variable, so each round
        solves a genuinely small problem — mirroring at the MILP layer what
        :meth:`~repro.flow.graph.FlowGraph.reevaluate` does for flows.
        """
        problem = formulation.problem
        pinned: list[tuple[Variable, float, float]] = []
        for nid, s_var in formulation.s_vars.items():
            if nid in free:
                continue
            stage = best.interval(nid)
            pinned.append((s_var, s_var.lower, s_var.upper))
            s_var.lower = s_var.upper = float(stage.start)
            for j, b_var in enumerate(formulation.b_vars[nid], start=1):
                pinned.append((b_var, b_var.lower, b_var.upper))
                b_var.lower = b_var.upper = (
                    1.0 if stage.num_layers == j else 0.0
                )
        base_len = len(problem.constraints)
        problem.add_constraint(
            problem.objective >= best_value + max(1e-6, 1e-6 * best_value),
            name="lns_cutoff",
        )
        try:
            self.milp_solve_count += 1
            return solve_with_highs(
                problem,
                time_limit=self.lns_time_limit,
                mip_rel_gap=self.mip_rel_gap,
            )
        finally:
            del problem.constraints[base_len:]
            for var, lower, upper in pinned:
                var.lower, var.upper = lower, upper

    def _lns_round_rebuild(
        self,
        formulation: MilpFormulation,
        free: set[str],
        best: ModelPlacement,
        best_value: float,
    ):
        """Pre-optimization LNS round: fix-by-constraint, full recompile.

        Kept as the measured baseline for ``BENCH_milp.json``; the compile
        cache is explicitly invalidated so the round pays the historical
        per-round formulation compile cost.
        """
        problem = formulation.problem
        base_len = len(problem.constraints)
        for nid, s_var in formulation.s_vars.items():
            if nid in free:
                continue
            stage = best.interval(nid)
            problem.add_constraint(
                s_var == stage.start, name=f"lns_fix_s[{nid}]"
            )
            for j, b_var in enumerate(formulation.b_vars[nid], start=1):
                problem.add_constraint(
                    b_var == (1.0 if stage.num_layers == j else 0.0),
                    name=f"lns_fix_b[{nid}][{j}]",
                )
        problem.add_constraint(
            problem.objective >= best_value + max(1e-6, 1e-6 * best_value),
            name="lns_cutoff",
        )
        problem.invalidate()
        try:
            self.milp_solve_count += 1
            return solve_with_highs(
                problem,
                time_limit=self.lns_time_limit,
                mip_rel_gap=self.mip_rel_gap,
            )
        finally:
            del problem.constraints[base_len:]
            problem.invalidate()

    def _lns_improve(
        self,
        formulation: MilpFormulation,
        cluster: Cluster,
        placement: ModelPlacement,
    ) -> ModelPlacement:
        """Large-neighborhood search around an incumbent placement.

        Each round freezes every node's layer assignment except a rotating
        window of nodes and re-solves the (now small) MILP with an
        objective cutoff at the incumbent's value, adopting any strict
        improvement. This recovers, with HiGHS, the incremental
        incumbent-improvement behaviour the paper gets from a warm-started
        Gurobi on large clusters. In the default ``incremental`` mode each
        round is a bounds-tightening re-solve on the cached compiled
        formulation; see :meth:`_lns_round_incremental`.
        """
        import random as _random

        node_ids = list(formulation.s_vars)
        best = self._extended_placement(formulation, placement, cluster)
        best_value = self._placement_value(best, cluster)
        window = self._lns_window_size(len(node_ids))
        if window == 0 or not node_ids:
            return best

        solve_round = (
            self._lns_round_incremental
            if self.lns_mode == "incremental"
            else self._lns_round_rebuild
        )
        rng = _random.Random(self.lns_seed)
        by_rate = sorted(
            node_ids,
            key=lambda nid: -self.per_layer_rate(nid)
            if nid in self.cluster.node_ids else 0.0,
        )
        for round_index in range(self.lns_rounds):
            free = self._lns_free_window(
                round_index, window, node_ids, by_rate, rng
            )
            solution = solve_round(formulation, free, best, best_value)
            if not solution.status.has_solution:
                continue
            candidate = self.orchestrate(formulation, solution.values)
            value = self._placement_value(candidate, cluster)
            if value > best_value + 1e-9:
                best = self._extended_placement(formulation, candidate, cluster)
                best_value = value
        return best

    @staticmethod
    def _canonicalize(
        intervals: dict[str, tuple[int, int]], cluster: Cluster
    ) -> dict[str, tuple[int, int]]:
        """Permute intervals within identical-node groups into sorted order.

        Identical nodes are interchangeable, so re-pairing sorted node ids
        with sorted intervals preserves the placement's throughput while
        satisfying the MILP's symmetry-breaking constraints.
        """
        groups: dict[tuple[str, str], list[str]] = {}
        for nid in intervals:
            node = cluster.node(nid)
            groups.setdefault((node.gpu_label, node.region), []).append(nid)
        canonical = dict(intervals)
        for members in groups.values():
            members.sort()
            ordered = sorted(intervals[nid] for nid in members)
            for nid, interval in zip(members, ordered):
                canonical[nid] = interval
        return canonical

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> PlannerResult:
        """Solve the MILP and orchestrate the solution into a placement."""
        start = time.perf_counter()
        self.milp_solve_count = 0
        work_cluster = self.cluster
        if self.prune_degree is not None:
            work_cluster = prune_cluster(self.cluster, self.prune_degree)

        formulation = self.build_formulation(work_cluster)

        hint_placements: list[ModelPlacement] = []
        if self.hints == "auto":
            hint_placements = self.heuristic_hints(work_cluster)
        elif isinstance(self.hints, list):
            hint_placements = list(self.hints)

        # Hints are ranked on the *full* cluster (what the deployment will
        # actually use); the pruned copy only shrinks the MILP.
        best_hint: tuple[float, ModelPlacement] | None = None
        for hint in hint_placements:
            value = self._placement_value(hint, self.cluster)
            if value <= 0:
                continue
            if best_hint is None or value > best_hint[0]:
                best_hint = (value, hint)

        solution = self._solve(formulation, work_cluster, best_hint)
        placement = None
        if solution.status.has_solution:
            candidate = self.orchestrate(formulation, solution.values)
            if self._placement_value(candidate) > 0:
                placement = candidate
        if placement is None:
            if best_hint is None:
                raise SolverError(
                    f"MILP solve failed ({solution.status.value}) and no "
                    "heuristic hint is available to fall back on"
                )
            # Keep the heuristic incumbent — what a MIP-started solver
            # would return at timeout.
            placement = best_hint[1]
        if best_hint is not None:
            # Never start from something worse than the best hint.
            if self._placement_value(placement) < best_hint[0] - 1e-6:
                placement = best_hint[1]

        if self.lns_rounds > 0:
            improved = self._lns_improve(formulation, work_cluster, placement)
            # Adopt the LNS result only if it also wins on the full cluster.
            if self._placement_value(improved) >= self._placement_value(placement):
                placement = improved

        flow = self.solve_flow(placement)
        return PlannerResult(
            planner_name=self.name,
            placement=placement,
            flow=flow,
            milp=solution,
            num_variables=formulation.problem.num_variables,
            num_constraints=formulation.problem.num_constraints,
            solve_time=time.perf_counter() - start,
        )

    def replan(
        self,
        base: ModelPlacement | None = None,
        lns_rounds: int | None = None,
    ) -> PlannerResult:
        """Warm-started incremental re-plan around an incumbent placement.

        The online controller's entry point after cluster churn: instead of
        a root MILP solve, start from ``base`` (typically the pre-failure
        placement restricted to surviving nodes) and run only the PR-2
        incremental LNS loop — bounds-tightened re-solves on the cached
        compiled formulation — around it. When ``base`` is missing or can no
        longer serve (a failed node held irreplaceable layers), the best
        heuristic hint seeds the search instead.

        Args:
            base: Incumbent placement to improve; node ids outside this
                planner's cluster are ignored.
            lns_rounds: LNS round count for this replan (default: the
                planner's ``lns_rounds``, but at least one round).

        Returns:
            A :class:`PlannerResult` whose flow solution is ready to be
            hot-swapped into a scheduler.

        Raises:
            PlacementError: When neither ``base`` nor any heuristic produces
                a servable placement on the current cluster.
        """
        start = time.perf_counter()
        self.milp_solve_count = 0
        work_cluster = self.cluster
        if self.prune_degree is not None:
            work_cluster = prune_cluster(self.cluster, self.prune_degree)
        if self._replan_formulation is None:
            self._replan_formulation = self.build_formulation(work_cluster)
        formulation = self._replan_formulation

        candidates: list[ModelPlacement] = []
        if base is not None:
            kept = {
                nid: (stage.start, stage.end)
                for nid, stage in base.assignments.items()
                if nid in work_cluster
            }
            if kept:
                candidates.append(
                    ModelPlacement.from_intervals(self.model.num_layers, kept)
                )
        # ``lns_rounds=0`` explicitly selects the *deterministic* replan:
        # no wall-clock-budgeted MILP rounds at all, just incumbent
        # selection over the degraded base and the heuristic hints. The
        # elastic scenario family depends on this — fingerprints must
        # reproduce bit-for-bit, which LNS (solver time limits) cannot
        # guarantee. ``None`` keeps the legacy at-least-one-round search.
        rounds = (
            max(1, self.lns_rounds) if lns_rounds is None else max(0, lns_rounds)
        )
        incumbent: tuple[float, ModelPlacement] | None = None
        for candidate in candidates:
            value = self._placement_value(candidate, work_cluster)
            if value > 0:
                incumbent = (value, candidate)
        if incumbent is None or rounds == 0:
            # Without LNS the heuristics are the only rivals the base ever
            # meets, so always score them (this is also how a restored
            # spare gets adopted — the base predates it); with LNS they
            # only reseed a base that cannot serve anymore.
            for hint in self.heuristic_hints(work_cluster):
                value = self._placement_value(hint, work_cluster)
                if value > 0 and (incumbent is None or value > incumbent[0]):
                    incumbent = (value, hint)
        if incumbent is None:
            raise PlacementError(
                "no servable placement exists on the surviving cluster"
            )

        if rounds == 0:
            placement = incumbent[1]
        else:
            saved_rounds = self.lns_rounds
            self.lns_rounds = rounds
            try:
                placement = self._lns_improve(
                    formulation, work_cluster, incumbent[1]
                )
            finally:
                self.lns_rounds = saved_rounds
            if self._placement_value(placement) < self._placement_value(
                incumbent[1]
            ):
                placement = incumbent[1]

        flow = self.solve_flow(placement)
        return PlannerResult(
            planner_name=self.name,
            placement=placement,
            flow=flow,
            num_variables=formulation.problem.num_variables,
            num_constraints=formulation.problem.num_constraints,
            solve_time=time.perf_counter() - start,
        )

    def _solve(
        self,
        formulation: MilpFormulation,
        work_cluster: Cluster,
        best_hint: tuple[float, ModelPlacement] | None,
    ) -> MilpSolution:
        if self.backend == "bnb":
            solver = BranchAndBoundSolver(
                formulation.problem,
                time_limit=self.time_limit,
                gap_tolerance=self.mip_rel_gap,
                early_stop_bound=formulation.upper_bound,
                stall_time=max(1.0, self.time_limit * 0.25)
                if self.adaptive_budget
                else None,
            )
            incumbent = None
            if best_hint is not None:
                incumbent = self.assignment_from_placement(
                    formulation, best_hint[1], work_cluster
                )
            self.milp_solve_count += 1
            solution = solver.solve(initial_incumbent=incumbent)
            self.last_trajectory = list(solver.trajectory)
            self.last_solver_stats = solver.stats
            return solution

        if self.adaptive_budget:
            return self._solve_highs_adaptive(formulation, best_hint)
        self.milp_solve_count += 1
        return solve_with_highs(
            formulation.problem,
            time_limit=self.time_limit,
            mip_rel_gap=self.mip_rel_gap,
        )

    def _solve_highs_adaptive(
        self,
        formulation: MilpFormulation,
        best_hint: tuple[float, ModelPlacement] | None,
    ) -> MilpSolution:
        """Spend the HiGHS budget in growing slices with stall detection.

        scipy's ``milp`` has no incumbent callback, so a single
        ``time_limit``-long call pays the full budget even when the
        incumbent stopped improving seconds in — on the Fig. 12 small
        cluster HiGHS finds only a trivial incumbent and the heuristic hint
        carries the plan, making ~90% of the budget pure waste. Restart
        with doubling slices instead and stop when a slice fails to beat
        both the previous slice's incumbent and the best hint (or reaches
        the §4.5 compute-sum early-stop bound). The doubling keeps total
        re-exploration bounded by ~2x the final slice.
        """
        hint_value = best_hint[0] if best_hint is not None else float("-inf")
        early_stop = formulation.upper_bound * (1.0 - self.mip_rel_gap)
        remaining = max(self.time_limit, 0.1)
        slice_budget = max(0.5, self.time_limit / 8.0)
        previous = float("-inf")
        best_solution: MilpSolution | None = None
        while best_solution is None or remaining > 0.05:
            self.milp_solve_count += 1
            solution = solve_with_highs(
                formulation.problem,
                time_limit=min(slice_budget, remaining),
                mip_rel_gap=self.mip_rel_gap,
            )
            remaining -= solution.solve_time
            if best_solution is None or (
                solution.status.has_solution
                and (
                    not best_solution.status.has_solution
                    or solution.objective > best_solution.objective
                )
            ):
                best_solution = solution
            if solution.status in (
                SolveStatus.OPTIMAL,
                SolveStatus.INFEASIBLE,
                SolveStatus.UNBOUNDED,
            ):
                return solution
            objective = (
                solution.objective
                if solution.status.has_solution
                else float("-inf")
            )
            if objective >= early_stop:
                break  # the paper's compute-sum early stop
            reference = max(previous, hint_value)
            if objective <= reference + 1e-9 and reference > float("-inf"):
                break  # stalled: more budget is not buying improvement
            previous = max(previous, objective)
            slice_budget *= 2.0
        return best_solution

    def orchestrate(
        self, formulation: MilpFormulation, values: dict[str, float]
    ) -> ModelPlacement:
        """Turn MILP variable values into a :class:`ModelPlacement`.

        (Paper §4.4, "MILP solution orchestration": ``s_i`` and ``e_i`` give
        the layers node ``c_i`` loads.)
        """
        intervals: dict[str, tuple[int, int]] = {}
        for nid, s_var in formulation.s_vars.items():
            start = int(round(values[s_var.name]))
            count = 0
            for j, b_var in enumerate(formulation.b_vars[nid], start=1):
                if round(values[b_var.name]) == 1:
                    count = j
                    break
            if count == 0:
                raise SolverError(
                    f"node {nid!r}: no layer-count binary set in MILP solution"
                )
            intervals[nid] = (start, start + count)
        return ModelPlacement.from_intervals(self.model.num_layers, intervals)

    # ------------------------------------------------------------------
    # Multi-tenant arbitration
    # ------------------------------------------------------------------
    def plan_tenants(
        self,
        registry,
        guarantee: float = 0.5,
        burst: float = 1.5,
    ) -> "TenantArbitration":
        """Arbitrate one shared placement across a tenant registry.

        Tenants share the base model's layers (counted **once**) and only
        add their per-layer adapter deltas on top, so the VRAM the planner
        may spend on weights shrinks by ``layer_bytes / (layer_bytes +
        Σ adapter_bytes_per_layer)``. That scale folds exactly into the
        profiler's ``weight_fraction``: ``max_layers_on_vram`` computes
        ``int(vram * fraction // layer_bytes)``, so scaling the fraction is
        identical to charging every layer its base bytes plus the summed
        adapters — without duplicating the trunk per tenant, which is what
        a naive one-copy-per-tenant split would do.

        The placement itself is solved by a regular single-model plan on
        the scaled profiler; the *arbitration* then splits the solved flow
        into per-tenant commodities with a pure LP over the placement's
        flow graph — the exact node/connection capacities the planner
        result reports (NOT the MILP formulation re-pinned: under pruning
        the result's flow is evaluated on the full link set while the
        formulation only ever saw the pruned one, so re-pinning it can
        strand the flow):

        * linking — the tenant flows on each connection sum to the total
          flow on it (capacities still govern the total);
        * total and per-tenant conservation at every compute node;
        * per-tenant burst cap — a tenant may use at most ``burst`` times
          its entitled share of any node's compute;
        * guarantee — every tenant's end-to-end rate is at least
          ``guarantee`` times its entitled share of the total.

        The proportional split of the max-flow solution satisfies every
        constraint, so the arbitration always reproduces the placement's
        full throughput.

        Args:
            registry: A :class:`~repro.tenancy.registry.TenantRegistry`.
            guarantee: Fraction of its proportional share each tenant is
                guaranteed end to end (0 = work-conserving free-for-all,
                1 = exact proportional split).
            burst: How far above its proportional share a tenant may ride
                on any single node (>= 1).

        Returns:
            A :class:`TenantArbitration` with the planner result and the
            per-tenant guaranteed rates.
        """
        if not 0.0 <= guarantee <= 1.0:
            raise ValueError(f"guarantee must be in [0, 1], got {guarantee}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if len(registry) == 0:
            raise ValueError("tenant registry is empty")

        overhead = registry.adapter_overhead_bytes()
        layer_bytes = self.model.layer_bytes
        scale = layer_bytes / (layer_bytes + overhead)
        inner = HelixMilpPlanner(
            self.cluster,
            self.model,
            profiler=replace(
                self.profiler,
                weight_fraction=self.profiler.weight_fraction * scale,
            ),
            partial_inference=self.partial_inference,
            prune_degree=self.prune_degree,
            time_limit=self.time_limit,
            hints=self.hints,
            backend=self.backend,
            mip_rel_gap=self.mip_rel_gap,
            lns_rounds=self.lns_rounds,
            lns_window=self.lns_window,
            lns_time_limit=self.lns_time_limit,
            adaptive_budget=self.adaptive_budget,
            lns_mode=self.lns_mode,
            lns_seed=self.lns_seed,
        )
        base = inner.plan()
        flow = base.flow

        problem = MilpProblem(name="tenant-arbitration")
        tenant_ids = registry.ids
        shares = registry.shares()
        total_flows: dict[tuple[str, str], Variable] = {}
        tenant_flows: dict[str, dict[tuple[str, str], Variable]] = {
            tid: {} for tid in tenant_ids
        }
        for key, capacity in flow.connection_capacities.items():
            src, dst = key
            total_flows[key] = problem.add_var(
                f"f[{src}->{dst}]", 0.0, capacity
            )
            for tid in tenant_ids:
                tenant_flows[tid][key] = problem.add_var(
                    f"ft[{tid}][{src}->{dst}]", 0.0, capacity
                )
            problem.add_constraint(
                lin_sum(tenant_flows[tid][key] for tid in tenant_ids)
                == total_flows[key],
                name=f"tenant_link[{src}->{dst}]",
            )
        for nid, capacity in flow.node_capacities.items():
            total_in = lin_sum(
                v for (_, dst), v in total_flows.items() if dst == nid
            )
            total_out = lin_sum(
                v for (src, _), v in total_flows.items() if src == nid
            )
            problem.add_constraint(
                total_in == total_out, name=f"conserve[{nid}]"
            )
            problem.add_constraint(
                total_in <= capacity, name=f"node_cap[{nid}]"
            )
            for tid in tenant_ids:
                inflow = lin_sum(
                    v
                    for (_, dst), v in tenant_flows[tid].items()
                    if dst == nid
                )
                outflow = lin_sum(
                    v
                    for (src, _), v in tenant_flows[tid].items()
                    if src == nid
                )
                problem.add_constraint(
                    inflow == outflow, name=f"tenant_conserve[{tid}][{nid}]"
                )
                problem.add_constraint(
                    inflow <= burst * shares[tid] * capacity,
                    name=f"tenant_burst[{tid}][{nid}]",
                )
        source_flow = lin_sum(
            v for (src, _), v in total_flows.items() if src == COORDINATOR
        )
        sink_flow = lin_sum(
            v for (_, dst), v in total_flows.items() if dst == COORDINATOR
        )
        problem.add_constraint(source_flow == sink_flow, name="balance")
        source_vars: dict[str, list[Variable]] = {}
        for tid in tenant_ids:
            outs = [
                v
                for (src, _), v in tenant_flows[tid].items()
                if src == COORDINATOR
            ]
            sinks = [
                v
                for (_, dst), v in tenant_flows[tid].items()
                if dst == COORDINATOR
            ]
            source_vars[tid] = outs
            problem.add_constraint(
                lin_sum(outs) == lin_sum(sinks),
                name=f"tenant_balance[{tid}]",
            )
            problem.add_constraint(
                lin_sum(outs) >= guarantee * shares[tid] * source_flow,
                name=f"tenant_guarantee[{tid}]",
            )
        problem.set_objective(source_flow, maximize=True)

        solution = solve_with_highs(
            problem,
            time_limit=self.time_limit,
            mip_rel_gap=self.mip_rel_gap,
        )
        if not solution.status.has_solution:
            raise SolverError(
                "tenant arbitration solve failed "
                f"({solution.status.value}); the proportional split is "
                "always feasible, so this indicates an inconsistent pin"
            )
        per_tenant = {
            tid: sum(solution.values[v.name] for v in source_vars[tid])
            for tid in tenant_ids
        }
        return TenantArbitration(
            result=base,
            per_tenant_throughput=per_tenant,
            shares=dict(shares),
            adapter_overhead_bytes=overhead,
            max_layers_scale=scale,
            guarantee=guarantee,
            burst=burst,
        )


@dataclass(frozen=True)
class TenantArbitration:
    """Outcome of :meth:`HelixMilpPlanner.plan_tenants`.

    Attributes:
        result: The underlying single-placement plan (placement + flow),
            solved with the shared-base-plus-adapters VRAM budget.
        per_tenant_throughput: Tenant id -> guaranteed end-to-end token
            rate from the arbitration solve (sums to the placement's
            total max flow).
        shares: Normalized rate shares the arbitration enforced.
        adapter_overhead_bytes: Summed per-layer adapter VRAM across
            tenants (what riding on the shared base cost beyond it).
        max_layers_scale: Factor applied to the profiler's
            ``weight_fraction`` (base counted once; < 1 when any tenant
            carries adapters).
        guarantee: The per-tenant rate-guarantee fraction enforced.
        burst: The per-node burst cap enforced.
    """

    result: PlannerResult
    per_tenant_throughput: dict[str, float]
    shares: dict[str, float]
    adapter_overhead_bytes: float
    max_layers_scale: float
    guarantee: float
    burst: float

    @property
    def total_throughput(self) -> float:
        """Summed guaranteed tenant rates."""
        return sum(self.per_tenant_throughput.values())

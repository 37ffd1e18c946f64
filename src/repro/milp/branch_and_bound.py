"""Best-first branch-and-bound over HiGHS LP relaxations.

scipy's ``milp`` wrapper exposes neither MIP warm starts nor incumbent
callbacks, but two of the paper's experiments need exactly those:

* §4.5 seeds the solver with heuristic placements ("initial values"
  ablation, Fig. 11b) — here the heuristic solution becomes the initial
  incumbent, pruning every subtree whose LP bound cannot beat it;
* §6.9 (Fig. 12) plots the best incumbent and best proven bound against
  solving time — here every incumbent/bound improvement is recorded in a
  trajectory.

The solver is a best-first B&B with the standard complement of MIP
machinery layered on top of the textbook skeleton:

* **delta-encoded node bounds** — a node stores only its ``(index, lo,
  hi)`` tightenings plus a parent pointer; full bound arrays are
  materialized transiently for the LP call instead of being copied into
  every node (the old solver kept two O(n) arrays per open node);
* **pseudocost branching** — per-variable up/down objective-degradation
  estimates pick the branching variable, falling back to most-fractional
  until a variable has history;
* **integer bound propagation** — before a child's LP is solved, its
  branched bound is propagated through the constraint activity bounds,
  often tightening other integer variables or proving the child
  infeasible without an LP call;
* **root reduced-cost fixing** — with a warm-started incumbent, root LP
  reduced costs permanently fix integer variables whose movement can
  never beat the incumbent;
* **LP rounding + diving** — each LP solution is rounded and checked
  feasible (cheap: one sparse mat-vec), and a bounded depth-first dive
  fixes fractional variables one at a time so good incumbents appear
  early, matching the paper's early-incumbent observation.

Every feature has an independent switch so ablations can measure its
node/LP-count contribution (``python -m repro.exp run bench-milp``
does).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.milp.model import MilpProblem
from repro.milp.solution import MilpSolution, SolveStatus

_INTEGRALITY_TOL = 1e-6
_BOUND_EPS = 1e-9


@dataclass(frozen=True)
class TrajectoryPoint:
    """One improvement event during the solve.

    Attributes:
        elapsed: Seconds since the solve started.
        incumbent: Best feasible objective so far (NaN if none).
        bound: Best proven bound on the optimum so far.
        node_count: Nodes explored when the event happened.
    """

    elapsed: float
    incumbent: float
    bound: float
    node_count: int


@dataclass
class SolveStats:
    """Counters for one :meth:`BranchAndBoundSolver.solve` call.

    Attributes:
        lp_solves: LP relaxations solved (nodes, dives, and the root).
        dive_calls: Diving-heuristic invocations.
        dive_incumbents: Incumbents found by rounding/diving.
        propagation_prunes: Children pruned by bound propagation alone.
        fixed_at_root: Integer variables fixed by reduced cost at the root.
        time_to_first_incumbent: Seconds until the first feasible solution
            (0.0 when warm-started, NaN if none was ever found).
    """

    lp_solves: int = 0
    dive_calls: int = 0
    dive_incumbents: int = 0
    propagation_prunes: int = 0
    fixed_at_root: int = 0
    time_to_first_incumbent: float = float("nan")


class _Node:
    """A B&B node: bound deltas against the parent, not full arrays."""

    __slots__ = ("sequence", "parent", "deltas", "depth")

    def __init__(
        self,
        sequence: int,
        parent: "_Node | None",
        deltas: list[tuple[int, float, float]],
    ) -> None:
        self.sequence = sequence
        self.parent = parent
        self.deltas = deltas
        self.depth = 0 if parent is None else parent.depth + 1


class BranchAndBoundSolver:
    """Best-first branch-and-bound for :class:`MilpProblem`.

    Args:
        problem: The problem (maximization or minimization).
        time_limit: Wall-clock budget in seconds.
        node_limit: Maximum B&B nodes to explore.
        gap_tolerance: Stop when ``|bound - incumbent|`` is within this
            relative tolerance.
        early_stop_bound: Known bound on the optimum (the paper's
            "compute-sum" early-stop criterion, §4.5); the solve stops as
            soon as the incumbent is within ``gap_tolerance`` of it.
        stall_time: Optional incumbent-stall cutoff: stop once an incumbent
            exists and no improvement has been seen for this many seconds.
        pseudocost: Branch on pseudocost scores (most-fractional otherwise).
        diving: Run the LP-rounding/diving primal heuristic.
        propagation: Propagate integer bounds before each child LP.
        reduced_cost_fixing: Fix integer variables at the root from the
            root LP's reduced costs (needs an incumbent to compare against).
        dive_interval: Re-run the diving heuristic every this many nodes.
        dive_lp_budget: Maximum LP solves per dive.
    """

    def __init__(
        self,
        problem: MilpProblem,
        time_limit: float = 60.0,
        node_limit: int = 200_000,
        gap_tolerance: float = 1e-6,
        early_stop_bound: float | None = None,
        stall_time: float | None = None,
        pseudocost: bool = True,
        diving: bool = True,
        propagation: bool = True,
        reduced_cost_fixing: bool = True,
        dive_interval: int = 64,
        dive_lp_budget: int = 40,
    ) -> None:
        self.problem = problem
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.gap_tolerance = gap_tolerance
        self.early_stop_bound = early_stop_bound
        self.stall_time = stall_time
        self.use_pseudocost = pseudocost
        self.use_diving = diving
        self.use_propagation = propagation
        self.use_reduced_cost_fixing = reduced_cost_fixing
        self.dive_interval = max(1, dive_interval)
        self.dive_lp_budget = dive_lp_budget
        self.trajectory: list[TrajectoryPoint] = []
        self.stats = SolveStats()
        self._compiled = problem.compile()
        # Max-sense objective constant: ``compiled.c`` drops the affine
        # constant, but incumbents evaluated through the expression
        # (warm starts) include it — every internal value must agree.
        self._obj_constant = (
            self._compiled.objective_constant
            if problem.maximize
            else -self._compiled.objective_constant
        )
        self._integer_indices = np.nonzero(self._compiled.integrality)[0]
        self._is_integer = self._compiled.integrality.astype(bool)
        self._a_ub, self._b_ub, self._a_eq, self._b_eq = self._split_constraints()
        # Column view of the constraint matrix for propagation (var -> rows).
        a_csc = self._compiled.a_matrix.tocsc()
        self._col_indptr = a_csc.indptr
        self._col_rows = a_csc.indices
        n = len(self._compiled.c)
        # Pseudocost state: summed per-unit degradations and update counts,
        # [:, 0] for down (floor) branches and [:, 1] for up (ceil).
        self._pc_sum = np.zeros((n, 2))
        self._pc_cnt = np.zeros((n, 2), dtype=np.int64)
        # Running per-direction totals so branching does not re-reduce the
        # full (n, 2) arrays on every node expansion.
        self._pc_total_sum = np.zeros(2)
        self._pc_total_cnt = np.zeros(2, dtype=np.int64)

    def _split_constraints(self):
        """Convert two-sided row bounds into linprog's A_ub/A_eq form.

        Boolean-mask sparse slicing: three row selections on the CSR matrix
        instead of an O(rows) loop of single-row slices.
        """
        compiled = self._compiled
        a = compiled.a_matrix
        lower, upper = compiled.constraint_lower, compiled.constraint_upper
        eq_mask = lower == upper
        le_mask = ~eq_mask & np.isfinite(upper)
        ge_mask = ~eq_mask & np.isfinite(lower)

        a_eq = a[eq_mask] if eq_mask.any() else None
        b_eq = upper[eq_mask] if eq_mask.any() else None
        ub_blocks = []
        ub_rhs = []
        if le_mask.any():
            ub_blocks.append(a[le_mask])
            ub_rhs.append(upper[le_mask])
        if ge_mask.any():
            ub_blocks.append(-a[ge_mask])
            ub_rhs.append(-lower[ge_mask])
        if ub_blocks:
            a_ub = (
                ub_blocks[0]
                if len(ub_blocks) == 1
                else sparse.vstack(ub_blocks, format="csr")
            )
            b_ub = np.concatenate(ub_rhs)
        else:
            a_ub, b_ub = None, None
        return a_ub, b_ub, a_eq, b_eq

    # ------------------------------------------------------------------
    # Node bounds
    # ------------------------------------------------------------------
    def _node_bounds(self, node: _Node | None) -> tuple[np.ndarray, np.ndarray]:
        """Materialize a node's bound arrays from its delta chain."""
        lower = self._root_lower.copy()
        upper = self._root_upper.copy()
        chain = []
        while node is not None:
            chain.append(node)
            node = node.parent
        for ancestor in reversed(chain):
            for index, lo, hi in ancestor.deltas:
                if lo > lower[index]:
                    lower[index] = lo
                if hi < upper[index]:
                    upper[index] = hi
        return lower, upper

    # ------------------------------------------------------------------
    def solve(
        self, initial_incumbent: dict[str, float] | None = None
    ) -> MilpSolution:
        """Run B&B, optionally warm-started from a feasible assignment.

        Args:
            initial_incumbent: A feasible variable assignment (e.g. from a
                heuristic placement). Infeasible assignments are rejected
                with a ``ValueError`` so silent mis-seeding cannot skew the
                ablation results.
        """
        compiled = self._compiled
        start = time.perf_counter()
        deadline = start + self.time_limit
        counter = itertools.count()
        self.stats = SolveStats()
        self._best_values: dict[str, float] | None = None
        self._best_objective = -math.inf  # in maximization sense internally
        self._last_improvement = start
        self._start = start
        # Live counters so heuristic-found incumbents record trajectory
        # points with the same units as the main loop's.
        self._node_count = 0
        self._current_bound = math.inf

        if initial_incumbent is not None:
            violated = self.problem.check_feasible(initial_incumbent, tol=1e-5)
            if violated:
                raise ValueError(
                    f"initial incumbent violates constraints: {violated[:5]}"
                )
            self._best_values = dict(initial_incumbent)
            self._best_objective = self._objective_of(initial_incumbent)
            self.stats.time_to_first_incumbent = 0.0
            self._record(start, self._best_objective, math.inf, 0)

        self._root_lower = compiled.lower.astype(np.float64, copy=True)
        self._root_upper = compiled.upper.astype(np.float64, copy=True)
        root = _Node(sequence=next(counter), parent=None, deltas=[])
        root_relax = self._solve_relaxation(self._root_lower, self._root_upper)
        node_count = 0
        if root_relax is None:
            if self._best_values is not None:
                return self._finish(
                    self._best_objective, self._best_objective, start, node_count
                )
            return MilpSolution(
                status=SolveStatus.INFEASIBLE,
                solve_time=time.perf_counter() - start,
            )

        root_bound, root_x, root_result = root_relax
        self._current_bound = root_bound
        if (
            self.use_reduced_cost_fixing
            and math.isfinite(self._best_objective)
        ):
            self._fix_at_root(root_bound, root_x, root_result)
        if self.use_diving:
            self._try_rounding(root_x)
            self._dive(self._root_lower, self._root_upper, root_x, deadline)

        # Heap entries: (priority, sequence, node, bound, lp solution).
        heap: list[tuple[float, int, _Node, float, np.ndarray]] = []
        heapq.heappush(heap, (-root_bound, root.sequence, root, root_bound, root_x))
        global_bound = root_bound
        self._record(start, self._best_objective, global_bound, node_count)

        while heap:
            now = time.perf_counter()
            if now > deadline:
                break
            if node_count >= self.node_limit:
                break
            if (
                self.stall_time is not None
                and self._best_values is not None
                and now - self._last_improvement > self.stall_time
            ):
                break
            _, _, node, bound, x = heapq.heappop(heap)
            # Global bound = best remaining node bound (heap is best-first).
            global_bound = bound
            self._current_bound = bound
            if bound <= self._best_objective + self._abs_gap(self._best_objective):
                # Nothing left can beat the incumbent: proven optimal.
                global_bound = self._best_objective
                break
            if self._early_stop_reached(self._best_objective):
                break

            node_count += 1
            self._node_count = node_count
            branch_index = self._select_branch_variable(x)
            if branch_index is None:
                # Integral relaxation: new incumbent.
                if bound > self._best_objective:
                    self._adopt_incumbent_from_array(x, bound)
                    self._record(start, self._best_objective, global_bound, node_count)
                continue

            if (
                self.use_diving
                and node_count % self.dive_interval == 0
                and time.perf_counter() < deadline
            ):
                lower, upper = self._node_bounds(node)
                self.stats.dive_calls += 1
                self._dive(lower, upper, x, deadline)

            value = x[branch_index]
            floor_value = math.floor(value)
            frac = value - floor_value
            parent_lower, parent_upper = self._node_bounds(node)
            for branch in ("floor", "ceil"):
                if branch == "floor":
                    delta = (branch_index, -math.inf, float(floor_value))
                    frac_dist = frac
                    direction = 0
                else:
                    delta = (branch_index, float(floor_value + 1), math.inf)
                    frac_dist = 1.0 - frac
                    direction = 1
                lower = parent_lower.copy()
                upper = parent_upper.copy()
                if delta[1] > lower[branch_index]:
                    lower[branch_index] = delta[1]
                if delta[2] < upper[branch_index]:
                    upper[branch_index] = delta[2]
                if lower[branch_index] > upper[branch_index]:
                    continue
                deltas = [
                    (branch_index, lower[branch_index], upper[branch_index])
                ]
                if self.use_propagation:
                    extra = self._propagate(lower, upper, branch_index)
                    if extra is None:
                        self.stats.propagation_prunes += 1
                        continue
                    deltas.extend(extra)
                relax = self._solve_relaxation(lower, upper)
                if relax is None:
                    self._update_pseudocost(
                        branch_index, direction, frac_dist, bound - self._best_objective
                    )
                    continue
                child_bound, child_x, _ = relax
                self._update_pseudocost(
                    branch_index, direction, frac_dist, bound - child_bound
                )
                if child_bound <= self._best_objective + self._abs_gap(
                    self._best_objective
                ):
                    continue
                child = _Node(
                    sequence=next(counter), parent=node, deltas=deltas
                )
                heapq.heappush(
                    heap,
                    (-child_bound, child.sequence, child, child_bound, child_x),
                )

        if not heap:
            global_bound = self._best_objective
        if self._best_values is None:
            return MilpSolution(
                status=SolveStatus.NO_SOLUTION,
                bound=self._to_problem_sense(global_bound),
                solve_time=time.perf_counter() - start,
                node_count=node_count,
            )
        return self._finish(self._best_objective, global_bound, start, node_count)

    # ------------------------------------------------------------------
    # Incumbents
    # ------------------------------------------------------------------
    def _adopt_incumbent_from_array(self, x: np.ndarray, objective: float) -> None:
        """Install ``x`` (max-sense value ``objective``) as the incumbent."""
        if math.isnan(self.stats.time_to_first_incumbent):
            self.stats.time_to_first_incumbent = time.perf_counter() - self._start
        self._best_objective = objective
        self._best_values = {
            var.name: self._round_if_integer(x[var.index], var.is_integer)
            for var in self.problem.variables
        }
        self._last_improvement = time.perf_counter()

    def _candidate_objective(self, x: np.ndarray) -> float:
        """Max-sense objective of an array assignment.

        ``compiled.c`` is the min-sense cost vector (already negated for
        maximization), so the internal max-sense value is ``-(c @ x)``
        plus the objective's affine constant.
        """
        return -float(self._compiled.c @ x) + self._obj_constant

    def _try_rounding(self, x: np.ndarray) -> bool:
        """Round the integer part of an LP solution and adopt it if feasible.

        One sparse mat-vec against the compiled arrays — cheap enough to
        try on every dive step.
        """
        compiled = self._compiled
        candidate = x.copy()
        rounded = np.rint(candidate[self._integer_indices])
        candidate[self._integer_indices] = rounded
        np.clip(candidate, self._root_lower, self._root_upper, out=candidate)
        activity = compiled.a_matrix @ candidate
        tol = 1e-6
        feasible = bool(
            np.all(activity <= compiled.constraint_upper + tol)
            and np.all(activity >= compiled.constraint_lower - tol)
        )
        if not feasible:
            return False
        objective = self._candidate_objective(candidate)
        if objective <= self._best_objective + _BOUND_EPS:
            return False
        self.stats.dive_incumbents += 1
        self._adopt_incumbent_from_array(candidate, objective)
        self._record(
            self._start, self._best_objective, self._current_bound, self._node_count
        )
        return True

    def _dive(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        x: np.ndarray,
        deadline: float,
    ) -> None:
        """Depth-first dive: fix the most fractional variable, re-solve.

        Bounded by ``dive_lp_budget`` LP solves; every intermediate LP
        solution also gets the cheap rounding check, so the dive usually
        produces an incumbent well before reaching an integral LP.
        """
        lower = lower.copy()
        upper = upper.copy()
        x = x.copy()
        budget = self.dive_lp_budget
        while budget > 0 and time.perf_counter() < deadline:
            if self._try_rounding(x):
                return
            index = self._most_fractional(x)
            if index is None:
                objective = self._candidate_objective(x)
                if objective > self._best_objective + _BOUND_EPS:
                    self.stats.dive_incumbents += 1
                    self._adopt_incumbent_from_array(x, objective)
                    self._record(
                        self._start,
                        self._best_objective,
                        self._current_bound,
                        self._node_count,
                    )
                return
            target = float(np.rint(x[index]))
            target = min(max(target, lower[index]), upper[index])
            saved = (lower[index], upper[index])
            lower[index] = upper[index] = target
            relax = self._solve_relaxation(lower, upper)
            budget -= 1
            if relax is None:
                # Flip once to the other side of the fraction.
                other = float(
                    math.floor(x[index])
                    if target > x[index]
                    else math.ceil(x[index])
                )
                other = min(max(other, saved[0]), saved[1])
                if other == target:
                    return
                lower[index] = upper[index] = other
                relax = self._solve_relaxation(lower, upper)
                budget -= 1
                if relax is None:
                    return
            bound, x, _ = relax
            if bound <= self._best_objective + self._abs_gap(self._best_objective):
                return  # this dive can no longer beat the incumbent

    # ------------------------------------------------------------------
    # Root reduced-cost fixing
    # ------------------------------------------------------------------
    def _fix_at_root(
        self, root_bound: float, x: np.ndarray, result
    ) -> None:
        """Fix integer variables the root reduced costs prove immovable.

        With incumbent ``z`` and root bound ``U`` (max sense), moving a
        nonbasic integer variable one unit off its bound degrades the LP
        bound by at least its reduced cost ``d``; if ``U - d < z`` no
        improving solution can move it, so its bound becomes permanent.
        """
        lower_info = getattr(result, "lower", None)
        upper_info = getattr(result, "upper", None)
        reduced_lower = getattr(lower_info, "marginals", None)
        reduced_upper = getattr(upper_info, "marginals", None)
        if reduced_lower is None or reduced_upper is None:
            return
        slack = root_bound - (
            self._best_objective + self._abs_gap(self._best_objective)
        )
        if slack < 0:
            return
        lo, hi = self._root_lower, self._root_upper
        for index in self._integer_indices:
            if hi[index] - lo[index] < 0.5:
                continue
            at_lower = abs(x[index] - lo[index]) <= _INTEGRALITY_TOL
            at_upper = abs(x[index] - hi[index]) <= _INTEGRALITY_TOL
            if at_lower and reduced_lower[index] > slack + _BOUND_EPS:
                hi[index] = lo[index]
                self.stats.fixed_at_root += 1
            elif at_upper and -reduced_upper[index] > slack + _BOUND_EPS:
                lo[index] = hi[index]
                self.stats.fixed_at_root += 1

    # ------------------------------------------------------------------
    # Bound propagation
    # ------------------------------------------------------------------
    def _propagate(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        seed_index: int,
        row_budget: int = 2000,
    ) -> list[tuple[int, float, float]] | None:
        """Tighten integer bounds implied by a branching decision.

        Standard activity-based domain propagation over the rows touching
        each changed variable. Mutates ``lower``/``upper`` in place and
        returns the list of extra ``(index, lo, hi)`` deltas, or ``None``
        when a row's activity bounds prove the child infeasible.
        """
        compiled = self._compiled
        a = compiled.a_matrix
        indptr, indices, data = a.indptr, a.indices, a.data
        cl, cu = compiled.constraint_lower, compiled.constraint_upper
        queue = deque([seed_index])
        queued = {seed_index}
        deltas: list[tuple[int, float, float]] = []

        def tighten(col: int, implied: float, is_upper: bool) -> bool:
            """Apply one implied bound; False when the domain empties."""
            current = upper[col] if is_upper else lower[col]
            improves = implied < current - 1e-9 if is_upper else implied > current + 1e-9
            if not improves:
                return True
            if is_upper:
                upper[col] = float(implied)
            else:
                lower[col] = float(implied)
            if lower[col] > upper[col]:
                return False
            deltas.append((col, lower[col], upper[col]))
            if col not in queued:
                queue.append(col)
                queued.add(col)
            return True

        while queue and row_budget > 0:
            var_index = queue.popleft()
            queued.discard(var_index)
            row_start = self._col_indptr[var_index]
            row_end = self._col_indptr[var_index + 1]
            for row in self._col_rows[row_start:row_end]:
                row_budget -= 1
                if row_budget <= 0:
                    break
                cols = indices[indptr[row]:indptr[row + 1]]
                coefs = data[indptr[row]:indptr[row + 1]]
                positive = coefs > 0
                lo_c = np.where(positive, lower[cols], upper[cols])
                hi_c = np.where(positive, upper[cols], lower[cols])
                min_activity = float(coefs @ lo_c)
                max_activity = float(coefs @ hi_c)
                if (
                    min_activity > cu[row] + 1e-7
                    or max_activity < cl[row] - 1e-7
                ):
                    return None
                tighten_upper = np.isfinite(cu[row]) and np.isfinite(min_activity)
                tighten_lower = np.isfinite(cl[row]) and np.isfinite(max_activity)
                if not (tighten_upper or tighten_lower):
                    continue
                for position, col in enumerate(cols):
                    if not self._is_integer[col]:
                        continue
                    coef = coefs[position]
                    if tighten_upper:
                        # row @ x <= cu: the col term may use at most the
                        # slack the other terms' minimum activity leaves.
                        residual = min_activity - coef * (
                            lower[col] if coef > 0 else upper[col]
                        )
                        slack = cu[row] - residual
                        if coef > 0:
                            ok = tighten(
                                col, math.floor(slack / coef + 1e-9), True
                            )
                        else:
                            ok = tighten(
                                col, math.ceil(slack / coef - 1e-9), False
                            )
                        if not ok:
                            return None
                    if tighten_lower:
                        # row @ x >= cl, symmetric with the maximum activity.
                        residual = max_activity - coef * (
                            upper[col] if coef > 0 else lower[col]
                        )
                        slack = cl[row] - residual
                        if coef > 0:
                            ok = tighten(
                                col, math.ceil(slack / coef - 1e-9), False
                            )
                        else:
                            ok = tighten(
                                col, math.floor(slack / coef + 1e-9), True
                            )
                        if not ok:
                            return None
        return deltas

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    def _fractional_candidates(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Integer indices with fractional LP values, and their fractions."""
        if len(self._integer_indices) == 0:
            return None
        xi = x[self._integer_indices]
        frac = xi - np.floor(xi)
        score = np.minimum(frac, 1.0 - frac)
        mask = score > _INTEGRALITY_TOL
        if not mask.any():
            return None
        return self._integer_indices[mask], frac[mask]

    def _select_branch_variable(self, x: np.ndarray) -> int | None:
        """Pseudocost-scored branching variable (None if x is integral)."""
        candidates = self._fractional_candidates(x)
        if candidates is None:
            return None
        if not self.use_pseudocost:
            return self._most_fractional(x)
        indices, frac = candidates
        counts = self._pc_cnt[indices]
        sums = self._pc_sum[indices]
        total_cnt = self._pc_total_cnt
        total_sum = self._pc_total_sum
        # Global average pseudocost stands in for unseen variables.
        default_down = total_sum[0] / total_cnt[0] if total_cnt[0] else 1.0
        default_up = total_sum[1] / total_cnt[1] if total_cnt[1] else 1.0
        down = np.where(
            counts[:, 0] > 0,
            sums[:, 0] / np.maximum(counts[:, 0], 1),
            default_down,
        )
        up = np.where(
            counts[:, 1] > 0,
            sums[:, 1] / np.maximum(counts[:, 1], 1),
            default_up,
        )
        eps = 1e-6
        score = np.maximum(down * frac, eps) * np.maximum(up * (1.0 - frac), eps)
        # Break score ties toward the most fractional variable.
        score = score * (1.0 + np.minimum(frac, 1.0 - frac))
        return int(indices[int(np.argmax(score))])

    def _update_pseudocost(
        self, index: int, direction: int, frac_dist: float, degradation: float
    ) -> None:
        """Record an observed per-unit objective degradation for a branch."""
        if not self.use_pseudocost:
            return
        if not math.isfinite(degradation):
            return
        degradation = max(0.0, degradation)
        unit = degradation / max(frac_dist, 1e-6)
        self._pc_sum[index, direction] += unit
        self._pc_cnt[index, direction] += 1
        self._pc_total_sum[direction] += unit
        self._pc_total_cnt[direction] += 1

    def _most_fractional(self, x: np.ndarray) -> int | None:
        """Index of the integer variable farthest from integrality."""
        candidates = self._fractional_candidates(x)
        if candidates is None:
            return None
        indices, frac = candidates
        score = np.minimum(frac, 1.0 - frac)
        return int(indices[int(np.argmax(score))])

    # ------------------------------------------------------------------
    def _finish(self, objective, bound, start, node_count) -> MilpSolution:
        elapsed = time.perf_counter() - start
        optimal = abs(bound - objective) <= self._abs_gap(objective)
        self._record(start, objective, bound, node_count)
        return MilpSolution(
            status=SolveStatus.OPTIMAL if optimal else SolveStatus.FEASIBLE,
            objective=self._to_problem_sense(objective),
            values=self._best_values,
            bound=self._to_problem_sense(bound),
            solve_time=elapsed,
            node_count=node_count,
        )

    def _abs_gap(self, objective: float) -> float:
        return self.gap_tolerance * max(1.0, abs(objective))

    def _early_stop_reached(self, best_objective: float) -> bool:
        if self.early_stop_bound is None or not math.isfinite(best_objective):
            return False
        target = self.early_stop_bound
        return best_objective >= target - self._abs_gap(target)

    def _to_problem_sense(self, value: float) -> float:
        """Convert an internal max-sense value back to the problem's sense."""
        return value if self.problem.maximize else -value

    def _objective_of(self, values: dict[str, float]) -> float:
        objective = self.problem.objective.evaluate(values)
        return objective if self.problem.maximize else -objective

    def _solve_relaxation(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> tuple[float, np.ndarray, object] | None:
        """LP-relax under the given bounds.

        Returns ``(bound in max sense, solution, raw result)`` or ``None``
        when infeasible. ``compiled.c`` is already negated for maximization
        problems, so linprog always minimizes and ``-result.fun`` plus the
        objective's affine constant is the max-sense bound.
        """
        self.stats.lp_solves += 1
        result = linprog(
            c=self._compiled.c,
            A_ub=self._a_ub,
            b_ub=self._b_ub,
            A_eq=self._a_eq,
            b_eq=self._b_eq,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if not result.success:
            return None
        return -result.fun + self._obj_constant, result.x, result

    def _round_if_integer(self, value: float, is_integer: bool) -> float:
        return float(round(value)) if is_integer else float(value)

    def _record(self, start: float, incumbent: float, bound: float, nodes: int) -> None:
        self.trajectory.append(
            TrajectoryPoint(
                elapsed=time.perf_counter() - start,
                incumbent=incumbent if math.isfinite(incumbent) else float("nan"),
                bound=bound,
                node_count=nodes,
            )
        )

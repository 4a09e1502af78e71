"""Planning workload ``plan-search``: what ``repro plan --schedule-budget
60`` runs.

One operation is ``plan_cluster(top=5)`` followed by
``optimize_plan(budget=60)`` at global batch 256, micro-batch 2 (the
CLI's default).  Operations alternate between two cases, the pairs the
repository's plan smoke check uses; the cluster files are frozen copies
under ``clusters/``:

* ``mixtral-8x7b`` on ``h800x2.json`` (two uniform H800 nodes);
* ``mixtral-8x2b`` on ``mixed_fleet.json`` (H800/A100/H20 nodes).

Closed loop, one caller.  The seed picks the schedule-search seed and
which case goes first.  Correctness: repeated searches of a case return
results identical to the first one, and the ``h800x2`` winner is SP+EP
with all-to-all dispatch, the paper's choice.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Tuple

from common import (Outcome, Reference, median, peak_rss_mb, percentile,
                    print_failure, records_kernel, repeated_setup)
from repro.core.autoschedule import optimize_plan
from repro.core.cluster import ClusterSpec
from repro.core.config import MODEL_ZOO, TrainConfig
from repro.core.planner import plan_cluster
from repro.perf.systems import MegaScalePerfModel

CLUSTERS = Path(__file__).resolve().parent / "clusters"
CASES = (("mixtral-8x7b", "h800x2.json"),
         ("mixtral-8x2b", "mixed_fleet.json"))
#: The case whose winner must be the paper's plan.
PAPER_CASE = 0
PAPER_PLAN = ("SP+EP", "a2a")
TOP = 5
BUDGET = 60
TRAIN = TrainConfig(global_batch_size=256, micro_batch_size=2)
SETUPS = 7


class Case:
    """One (model, cluster) search input and the reference result."""

    def __init__(self, model_name: str, cluster_file: str):
        self.model = MODEL_ZOO[model_name]
        self.cluster = ClusterSpec.load(str(CLUSTERS / cluster_file))
        self.reference: Optional[tuple] = None


def search(case: Case, seed: int):
    """The measured operation: plan search, then schedule search.

    Returns both results and the seconds each call took.
    """
    t0 = time.perf_counter()
    plan = plan_cluster(case.model, case.cluster, TRAIN, top=TOP)
    t1 = time.perf_counter()
    composed = optimize_plan(case.model, case.cluster, TRAIN,
                             budget=BUDGET, seed=seed)
    return plan, composed, (t1 - t0, time.perf_counter() - t1)


def signature(plan, composed) -> tuple:
    """Everything a repeated search must reproduce exactly."""
    ranked = tuple((s.candidate.describe(), s.iteration_time,
                    s.cross_node_a2a_bytes) for s in plan.ranked)
    schedule = tuple((r.makespan, r.baseline_makespan, r.evaluations)
                     for r in (composed.fwd, composed.bwd))
    return (ranked, plan.n_enumerated, plan.n_feasible, plan.n_simulated,
            composed.plan.best.candidate.describe(), schedule)


def winner(plan) -> Tuple[str, str]:
    parallel = plan.best.candidate.parallel
    return parallel.strategy_name, parallel.ep_dispatch


def is_correct(index: int, case: Case, sig: tuple, plan) -> bool:
    if sig != case.reference:
        return False
    return index != PAPER_CASE or winner(plan) == PAPER_PLAN


def set_up(seed: int) -> List[Case]:
    """Load both cases and search each once; those results are the
    references later searches must reproduce."""
    cases = [Case(*c) for c in CASES]
    for case in cases:
        plan, composed, _ = search(case, seed)
        case.reference = signature(plan, composed)
    return cases


class Loop:
    """Alternating searches with their timing and verdicts.

    ``on_result(case, plan)`` runs after each successful search, outside
    the timed pair.
    """

    def __init__(self, cases: List[Case], seed: int, on_result=None,
                 reference: Optional[Reference] = None):
        self.cases = cases
        self.seed = seed
        self.on_result = on_result
        #: Marked before the first search and after each one.
        self.reference = reference
        self.next_case = seed % len(cases)
        #: Seconds per (plan_cluster, optimize_plan) call of each pair.
        self.calls: List[Tuple[float, float]] = []
        self.failed = 0

    @property
    def pair_seconds(self) -> List[float]:
        return [a + b for a, b in self.calls]

    def one(self) -> None:
        index = self.next_case
        self.next_case = (index + 1) % len(self.cases)
        case = self.cases[index]
        t0 = time.perf_counter()
        try:
            plan, composed, calls = search(case, self.seed)
        except Exception as exc:  # a failed operation: count it, go on
            self.calls.append((time.perf_counter() - t0, 0.0))
            self.failed += 1
            print_failure(exc, self.failed)
            return
        self.calls.append(calls)
        if not is_correct(index, case, signature(plan, composed), plan):
            self.failed += 1
        if self.on_result is not None:
            self.on_result(case, plan)

    def for_seconds(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        if self.reference is not None:
            self.reference.mark()
        while not self.calls or time.perf_counter() < deadline:
            self.one()
            if self.reference is not None:
                self.reference.mark()


def case_cost(loop: Loop, reference: Reference) -> float:
    """Reference-relative cost of one search: the median per case,
    averaged over the cases (a median over both falls on whichever case
    sits in the middle)."""
    costs = reference.costs(loop.pair_seconds)
    n = len(loop.cases)
    return sum(median(costs[k::n]) for k in range(n)) / n


def run(name: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    cases, setups = repeated_setup(lambda: set_up(seed), SETUPS)
    reference = Reference(records_kernel)
    loop = Loop(cases, seed, reference=reference)
    loop.for_seconds(seconds)
    rss = peak_rss_mb()

    ms = [t * 1e3 for t in loop.pair_seconds]
    n = len(ms)
    out = Outcome(attempted=n, failed=loop.failed)
    out.metrics = {
        "op_cost_p50": case_cost(loop, reference),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    out.add("plan_ms_p50", median(ms), "ms", n)
    out.add("plan_ms_p90", percentile(ms, 90), "ms", n)
    out.add("plan_cost_p50", out.metrics["op_cost_p50"], "ref", n)
    return out


def run_traced(name: str, seed: int, seconds: float) -> Outcome:
    """The traced run: each public call timed alone.

    Half of ``seconds`` runs the plain loop.  The other half also reads
    each ``PlanSearchResult`` and times one ``MegaScalePerfModel
    .iteration`` on the winner, outside the pair.  Planning emits no
    spans of its own, so the overhead is that of the extra reads.
    """
    cases = set_up(seed)
    plain = Loop(cases, seed)
    plain.for_seconds(seconds / 2)

    counts, perf_ms = [], []

    def on_result(case: Case, plan) -> None:
        counts.append((plan.n_enumerated, plan.n_feasible,
                       plan.n_simulated))
        best = plan.best.candidate
        perf = MegaScalePerfModel(cluster=case.cluster,
                                  selective_remat=best.remat == "selective",
                                  elem_bytes=best.elem_bytes)
        gpu = case.cluster.bottleneck_gpu()
        t0 = time.perf_counter()
        perf.iteration(case.model, best.parallel, TRAIN, gpu)
        perf_ms.append((time.perf_counter() - t0) * 1e3)

    traced = Loop(cases, seed, on_result)
    traced.for_seconds(seconds / 2)

    out = Outcome(attempted=len(plain.calls) + len(traced.calls),
                  failed=plain.failed + traced.failed)
    n = max(1, len(counts))
    plain_rate = len(plain.calls) / sum(plain.pair_seconds)
    traced_rate = len(traced.calls) / sum(traced.pair_seconds)
    out.metrics = {
        "core.plan_cluster_ms": median([a * 1e3 for a, _ in traced.calls]),
        "core.schedule_search_ms": median([b * 1e3
                                           for _, b in traced.calls]),
        "core.plans_enumerated": sum(c[0] for c in counts) / n,
        "core.plans_feasible": sum(c[1] for c in counts) / n,
        "core.plans_simulated": sum(c[2] for c in counts) / n,
        "perf.iteration_ms": median(perf_ms),
        "obs.trace_overhead_pct": 100.0 * (plain_rate - traced_rate)
        / plain_rate,
    }
    out.add("traced pairs", len(traced.calls), "count", len(traced.calls))
    out.add("untraced pairs", len(plain.calls), "count", len(plain.calls))
    return out

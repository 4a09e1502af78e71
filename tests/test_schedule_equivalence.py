"""Identity of the event-driven list scheduler and the one-simulation
plan search with the quadratic scan they replace.

The O(n²) scan below is the reference: each pick rescans every pending
unit for the least ``(start, -criticality)``, ties going to the earliest
unit in input order.  The production scheduler must pick the same
sequence on random unit lists and on every layer graph the plan search
schedules, and the plan search must reproduce its recorded results
exactly.
"""

import random
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.core import planner
from repro.core.autoschedule import _reorder_by_priority, optimize_plan
from repro.core.cluster import ClusterSpec
from repro.core.config import GPU_SPECS, MODEL_ZOO, ParallelConfig, \
    TrainConfig
from repro.core.operators import build_backward_graph, build_forward_graph
from repro.core.schedule import HolisticScheduler, OverlapConfig
from repro.perf.estimator import KernelModel
from repro.sim.engine import SimTask, simulate

ROOT = Path(__file__).resolve().parents[1]
CLUSTERS = ROOT / "examples" / "clusters"
GOLDEN = Path(__file__).resolve().parent / "golden"
TRAIN = TrainConfig(global_batch_size=256, micro_batch_size=2)
CASES = (("mixtral-8x7b", "h800x2.json"),
         ("mixtral-8x2b", "mixed_fleet.json"))


def scan_list_schedule(units):
    """The quadratic list scheduler, kept as the reference."""
    by_name = {u[0]: u for u in units}
    children: Dict[str, List[str]] = {u[0]: [] for u in units}
    for name, _, _, _, deps in units:
        for d in deps:
            children[d].append(name)
    out_degree = {u[0]: len(children[u[0]]) for u in units}
    ready = [name for name, deg in out_degree.items() if deg == 0]
    crit: Dict[str, float] = {}
    while ready:
        name = ready.pop()
        dur = by_name[name][1]
        crit[name] = dur + max((crit[c] for c in children[name]),
                               default=0.0)
        for dep in by_name[name][4]:
            out_degree[dep] -= 1
            if out_degree[dep] == 0:
                ready.append(dep)

    finish: Dict[str, float] = {}
    stream_free: Dict[str, float] = {}
    pending = list(units)
    ordered = []
    while pending:
        best = None
        best_key = None
        for u in pending:
            name, dur, is_comm, scope, deps = u
            if any(d not in finish for d in deps):
                continue
            stream = (f"comm_{scope}" if is_comm else "compute")
            start = max(stream_free.get(stream, 0.0),
                        max((finish[d] for d in deps), default=0.0))
            key = (start, -crit[name])
            if best_key is None or key < best_key:
                best, best_key = u, key
        name, dur, is_comm, scope, deps = best
        stream = f"comm_{scope}" if is_comm else "compute"
        start = best_key[0]
        finish[name] = start + dur
        stream_free[stream] = start + dur
        ordered.append(best)
        pending.remove(best)
    return ordered


def random_units(rng: random.Random):
    """A random unit list shaped like the scheduler's input.

    Durations come from a small set so ties (and zero durations) are
    common; comm units use two scopes; some compute units are fused
    kernels moved ahead of their dependencies, as fusion emits them at
    their first member's position.
    """
    n = rng.randint(1, 40)
    units = []
    for i in range(n):
        fused = rng.random() < 0.15
        name = f"fused:{i}" if fused else f"u{i}"
        earlier = [u[0] for u in units]
        deps = tuple(rng.sample(earlier, rng.randint(0, min(i, 3))))
        dur = rng.choice((0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0,
                          rng.random()))
        is_comm = not fused and rng.random() < 0.4
        scope = rng.choice(("intra", "inter"))
        units.append((name, dur, is_comm, scope, deps))
    for i, u in enumerate(list(units)):
        if u[0].startswith("fused:"):
            units.remove(u)
            units.insert(rng.randint(0, i), u)
    return units


def names(units):
    return [u[0] for u in units]


class TestListScheduleMatchesScan:
    def test_random_unit_lists(self):
        for seed in range(400):
            units = random_units(random.Random(seed))
            assert names(HolisticScheduler._list_schedule(units)) \
                == names(scan_list_schedule(units)), f"seed {seed}"

    def test_random_lists_cover_the_hard_cases(self):
        """The generator really emits ties, zero durations, both comm
        scopes and units ahead of their dependencies."""
        seen = set()
        for seed in range(400):
            units = random_units(random.Random(seed))
            pos = {u[0]: i for i, u in enumerate(units)}
            durs = [u[1] for u in units]
            if len(set(durs)) < len(durs):
                seen.add("tie")
            if 0.0 in durs:
                seen.add("zero")
            seen.update(f"scope {u[3]}" for u in units if u[2])
            if any(pos[d] > pos[u[0]] for u in units for d in u[4]):
                seen.add("out of order")
        assert seen == {"tie", "zero", "scope intra", "scope inter",
                        "out of order"}

    def test_errors_unchanged(self):
        with pytest.raises(ValueError, match="depends on unknown unit"):
            HolisticScheduler._list_schedule(
                [("a", 1.0, False, "intra", ("ghost",))])
        with pytest.raises(ValueError, match="cyclic dependencies among"):
            HolisticScheduler._list_schedule(
                [("a", 1.0, False, "intra", ("b",)),
                 ("b", 1.0, False, "intra", ("a",))])


@pytest.fixture(scope="module")
def searches():
    """Each case's plan and schedule search, with every unit list the
    list scheduler saw and what it returned for it."""
    calls = []
    schedule = HolisticScheduler._list_schedule

    def recording(units):
        ordered = schedule(units)
        calls.append((list(units), ordered))
        return ordered

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HolisticScheduler, "_list_schedule",
                   staticmethod(recording))
        for model_name, cluster_file in CASES:
            model = MODEL_ZOO[model_name]
            cluster = ClusterSpec.load(str(CLUSTERS / cluster_file))
            del calls[:]
            plan = planner.plan_cluster(model, cluster, TRAIN, top=5)
            shortlist = list(calls)
            composed = optimize_plan(model, cluster, TRAIN, budget=60,
                                     seed=0)
            out[cluster_file] = (model, cluster, plan, composed,
                                 shortlist)
    return out


class TestPlanSearchIdentity:
    @pytest.mark.parametrize("cluster_file", [c for _, c in CASES])
    def test_shortlist_graphs_match_scan(self, searches, cluster_file):
        """Every fwd and bwd graph the plan search prices, fused and
        unfused, is ordered exactly as the scan orders it."""
        *_, plan, _, shortlist = searches[cluster_file]
        # Two graphs (fwd, bwd) x two candidates (fused, unfused) per
        # simulated plan.
        assert len(shortlist) == 4 * plan.n_simulated
        for units, ordered in shortlist:
            assert names(ordered) == names(scan_list_schedule(units))

    def test_pinned_results(self, searches):
        """Ranked iteration times, schedule-search makespans and
        evaluation counts, recorded with the quadratic scheduler."""
        got = {}
        for cluster_file, (*_, plan, composed, _) in searches.items():
            got[cluster_file] = (
                (plan.n_enumerated, plan.n_feasible, plan.n_simulated),
                [(s.candidate.describe(), s.iteration_time)
                 for s in plan.ranked],
                [(r.makespan, r.baseline_makespan, r.evaluations)
                 for r in (composed.fwd, composed.bwd)],
            )
        assert got == {
            "h800x2.json": (
                (240, 43, 32),
                [("SP+EP n=8 pp=2 dp=1 a2a fp8 remat=none",
                  27.348977995657805),
                 ("SP+EP n=8 pp=2 dp=1 a2a fp8 remat=selective",
                  27.348977995657805),
                 ("SP+EP n=8 pp=2 dp=1 ag_rs fp8 remat=none",
                  27.416090869862053),
                 ("TP+EP n=8 pp=1 dp=2 a2a fp8 remat=selective",
                  27.46038088220548),
                 ("SP+EP n=8 pp=2 dp=1 ag_rs fp8 remat=selective",
                  27.66705704353679)],
                [(0.004312026745084987, 0.004312026745084987, 61),
                 (0.008550407073242181, 0.008550407073242181, 61)],
            ),
            "mixed_fleet.json": (
                (284, 267, 32),
                [("SP+EP n=4 pp=1 dp=8 a2a fp8 remat=none",
                  24.866849332279447),
                 ("SP+EP n=4 pp=1 dp=8 a2a fp8 remat=selective",
                  24.88132321763698),
                 ("SP+EP n=4 pp=1 dp=8 ag_rs fp8 remat=none",
                  24.93117496010449),
                 ("TP+EP n=4 pp=1 dp=8 a2a fp8 remat=none",
                  24.951184784668516),
                 ("TP+EP n=4 pp=1 dp=8 a2a fp8 remat=selective",
                  24.965658670026052)],
                [(0.015241740305227704, 0.015241740305227704, 61),
                 (0.03156810724499852, 0.03156810724499852, 61)],
            ),
        }

    def test_precomputed_plan_gives_the_same_schedule_search(
            self, searches):
        model, cluster, plan, composed, _ = searches["h800x2.json"]
        again = optimize_plan(model, cluster, TRAIN, budget=60, seed=0,
                              plan=plan)
        assert again.plan is plan
        for a, b in ((again.fwd, composed.fwd), (again.bwd, composed.bwd)):
            assert (a.tasks, a.makespan, a.baseline_makespan,
                    a.evaluations) == (b.tasks, b.makespan,
                                       b.baseline_makespan, b.evaluations)

    def test_precomputed_plan_refused_with_repricing(self, searches):
        model, cluster, plan, *_ = searches["h800x2.json"]
        for extra in ({"spans": []}, {"calibration": object()}):
            with pytest.raises(ValueError, match="re-price"):
                optimize_plan(model, cluster, TRAIN, budget=1, plan=plan,
                              **extra)


class TestOneSimulationPerSchedule:
    @pytest.mark.parametrize("overlap", [
        OverlapConfig.none(),
        OverlapConfig(inter_op=True, intra_op=False),
        OverlapConfig.full(),
    ], ids=["none", "inter", "full"])
    def test_returned_timeline_is_the_simulation(self, overlap):
        model = MODEL_ZOO["mixtral-8x7b"]
        km = KernelModel(GPU_SPECS["h800"])
        scheduler = HolisticScheduler(overlap)
        for parallel in (ParallelConfig.megascale(8, ep_dispatch="a2a"),
                         ParallelConfig.megascale(8, ep_dispatch="ag_rs"),
                         ParallelConfig.megatron(8)):
            for graph in (build_forward_graph(model, parallel, 1),
                          build_backward_graph(model, parallel, 1,
                                               selective_remat=True)):
                durations = km.durations(graph)
                tasks, timeline = scheduler.schedule_and_simulate(
                    graph, durations)
                assert tasks == scheduler.schedule(graph, durations)
                assert timeline == simulate(tasks)


class TestReorderByPriorityMatchesSort:
    @staticmethod
    def sorted_reorder(tasks, priority):
        """The re-sort-before-every-pop reference."""
        by_name = {t.name: t for t in tasks}
        indegree = {t.name: len(t.deps) for t in tasks}
        children = {t.name: [] for t in tasks}
        for t in tasks:
            for dep in t.deps:
                children[dep].append(t.name)
        ready = [n for n, deg in indegree.items() if deg == 0]
        out = []
        while ready:
            ready.sort(key=lambda n: (priority.get(n, 0.0), n))
            name = ready.pop(0)
            out.append(by_name[name])
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        return out

    def test_random_priorities(self):
        for seed in range(100):
            rng = random.Random(seed)
            units = random_units(rng)
            tasks = [SimTask(n, d, "s", deps) for n, d, _, _, deps in units]
            draw = np.random.default_rng(seed)
            priority = {t.name: float(draw.integers(0, 4))
                        for t in tasks if rng.random() < 0.8}
            assert _reorder_by_priority(tasks, priority) \
                == self.sorted_reorder(tasks, priority), f"seed {seed}"


class TestPlanCliPricesOnce:
    def test_schedule_budget_runs_plan_search_once(self, monkeypatch,
                                                   capsys):
        calls = []
        plan_cluster = planner.plan_cluster

        def counting(*args, **kwargs):
            calls.append(args)
            return plan_cluster(*args, **kwargs)

        monkeypatch.setattr(planner, "plan_cluster", counting)
        assert cli_main(["plan", "mixtral-8x7b", "--cluster",
                         str(CLUSTERS / "h800x2.json"), "--batch", "256",
                         "--schedule-budget", "60"]) == 0
        assert len(calls) == 1
        golden = (GOLDEN / "plan_h800x2_budget60.txt").read_text()
        assert capsys.readouterr().out == golden

"""Training workloads: back-to-back ``MegaScaleTrainer.train_step`` calls.

Both run the paper's §3 plan on 4 simulated ranks (SP attention, EP
FFN), float64, with batches from ``MarkovCorpus`` + ``batch_iterator``:

* ``train-a2a``: seq 192 x micro-batch 2, top-2, all-to-all dispatch —
  the repository's hot-path shape;
* ``train-agrs-long``: seq 512 x micro-batch 1, top-4, AG/RS dispatch —
  long context, where quadratic attention grows forward to the size of
  backward and the Fig. 7 crossover picks AG/RS.

Closed loop, one caller.  The seed sets the model initialisation and
the Markov corpus; the trainer sees only the batches.  Correctness is
checked untimed: every step's losses are finite, and the first steps
equal a single-rank run (``World(1)``) on the same seeds and batches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from common import (OUT_DIR, Outcome, Reference, children_index, median,
                    numeric_kernel, peak_rss_mb, percentile, print_failure,
                    repeated_setup, self_time)
from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.obs import Observability, write_chrome_trace


@dataclass(frozen=True)
class Shape:
    seq_len: int
    micro_batch: int
    top_k: int
    dispatch: str


SHAPES = {
    "train-a2a": Shape(seq_len=192, micro_batch=2, top_k=2,
                       dispatch="a2a"),
    "train-agrs-long": Shape(seq_len=512, micro_batch=1, top_k=4,
                             dispatch="ag_rs"),
}
RANKS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Steps inside each set-up, before the first timed step.
WARMUP_STEPS = 2
#: Leading steps of the measured trainer replayed on a single rank.
REFERENCE_STEPS = 4
#: The timed loop runs at least this many steps; ``loss_final`` is the
#: LM loss after them, so it depends on the seed and the arithmetic but
#: never on how fast the steps ran.
MIN_TIMED_STEPS = 20
#: Largest accepted |distributed - single-rank| LM loss (float64; the
#: gap measured on the seed is ~1e-15).
LOSS_TOLERANCE = 1e-10
LEARNING_RATE = 3e-3


def model_config(shape: Shape) -> ModelConfig:
    return ModelConfig("perfbench", n_layers=2, hidden_size=64, n_heads=8,
                       gqa_ratio=2, ffn_hidden_size=128, n_experts=8,
                       top_k=shape.top_k, vocab_size=128,
                       seq_len=shape.seq_len)


class TrainLoop:
    """One trainer, the seeded batch stream it consumes, and its record."""

    def __init__(self, shape: Shape, seed: int, ranks: int = RANKS,
                 obs: Optional[Observability] = None):
        config = model_config(shape)
        self.shape = shape
        self.world = World(ranks, ranks_per_node=ranks)
        parallel = ParallelConfig(model_parallel_size=ranks, attention="sp",
                                  ffn="ep", ep_dispatch=shape.dispatch)
        train = TrainConfig(global_batch_size=shape.micro_batch,
                            micro_batch_size=shape.micro_batch,
                            seq_len=shape.seq_len,
                            learning_rate=LEARNING_RATE,
                            aux_loss_coeff=0.01)
        self.trainer = MegaScaleTrainer(
            MoETransformer(config, seed=seed, dtype=np.float64),
            self.world, parallel, train, obs=obs)
        self.batches = batch_iterator(
            MarkovCorpus(vocab_size=config.vocab_size, seed=seed),
            shape.micro_batch, shape.seq_len, seed=seed + 1)
        #: LM loss of every step (NaN where the step raised).
        self.losses: List[float] = []
        #: Whether each step failed (exception or non-finite value).
        self.bad: List[bool] = []

    @property
    def tokens_per_step(self) -> int:
        return self.shape.seq_len * self.shape.micro_batch

    def step(self, batch: np.ndarray) -> None:
        """One ``train_step``; a failure is recorded, not raised."""
        try:
            result = self.trainer.train_step(batch)
        except Exception as exc:  # a failed operation: count it, go on
            self.losses.append(math.nan)
            self.bad.append(True)
            print_failure(exc, sum(self.bad))
            return
        values = (result.loss, result.lm_loss, result.grad_norm)
        self.losses.append(result.lm_loss)
        self.bad.append(not all(math.isfinite(v) for v in values))


def set_up(shape: Shape, seed: int,
           obs: Optional[Observability] = None) -> TrainLoop:
    loop = TrainLoop(shape, seed, obs=obs)
    for _ in range(WARMUP_STEPS):
        loop.step(next(loop.batches))
    return loop


def timed_steps(loop: TrainLoop, seconds: float, min_steps: int,
                reference: Optional[Reference] = None):
    """Steps until ``seconds`` pass and ``min_steps`` ran.

    Returns the wall seconds of each ``train_step`` and of the whole
    loop (batch generation and ``reference`` marks included).
    """
    times: List[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    if reference is not None:
        reference.mark()
    while len(times) < min_steps or time.perf_counter() < deadline:
        batch = next(loop.batches)
        t0 = time.perf_counter()
        loop.step(batch)
        times.append(time.perf_counter() - t0)
        if reference is not None:
            reference.mark()
    return times, time.perf_counter() - start


def reference_mismatches(losses: List[float], reference: List[float],
                         tolerance: float = LOSS_TOLERANCE) -> List[int]:
    """Indices of steps whose loss is missing or off the reference."""
    bad = []
    for i, ref in enumerate(reference):
        if i >= len(losses) or not abs(losses[i] - ref) <= tolerance:
            bad.append(i)
    return bad


def single_rank_losses(shape: Shape, seed: int, steps: int) -> List[float]:
    """LM losses of the first ``steps`` steps on one rank."""
    reference = TrainLoop(shape, seed, ranks=1)
    for _ in range(steps):
        reference.step(next(reference.batches))
    return reference.losses


def check(loop: TrainLoop, shape: Shape, seed: int,
          reference: Optional[List[float]] = None) -> int:
    """Failed steps of ``loop``: non-finite, raised, or off the
    single-rank reference on its first steps."""
    if reference is None:
        reference = single_rank_losses(shape, seed, REFERENCE_STEPS)
    bad = list(loop.bad)
    for i in reference_mismatches(loop.losses, reference):
        if i < len(bad):
            bad[i] = True
    return sum(bad)


def run(name: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    shape = SHAPES[name]
    loop, setups = repeated_setup(lambda: set_up(shape, seed), SETUPS)
    reference = Reference(numeric_kernel)
    times, _ = timed_steps(loop, seconds, MIN_TIMED_STEPS, reference)
    rss = peak_rss_mb()

    out = Outcome()
    out.attempted = len(loop.losses)
    out.failed = check(loop, shape, seed)
    steps_ms = [t * 1e3 for t in times]
    n = len(times)
    loss_final = loop.losses[WARMUP_STEPS + MIN_TIMED_STEPS - 1]
    out.metrics = {
        "op_cost_p50": median(reference.costs(times)),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    out.add("train_tokens_per_s", loop.tokens_per_step * n / sum(times),
            "tok/s", n)
    out.add("step_ms_p50", median(steps_ms), "ms", n)
    out.add("step_ms_p90", percentile(steps_ms, 90), "ms", n)
    out.add("step_cost_p50", out.metrics["op_cost_p50"], "ref", n)
    out.add("loss_final", loss_final, "nats", 1)
    out.notes.append(f"loss_final is the LM loss after {WARMUP_STEPS} "
                     f"warm-up + {MIN_TIMED_STEPS} timed steps")
    return out


# -- traced run ------------------------------------------------------------

def _wrap_block_forwards(trainer: MegaScaleTrainer, tracer) -> None:
    """Span every ``engines[i].forward`` call from the benchmark side."""
    for engine in trainer.engines:
        inner = engine.forward

        def forward(*args, _inner=inner, **kwargs):
            with tracer.span("bench.block_forward", cat="bench"):
                return _inner(*args, **kwargs)

        engine.forward = forward


def _wrap_expert_load(trainer: MegaScaleTrainer, ratios: List[float]
                      ) -> None:
    """Record, per EP FFN call, the busiest expert rank's kept
    (token, slot) pairs over the mean across expert ranks."""
    for engine in trainer.engines:
        ffn = engine.ffn_engine
        inner = ffn.forward

        def forward(*args, _inner=inner, _ffn=ffn, **kwargs):
            result = _inner(*args, **kwargs)
            n = _ffn.group.size
            load = np.zeros(n)
            for routing in result.routing:
                experts = routing.expert_index[routing.kept]
                load += np.bincount(experts // _ffn.local_experts,
                                    minlength=n)
            if load.mean() > 0:
                ratios.append(float(load.max() / load.mean()))
            return result

        ffn.forward = forward


def run_traced(name: str, seed: int, seconds: float) -> Outcome:
    """The traced run: per-layer metrics from spans, ledger and telemetry.

    Half of ``seconds`` runs untraced and half traced, on two trainers
    built alike; the throughput difference is the tracing overhead.
    """
    shape = SHAPES[name]
    plain = set_up(shape, seed)
    plain_times, plain_wall = timed_steps(plain, seconds / 2, 1)

    obs = Observability.create()
    tracer = obs.tracer
    traced = set_up(shape, seed, obs=obs)
    tracer.clear()  # keep only the timed steps
    _wrap_block_forwards(traced.trainer, tracer)
    loads: List[float] = []
    _wrap_expert_load(traced.trainer, loads)
    ledger = traced.world.ledger
    wall_ms, calls, nbytes = [], [], []
    start = time.perf_counter()
    deadline = start + seconds / 2
    while not wall_ms or time.perf_counter() < deadline:
        with tracer.span("bench.data", cat="bench"):
            batch = next(traced.batches)
        counts0, bytes0 = ledger.counts(), ledger.total_bytes()
        t0 = time.perf_counter()
        traced.step(batch)
        wall_ms.append((time.perf_counter() - t0) * 1e3)
        counts1 = ledger.counts()
        calls.append({op: counts1[op] - counts0.get(op, 0)
                      for op in counts1})
        nbytes.append(ledger.total_bytes() - bytes0)
    traced_wall = time.perf_counter() - start

    spans = tracer.closed_spans()
    kids = children_index(spans)
    comm = [s for s in spans if s.cat == "comm"]
    dag_ops = [s for s in spans if s.name.startswith("dag.op:")]
    per = {k: [] for k in ("forward", "backward", "optimizer", "block",
                           "head", "unattributed", "comm", "dag_n",
                           "dag_ms")}
    for step in (s for s in spans if s.name == "train.step"):
        phases = {c.name: c for c in kids.get(step.span_id, [])}
        if not {"forward", "backward", "optimizer"} <= phases.keys():
            continue  # the step raised; it is counted as failed
        fwd = phases["forward"]
        for phase in ("forward", "backward", "optimizer"):
            per[phase].append(phases[phase].duration * 1e3)
        per["block"].append(sum(
            c.duration for c in kids.get(fwd.span_id, [])
            if c.name == "bench.block_forward") * 1e3)
        per["head"].append(self_time(fwd, kids.get(fwd.span_id, [])) * 1e3)
        per["unattributed"].append(
            self_time(step, kids.get(step.span_id, [])) * 1e3)
        inside = [s for s in comm
                  if step.start <= s.start and s.end <= step.end]
        per["comm"].append(sum(s.duration for s in inside) * 1e3)
        ops = [s for s in dag_ops
               if step.start <= s.start and s.end <= step.end]
        per["dag_n"].append(len(ops))
        per["dag_ms"].append(sum(s.duration for s in ops) * 1e3)
    data_ms = [s.duration * 1e3 for s in spans if s.name == "bench.data"]
    attributed = sum(per["forward"]) + sum(per["backward"]) + sum(
        per["optimizer"])

    plain_rate = len(plain_times) / plain_wall
    traced_rate = len(wall_ms) / traced_wall
    out = Outcome()
    out.attempted = len(plain.losses) + len(traced.losses)
    reference = single_rank_losses(shape, seed, REFERENCE_STEPS)
    out.failed = (check(plain, shape, seed, reference)
                  + check(traced, shape, seed, reference))
    n = len(wall_ms)
    out.metrics = {
        "core.forward_ms": median(per["forward"]),
        "parallel.block_fwd_ms": median(per["block"]),
        "model.head_fwd_ms": median(per["head"]),
        "runtime.backward_ms": median(per["backward"]),
        "precision.optimizer_ms": median(per["optimizer"]),
        "data.batch_ms": median(data_ms),
        "core.unattributed_ms": median(per["unattributed"]),
        "core.phase_coverage_pct": 100.0 * attributed / sum(wall_ms),
        "comm.ms_per_step": median(per["comm"]),
        "comm.calls.all_to_all": _mean_calls(calls, "all_to_all"),
        "comm.calls.all_gather": _mean_calls(calls, "all_gather"),
        "comm.calls.reduce_scatter": _mean_calls(calls, "reduce_scatter"),
        "comm.bytes_per_step": float(np.mean(nbytes)),
        "runtime.dag_ops": float(np.mean(per["dag_n"])),
        "runtime.dag_op_ms": median(per["dag_ms"]),
        "model.expert_load_max_over_mean": (float(np.mean(loads))
                                            if loads else 0.0),
        "obs.trace_overhead_pct": 100.0 * (plain_rate - traced_rate)
        / plain_rate,
    }
    out.add("traced steps", n, "count", n)
    out.add("untraced steps", len(plain_times), "count",
            len(plain_times))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    write_chrome_trace(str(path), tracer,
                       extra_metadata={"workload": name, "seed": seed})
    out.notes.append(f"chrome trace: {path.relative_to(OUT_DIR.parent)}")
    return out


def _mean_calls(calls: List[dict], op: str) -> float:
    return float(np.mean([c.get(op, 0) for c in calls]))

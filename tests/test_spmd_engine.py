"""Tests for the SPMD thread-per-rank execution engine.

The determinism contract (docs/INTERNALS.md §8): for any supported
configuration, ``execution="threaded"`` produces bitwise-identical
losses, gradients, parameters, and ledger byte totals to the classic
sequential rank loops — including under a (passive) injected slow-link
fault plan, which also disables the zero-copy collective fast paths.
"""

import os

import numpy as np
import pytest

from conftest import make_block
from repro.comm import World
from repro.comm.rendezvous import Rendezvous, SpmdAbort
from repro.core.analysis import sp_attention_comm_volume
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.ft import FaultPlan
from repro.model import MoETransformer
from repro.parallel import ParallelBlockEngine
from repro.parallel.hybrid2d import Hybrid2DTrainer
from repro.parallel.pp_engine import PipelineParallelTrainer
from repro.precision.optimizer import AdamW
from repro.runtime import (
    SpmdExecutor,
    current_rank,
    make_executor,
    parallel_backward,
    resolve_execution,
)
from repro.tensor import Tensor, is_grad_enabled, no_grad

CONFIG = ModelConfig("spmd", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)


def make_train(execution, **kw):
    return TrainConfig(global_batch_size=2, micro_batch_size=2,
                       seq_len=16, learning_rate=1e-2,
                       aux_loss_coeff=0.01, execution=execution, **kw)


def slow_link_plan():
    """A passive fault plan: rank 1's link is 3x slow, nothing fires."""
    return FaultPlan(slow_ranks={1: 3.0})


# -- executor mechanics -------------------------------------------------------


class TestExecutorMechanics:
    def test_run_returns_rank_order(self, world4):
        ex = SpmdExecutor()
        outs = ex.run(world4.full_group(), lambda comm: comm.rank * 10)
        assert outs == [0, 10, 20, 30]

    def test_current_rank_inside_and_outside(self, world4):
        ex = SpmdExecutor()
        assert current_rank() is None
        seen = ex.run(world4.full_group(), lambda comm: current_rank())
        assert seen == [0, 1, 2, 3]
        assert current_rank() is None

    def test_gossip_shares_metadata(self, world4):
        ex = SpmdExecutor()
        outs = ex.run(world4.full_group(),
                      lambda comm: comm.gossip("meta", comm.rank + 100))
        for out in outs:
            assert out == [100, 101, 102, 103]

    def test_failing_rank_propagates_and_aborts_peers(self, world4):
        ex = SpmdExecutor()

        def rank_fn(comm):
            if comm.rank == 2:
                raise RuntimeError("rank 2 died")
            # Peers block at a rendezvous; the abort unwinds them.
            return comm.gossip("x", comm.rank)

        with pytest.raises(RuntimeError, match="rank 2 died"):
            ex.run(world4.full_group(), rank_fn)

    def test_collective_label_mismatch_detected(self, world4):
        ex = SpmdExecutor()

        def rank_fn(comm):
            label = "a" if comm.rank == 0 else "b"
            return comm.exchange(label, comm.rank, list)

        with pytest.raises(RuntimeError, match="collective mismatch"):
            ex.run(world4.full_group(), rank_fn)

    def test_workers_inherit_grad_mode(self, world4):
        """Grad mode is per thread; rank threads take the caller's."""
        ex = SpmdExecutor(parallelism=2)
        group = world4.full_group()

        def probe(_):
            return is_grad_enabled()

        assert ex.run(group, probe) == [True] * 4
        assert ex.map(probe, range(3)) == [True] * 3
        with no_grad():
            assert ex.run(group, probe) == [False] * 4
            assert ex.map(probe, range(3)) == [False] * 3

    def test_map_preserves_order_and_propagates(self):
        ex = SpmdExecutor(parallelism=2)
        assert ex.map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]

        def boom(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 3"):
            ex.map(boom, range(5))

    def test_rendezvous_abort_raises_spmd_abort(self):
        rdv = Rendezvous(2)
        rdv.abort()
        with pytest.raises(SpmdAbort):
            rdv.exchange(0, "x", 1, list)

    def test_parallelism_validation(self):
        with pytest.raises(ValueError, match="parallelism"):
            SpmdExecutor(parallelism=0)


class TestExecutionKnob:
    def test_resolve_priority(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION", raising=False)
        assert resolve_execution() == "sequential"
        monkeypatch.setenv("REPRO_EXECUTION", "threaded")
        assert resolve_execution() == "threaded"
        assert resolve_execution("sequential") == "sequential"

    def test_resolve_rejects_unknown(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION", raising=False)
        with pytest.raises(ValueError, match="unknown execution mode"):
            resolve_execution("warp")

    def test_make_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION", raising=False)
        assert make_executor("sequential") is None
        assert isinstance(make_executor("threaded"), SpmdExecutor)

    def test_train_config_validates(self):
        with pytest.raises(ValueError, match="execution"):
            TrainConfig(execution="warp")


# -- parallel backward --------------------------------------------------------


class TestParallelBackward:
    def test_bitwise_matches_sequential(self, rng):
        def build():
            a = Tensor(rng_fixed(0, (4, 3)), requires_grad=True)
            b = Tensor(rng_fixed(1, (3, 5)), requires_grad=True)
            c = (a @ b).relu()
            d = (c * c).sum() + c.sum()
            return a, b, d

        a1, b1, d1 = build()
        d1.backward()
        a2, b2, d2 = build()
        parallel_backward(d2, workers=4)
        np.testing.assert_array_equal(a1.grad, a2.grad)
        np.testing.assert_array_equal(b1.grad, b2.grad)

    def test_requires_scalar_root(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 2.0
        with pytest.raises(RuntimeError, match="scalar output"):
            parallel_backward(out)

    def test_non_grad_tensor_rejected(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError, match="non-grad tensor"):
            parallel_backward(t)


def rng_fixed(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


# -- end-to-end bitwise identity ---------------------------------------------


def run_trainer(execution, ep_mode, plan=None, steps=2, **train_kw):
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    world = World(4, ranks_per_node=4)
    if plan is not None:
        world.attach_fault_plan(plan)
    parallel = ParallelConfig(model_parallel_size=4, attention="sp",
                              ffn="ep", ep_dispatch=ep_mode)
    trainer = MegaScaleTrainer(model, world, parallel,
                               make_train(execution, **train_kw))
    rng = np.random.default_rng(7)
    results = []
    for _ in range(steps):
        tokens = rng.integers(0, CONFIG.vocab_size, size=(2, 17))
        r = trainer.train_step(tokens)
        results.append((r.loss, r.lm_loss, r.aux_loss, r.grad_norm))
    params = {name: p.data.copy()
              for name, p in model.named_parameters()}
    return results, params, world.ledger


class TestBitwiseIdentity:
    @pytest.mark.parametrize("ep_mode", ["a2a", "ag_rs"])
    def test_sp_ep_trainer(self, ep_mode):
        seq, p_seq, led_seq = run_trainer("sequential", ep_mode)
        thr, p_thr, led_thr = run_trainer("threaded", ep_mode)
        assert seq == thr  # float-exact equality, per-step
        for name in p_seq:
            np.testing.assert_array_equal(p_seq[name], p_thr[name],
                                          err_msg=name)
        assert led_seq.total_bytes() == led_thr.total_bytes()
        assert led_seq.counts() == led_thr.counts()

    @pytest.mark.parametrize("ep_mode", ["a2a", "ag_rs"])
    def test_sp_ep_trainer_with_slow_link_plan(self, ep_mode):
        """The fault plan disables zero-copy; identity must still hold,
        and the plan must see the same number of collective calls."""
        seq, p_seq, led_seq = run_trainer("sequential", ep_mode,
                                          plan=slow_link_plan(), steps=1)
        thr, p_thr, led_thr = run_trainer("threaded", ep_mode,
                                          plan=slow_link_plan(), steps=1)
        assert seq == thr
        for name in p_seq:
            np.testing.assert_array_equal(p_seq[name], p_thr[name],
                                          err_msg=name)
        assert led_seq.total_bytes() == led_thr.total_bytes()

    @pytest.mark.parametrize("ep_mode", ["a2a", "ag_rs"])
    def test_sp_ep_trainer_with_dropout(self, ep_mode):
        """Per-rank RNG streams make each dropout mask a pure function
        of (dropout_seed, rank): thread interleaving cannot perturb
        another rank's stream, so identity holds with dropout on."""
        seq, p_seq, led_seq = run_trainer("sequential", ep_mode,
                                          dropout=0.2, dropout_seed=11)
        thr, p_thr, led_thr = run_trainer("threaded", ep_mode,
                                          dropout=0.2, dropout_seed=11)
        assert seq == thr
        for name in p_seq:
            np.testing.assert_array_equal(p_seq[name], p_thr[name],
                                          err_msg=name)
        assert led_seq.total_bytes() == led_thr.total_bytes()
        assert led_seq.counts() == led_thr.counts()
        # ... and dropout genuinely participated in the math.
        base, _, _ = run_trainer("sequential", ep_mode)
        assert seq != base

    def test_dropout_seed_changes_masks(self):
        a, _, _ = run_trainer("sequential", "a2a", steps=1,
                              dropout=0.2, dropout_seed=11)
        b, _, _ = run_trainer("sequential", "a2a", steps=1,
                              dropout=0.2, dropout_seed=12)
        assert a != b

    def test_plan_sees_identical_call_count(self):
        plan_seq, plan_thr = slow_link_plan(), slow_link_plan()
        run_trainer("sequential", "a2a", plan=plan_seq, steps=1)
        run_trainer("threaded", "a2a", plan=plan_thr, steps=1)
        assert plan_seq.calls == plan_thr.calls > 0

    def test_hybrid2d(self):
        def run(execution):
            world = World(8, ranks_per_node=4)
            h2d = Hybrid2DTrainer(CONFIG, world,
                                  ParallelConfig.megascale(4),
                                  make_train(execution), seed=0)
            rng = np.random.default_rng(5)
            batches = [rng.integers(0, CONFIG.vocab_size, size=(2, 17))
                       for _ in range(2)]
            result = h2d.train_step(batches)
            params = h2d.replicas[0].state_dict()
            return result, params, world.ledger.total_bytes()

        r_seq, p_seq, b_seq = run("sequential")
        r_thr, p_thr, b_thr = run("threaded")
        assert r_seq.replica_losses == r_thr.replica_losses
        assert r_seq.grad_norm == r_thr.grad_norm
        for name in p_seq:
            np.testing.assert_array_equal(p_seq[name], p_thr[name],
                                          err_msg=name)
        assert b_seq == b_thr

    def test_pipeline_parallel(self, rng):
        pp_config = ModelConfig("spmd_pp", n_layers=4, hidden_size=16,
                                n_heads=4, gqa_ratio=2,
                                ffn_hidden_size=24, n_experts=4,
                                top_k=2, vocab_size=32, seq_len=8)
        batch = rng.integers(0, 32, (4, 9))

        def run(execution):
            model = MoETransformer(pp_config, seed=0, dtype=np.float64)
            trainer = PipelineParallelTrainer(
                model, World(2, 1), 2,
                optimizer=AdamW(model.parameters(), lr=1e-2),
                aux_loss_coeff=0.01,
                mp_world=World(2, 2), mp_attention="sp", mp_ffn="ep",
                execution=execution)
            result = trainer.train_step(batch)
            params = {n: p.data.copy()
                      for n, p in model.named_parameters()}
            return result, params

        r_seq, p_seq = run(None)
        r_thr, p_thr = run("threaded")
        assert r_seq.loss == r_thr.loss
        assert r_seq.micro_losses == r_thr.micro_losses
        assert r_seq.grad_norm == r_thr.grad_norm
        assert r_seq.p2p_bytes == r_thr.p2p_bytes
        for name in p_seq:
            np.testing.assert_array_equal(p_seq[name], p_thr[name],
                                          err_msg=name)


# -- zero-copy byte accounting -------------------------------------------------


class TestZeroCopyLedgerAudit:
    """Zero-copy delivery must not change what the ledger models: the
    wire bytes of the Eq. 1-4 audit, with or without a fault plan (the
    plan forces the private-copy path), in either execution mode."""

    def eq2_measured(self, executor=None, plan=None):
        rng = np.random.default_rng(0)
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        block = make_block(rng, h, nh, m, 16, 8, 2)
        world = World(n, n)
        if plan is not None:
            world.attach_fault_plan(plan)
        engine = ParallelBlockEngine(world.full_group(), block)
        shards = [Tensor(rng.standard_normal((b, s // n, h)),
                         requires_grad=True) for _ in range(n)]
        world.ledger.clear()
        engine.forward(shards, s, executor=executor)
        measured = sum(
            r.total_bytes for r in world.ledger.records
            if r.tag.startswith("sp_attn") and not r.tag.endswith(":bwd")
        ) / 8.0
        formula = sp_attention_comm_volume(b, s, h, n, m) * n
        return measured, formula

    def test_eq2_zero_copy_path(self):
        measured, formula = self.eq2_measured()
        assert measured == pytest.approx(formula / 2.0)

    def test_eq2_private_copy_path_identical(self):
        fast, _ = self.eq2_measured()
        slow, formula = self.eq2_measured(plan=slow_link_plan())
        assert fast == slow == pytest.approx(formula / 2.0)

    def test_eq2_threaded_identical(self):
        seq, _ = self.eq2_measured()
        thr, _ = self.eq2_measured(executor=SpmdExecutor())
        assert seq == thr

    @pytest.mark.parametrize("ep_mode", ["a2a", "ag_rs"])
    def test_ep_bytes_plan_independent(self, ep_mode):
        """Eq. 3/4 FFN volumes: the zero-copy fast path (no plan) and
        the private-copy path (plan attached) record identical bytes."""
        _, _, led_fast = run_trainer("sequential", ep_mode, steps=1)
        _, _, led_slow = run_trainer("sequential", ep_mode,
                                     plan=slow_link_plan(), steps=1)
        for op in ("all_gather", "reduce_scatter", "all_to_all"):
            assert led_fast.total_bytes(op=op) == \
                led_slow.total_bytes(op=op), op
        assert led_fast.counts() == led_slow.counts()


# -- observability under threads -----------------------------------------------


class TestThreadedObservability:
    def test_spans_attributed_to_ranks_and_rank_lanes(self, world4):
        from repro.obs import Observability
        from repro.obs.export import to_chrome_trace

        obs = Observability()
        world4.attach_tracer(obs.tracer)
        ex = SpmdExecutor()

        def rank_fn(comm):
            return comm.all_reduce(Tensor(np.ones(4)), tag="t")

        with obs.tracer.span("forward", cat="train"):
            ex.run(world4.full_group(), rank_fn)
        comm_spans = obs.tracer.closed_spans(cat="comm")
        assert len(comm_spans) == 1  # one span per collective, not per rank
        trace = to_chrome_trace(obs.tracer.spans, rank_lanes=True)
        tids = {e["tid"] for e in trace["traceEvents"]}
        assert any(":r" in str(t) for t in tids)

    def test_counter_shards_fold_across_threads(self):
        from repro.obs.metrics import Counter
        counter = Counter()
        ex = SpmdExecutor()
        ex.map(lambda _: [counter.inc(1.0) for _ in range(100)],
               range(8))
        assert counter.value == 800.0


REPRO_EXECUTION_SET = os.environ.get("REPRO_EXECUTION") == "threaded"


class TestEnvKnobEndToEnd:
    def test_env_var_drives_trainer(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION", "threaded")
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        world = World(4, ranks_per_node=4)
        trainer = MegaScaleTrainer(
            model, world, ParallelConfig(model_parallel_size=4),
            make_train(None))
        assert isinstance(trainer.executor, SpmdExecutor)

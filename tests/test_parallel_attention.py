"""Equivalence tests: SP and TP attention inside the parallel block.

The central correctness property of §3.1: both parallel attention
implementations must produce the reference outputs and gradients —
here through the whole :class:`~repro.parallel.ParallelBlockEngine`
layer against the single-rank :class:`TransformerBlock` — while moving
the Eq. 1 / Eq. 2 communication volumes.
"""

import numpy as np
import pytest

from conftest import block_engine, block_parallel, block_reference, \
    make_block
from repro.comm import World
from repro.core.analysis import (
    sp_attention_comm_volume,
    tp_attention_comm_volume,
)
from repro.model.layers import SelfAttention
from repro.parallel import shard_sequence
from repro.parallel.sp_attention import SPAttentionEngine
from repro.parallel.tp_attention import TPAttentionEngine

CONFIGS = [
    # (batch, seq, hidden, heads, gqa_ratio, n_ranks)
    (2, 8, 16, 8, 2, 4),
    (1, 16, 32, 8, 4, 2),
    (3, 12, 24, 4, 1, 2),
    (1, 8, 32, 8, 1, 8),
]


def attention_block(rng, h, nh, m):
    """A block whose FFN (8 experts, EP) divides every rank count."""
    return make_block(rng, h, nh, m, ffn_hidden=16, experts=8, top_k=2)


def forward_bytes(world, prefix):
    """Forward ledger bytes of one engine's tags, in float64 elements."""
    return sum(
        r.total_bytes for r in world.ledger.records
        if r.tag.startswith(prefix) and not r.tag.endswith(":bwd")
    ) / 8.0


def matches_reference(seed, b, s, h, nh, m, n, attention):
    rng = np.random.default_rng(seed)
    block = attention_block(rng, h, nh, m)
    x = rng.standard_normal((b, s, h))
    g = rng.standard_normal((b, s, h))
    ref = block_reference(block, x, g)

    _, engine = block_engine(block, n, attention)
    outs, _, shards = block_parallel(engine, x, g)
    full = np.concatenate([o.data for o in outs], axis=1)
    np.testing.assert_allclose(full, ref["out"], atol=1e-10)
    dx = np.concatenate([sh.grad for sh in shards], axis=1)
    np.testing.assert_allclose(dx, ref["dx"], atol=1e-10)
    return block, engine, ref


class TestSPAttention:
    @pytest.mark.parametrize("b,s,h,nh,m,n", CONFIGS)
    def test_matches_reference(self, b, s, h, nh, m, n):
        block, _, ref = matches_reference(b * 100 + s, b, s, h, nh, m,
                                          n, "sp")
        np.testing.assert_allclose(block.attn.qkv_proj.weight.grad,
                                   ref["grads"]["attn.qkv_proj.weight"],
                                   atol=1e-10)
        np.testing.assert_allclose(block.attn.out_proj.weight.grad,
                                   ref["grads"]["attn.out_proj.weight"],
                                   atol=1e-10)

    def test_head_divisibility_required(self, rng):
        attn = SelfAttention(rng, 16, 8, 2)  # 4 kv heads
        world = World(8, 8)
        with pytest.raises(ValueError, match="kv_heads"):
            SPAttentionEngine(world.full_group(), attn)

    def test_forward_volume_is_half_eq2(self, rng):
        """The measured per-pass A2A volume equals Eq. 2 / 2: the
        paper's Eq. 2 counts both directions of each all-to-all."""
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        world, engine = block_engine(attention_block(rng, h, nh, m), n)
        engine.forward(shard_sequence(rng.standard_normal((b, s, h)), n),
                       s)
        measured = forward_bytes(world, "sp_attn")
        formula_total = sp_attention_comm_volume(b, s, h, n, m) * n
        assert measured == pytest.approx(formula_total / 2.0)

    def test_backward_volume_equals_forward(self, rng):
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        world, engine = block_engine(attention_block(rng, h, nh, m), n)
        x = rng.standard_normal((b, s, h))
        outs, _ = engine.forward(shard_sequence(x, n), s)
        # Single backward sweep (as a real combined loss would produce);
        # per-shard sweeps would re-traverse shared ancestors and
        # multiply the ledger's :bwd entries.
        total = outs[0].sum()
        for out in outs[1:]:
            total = total + out.sum()
        total.backward()
        led = world.ledger
        fwd = sum(r.total_bytes for r in led.records
                  if r.tag.startswith("sp_attn")
                  and not r.tag.endswith(":bwd"))
        bwd = sum(r.total_bytes for r in led.records
                  if r.tag.startswith("sp_attn")
                  and r.tag.endswith(":bwd"))
        assert fwd == pytest.approx(bwd)

    def test_sp_volume_below_tp(self, rng):
        """Eq. 2 < Eq. 1 whenever n > (2 + 2/m)."""
        for m in (1, 2, 4, 8):
            sp = sp_attention_comm_volume(1, 64, 128, 8, m)
            tp = tp_attention_comm_volume(1, 64, 128, 8)
            assert sp < tp

    def test_bad_shard_seq(self, rng):
        _, engine = block_engine(attention_block(rng, 16, 8, 2), 4)
        shards = shard_sequence(rng.standard_normal((1, 8, 16)), 4)
        with pytest.raises(ValueError, match="expected"):
            engine.forward(shards, 16)  # wrong full seq length


class TestTPAttention:
    @pytest.mark.parametrize("b,s,h,nh,m,n", CONFIGS)
    def test_matches_reference(self, b, s, h, nh, m, n):
        _, engine, ref = matches_reference(b * 100 + s + 7, b, s, h, nh,
                                           m, n, "tp")
        d_qkv, d_out = engine.attn_engine.reference_weight_grads()
        np.testing.assert_allclose(d_qkv,
                                   ref["grads"]["attn.qkv_proj.weight"],
                                   atol=1e-10)
        np.testing.assert_allclose(d_out,
                                   ref["grads"]["attn.out_proj.weight"],
                                   atol=1e-10)

    def test_forward_volume_matches_eq1(self, rng):
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        world, engine = block_engine(attention_block(rng, h, nh, m), n,
                                     "tp")
        engine.forward(shard_sequence(rng.standard_normal((b, s, h)), n),
                       s)
        assert forward_bytes(world, "tp_attn") == pytest.approx(
            tp_attention_comm_volume(b, s, h, n) * n)

    def test_weight_shards_are_leaves(self, rng):
        attn = SelfAttention(rng, 16, 8, 2, dtype=np.float64)
        world = World(4, 4)
        engine = TPAttentionEngine(world.full_group(), attn)
        assert all(w.requires_grad and w.node is None
                   for w in engine.qkv_weights)

    def test_tp_volume_constant_in_n(self, rng):
        """Eq. 1's (n-1)/n barely changes with n — TP's scalability
        limitation (§7)."""
        v8 = tp_attention_comm_volume(1, 64, 128, 8)
        v64 = tp_attention_comm_volume(1, 64, 128, 64)
        assert v64 / v8 < 1.15

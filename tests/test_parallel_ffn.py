"""Equivalence tests: EP (both dispatch modes) and TP FFN inside the
parallel block, against the single-rank :class:`TransformerBlock`."""

import numpy as np
import pytest

from conftest import block_engine, block_parallel, block_reference, \
    make_block
from repro.comm import World
from repro.core.analysis import ep_ffn_comm_volume, tp_ffn_comm_volume
from repro.model.moe import MoELayer
from repro.parallel import shard_sequence
from repro.parallel.ep_ffn import (
    EPFFNEngine,
    choose_dispatch_mode,
)
from repro.parallel.tp_ffn import TPFFNEngine


CONFIGS = [
    # (batch, seq, hidden, ffn_hidden, experts, top_k, n_ranks)
    (2, 8, 16, 24, 8, 2, 4),
    (1, 16, 8, 12, 4, 1, 2),
    (2, 8, 16, 24, 8, 6, 4),   # top_k > 0.75n: AG/RS territory
    # 8 ranks: hidden 16 so each rank's one attention head has an even
    # (RoPE-rotatable) head_dim.
    (1, 8, 16, 16, 8, 3, 8),
]


def ffn_block(rng, h, fh, E, k, n):
    """A block whose SP attention (n heads, one per rank) fits ``n``."""
    return make_block(rng, h, n, 1, fh, E, k)


def forward_bytes(world, prefix):
    """Forward ledger bytes of one engine's tags, in float64 elements."""
    return sum(
        r.total_bytes for r in world.ledger.records
        if r.tag.startswith(prefix) and not r.tag.endswith(":bwd")
    ) / 8.0


def check_engine_matches(rng, block, x, n, ffn, **kwargs):
    g = rng.standard_normal(x.shape)
    ref = block_reference(block, x, g, with_aux=True)
    world, engine = block_engine(block, n, "sp", ffn, **kwargs)
    outs, aux, shards = block_parallel(engine, x, g, with_aux=True)
    full = np.concatenate([o.data for o in outs], axis=1)
    np.testing.assert_allclose(full, ref["out"], atol=1e-9)
    assert aux.item() == pytest.approx(ref["aux"], abs=1e-10)

    dx = np.concatenate([sh.grad for sh in shards], axis=1)
    np.testing.assert_allclose(dx, ref["dx"], atol=1e-9)
    np.testing.assert_allclose(block.moe.router.gate.weight.grad,
                               ref["grads"]["moe.router.gate.weight"],
                               atol=1e-9)
    return world, engine, ref


def expert_ref(ref, e, key):
    return ref["grads"][f"moe.experts.{e}.{key}"]


class TestEPA2A:
    @pytest.mark.parametrize("b,s,h,fh,E,k,n", CONFIGS)
    def test_matches_reference(self, b, s, h, fh, E, k, n):
        rng = np.random.default_rng(b * 10 + s + k)
        block = ffn_block(rng, h, fh, E, k, n)
        x = rng.standard_normal((b, s, h))
        world, engine, ref = check_engine_matches(
            rng, block, x, n, "ep", ep_mode="a2a")
        for e, expert in enumerate(block.moe.experts):
            for key in ("fc1", "fc3", "fc2"):
                grad = getattr(expert, key).grad
                if grad is None:
                    grad = np.zeros(expert_ref(ref, e, key).shape)
                np.testing.assert_allclose(grad, expert_ref(ref, e, key),
                                           atol=1e-9, err_msg=f"{e}:{key}")

    def test_forward_volume_within_hard_bound(self, rng):
        """A2A dispatch volume never exceeds the all-remote hard bound
        (every routed row leaving its rank); Eq. 3 is the expectation
        under uniform routing, approached on average."""
        b, s, h, fh, E, k, n = 2, 16, 16, 24, 8, 2, 4
        world, engine = block_engine(ffn_block(rng, h, fh, E, k, n), n,
                                     ep_mode="a2a")
        engine.forward(shard_sequence(rng.standard_normal((b, s, h)), n),
                       s)
        measured = forward_bytes(world, "ep_ffn")
        hard_bound = 2 * k * b * s * h  # all rows remote, both passes
        assert measured <= hard_bound + 1e-9

    def test_expected_volume_close_to_eq3(self):
        """Averaged over random routing, the A2A volume approaches Eq. 3."""
        rng = np.random.default_rng(0)
        b, s, h, fh, E, k, n = 4, 32, 16, 24, 8, 2, 4
        world, engine = block_engine(ffn_block(rng, h, fh, E, k, n), n,
                                     ep_mode="a2a")
        engine.forward(shard_sequence(rng.standard_normal((b, s, h)), n),
                       s)
        measured = forward_bytes(world, "ep_ffn")
        bound = ep_ffn_comm_volume(b, s, h, n, k) * n
        assert measured == pytest.approx(bound, rel=0.25)


class TestEPAgRs:
    @pytest.mark.parametrize("b,s,h,fh,E,k,n", CONFIGS)
    def test_matches_reference(self, b, s, h, fh, E, k, n):
        rng = np.random.default_rng(b * 10 + s + k + 1)
        block = ffn_block(rng, h, fh, E, k, n)
        x = rng.standard_normal((b, s, h))
        check_engine_matches(rng, block, x, n, "ep", ep_mode="ag_rs")

    def test_volume_equals_eq4_regardless_of_k(self, rng):
        """AG/RS dispatch volume equals TP's Eq. 4 and is independent of
        top-k — the §3.2 guarantee."""
        b, s, h, n = 2, 8, 16, 4
        volumes = []
        for k in (1, 3, 6):
            block = ffn_block(np.random.default_rng(k), h, 24, 8, k, n)
            world, engine = block_engine(block, n, ep_mode="ag_rs")
            engine.forward(shard_sequence(
                np.random.default_rng(k).standard_normal((b, s, h)), n),
                s)
            volumes.append(forward_bytes(world, "ep_ffn"))
        expected = tp_ffn_comm_volume(b, s, h, n) * n
        for v in volumes:
            assert v == pytest.approx(expected)

    def test_expert_divisibility_required(self, rng):
        moe = MoELayer(rng, 8, 12, 6, 2)
        world = World(4, 4)
        with pytest.raises(ValueError, match="not divisible"):
            EPFFNEngine(world.full_group(), moe)


class TestAdaptiveMode:
    def test_small_k_uses_a2a(self):
        assert choose_dispatch_mode(top_k=2, ep_size=8) == "a2a"

    def test_large_k_uses_ag_rs(self):
        assert choose_dispatch_mode(top_k=6, ep_size=8) == "ag_rs"
        assert choose_dispatch_mode(top_k=8, ep_size=8) == "ag_rs"

    def test_engine_adopts_adaptive_choice(self, rng):
        moe = MoELayer(rng, 8, 12, 8, 6)
        world = World(8, 8)
        engine = EPFFNEngine(world.full_group(), moe, mode="adaptive")
        assert engine.mode == "ag_rs"

    def test_invalid_mode(self, rng):
        moe = MoELayer(rng, 8, 12, 8, 2)
        world = World(4, 4)
        with pytest.raises(ValueError, match="dispatch mode"):
            EPFFNEngine(world.full_group(), moe, mode="ring")


class TestTPFFN:
    @pytest.mark.parametrize("b,s,h,fh,E,k,n", CONFIGS)
    def test_matches_reference(self, b, s, h, fh, E, k, n):
        rng = np.random.default_rng(b * 10 + s + k + 2)
        block = ffn_block(rng, h, fh, E, k, n)
        x = rng.standard_normal((b, s, h))
        world, engine, ref = check_engine_matches(rng, block, x, n, "tp")
        grads = engine.ffn_engine.reference_weight_grads()
        for e in range(E):
            for key in ("fc1", "fc3", "fc2"):
                np.testing.assert_allclose(grads[e][key],
                                           expert_ref(ref, e, key),
                                           atol=1e-9, err_msg=f"{e}:{key}")

    def test_volume_matches_eq4(self, rng):
        b, s, h, fh, E, k, n = 2, 8, 16, 24, 8, 2, 4
        world, engine = block_engine(ffn_block(rng, h, fh, E, k, n), n,
                                     "sp", "tp")
        engine.forward(shard_sequence(rng.standard_normal((b, s, h)), n),
                       s)
        measured = forward_bytes(world, "tp_ffn")
        assert measured == pytest.approx(tp_ffn_comm_volume(b, s, h, n) * n)

    def test_ffn_divisibility_required(self, rng):
        moe = MoELayer(rng, 8, 10, 4, 2)
        world = World(4, 4)
        with pytest.raises(ValueError, match="not divisible"):
            TPFFNEngine(world.full_group(), moe)

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig
from repro.model.transformer import TransformerBlock
from repro.parallel import ParallelBlockEngine, shard_sequence
from repro.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_config():
    """A model small enough for exhaustive numerical tests."""
    return ModelConfig("tiny", n_layers=2, hidden_size=32, n_heads=8,
                       gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                       top_k=2, vocab_size=64, seq_len=16)


@pytest.fixture
def world4():
    """A 4-rank single-node world."""
    return World(4, ranks_per_node=4)


@pytest.fixture
def world8():
    """An 8-rank world split over two 4-rank nodes."""
    return World(8, ranks_per_node=4)


def gradcheck(fn, arrays, rng, eps=1e-5, tol=1e-4):
    """Central-difference gradient check of ``fn(*tensors) -> Tensor``.

    ``arrays`` are float64 numpy inputs; every entry is treated as
    requiring grad.  Returns the max absolute error across all inputs.
    """
    tensors = [Tensor(a.astype(np.float64), requires_grad=True)
               for a in arrays]
    out = fn(*tensors)
    g_out = rng.standard_normal(out.shape)
    out.backward(g_out)

    worst = 0.0
    for which, base in enumerate(arrays):
        analytic = tensors[which].grad
        assert analytic is not None, f"input {which} got no gradient"
        numeric = np.zeros_like(base, dtype=np.float64)
        for i in range(base.size):
            def value(shift):
                probes = [Tensor(a.astype(np.float64)) for a in arrays]
                probes[which].data.flat[i] += shift
                return float((fn(*probes).data * g_out).sum())
            numeric.flat[i] = (value(eps) - value(-eps)) / (2 * eps)
        worst = max(worst, float(np.abs(numeric - analytic).max()))
    assert worst < tol, f"gradcheck failed: max error {worst}"
    return worst


def assert_allclose(a, b, tol=1e-10, msg=""):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    err = np.abs(a - b).max() if a.size else 0.0
    assert err <= tol, f"{msg} max err {err} > {tol}"


def make_block(rng, hidden, heads, gqa, ffn_hidden, experts, top_k):
    """A float64 single-layer :class:`TransformerBlock` reference."""
    config = ModelConfig("block-test", n_layers=1, hidden_size=hidden,
                         n_heads=heads, gqa_ratio=gqa,
                         ffn_hidden_size=ffn_hidden, n_experts=experts,
                         top_k=top_k, vocab_size=16)
    return TransformerBlock(rng, config, dtype=np.float64)


def block_engine(block, n, attention="sp", ffn="ep", **kwargs):
    """``(world, engine)``: a :class:`ParallelBlockEngine` running
    ``block`` over a fresh ``n``-rank single-node world."""
    world = World(n, n)
    return world, ParallelBlockEngine(world.full_group(), block,
                                      attention, ffn, **kwargs)


def block_reference(block, x, g, with_aux=False):
    """Single-rank forward of ``block`` and the backward of
    ``sum(out * g)`` (plus the aux loss when ``with_aux``).

    Returns the output, aux loss, input gradient and every parameter
    gradient (zeros where none flowed); clears the block's grads.
    """
    xt = Tensor(x, requires_grad=True)
    hidden, moe_out = block(xt)
    scalar = (hidden * Tensor(g)).sum()
    if with_aux:
        scalar = scalar + moe_out.aux_loss
    scalar.backward()
    ref = {
        "out": hidden.data.copy(),
        "aux": moe_out.aux_loss.item(),
        "dx": xt.grad.copy(),
        "grads": {name: (np.zeros_like(p.data) if p.grad is None
                         else p.grad.copy())
                  for name, p in block.named_parameters()},
    }
    block.zero_grad()
    return ref


def block_parallel(engine, x, g, with_aux=False, **forward_kwargs):
    """The same forward and backward through a parallel block engine.

    Shards ``x`` over the engine's ranks, runs the layer, backpropagates
    ``sum(out * g)`` (plus the aux loss when ``with_aux``) in one sweep
    and returns ``(outputs, aux, input_shards)``.
    """
    n = engine.group.size
    shards = shard_sequence(x, n, requires_grad=True)
    outs, aux = engine.forward(shards, x.shape[1], **forward_kwargs)
    width = x.shape[1] // n
    scalar = None
    for r, out in enumerate(outs):
        piece = (out * Tensor(g[:, r * width:(r + 1) * width])).sum()
        scalar = piece if scalar is None else scalar + piece
    if with_aux:
        scalar = scalar + aux
    scalar.backward()
    return outs, aux, shards

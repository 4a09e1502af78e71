"""Bit-for-bit checks of the fused kernels against the op chains they
replace.

``ops.attention`` must reproduce the unfused attention chain (repeat KV
heads, ``q @ kᵀ``, scale, mask fill, softmax, ``@ v``) byte for byte,
forward and all three gradients, and ``scatter_add`` must reproduce
``np.add.at``.  The chain is kept here, built from the generic tape
ops, as the reference.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, ops, scatter_add
from repro.tensor import tensor as tensor_mod


def _repeat_heads(t: Tensor, m: int) -> Tensor:
    """The unfused GQA head repetition along the head axis (-3)."""
    *lead, h, s, d = t.shape
    out = np.repeat(t.data, m, axis=-3)

    def backward(g):
        return (g.reshape(*lead, h, m, s, d).sum(axis=-3),)

    return Tensor.from_op(out, [t], backward, "repeat_heads")


def chain_attention(q, k, v, mask):
    """The unfused reference chain, one tape node per op."""
    m = q.shape[-3] // k.shape[-3]
    if m > 1:
        k = _repeat_heads(k, m)
        v = _repeat_heads(v, m)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = ops.masked_fill(scores, mask, -1e30)
    return ops.softmax(scores, axis=-1) @ v


def run(kernel, lead, hq, hk, sq, sk, dtype, mask, seed=0,
        zero_g_rows=()):
    """Forward + backward of ``kernel`` on head-transposed views of
    ``[..., seq, heads, dim]`` leaves (the layout the model feeds).

    ``zero_g_rows`` query rows get an all-zero upstream gradient,
    alternately ``+0.0`` and ``-0.0``."""
    rng = np.random.default_rng(seed)
    d = 8
    n = len(lead)
    perm = tuple(range(n)) + (n + 1, n, n + 2)
    leaves = [
        Tensor(rng.standard_normal(lead + (s, h, d)).astype(dtype),
               requires_grad=True)
        for s, h in ((sq, hq), (sk, hk), (sk, hk))
    ]
    q, k, v = (t.transpose(*perm) for t in leaves)
    out = kernel(q, k, v, mask)
    g = rng.standard_normal(out.shape).astype(dtype)
    for i, row in enumerate(zero_g_rows):
        g[..., row, :] = -0.0 if i % 2 else 0.0
    out.backward(g)
    return out.data, [t.grad for t in leaves]


def assert_bitwise(lead, hq, hk, sq, sk, dtype, mask, zero_g_rows=()):
    ref_out, ref_grads = run(chain_attention, lead, hq, hk, sq, sk,
                             dtype, mask, zero_g_rows=zero_g_rows)
    out, grads = run(ops.attention, lead, hq, hk, sq, sk, dtype, mask,
                     zero_g_rows=zero_g_rows)
    assert out.dtype == ref_out.dtype
    assert out.tobytes() == ref_out.tobytes()
    for name, a, b in zip("qkv", grads, ref_grads):
        assert a.dtype == b.dtype, name
        assert a.strides == b.strides, name
        assert a.tobytes() == b.tobytes(), name


def cp_mask(sq, sk):
    """A zigzag CP shard's mask: queries hold two chunks of the
    sequence, keys span all of it (explicit absolute positions)."""
    chunk = sq // 2
    q_pos = np.concatenate([np.arange(chunk),
                            np.arange(sk - chunk, sk)])
    return np.arange(sk)[None, :] > q_pos[:, None]


class TestAttentionBitwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(2,), (3, 2)],
                             ids=["4d", "5d"])
    @pytest.mark.parametrize("masking", ["causal", "none"])
    def test_square(self, dtype, m, lead, masking):
        s = 12
        mask = ops.causal_mask(s, s) if masking == "causal" else None
        assert_bitwise(lead, 4, 4 // m, s, s, dtype, mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(2,), (3, 2)],
                             ids=["4d", "5d"])
    def test_cp_positions(self, dtype, m, lead):
        assert_bitwise(lead, 4, 4 // m, 6, 12, dtype, cp_mask(6, 12))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2])
    def test_fully_masked_row_fallback(self, dtype, m):
        """A row with every key masked takes plain ``exp`` and keeps
        the chain's uniform weights."""
        mask = np.array(ops.causal_mask(8, 8))
        mask[3] = True
        assert_bitwise((2,), 4, 4 // m, 8, 8, dtype, mask)
        out, _ = run(ops.attention, (2,), 4, 4 // m, 8, 8, dtype, mask)
        assert np.isfinite(out).all()

    def test_decode_row(self):
        """One query over a longer cache, causal mask on (sq < sk)."""
        assert_bitwise((1,), 4, 2, 1, 9, np.float64, ops.causal_mask(1, 9))

    def test_no_grad_inputs_skipped(self, rng):
        """Inputs that do not require grad get no gradient."""
        q = Tensor(rng.standard_normal((1, 2, 4, 8)), requires_grad=True)
        kv = Tensor(rng.standard_normal((1, 1, 4, 8)))
        out = ops.attention(q, kv, kv, ops.causal_mask(4, 4))
        gq, gk, gv = out.node.backward_fn(np.ones(out.shape))
        assert gq is not None and gk is None and gv is None

    def test_one_tape_node(self, rng):
        q = Tensor(rng.standard_normal((1, 2, 4, 8)), requires_grad=True)
        out = ops.attention(q, q, q)
        assert out.node.op_name == "attention"
        assert out.node.inputs == (q, q, q)

    def test_causal_mask_cached_read_only(self):
        mask = ops.causal_mask(5, 7)
        assert mask is ops.causal_mask(5, 7)
        assert not mask.flags.writeable
        np.testing.assert_array_equal(
            mask, np.triu(np.ones((5, 7), dtype=bool), k=1))


class TestAttentionSlabs:
    """Shapes of more than one slab of ``ops.ATTENTION_SLAB_ROWS`` query
    rows: slab edges, the skipped masked triangle and the full-width row
    sums must all leave the chain's bytes.  193 and 300 keys are shapes
    where row-slabbing the ``q @ kᵀ`` or ``g @ vᵀ`` GEMM itself changes
    bits on OpenBLAS (tail columns past the last multiple of 8)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(2,), (1, 2)], ids=["4d", "5d"])
    @pytest.mark.parametrize("masking", ["causal", "none"])
    @pytest.mark.parametrize("s", [63, 64, 65, 129, 192, 193, 200, 300,
                                   512])
    def test_square(self, s, masking, lead, m, dtype):
        mask = ops.causal_mask(s, s) if masking == "causal" else None
        assert_bitwise(lead, 4, 4 // m, s, s, dtype, mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("sq", [64, 130, 256])
    def test_cp_positions(self, sq, m, dtype):
        assert_bitwise((2,), 4, 4 // m, sq, 2 * sq, dtype,
                       cp_mask(sq, 2 * sq))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sq, sk", [(100, 300), (193, 300)])
    def test_non_square_causal(self, sq, sk, dtype):
        assert_bitwise((2,), 4, 2, sq, sk, dtype, ops.causal_mask(sq, sk))

    def test_serving_decode(self):
        """Serving's decode call: one query, no mask, a long cache."""
        assert_bitwise((1,), 4, 2, 1, 300, np.float64, None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2])
    def test_fully_masked_row_fallback(self, dtype, m):
        mask = np.array(ops.causal_mask(200, 200))
        mask[150] = True
        assert_bitwise((2,), 4, 4 // m, 200, 200, dtype, mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masking", ["causal", "none"])
    def test_zero_gradient_rows(self, masking, dtype):
        """Signed zeros flow through the row-dot ``(gs · probs).sum``."""
        mask = ops.causal_mask(130, 130) if masking == "causal" else None
        assert_bitwise((2,), 4, 2, 130, 130, dtype, mask,
                       zero_g_rows=(0, 5, 64, 65, 129))

    def test_plan(self):
        """Causal slabs keep keys ``:r0 + 1`` in every row and none past
        their last row; a fully masked row sends every slab whole."""
        rows = ops.ATTENTION_SLAB_ROWS
        slabs, fallback = ops._slab_plan(ops.causal_mask(130, 130), 130, 130)
        assert not fallback
        bounds = list(range(0, 130, rows)) + [130]
        assert slabs == tuple((r0, r1, r0 + 1, r1)
                              for r0, r1 in zip(bounds, bounds[1:]))
        mask = np.array(ops.causal_mask(130, 130))
        mask[70] = True
        slabs, fallback = ops._slab_plan(mask, 130, 130)
        assert fallback and all((s0, e) == (0, 130)
                                for _, _, s0, e in slabs)
        slabs, fallback = ops._slab_plan(None, 130, 130)
        assert not fallback and all((s0, e) == (130, 130)
                                    for _, _, s0, e in slabs)

    def test_mask_must_be_sq_by_sk(self, rng):
        """A slab indexes the mask by query row, so a mask that would
        only broadcast is rejected rather than misread."""
        q = Tensor(rng.standard_normal((1, 2, 70, 8)))
        with pytest.raises(ValueError, match="not"):
            ops.attention(q, q, q, np.zeros((1, 70), dtype=bool))

    def test_causal_plan_not_rescanned(self, rng, monkeypatch):
        """The cached causal mask's plan is memoized; any other mask is
        planned per call."""
        q = Tensor(rng.standard_normal((1, 2, 130, 8)))
        ops.attention(q, q, q, ops.causal_mask(130, 130))
        ops.attention(q, q, q)
        calls = []
        real = ops._slab_plan
        monkeypatch.setattr(ops, "_slab_plan",
                            lambda *a: calls.append(a) or real(*a))
        ops.attention(q, q, q, ops.causal_mask(130, 130))
        ops.attention(q, q, q)
        assert calls == []
        ops.attention(q, q, q, np.array(ops.causal_mask(130, 130)))
        assert len(calls) == 1


def add_at(out, index, values):
    ref = out.copy()
    np.add.at(ref, index, values)
    return ref


def assert_scatter_matches(out, index, values):
    ref = add_at(out, index, values)
    got = scatter_add(out.copy(), index, values)
    assert got.tobytes() == ref.tobytes()


class TestScatterAdd:
    @pytest.fixture(autouse=True)
    def rounds_for_any_size(self, monkeypatch):
        """Run small cases through the occurrence-rank rounds too."""
        monkeypatch.setattr(tensor_mod, "_ROUNDS_MIN_SIZE", 1)

    @pytest.mark.parametrize("rows", [8, 200], ids=["add.at", "rounds"])
    def test_default_size_threshold(self, rng, monkeypatch, rows):
        """Both sides of the default size threshold match ``np.add.at``."""
        monkeypatch.undo()
        index = rng.integers(-50, 50, rows)
        values = rng.standard_normal((rows, 64))
        assert (rows * 64 >= tensor_mod._ROUNDS_MIN_SIZE) == (rows == 200)
        assert_scatter_matches(rng.standard_normal((50, 64)), index, values)

    def test_duplicates(self, rng):
        index = np.array([3, 1, 3, 3, 0, 1, 3])
        values = rng.standard_normal((7, 4))
        assert_scatter_matches(np.zeros((5, 4)), index, values)

    def test_accumulates_in_index_order(self):
        """Addends chosen so that a different order rounds differently."""
        index = np.array([0, 0, 0])
        values = np.array([[1.0], [1e16], [-1e16]])
        assert scatter_add(np.zeros((1, 1)), index, values)[0, 0] == \
            add_at(np.zeros((1, 1)), index, values)[0, 0]
        assert add_at(np.zeros((1, 1)), index, values)[0, 0] == 0.0

    def test_negative_zero(self):
        """``0.0 + -0.0`` is ``+0.0``; ``-0.0 + -0.0`` stays ``-0.0``."""
        index = np.array([0, 1, 1, 2])
        values = np.full((4, 3), -0.0)
        assert_scatter_matches(np.zeros((3, 3)), index, values)
        assert_scatter_matches(np.full((3, 3), -0.0), index, values)
        got = scatter_add(np.zeros((3, 3)), index, values)
        assert not np.signbit(got).any()
        for basic in (slice(0, 2), 1, (1, 2)):
            neg = np.full(np.zeros((3, 3))[basic].shape, -0.0)
            assert_scatter_matches(np.zeros((3, 3)), basic, neg)
            assert not np.signbit(scatter_add(np.zeros((3, 3)), basic,
                                              neg)).any()

    def test_negative_indices(self, rng):
        """``-1`` and ``4`` address the same row of five."""
        index = np.array([-1, 4, -5, 0, 2, -1])
        values = rng.standard_normal((6, 2))
        assert_scatter_matches(rng.standard_normal((5, 2)), index, values)

    def test_empty(self):
        out = np.ones((3, 2))
        assert_scatter_matches(out, np.array([], dtype=np.int64),
                               np.zeros((0, 2)))

    def test_float32(self, rng):
        index = rng.integers(0, 6, 50)
        values = rng.standard_normal((50, 3)).astype(np.float32)
        assert_scatter_matches(np.zeros((6, 3), np.float32), index, values)

    def test_out_of_bounds_raises(self):
        with pytest.raises(IndexError):
            scatter_add(np.zeros((3, 2)), np.array([0, 3]), np.ones((2, 2)))
        with pytest.raises(IndexError):
            scatter_add(np.zeros((3, 2)), np.array([-4]), np.ones((1, 2)))

    @pytest.mark.parametrize("index", [
        np.array([[True, False], [False, True], [True, True]]),
        (np.array([0, 2, 0]), np.array([1, 1, 1])),
    ], ids=["bool", "multi-array"])
    def test_fallback_indices(self, rng, index):
        out = np.zeros((3, 2))
        values = rng.standard_normal(out[index].shape)
        assert_scatter_matches(out, index, values)

    def test_embedding_2d_ids(self, rng):
        ids = rng.integers(0, 5, (3, 7))
        weight = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        g = rng.standard_normal((3, 7, 4))
        ops.embedding(weight, ids).backward(g)
        assert weight.grad.tobytes() == \
            add_at(np.zeros((5, 4)), ids, g).tobytes()

    def test_take_put_index_add_rows(self, rng):
        index = np.array([2, 0, 2, 1, 2])
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        g = rng.standard_normal((5, 4))
        ops.take_rows(x, index).backward(g)
        assert x.grad.tobytes() == add_at(np.zeros((3, 4)), index,
                                          g).tobytes()
        rows = rng.standard_normal((5, 4))
        assert ops.put_rows(Tensor(rows), index, 3).data.tobytes() == \
            add_at(np.zeros((3, 4)), index, rows).tobytes()
        base = rng.standard_normal((3, 4))
        assert ops.index_add_rows(Tensor(base), index,
                                  Tensor(rows)).data.tobytes() == \
            add_at(base, index, rows).tobytes()

    @pytest.mark.parametrize("index", [
        slice(1, 4),
        slice(None, None, -2),
        2,
        -1,
        (slice(None), 1),
        (1, slice(0, 2)),
        (Ellipsis, 0),
        (2, 1),
        np.array([0, 3, 0]),
        [1, 1, 2],
    ], ids=["slice", "neg-step", "int", "neg-int", "tuple-slice-int",
            "tuple-int-slice", "ellipsis", "all-int", "array", "list"])
    def test_getitem_backward(self, rng, index):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = x[index]
        g = rng.standard_normal(out.shape)
        out.backward(g)
        assert x.grad.tobytes() == add_at(np.zeros((4, 3)), index,
                                          g).tobytes()

"""Neural-network operators on :class:`~repro.tensor.tensor.Tensor`.

These are the operator-level building blocks that Figure 20 of the paper
enumerates for one MoE layer — RMSNorm, matmul projections, RoPE,
self-attention, SwiGLU, token scatter/gather — plus the loss functions and
the precision-cast op used to emulate BF16/FP8 mixed-precision training.
Each operator has an explicit backward so schedulers can treat forward and
backward as separately reorderable units.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, scatter_add

__all__ = [
    "concat",
    "split",
    "stack",
    "softmax",
    "log_softmax",
    "rmsnorm",
    "embedding",
    "cross_entropy",
    "take_rows",
    "put_rows",
    "index_add_rows",
    "masked_fill",
    "rope_rotate",
    "attention",
    "causal_mask",
    "scaled_dot_product_attention",
    "precision_cast",
    "dropout",
]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor.from_op(out, list(tensors), backward, "concat")


def split(t: Tensor, sections: int, axis: int = 0) -> List[Tensor]:
    """Split ``t`` into ``sections`` equal parts along ``axis``."""
    if t.shape[axis] % sections != 0:
        raise ValueError(
            f"axis {axis} of size {t.shape[axis]} not divisible by "
            f"{sections}"
        )
    pieces = np.split(t.data, sections, axis=axis)
    outs = []
    for i, piece in enumerate(pieces):
        def backward(g, i=i, shape=t.shape, piece_shape=piece.shape):
            full = np.zeros(shape, dtype=g.dtype)
            slicer = [slice(None)] * len(shape)
            width = piece_shape[axis]
            slicer[axis] = slice(i * width, (i + 1) * width)
            full[tuple(slicer)] = g
            return (full,)

        outs.append(Tensor.from_op(piece.copy(), [t], backward, "split"))
    return outs


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor.from_op(out, list(tensors), backward, "stack")


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = t.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor.from_op(out, [t], backward, "softmax")


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(t)) computed stably."""
    x = t.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def backward(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(out, [t], backward, "log_softmax")


def rmsnorm(t: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square layer norm: ``x / rms(x) * weight``.

    The paper's MoE layer uses RMSNorm before attention and before the
    FFN (Fig. 20: ``ln1_out``, ``ln2_out``).
    """
    x = t.data
    w = weight.data
    ms = (x * x).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(ms + eps)
    normed = x * inv_rms
    out = normed * w

    def backward(g):
        h = x.shape[-1]
        gw = (g * normed).reshape(-1, h).sum(axis=0)
        gx_normed = g * w
        # d/dx of x * (mean(x^2)+eps)^-1/2
        dot = (gx_normed * x).sum(axis=-1, keepdims=True)
        gx = inv_rms * gx_normed - x * (inv_rms ** 3) * dot / h
        return gx, gw

    return Tensor.from_op(out, [t, weight], backward, "rmsnorm")


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with sparse-gradient accumulation."""
    ids = np.asarray(ids)
    out = weight.data[ids]

    def backward(g):
        return (scatter_add(np.zeros_like(weight.data), ids, g),)

    return Tensor.from_op(out, [weight], backward, "embedding")


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross-entropy over the last axis.

    ``logits`` is ``[..., vocab]``; ``targets`` holds integer class ids
    with shape ``logits.shape[:-1]``.
    """
    targets = np.asarray(targets)
    x = logits.data
    vocab = x.shape[-1]
    flat = x.reshape(-1, vocab)
    tgt = targets.reshape(-1)
    if tgt.shape[0] != flat.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape}"
        )
    shifted = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - lse
    n = flat.shape[0]
    loss = -log_probs[np.arange(n), tgt].mean()
    probs = np.exp(log_probs)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), tgt] -= 1.0
        grad *= np.asarray(g) / n
        return (grad.reshape(x.shape),)

    return Tensor.from_op(np.asarray(loss, dtype=x.dtype), [logits],
                          backward, "cross_entropy")


def take_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Gather rows ``t[index]`` along axis 0 (indices may repeat).

    This is MegaScale-MoE's efficient *gather* operator (§3.2): the
    row-index mapping is precomputed from the routing result, and the op
    is a pure data movement whose backward is an index-add.
    """
    index = np.asarray(index)
    out = t.data[index]

    def backward(g):
        return (scatter_add(np.zeros_like(t.data), index, g),)

    return Tensor.from_op(out, [t], backward, "take_rows")


def put_rows(t: Tensor, index: np.ndarray, out_rows: int) -> Tensor:
    """Scatter rows of ``t`` to positions ``index`` of a fresh tensor.

    ``index`` must be a permutation-like assignment (duplicate targets
    accumulate).  This is the *scatter* counterpart of :func:`take_rows`.
    """
    index = np.asarray(index)
    out = scatter_add(np.zeros((out_rows,) + t.shape[1:], dtype=t.dtype),
                      index, t.data)

    def backward(g):
        return (g[index],)

    return Tensor.from_op(out, [t], backward, "put_rows")


def index_add_rows(base: Tensor, index: np.ndarray, rows: Tensor) -> Tensor:
    """``base`` with ``rows`` accumulated at ``index`` along axis 0."""
    index = np.asarray(index)
    out = scatter_add(base.data.copy(), index, rows.data)

    def backward(g):
        return g, g[index]

    return Tensor.from_op(out, [base, rows], backward, "index_add_rows")


def masked_fill(t: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace elements where ``mask`` is True with ``value``."""
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, np.asarray(value, dtype=t.dtype), t.data)

    def backward(g):
        return (np.where(mask, 0.0, g),)

    return Tensor.from_op(out, [t], backward, "masked_fill")


def dropout(t: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout with keep-probability scaling."""
    if not training or p <= 0.0:
        return t
    keep = 1.0 - p
    mask = (rng.random(t.shape) < keep) / keep

    def backward(g):
        return (g * mask,)

    return Tensor.from_op(t.data * mask, [t], backward, "dropout")


@functools.lru_cache(maxsize=64)
def _rope_tables(seq_len: int, head_dim: int, base: float
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized cos/sin tables for the default ``0..seq_len-1`` positions.

    Every layer and step re-derives identical tables, so this is a hot
    allocation in deep models.  The cached arrays are marked read-only —
    callers broadcast against them but must never write.  Thread-safe
    (``lru_cache`` takes its own lock).
    """
    half = head_dim // 2
    inv_freq = base ** (-np.arange(0, half, dtype=np.float64) / half)
    positions = np.arange(seq_len, dtype=np.float64)
    angles = np.outer(positions, inv_freq)  # [s, half]
    cos, sin = np.cos(angles), np.sin(angles)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _rope_cache(seq_len: int, head_dim: int, base: float,
                positions: Optional[np.ndarray]) -> Tuple[np.ndarray,
                                                          np.ndarray]:
    if positions is None:
        # The common full-sequence case hits the memo table.
        return _rope_tables(int(seq_len), int(head_dim), float(base))
    half = head_dim // 2
    inv_freq = base ** (-np.arange(0, half, dtype=np.float64) / half)
    angles = np.outer(positions, inv_freq)  # [s, half]
    return np.cos(angles), np.sin(angles)


def rope_rotate(t: Tensor, base: float = 10000.0,
                positions: Optional[np.ndarray] = None) -> Tensor:
    """Rotary position embedding over the last axis.

    ``t`` is ``[batch, seq, heads, head_dim]``; pairs ``(x_i, x_{i+half})``
    are rotated by position-dependent angles.  ``positions`` overrides the
    default ``0..seq-1`` (needed when the sequence is SP-sharded).
    """
    b, s, nh, hd = t.shape
    if hd % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {hd}")
    cos, sin = _rope_cache(s, hd, base, positions)
    cos = cos[None, :, None, :]
    sin = sin[None, :, None, :]
    half = hd // 2
    x1 = t.data[..., :half]
    x2 = t.data[..., half:]
    out = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def backward(g):
        g1 = g[..., :half]
        g2 = g[..., half:]
        gx1 = g1 * cos + g2 * sin
        gx2 = -g1 * sin + g2 * cos
        return (np.concatenate([gx1, gx2], axis=-1),)

    return Tensor.from_op(out, [t], backward, "rope")


@functools.lru_cache(maxsize=64)
def causal_mask(sq: int, sk: int) -> np.ndarray:
    """Memoized ``[sq, sk]`` causal mask: True where key ``j > i``.

    Read-only, like :func:`_rope_tables`: every layer and step shares
    one array.
    """
    mask = np.triu(np.ones((sq, sk), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


#: Query rows per slab of :func:`attention`.  At the long-context shape
#: (2 heads x 512 keys, float64) a slab is 512 KB, so the elementwise
#: passes over it run in L2.
ATTENTION_SLAB_ROWS = 64

#: ``((r0, r1, s0, e), ...)``: query rows ``r0:r1`` of a slab, every one
#: of which keeps keys ``:s0`` and none of which keeps keys ``e:``; and
#: whether some row keeps no key at all (the plain-``exp`` fallback).
_SlabPlan = Tuple[Tuple[Tuple[int, int, int, int], ...], bool]


def _slab_plan(mask: Optional[np.ndarray], sq: int, sk: int) -> _SlabPlan:
    """Split ``sq`` query rows into slabs and bound the band of keys
    ``s0:e`` in which a slab's mask varies."""
    spans = [(r0, min(r0 + ATTENTION_SLAB_ROWS, sq))
             for r0 in range(0, sq, ATTENTION_SLAB_ROWS)]
    if mask is None:
        return tuple((r0, r1, sk, sk) for r0, r1 in spans), False
    if mask.shape != (sq, sk):
        raise ValueError(f"mask shape {mask.shape} is not [sq, sk] = "
                         f"{[sq, sk]}")
    kept = ~mask
    if not kept.any(axis=-1).all():
        return tuple((r0, r1, 0, sk) for r0, r1 in spans), True
    starts = np.where(mask.any(axis=-1), np.argmax(mask, axis=-1), sk)
    ends = sk - np.argmax(kept[:, ::-1], axis=-1)  # last kept key + 1
    return tuple((r0, r1, int(starts[r0:r1].min()), int(ends[r0:r1].max()))
                 for r0, r1 in spans), False


@functools.lru_cache(maxsize=64)
def _shared_slab_plan(sq: int, sk: int, causal: bool) -> _SlabPlan:
    """:func:`_slab_plan` of no mask or of the cached :func:`causal_mask`,
    so that the common calls scan no mask."""
    return _slab_plan(causal_mask(sq, sk) if causal else None, sq, sk)


def attention(q: Tensor, k: Tensor, v: Tensor,
              mask: Optional[np.ndarray] = None) -> Tensor:
    """Fused scaled-dot-product attention on ``[..., heads, seq, dim]``.

    ``mask`` (``[sq, sk]`` bool, True = masked) hides keys from queries.
    If ``k``/``v`` have fewer heads than ``q`` (by an integer factor
    ``m``), each KV head serves ``m`` query heads — the grouped-query
    pattern the paper's SP-communication formula (Eq. 2) exploits.

    One tape node.  Output and gradients are bit-for-bit those of the
    unfused chain (repeat KV heads, ``q @ kᵀ``, scale, mask fill with
    -1e30, softmax, ``@ v``; docs/INTERNALS.md §1).  The GEMMs are the
    chain's, each over the whole buffer: a row block of a BLAS product
    can round differently from the same rows of the whole product.  The
    elementwise work between them walks the query rows in slabs of
    :data:`ATTENTION_SLAB_ROWS` that stay in cache.  A slab computes up
    to its last kept key, writes zeros past it and touches the mask only
    in the band of keys where it varies.  Row sums still span every key,
    because numpy's pairwise sum rounds by row length.
    """
    hq, hk = q.shape[-3], k.shape[-3]
    if hq % hk != 0:
        raise ValueError(f"query heads {hq} not a multiple of kv heads {hk}")
    m = hq // hk
    qd, kd, vd = q.data, k.data, v.data
    if m > 1:
        kd = np.repeat(kd, m, axis=-3)
        vd = np.repeat(vd, m, axis=-3)
    sq, sk = qd.shape[-2], kd.shape[-2]
    if mask is None or mask is causal_mask(sq, sk):
        slabs, fallback = _shared_slab_plan(sq, sk, mask is not None)
    else:
        slabs, fallback = _slab_plan(mask, sq, sk)
    probs = qd @ kd.swapaxes(-1, -2)
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=probs.dtype)
    for r0, r1, s0, e in slabs:
        rows = probs[..., r0:r1, :]
        work = rows[..., :e]
        work *= scale
        if s0 < e:
            band, masked = work[..., s0:], mask[r0:r1, s0:e]
            np.copyto(band, -1e30, where=masked)
        work -= work.max(axis=-1, keepdims=True)
        if s0 < e and not fallback:
            # Every row keeps a key, so exp(-1e30 - max) underflows to
            # +0.0 for each masked entry; skip numpy's slow underflow path.
            np.copyto(band, 0.0, where=masked)
            np.exp(work, out=work)
            np.copyto(band, 0.0, where=masked)
        else:
            np.exp(work, out=work)
        rows[..., e:] = 0.0
        rows /= rows.sum(axis=-1, keepdims=True)
    out = probs @ vd

    def backward(g):
        gq = gk = gv = None
        if v.requires_grad:
            gv = probs.swapaxes(-1, -2) @ g
            if m > 1:
                gv = _fold_heads(gv, m)
        if q.requires_grad or k.requires_grad:
            gs = g @ vd.swapaxes(-1, -2)
            prod = np.empty_like(gs[..., :ATTENTION_SLAB_ROWS, :])
            for r0, r1, s0, e in slabs:
                rows = gs[..., r0:r1, :]
                p = probs[..., r0:r1, :]
                work = rows[..., :e]
                dot = np.multiply(rows, p, out=prod[..., :r1 - r0, :])
                work -= dot.sum(axis=-1, keepdims=True)
                work *= p[..., :e]
                if s0 < e:
                    np.copyto(work[..., s0:], 0.0, where=mask[r0:r1, s0:e])
                work *= scale
                rows[..., e:] = 0.0
            if q.requires_grad:
                gq = gs @ kd
            if k.requires_grad:
                gk = (qd.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
                if m > 1:
                    gk = _fold_heads(gk, m)
        return gq, gk, gv

    return Tensor.from_op(out, [q, k, v], backward, "attention")


def _fold_heads(g: np.ndarray, m: int) -> np.ndarray:
    """Sum the gradient of ``m`` repeated KV heads back onto one head."""
    *lead, h, s, d = g.shape
    return g.reshape(*lead, h // m, m, s, d).sum(axis=-3)


def scaled_dot_product_attention(
    q: Tensor, k: Tensor, v: Tensor, causal: bool = True
) -> Tensor:
    """:func:`attention` with the causal mask on or off."""
    mask = causal_mask(q.shape[-2], k.shape[-2]) if causal else None
    return attention(q, k, v, mask)


def precision_cast(t: Tensor, round_fn, grad_round_fn=None) -> Tensor:
    """Emulate a precision cast: round forward values, optionally round
    the backward gradient too.

    ``round_fn`` maps an ndarray to its low-precision-rounded values (see
    :mod:`repro.precision.formats`).  With ``grad_round_fn=None`` the
    gradient passes through unrounded (a pure storage cast); passing a
    rounding function emulates gradients that are themselves produced in
    low precision.
    """
    out = round_fn(t.data)

    def backward(g):
        if grad_round_fn is not None:
            g = grad_round_fn(g)
        return (g,)

    return Tensor.from_op(out, [t], backward, "precision_cast")

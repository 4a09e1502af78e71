"""A full parallel MoE layer: norms + attention + FFN over shards.

Composes the per-module engines' op handlers into the Fig. 20 data flow
with sequence-sharded activations, executed as the layer's scheduled
operator DAG (§4.1).  Because RMSNorm and residual adds act
per-token, they run locally on each shard — this is precisely why both
MegaScale-MoE and Megatron keep these operators in the sequence-parallel
region (§2.2).

Strategy combinations mirror the Fig. 13 ablation: attention ∈
{SP, TP} × FFN ∈ {EP, TP}, with SP+EP being MegaScale-MoE and TP+TP the
Megatron-LM baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..comm.group import ProcessGroup
from ..model.transformer import TransformerBlock
from ..tensor import Tensor
from .ep_ffn import EPFFNEngine
from .sp_attention import SPAttentionEngine
from .tp_attention import TPAttentionEngine
from .tp_ffn import TPFFNEngine

__all__ = ["ParallelBlockEngine", "shard_sequence", "unshard_sequence"]


def shard_sequence(x: np.ndarray, n: int,
                   requires_grad: bool = False) -> List[Tensor]:
    """Split ``[b, s, h]`` into ``n`` sequence shards as leaf Tensors."""
    s = x.shape[1]
    if s % n != 0:
        raise ValueError(f"sequence {s} not divisible by {n} ranks")
    width = s // n
    return [Tensor(x[:, r * width:(r + 1) * width].copy(),
                   requires_grad=requires_grad) for r in range(n)]


def unshard_sequence(shards: List[Tensor]) -> np.ndarray:
    """Concatenate per-rank shard values back to ``[b, s, h]``."""
    return np.concatenate([s.data for s in shards], axis=1)


class ParallelBlockEngine:
    """Runs one :class:`TransformerBlock` sharded across a group."""

    def __init__(self, group: ProcessGroup, block: TransformerBlock,
                 attention: str = "sp", ffn: str = "ep",
                 ep_mode: str = "adaptive",
                 elem_bytes: Optional[float] = None,
                 fp8_comm: bool = False,
                 dropout: float = 0.0, rng_pool=None):
        self.group = group
        self.block = block
        if attention == "sp":
            self.attn_engine = SPAttentionEngine(group, block.attn,
                                                 elem_bytes,
                                                 dropout=dropout,
                                                 rng_pool=rng_pool)
        elif attention == "tp":
            if dropout > 0.0:
                raise ValueError(
                    "dropout is only wired into SP attention"
                )
            self.attn_engine = TPAttentionEngine(group, block.attn,
                                                 elem_bytes)
        else:
            raise ValueError(f"unknown attention strategy {attention!r}")
        if ffn == "ep":
            self.ffn_engine = EPFFNEngine(group, block.moe, ep_mode,
                                          elem_bytes, fp8_comm=fp8_comm)
        elif ffn == "tp":
            self.ffn_engine = TPFFNEngine(group, block.moe, elem_bytes,
                                          fp8_comm=fp8_comm)
        else:
            raise ValueError(f"unknown ffn strategy {ffn!r}")
        self.attention = attention
        self.ffn = ffn
        #: Compiled DAG executors keyed by (seq_len, program identity),
        #: plus introspection from the last forward.
        self._dag_cache: dict = {}
        self.last_executed_ops: Optional[List[str]] = None
        self.last_executed_tiles: Optional[List[str]] = None
        self.last_remat_report: Optional[dict] = None

    def _check_shards(self, hidden_shards: List[Tensor],
                     seq_len: int) -> None:
        """One sequence shard per rank, each ``seq_len / n`` long."""
        self.group.check_shards(hidden_shards)
        n = self.group.size
        if seq_len % n != 0:
            raise ValueError(
                f"sequence {seq_len} not divisible by {n} ranks"
            )
        local_s = seq_len // n
        for rank, shard in enumerate(hidden_shards):
            if shard.shape[1] != local_s:
                raise ValueError(
                    f"rank {rank} shard has seq {shard.shape[1]}, "
                    f"expected {local_s}"
                )

    def forward(self, hidden_shards: List[Tensor], seq_len: int,
                executor: Optional[object] = None,
                dag_program: Optional[object] = None,
                remat_plan: Optional[object] = None,
                vectorized: bool = False
                ) -> Tuple[List[Tensor], Tensor]:
        """Map hidden shards through the block; returns (shards, aux).

        The layer runs through the
        :class:`~repro.runtime.dag_executor.DagExecutor` in the schedule
        order of ``dag_program`` (a
        :class:`~repro.core.executor_bindings.LayerProgram`; default:
        this block's plan and input shape from the shared
        :func:`~repro.core.executor_bindings.cached_layer_program`
        cache).  An ``executor`` (an
        :class:`~repro.runtime.spmd.SpmdExecutor`) threads every op
        per-rank, ``vectorized`` batches every op over the rank axis
        (:mod:`repro.runtime.vectorized`) — both bitwise-identical to
        the sequential walk — and a ``remat_plan`` drops unretained
        activations afterwards.
        """
        from ..core.config import ParallelConfig
        from ..core.executor_bindings import (build_layer_bindings,
                                              cached_layer_program)
        from ..runtime.dag_executor import DagExecutor

        self._check_shards(hidden_shards, seq_len)
        program = dag_program
        if program is None:
            parallel = ParallelConfig(
                self.group.size, attention=self.attention, ffn=self.ffn,
                ep_dispatch=getattr(self.ffn_engine, "mode", "adaptive"))
            program = cached_layer_program(
                self.block.config, parallel, hidden_shards[0].shape[0],
                seq_len)
        key = (seq_len, id(program))
        dag = self._dag_cache.get(key)
        if dag is None:
            bindings = build_layer_bindings(
                self, seq_len,
                tile_plan=getattr(program, "tile_plan", None))
            dag = DagExecutor(program, bindings, self.group)
            self._dag_cache[key] = dag

        tracer = getattr(getattr(self.group, "world", None),
                         "tracer", None)
        result = dag.run({"hidden": hidden_shards}, executor=executor,
                         tracer=tracer, vectorized=vectorized)
        self.last_executed_ops = list(result.executed)
        self.last_executed_tiles = (
            list(result.executed_tiles)
            if result.executed_tiles is not None else None)

        outputs = result.per_rank("residual2")
        if self.ffn == "ep":
            aux = self.ffn_engine.forward(result).aux_loss
        else:
            aux = result.per_rank("router")[0][2]

        self.last_remat_report = (
            result.apply_remat(remat_plan)
            if remat_plan is not None else None)
        return outputs, aux

    def sync_grads_to_reference(self) -> None:
        """Fold any TP weight-shard gradients back onto the reference
        module (no-op for SP/EP, whose weights are shared objects)."""
        for engine in (self.attn_engine, self.ffn_engine):
            sync = getattr(engine, "sync_grads_to_reference", None)
            if sync is not None:
                sync()

    def refresh_shards(self) -> None:
        """Re-derive TP weight shards after an optimizer step."""
        for engine in (self.attn_engine, self.ffn_engine):
            refresh = getattr(engine, "refresh_shards", None)
            if refresh is not None:
                refresh()

"""SPMD runtime: thread-per-rank execution with rendezvous collectives.

See ``docs/INTERNALS.md`` §8 for the execution model, the determinism
contract, and the zero-copy rules the engines rely on.
"""

from .backward import backward, parallel_backward
from .dag_executor import (
    DagExecutor,
    DagRunResult,
    schedule_conformance_problems,
)
from .rng import RankRngPool
from .vectorized import VecCtx, VecEnv
from .spmd import (
    EXECUTION_MODES,
    RankComm,
    SpmdExecutor,
    current_rank,
    make_executor,
    resolve_execution,
)

__all__ = [
    "EXECUTION_MODES",
    "DagExecutor",
    "DagRunResult",
    "RankComm",
    "RankRngPool",
    "SpmdExecutor",
    "VecCtx",
    "VecEnv",
    "backward",
    "current_rank",
    "make_executor",
    "parallel_backward",
    "resolve_execution",
    "schedule_conformance_problems",
]

"""Helpers shared by the workloads: outcomes, statistics, host facts.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

#: Where results and Chrome traces are written (inside the checkout).
OUT_DIR = ROOT / ".bench_out"

#: Failed operations whose traceback is printed; later ones are counted.
MAX_PRINTED_ERRORS = 3

#: Inputs of the two reference kernels, each ~2-3 ms on a 2-core x86_64
#: virtual machine at its best speed.
_RECORD_NAMES = tuple(f"w{i:04d}" for i in range(2000))
_DICT_KEYS = tuple(f"k{i}" for i in range(64))
_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) * 0.1
_NUMERIC_ROUNDS = 150


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` holds the gated numbers (end-to-end when untraced,
    per-layer when traced).  ``report`` holds the human-readable rows:
    ``(name, value, unit, samples)``, using the metric names the
    workload's users know (``step_ms_p90``, ``req_ms_p50``, ...).
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    report: List[Tuple[str, float, str, int]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.report.append((name, float(value), unit, int(samples)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class _Record(NamedTuple):
    name: str
    size: int
    cost: float


def records_kernel() -> float:
    """Build, sort, group and format 2000 small records: interpreter
    work on many small objects, like planning and serving."""
    records = [_Record(name, (i * 7919) % 1000, ((i * 31) % 97) / 7.0)
               for i, name in enumerate(_RECORD_NAMES)]
    records.sort(key=lambda r: (r.cost, r.name))
    groups: Dict[int, List[_Record]] = {}
    for r in records:
        groups.setdefault(r.size % 50, []).append(r)
    best = sum(max(g, key=lambda r: r.cost).cost for g in groups.values())
    return best + len(",".join(f"{r.name}:{r.size}" for r in records[:500]))


def numeric_kernel() -> float:
    """Dict updates between small float64 matrix products, like the
    training steps' mix of Python and numpy."""
    counts: Dict[str, int] = {}
    x = _MATRIX
    for r in range(_NUMERIC_ROUNDS):
        for key in _DICT_KEYS:
            counts[key] = counts.get(key, 0) + r
        x = np.tanh(x @ _MATRIX)
    return float(x[0, 0])


class Reference:
    """A fixed kernel timed around every measured operation.

    The gated ``op_cost_p50`` is an operation's wall time over the wall
    time of the kernel, run just before and just after it: the cost of
    the operation in runs of a fixed piece of work on the same host at
    the same moment.  On a shared 2-core virtual machine the host ran
    the same code at 1.0x-1.6x its best speed, in stretches from a
    second to longer than a whole run, so medians of raw times moved
    30-40% between runs.  How much a busy host slows code depends on
    the code, so each workload is measured against the kernel that
    resembles its own work: against the other kernel, serving moved
    4-12% between runs, planning 6-7% and the long training steps 12%;
    against its own, every workload moved 2-7%.

    Call ``mark()`` once before the first operation and once after each.
    """

    def __init__(self, kernel: Callable[[], float]) -> None:
        self._kernel = kernel
        #: Seconds of each kernel run, one per ``mark()``.
        self.seconds: List[float] = []

    def mark(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.seconds.append(time.perf_counter() - t0)

    def costs(self, seconds: Sequence[float]) -> List[float]:
        """Each operation's seconds over the mean of the kernel runs on
        either side of it (operation ``i`` lies between marks ``i`` and
        ``i + 1``)."""
        ref = self.seconds
        if len(ref) != len(seconds) + 1:
            raise ValueError(f"{len(seconds)} operations need "
                             f"{len(seconds) + 1} marks, not {len(ref)}")
        return [s / (0.5 * (ref[i] + ref[i + 1]))
                for i, s in enumerate(seconds)]


def print_failure(exc: BaseException, failures: int) -> None:
    """Print a failed operation's traceback, for the first few only."""
    if failures <= MAX_PRINTED_ERRORS:
        traceback.print_exception(type(exc), exc, exc.__traceback__,
                                  file=sys.stderr)


def repeated_setup(build: Callable[[], object], times: int):
    """Run ``build`` ``times`` times and keep the last result.

    Returns it and the seconds each build took; the previous build is
    freed before the next starts, so they do not pile up in memory.
    """
    seconds: List[float] = []
    built = None
    for _ in range(times):
        built = None
        gc.collect()
        t0 = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - t0)
    return built, seconds


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def self_time(span, children: Iterable) -> float:
    """A span's duration minus the part its children's intervals cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children if c.closed
    )
    covered = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in intervals:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def children_index(spans: Iterable) -> Dict[int, List]:
    """Closed spans grouped by parent span id."""
    index: Dict[int, List] = {}
    for s in spans:
        if s.closed and s.parent_id is not None:
            index.setdefault(s.parent_id, []).append(s)
    return index


def git_commit(root: Path = ROOT) -> str:
    """HEAD commit read from ``.git`` files, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> Dict[str, object]:
    """Cores, interpreter, numpy, BLAS and commit behind a result."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "commit": git_commit(),
    }

"""Measured end-to-end benchmark of the MegaScale-MoE reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-a2a --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Both check the program's outputs against a reference and count
every mismatch as a failed operation.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, holding exactly the metrics ``BENCHMARK.json`` lists for
the mode.  Lines before it give the host fingerprint, the metrics under
the names each workload's users know, with sample counts, and notes.
The same record, fingerprint included, is written to ``.bench_out/``.

The benchmark measures the program as users get it by default: the
environment knobs that select another execution path are removed
before the program is imported, and BLAS/OpenMP run one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> module that implements it.
WORKLOADS = {
    "train-a2a": "train",
    "train-agrs-long": "train",
    "serve-open": "serve",
    "plan-search": "plan",
}

#: Environment knobs that would move a run off the default path.
PATH_KNOBS = ("REPRO_EXECUTION", "REPRO_BACKEND", "REPRO_TILE_TOKENS")
#: Thread pools pinned to one thread (OpenBLAS defaults to every core).
THREAD_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def make_hermetic() -> None:
    """Default execution path, one BLAS thread.  Call before numpy loads."""
    for knob in PATH_KNOBS:
        os.environ.pop(knob, None)
    for knob in THREAD_KNOBS:
        os.environ[knob] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no program source under {ROOT / 'src'} or no "
              f"{spec_path.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    make_hermetic()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import importlib

    from common import OUT_DIR, host_fingerprint

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    module = importlib.import_module(WORKLOADS[args.workload])
    runner = module.run_traced if args.trace else module.run
    outcome = runner(args.workload, args.seed, args.seconds)

    metrics = {}
    for m in wanted:
        # A traced run fills only the layers on its workload's path;
        # the others did no work on it and read 0.
        default = 0.0 if args.trace else None
        value = outcome.metrics.get(m["name"], default)
        if value is None:
            raise KeyError(f"{args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    unknown = set(outcome.metrics) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")

    values_finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {
        "correct": outcome.failed == 0 and values_finite,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    host = host_fingerprint()
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    rows = list(outcome.report)
    if not args.trace:
        rows += [("setup_s", outcome.metrics["setup_s"], "s",
                  module.SETUPS),
                 ("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB", 1)]
    for name, value, unit, samples in rows:
        print(f"  {name:<28s} {value:14.4f} {unit:<8s} n={samples}")
    print(f"  {'error_rate':<28s} {error_rate:14.4f} {'ratio':<8s} "
          f"n={outcome.attempted}")
    for note in outcome.notes:
        print(f"  note: {note}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "error_rate": error_rate,
        "report": [dict(zip(("name", "value", "unit", "samples"), row))
                   for row in outcome.report],
        "notes": outcome.notes, "result": result,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

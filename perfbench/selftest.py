"""Self-test of the benchmark's correctness checks.

Each workload's checker is fed a real (small) output and a perturbed
reference; the mismatch must come back as failed operations, not as an
exception.  The unperturbed reference must give no failures.  Run from
the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check_train() -> list:
    import train

    shape, seed = train.SHAPES["train-a2a"], 0
    loop = train.set_up(shape, seed)
    reference = train.single_rank_losses(shape, seed, train.WARMUP_STEPS)
    perturbed = list(reference)
    perturbed[-1] += 1e-6
    return [
        ("train: matching reference", train.check(
            loop, shape, seed, reference) == 0),
        ("train: perturbed reference", train.check(
            loop, shape, seed, perturbed) == 1),
        ("train: reference longer than the run", train.check(
            loop, shape, seed, reference + [0.0]) == 0),
    ]


def check_serve() -> list:
    import serve

    seed = 0
    model = serve.set_up(seed)
    requests = serve.at_rate(serve.population(seed, 4), None)
    phase = serve.Phase(model, requests)
    golden = serve.golden_decode(model, serve.CONFIG, requests)
    tokens = {i: r.generated for i, r in golden.results.items()}
    perturbed = dict(tokens)
    first = requests[0].request_id
    perturbed[first] = [(t + 1) % 128 for t in tokens[first]]
    # More tokens than the KV pool holds: the engine raises on admission.
    oversized = serve.Request(request_id=len(requests), prompt=(1,) * 1024,
                              max_new_tokens=1)
    unserved = serve.Phase(model, requests + [oversized])
    return [
        ("serve: matching golden", phase.mismatches(tokens) == 0),
        ("serve: perturbed golden", phase.mismatches(perturbed) == 1),
        ("serve: failed phase counts every request",
         unserved.error is not None
         and unserved.mismatches(tokens) == len(requests) + 1),
        ("serve: failed requests miss the limit",
         not serve.rung_verdict(unserved.latencies_ms(), 0)[0]),
    ]


def check_plan() -> list:
    import plan

    seed = 0
    cases = plan.set_up(seed)
    matching = plan.Loop(cases, seed)
    matching.one()
    matching.one()
    ranked, *rest = cases[1].reference
    cases[1].reference = (tuple(reversed(ranked)), *rest)
    perturbed = plan.Loop(cases, seed)
    perturbed.one()
    perturbed.one()
    return [
        ("plan: matching reference", matching.failed == 0),
        ("plan: perturbed reference", perturbed.failed == 1),
    ]


def main() -> int:
    sys.path[:0] = [str(HERE)]
    import run

    run.make_hermetic()
    sys.path[1:1] = [str(run.ROOT / "src")]
    results = check_train() + check_serve() + check_plan()
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())

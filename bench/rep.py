"""One cold repetition of a workload, run in its own interpreter.

    python3 bench/rep.py --workload NAME --seed N [--scale full|tiny]
                         [--trace 0|1] [--verify 0|1] [--corrupt 0|1]
                         [--digests use|ignore]

Imports ``rotorlab.cli`` first and notes when that import returned.  Then
builds the workload's inputs from the seed, times every check, and (outside
the timing) prints one JSON line: that note, the wall time from the first
check to the last verdict, each check's latency, peak resident memory, a
fingerprint of every raw result and, when traced, the per-layer metrics.  With
``--verify 1`` every result is also verified and the failed checks listed;
a later repetition of the same seed need only reproduce the fingerprints.
``--corrupt 1`` perturbs every result before verification, for the
self-test.  ``--digests ignore`` verifies by invariants even where digests
are recorded, which is how digests are recorded in the first place.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

# First, so that the time from spawning this interpreter to here is the
# set-up every CLI call pays (run.py reports it as setup_s).
import rotorlab.cli  # noqa: E402,F401

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import refs  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DIGESTS = BENCH / "digests.json"
OUT = ROOT / ".bench_out"


def recorded_digests(workload: str, scale: str, seed: int, count: int) -> list[str] | None:
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text())
    text = table.get(f"{workload}/{scale}/{seed}")
    if text is None:
        return None
    found = [text[i:i + 8] for i in range(0, len(text), 8)]
    if len(found) != count:
        print(f"recorded digests cover {len(found)} exact checks, not {count}; ignoring them",
              file=sys.stderr)
        return None
    return found


def corrupt(values: tuple) -> tuple:
    """Move the pinned first number: 2h + 1 != h for every h but -1."""
    head = values[0]
    return (2 * head + 1,) + values[1:]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=1)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", choices=("use", "ignore"), default="use")
    args = parser.parse_args()

    checks = workloads.build(args.workload, args.seed, args.scale)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    outcomes: list[tuple[object, str | None]] = []
    latencies: list[float] = []
    first = time.perf_counter()
    for index, check in enumerate(checks):
        if tracer:
            tracer.begin_check(index)
        start = time.perf_counter()
        try:
            outcomes.append((check.run(), None))
        except Exception as exc:  # a failing check is counted, never fatal
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end_check()
    wall = time.perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record: dict = {}
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write(OUT / f"spans-{args.workload}-{args.scale}-{args.seed}.json")

    fingerprints = "".join(
        "-" * 8 if error else refs.digest([repr(result)]) for result, error in outcomes
    )
    failed: list[list] = [
        [index, check.part, error]
        for index, (check, (_, error)) in enumerate(zip(checks, outcomes)) if error
    ]
    digests: list[str] = []
    expected = None
    if args.verify:
        if args.digests == "use":
            expected = recorded_digests(args.workload, args.scale, args.seed, sum(c.exact for c in checks))
        failed, digests = verify(checks, outcomes, expected, args.corrupt)

    parts: dict[str, int] = {}
    for check in checks:
        parts[check.part] = parts.get(check.part, 0) + 1
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "imported_at": IMPORTED,
        "checks": len(checks),
        "parts": parts,
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "fingerprints": fingerprints,
        "verified": bool(args.verify),
        "failed": failed,
        "digest_checked": expected is not None,
        "digests": "".join(digests),
    })
    print(json.dumps(record))
    return 0


def verify(checks, outcomes, expected: list[str] | None, corrupted: bool) -> tuple[list[list], list[str]]:
    """Failed checks, and the digest of every exact result in check order."""
    failed: list[list] = []
    digests: list[str] = []
    for index, (check, (result, error)) in enumerate(zip(checks, outcomes)):
        if check.exact:
            digests.append("-" * 8)
        if error is None:
            try:
                values = check.summarize(result)
                if corrupted:
                    values = corrupt(values)
                problems: list[str] = []
                if check.exact:
                    digests[-1] = refs.digest(values)
                if check.exact and expected is not None:
                    if digests[-1] != expected[len(digests) - 1]:
                        problems.append("exact result differs from the recorded digest")
                else:
                    problems = check.verify(values)
            except Exception as exc:  # verification must not crash the run either
                problems = [f"verification raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is not None:
            failed.append([index, check.part, error])
    return failed, digests


if __name__ == "__main__":
    sys.exit(main())

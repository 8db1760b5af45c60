"""rotorlab benchmark: cold repetitions of one workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rotorlab is imported from ``src/``.
Workloads: exact, flows (see workloads.py).

``--trace 0`` runs repetitions of the workload, each in a fresh interpreter
so every memo starts cold, until S seconds have passed.  Each repetition
imports ``rotorlab.cli`` first; the time from spawning it until that import
returns is its set-up time (``setup_s``, the cost every CLI call pays).
The first repetition verifies every result against recorded digests or
independent references; every later one must reproduce the first one's
results bit for bit.  The end-to-end metrics are medians over repetitions.
The latency percentiles are taken over the checks, each check's latency
being its mean over the repetitions.  A check lasts milliseconds, so each
repetition times it in one short window of a host whose speed swings by up
to twice within seconds; a percentile of the pooled latencies, or of
per-check medians, follows whichever speed most windows happened to see.

``--trace 1`` alternates untraced and traced repetitions instead and reports
the per-layer metrics of the traced ones (see tracing.py), the tracing
overhead, and ``chernoff.import_s`` from ``python -X importtime``.  A table of
each layer's share of the traced wall time goes to stderr.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment.  Raw per-repetition records go to ``.bench_out/``.
``--scale tiny`` shrinks every workload for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("exact", "flows")
IMPORTTIME_RUNS = 3
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "verified_share": "ratio",
}

PER_LAYER = {
    "wick.vector_moment_s": "s",
    "wick.vector_moment_calls": "count",
    "wick.chain_hits": "count",
    "wick.chain_misses": "count",
    "wick.chain_entries": "count",
    "gaussian.covariance_s": "s",
    "gaussian.moment_s": "s",
    "gaussian.ou_basis_s": "s",
    "gaussian.ou_basis_size": "count",
    "gaussian.trotter_s": "s",
    "gaussian.heat_apply_s": "s",
    "moments.sphere_moment_s": "s",
    "moments.sphere_moment_calls": "count",
    "moments.mono_moment_hits": "count",
    "moments.mono_moment_misses": "count",
    "moments.pairing_sum_misses": "count",
    "moments.cache_entries": "count",
    "algebra.mul_s": "s",
    "algebra.mul_calls": "count",
    "griffiths.check_second_s": "s",
    "heat.closure_s": "s",
    "heat.basis_size_max": "count",
    "heat.basis_monos_total": "count",
    "heat.evolve_s": "s",
    "heat.flow_s": "s",
    "heat.dirichlet_s": "s",
    "numerics.expm_s": "s",
    "numerics.expm_calls": "count",
    "numerics.expm_dim_max": "count",
    "chernoff.eigenvalue_s": "s",
    "chernoff.eigenvalue_calls": "count",
    "chernoff.nodes_max": "count",
    "chernoff.import_s": "s",
    "mc.estimate_s": "s",
    "mc.samples_per_s": "1/s",
    "mc.shards": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

LAYERS = ("wick", "gaussian", "moments", "algebra", "griffiths", "heat", "numerics", "chernoff", "mc")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__);"
         "print(numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name'])"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    versions, blas = (probe.stdout.splitlines() + ["? ?", "?"])[:2]
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    numpy_version, scipy_version = versions.split()
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def chernoff_import_s() -> float:
    """Cumulative import time of rotorlab.chernoff, from -X importtime."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rotorlab.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        for line in done.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "rotorlab.chernoff":
                samples.append(int(fields[1]) / 1e6)
    return statistics.median(samples)


def run_rep(workload: str, seed: int, scale: str, trace: int, verify: bool, budget: float) -> dict:
    """One repetition in a fresh interpreter; a crash or timeout is one failed attempt."""
    command = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--trace", str(trace), "--verify", str(int(verify))]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {budget:.0f} s"}
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        return {"error": f"repetition exited {done.returncode}: {done.stderr.strip()[-500:]}"}
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["imported_at"] - spawned  # both sides read the system-wide monotonic clock
    return rep


def compare(rep: dict, reference: dict) -> None:
    """Count every check whose result differs from the verified repetition's."""
    seen = {index for index, _, _ in rep["failed"]}
    for index in range(rep["checks"]):
        mine = rep["fingerprints"][8 * index:8 * index + 8]
        if index not in seen and mine != reference["fingerprints"][8 * index:8 * index + 8]:
            rep["failed"].append([index, "?", "result differs from the verified repetition"])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(reps: list[dict], errors: list[str]) -> tuple[int, int]:
    """Checks attempted and failed; a repetition that crashed or timed out is one failed attempt."""
    attempted = sum(r["checks"] for r in reps) + len(errors)
    failed = sum(len(r["failed"]) for r in reps) + len(errors)
    return attempted, failed


def check_latencies(reps: list[dict]) -> list[float]:
    """Each check's mean latency over the repetitions."""
    return [statistics.fmean(r["latencies_s"][index] for r in reps) for index in range(reps[0]["checks"])]


def summarize(reps: list[dict], errors: list[str]) -> dict[str, float]:
    latencies = check_latencies(reps)
    attempted, failed = tally(reps, errors)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "checks_per_s": statistics.median(r["checks"] / r["wall_s"] for r in reps),
        "check_p50_ms": 1e3 * statistics.median(latencies),
        "check_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "verified_share": 1.0 - failed / attempted,
    }


def layer_summary(traced: list[dict], plain: list[dict], import_s: float) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            out[name] = statistics.median(values)
    out["chernoff.import_s"] = import_s
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
    return out


def self_time_metrics() -> list[str]:
    """The per-layer metrics that are self times inside the traced checks."""
    return [name for name, unit in PER_LAYER.items()
            if unit == "s" and name.split(".")[0] in LAYERS and name != "chernoff.import_s"]


def share_table(layers: dict[str, float]) -> str:
    wall = layers["trace.wall_s"]
    rows = [f"{'layer':<14}{'self s':>10}{'share':>9}"]
    for layer in LAYERS:
        total = sum(layers[name] for name in self_time_metrics() if name.startswith(layer + "."))
        rows.append(f"{layer:<14}{total:>10.4f}{total / wall:>9.1%}")
    rest = layers["trace.unattributed_s"]
    rows.append(f"{'(unwrapped)':<14}{rest:>10.4f}{rest / wall:>9.1%}")
    rows.append(f"{'traced wall':<14}{wall:>10.4f}")
    return "\n".join(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "rotorlab" / "__init__.py").is_file():
        print(f"no rotorlab sources under {SRC}; run from the root of a rotorlab checkout",
              file=sys.stderr)
        return 2

    env = environment()
    if args.trace:
        import_s = chernoff_import_s()

    reps: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    measuring = time.perf_counter()
    while True:
        for trace in ((0, 1) if args.trace else (0,)):
            budget = DEADLINE_S - (time.perf_counter() - started)
            rep = run_rep(args.workload, args.seed, args.scale, trace, not reps, budget)
            if "error" in rep:
                errors.append(rep["error"])
                break
            if reps:
                compare(rep, reps[0])
            (traced if trace else reps).append(rep)
        if errors or time.perf_counter() - measuring >= args.seconds:
            break

    OUT.mkdir(exist_ok=True)
    raw = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"env": env, "errors": errors, "reps": reps, "traced": traced}))
    attempted, failed = tally(reps + traced, errors)
    for message in errors + [f"check {i} ({part}): {why}" for r in reps + traced for i, part, why in r["failed"]]:
        print(f"FAILED {message}", file=sys.stderr)
    if not reps:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0

    if args.trace:
        values = layer_summary(traced, reps, import_s) if traced else {}
        units = PER_LAYER
        if traced:
            print(share_table(values), file=sys.stderr)
    else:
        values = summarize(reps, errors)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    print(json.dumps({"env": env, "repetitions": len(reps) + len(traced)}))
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

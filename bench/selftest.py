"""Self-test of the benchmark, at a tiny size; about a minute.

    python3 bench/selftest.py

Checks that
  * every workload passes verification at the tiny size, both through the
    recorded digests and through the invariants and references;
  * a deliberately corrupted result fails every check it touches, through
    both paths, and is counted in the end-to-end ``verified_share``;
  * a later repetition whose result differs is counted as failed;
  * ``run.py`` prints exactly the metrics BENCHMARK.json names, each with its
    unit, and the per-layer self times add up to no more than the traced
    wall time;
  * ``run.py`` exits non-zero, printing no result, without rotorlab sources.
Exits 1 if any of these fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def rep(workload: str, seed: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
         "--scale", "tiny", *extra],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_verification(workload: str) -> None:
    seeded = rep(workload, 0)
    expect(not seeded["failed"], f"{workload}: tiny run passes (digests: {seeded['digest_checked']})")
    plain = rep(workload, 0, "--digests", "ignore")
    expect(not plain["failed"], f"{workload}: tiny run passes by invariants and references")
    for label, extra in (("recorded digests", ()), ("invariants", ("--digests", "ignore"))):
        bad = rep(workload, 0, "--corrupt", "1", *extra)
        expect(len(bad["failed"]) == bad["checks"],
               f"{workload}: corrupting every result fails all {bad['checks']} checks ({label})")
    share = run.summarize([dict(bad, setup_s=1.0)], [])["verified_share"]
    expect(share == 0.0, f"{workload}: corrupted results give verified_share {share}")
    share = run.summarize([dict(plain, setup_s=1.0)], ["repetition exceeded 1 s"])["verified_share"]
    expect(share == 1 - 1 / (plain["checks"] + 1),
           f"{workload}: a crashed repetition lowers verified_share to {share}")
    later = dict(plain, failed=[], fingerprints="0" * 8 + plain["fingerprints"][8:])
    run.compare(later, plain)
    expect(len(later["failed"]) == 1, f"{workload}: a repetition with one changed result counts one failure")


def check_metrics(workload: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(workload, trace)
        result = json.loads(done.stdout.splitlines()[-1])
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(done.returncode == 0 and result["correct"], f"{workload} trace {trace}: correct, exit 0")
        expect(printed == wanted, f"{workload} trace {trace}: prints exactly the {key} metrics with units")
        if trace:
            values = {name: m["value"] for name, m in result["metrics"].items()}
            own = sum(values[name] for name in run.self_time_metrics())
            expect(own + values["trace.unattributed_s"] <= values["trace.wall_s"],
                   f"{workload}: layer self times {own:.4f} s <= traced wall {values['trace.wall_s']:.4f} s")


def check_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("flows", 0, bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"without sources: exit {done.returncode}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json names the workloads")
    for workload in run.WORKLOADS:
        check_verification(workload)
        check_metrics(workload, spec)
    check_without_sources()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())

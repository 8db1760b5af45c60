"""Command-line entry point.

Exit codes: 0 all checks pass / value computed; 1 an inequality or suite
criterion failed (counterexamples serialized where applicable); 2 invalid
input; 3 numeric or resource trouble.  Output is deterministic given the
arguments and seeds; no environment variables are consulted.

Each command imports its engine when it runs, so starting the CLI loads
only this module, ``errors`` and ``chernoff`` (with ``zonal``) and no numpy
or scipy.  ``chernoff`` stays on the import path on purpose: the benchmark's
traced run reads its ``-X importtime`` row from ``import rotorlab.cli``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .chernoff import KernelSpec, chernoff_table, normalization_constant
from .errors import InputError, NumericError, ResourceLimitError, ViolationError

MAX_GRID_POINTS = 10_000


def format_float(value: float) -> str:
    if value == 0.0 or 1e-4 <= abs(value) < 1e16:
        return f"{value:.15f}"
    return f"{value:.15e}"


def render_exact(value: Fraction) -> str:
    """The exact rational, then its float value; ``inf`` or ``-inf`` beyond the float range."""
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf if value > 0 else -math.inf
    return f"{value} ({format_float(approx)})"


def parse_grid(text: str) -> list[float]:
    """A non-empty grid: finite 'start:step:stop' (at most MAX_GRID_POINTS points) or 'a,b,...'."""
    if ":" in text:
        bits = text.split(":")
        if len(bits) != 3:
            raise InputError(f"grid {text!r} must be start:step:stop or comma-separated")
        try:
            start, step, stop = (float(b) for b in bits)
        except ValueError as exc:
            raise InputError(f"bad grid {text!r}: {exc}") from exc
        if not all(math.isfinite(x) for x in (start, step, stop)):
            raise InputError(f"grid {text!r} needs a finite start, step and stop")
        if step <= 0:
            raise InputError("grid step must be positive")
        end = stop + 1e-12 * max(1.0, abs(stop))
        too_many = ResourceLimitError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        if (end - start) / step >= MAX_GRID_POINTS:
            raise too_many
        out = []
        value = start
        while value <= end:
            if len(out) == MAX_GRID_POINTS:  # a step below the float spacing of large values
                raise too_many
            out.append(round(value, 12))
            value += step
    else:
        try:
            out = [float(b) for b in text.split(",") if b]
        except ValueError as exc:
            raise InputError(f"bad grid {text!r}: {exc}") from exc
    if not out:
        raise InputError(f"grid {text!r} has no points")
    return out


def parse_int_list(text: str) -> list[int]:
    """A non-empty comma-separated list of integers."""
    try:
        out = [int(b) for b in text.split(",") if b]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}: {exc}") from exc
    if not out:
        raise InputError(f"integer list {text!r} has no entries")
    return out


def _print_griffiths(report, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"model:   {report.model}")
        print(f"E[f]     = {render_exact(report.Ef)}")
        print(f"E[g]     = {render_exact(report.Eg)}")
        print(f"E[fg]    = {render_exact(report.Efg)}")
        print(f"gap      = {render_exact(report.gap)}")
        print(f"verdict: {report.verdict}")


def cmd_moment(args) -> int:
    from .algebra import SPHERE, Coupling, load_polynomial, read_json
    from .moments import interacting_moment, sphere_moment

    p = load_polynomial(args.input)
    if p.mode != SPHERE:
        raise InputError("moment handles sphere-mode polynomials; see 'gaussian moment'")
    if args.J:
        coupling = Coupling.from_dict(p.dims, read_json(args.J, "coupling"))
        result = interacting_moment(p, coupling, order=args.order)
        print(f"{render_exact(result.value)}  [truncation order {result.order}, "
              f"tail bound {result.tail_gap:.3e}]")
    else:
        print(render_exact(sphere_moment(p)))
    return 0


def cmd_griffiths(args) -> int:
    from .algebra import load_polynomial
    from .griffiths import HOLDS, check_second, write_counterexample

    f = load_polynomial(args.f)
    g = load_polynomial(args.g)
    report = check_second(f, g)
    _print_griffiths(report, args.format)
    if report.verdict != HOLDS:
        path = write_counterexample(
            os.path.join(args.counterexample_dir, "griffiths_counterexample.json"),
            f, g, report,
        )
        print(f"counterexample written to {path}", file=sys.stderr)
        return 1
    return 0


def cmd_evolve(args) -> int:
    from .algebra import load_polynomial
    from .heat import heat_evolve

    p = load_polynomial(args.input)
    out = heat_evolve(p, args.t)
    for mono, coeff in out.sorted_terms():
        factors = "*".join(f"u[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in mono)
        print(f"{factors or '1'} {format_float(coeff)}")
    if args.check_cone:
        worst = out.min_coefficient()
        status = "ok" if worst >= -1e-12 else "WARNING"
        print(f"cone check: min coefficient {worst:.3e} [{status}]")
        if worst < -1e-12:
            return 1
    return 0


def cmd_dirichlet(args) -> int:
    from .algebra import load_polynomial
    from .heat import dirichlet

    f = load_polynomial(args.f)
    h = load_polynomial(args.h)
    print(render_exact(dirichlet(f, h)))
    return 0


def cmd_flow(args) -> int:
    from .algebra import load_polynomial
    from .heat import correlation_flow

    f = load_polynomial(args.f)
    g = load_polynomial(args.g)
    flow = correlation_flow(f, g, parse_grid(args.t_grid))
    print("t,h,monotone_ok")
    for t, h, ok in flow.rows():
        print(f"{t},{h!r},{str(ok).lower()}")
    print(f"# limit E[f]E[g] = {flow.product_of_means!r}, gap at t_max = {flow.limit_gap:.3e}, "
          f"monotone = {str(flow.monotone).lower()}", file=sys.stderr)
    return 0 if flow.monotone else 1


def cmd_chernoff(args) -> int:
    spec = KernelSpec(args.n, args.t)
    points = chernoff_table(spec, args.l, parse_int_list(args.m))
    print("m,approx,reference,error")
    for point in points:
        print(f"{point.m},{point.approx!r},{point.reference!r},{point.error!r}")
    return 0


def cmd_normalization(args) -> int:
    specs = [KernelSpec(args.n, t) for t in parse_grid(args.t_grid)]  # all valid before any c(t)
    points = [normalization_constant(spec) for spec in specs]
    print("t,c,ratio_minus_1")
    for point in points:
        print(f"{point.t},{point.c!r},{point.ratio_minus_1!r}")
    return 0


def cmd_gaussian(args) -> int:
    from .algebra import load_polynomial, read_json
    from .gaussian import (check_gaussian_griffiths, covariance, ferro_from_dict,
                           gaussian_moment, trotter_compare)
    from .griffiths import HOLDS

    fmat = ferro_from_dict(read_json(args.F, "matrix"))
    if args.gaussian_action == "moment":
        p = load_polynomial(args.input)
        print(render_exact(gaussian_moment(p, covariance(fmat))))
        return 0
    if args.gaussian_action == "griffiths":
        report = check_gaussian_griffiths(
            load_polynomial(args.f), load_polynomial(args.g), fmat
        )
        _print_griffiths(report, args.format)
        return 0 if report.verdict == HOLDS else 1
    # trotter
    p = load_polynomial(args.input)
    report = trotter_compare(p, fmat, args.t, parse_int_list(args.m))
    print("m,max_error,min_intermediate_coeff")
    for point in report.points:
        print(f"{point.m},{point.max_error!r},{point.min_intermediate_coeff!r}")
    print(f"# cone preserved: {str(report.cone_preserved).lower()}", file=sys.stderr)
    return 0 if report.cone_preserved else 1


def cmd_mc(args) -> int:
    from .algebra import GAUSSIAN, Coupling, load_polynomial, read_json
    from .gaussian import covariance, ferro_from_dict, gaussian_moment
    from .mc import estimate_moment
    from .moments import interacting_moment, sphere_moment

    p = load_polynomial(args.input)
    coupling = None
    cov = None
    if args.J:
        coupling = Coupling.from_dict(p.dims, read_json(args.J, "coupling"))
    if args.F:
        cov = covariance(ferro_from_dict(read_json(args.F, "matrix")))
    elif p.mode == GAUSSIAN:
        raise InputError("gaussian-mode input needs --F for the coupling matrix")
    extra = {}
    if coupling is not None:  # the exact value first: its caps refuse before any shard is drawn
        exact = interacting_moment(p, coupling, order=args.order)
        value, extra = exact.value, {"tail_gap": exact.tail_gap}
    elif p.mode == GAUSSIAN:
        value = gaussian_moment(p, cov)
    else:
        value = sphere_moment(p)
    estimate = estimate_moment(p, args.samples, args.seed, coupling=coupling, covariance=cov)
    payload = {
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "samples": estimate.samples,
        "seed": estimate.seed,
        "exact": float(value),
        "exact_rational": str(value),
        **extra,
    }
    payload["sigmas"] = estimate.sigmas_from(payload["exact"])
    print(json.dumps(payload, indent=2))
    return 0


def cmd_suite(args) -> int:
    from .suites import run_suite

    results = run_suite(args.which, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{mark}  {r.cid:>3}  {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorlab",
        description="Exact and numerical verification of Griffiths inequalities "
                    "for free rotors and ferromagnetic Gaussian spins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="exact sphere expectation of a polynomial")
    p.add_argument("--input", required=True)
    p.add_argument("--J", help="optional ferromagnetic coupling JSON (truncated expectation)")
    p.add_argument("--order", type=int, default=8, help="truncation order with --J")
    p.set_defaults(fn=cmd_moment)

    p = sub.add_parser("griffiths", help="exact first/second inequality check")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--counterexample-dir", default=".")
    p.set_defaults(fn=cmd_griffiths)

    p = sub.add_parser("evolve", help="heat-semigroup evolution of a polynomial")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--check-cone", action="store_true")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("dirichlet", help="exact E[grad f . grad h]")
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(fn=cmd_dirichlet)

    p = sub.add_parser("flow", help="correlation flow E[f e^{t lap} g] over a grid")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t-grid", required=True)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("chernoff", help="kernel power convergence to the heat semigroup")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--m", required=True, help="comma-separated powers")
    p.set_defaults(fn=cmd_chernoff)

    p = sub.add_parser("normalization", help="kernel normalizer against its small-t form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-grid", required=True)
    p.set_defaults(fn=cmd_normalization)

    p = sub.add_parser("gaussian", help="ferromagnetic Gaussian spin checks")
    gsub = p.add_subparsers(dest="gaussian_action", required=True)
    gm = gsub.add_parser("moment", help="exact Gaussian expectation")
    gm.add_argument("--input", required=True)
    gm.add_argument("--F", required=True)
    gm.set_defaults(fn=cmd_gaussian)
    gg = gsub.add_parser("griffiths", help="Gaussian Griffiths check")
    gg.add_argument("--f", required=True)
    gg.add_argument("--g", required=True)
    gg.add_argument("--F", required=True)
    gg.add_argument("--format", choices=["text", "json"], default="text")
    gg.set_defaults(fn=cmd_gaussian)
    gt = gsub.add_parser("trotter", help="Trotter splitting error table")
    gt.add_argument("--input", required=True)
    gt.add_argument("--F", required=True)
    gt.add_argument("--t", type=float, required=True)
    gt.add_argument("--m", required=True)
    gt.set_defaults(fn=cmd_gaussian)

    p = sub.add_parser("mc", help="Monte Carlo cross-check of an exact value")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--J", help="sphere-mode interaction coupling JSON")
    p.add_argument("--F", help="gaussian-mode coupling matrix JSON")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("suite", help="run the verification bundle")
    p.add_argument("which", help="quick or full")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ResourceLimitError, OverflowError) as exc:
        print(f"numeric/resource error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

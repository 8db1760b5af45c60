"""Spans around rotorlab's public entry points, installed from outside the package.

A traced repetition wraps each entry point at every place it is bound: the
defining module and every rotorlab module that imported it by name (callers
use ``from .x import y``, so rebinding the definition alone would miss
them).  The recursive memos ``wick._chain_value`` and
``moments._mono_moment`` are never wrapped; their ``cache_info()`` is read
instead.  Spans are kept in memory as ``[name, start, end, parent, check]``
and written out once the repetition ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

from rotorlab import algebra, chernoff, gaussian, griffiths, heat, mc, moments, numerics, wick

ROOT = "check"


def _basis_size(args, kwargs, result) -> int:
    return len(result.basis)


def _matrix_dim(args, kwargs, result) -> int:
    return len(args[0])


def _samples(args, kwargs, result) -> int:
    return result.samples


# span name -> (function, what to note from each call)
ENTRY_POINTS = {
    "wick.vector_moment": (wick.vector_moment, None),
    "gaussian.covariance": (gaussian.covariance, None),
    "gaussian.moment": (gaussian.gaussian_moment, None),
    "gaussian.ou_basis": (gaussian.ou_invariant_basis, _basis_size),
    "gaussian.trotter": (gaussian.trotter_compare, None),
    "gaussian.heat_apply": (gaussian.heat_apply, None),
    "moments.sphere_moment": (moments.sphere_moment, None),
    "griffiths.check_second": (griffiths.check_second, None),
    "heat.closure": (heat.build_invariant_basis, _basis_size),
    "heat.evolve": (heat.heat_evolve, None),
    "heat.flow": (heat.correlation_flow, None),
    "heat.dirichlet": (heat.dirichlet, None),
    "numerics.expm": (numerics.expm, _matrix_dim),
    "chernoff.eigenvalue": (chernoff.funk_hecke_eigenvalue, None),
    "mc.estimate": (mc.estimate_moment, _samples),
}
MUL = "algebra.mul"
SPAN_NAMES = (*ENTRY_POINTS, MUL)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[str, list[int]] = {name: [] for name in ENTRY_POINTS}
        self._stack: list[int] = []
        self._check = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note=None):
        spans, stack, notes = self.spans, self._stack, self.notes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._check])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if note is not None:
                notes.append(note(args, kwargs, result))
            return result

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name == "rotorlab" or name.startswith("rotorlab.")]
        for name, (fn, note) in ENTRY_POINTS.items():
            wrapper = self._wrap(name, fn, note)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)
        mul = self._wrap(MUL, algebra.DotPolynomial.__mul__)
        self._rebind(algebra.DotPolynomial, "__mul__", mul)
        self._rebind(algebra.DotPolynomial, "__rmul__", mul)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def begin_check(self, index: int) -> None:
        self._check = index
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, index])

    def end_check(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "check"], "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and counters noted from results."""
        own = self.self_times()
        seconds = {name: 0.0 for name in (*SPAN_NAMES, ROOT)}
        calls = {name: 0 for name in (*SPAN_NAMES, ROOT)}
        for span, t in zip(self.spans, own):
            seconds[span[0]] += t
            calls[span[0]] += 1
        out = {f"{name}_s": seconds[name] for name in SPAN_NAMES}
        for name in ("wick.vector_moment", "moments.sphere_moment", "algebra.mul",
                     "numerics.expm", "chernoff.eigenvalue"):
            out[f"{name}_calls"] = calls[name]
        out["trace.unattributed_s"] = seconds[ROOT]
        closures = self.notes["heat.closure"]
        out["heat.basis_size_max"] = max(closures, default=0)
        out["heat.basis_monos_total"] = sum(closures)
        out["gaussian.ou_basis_size"] = max(self.notes["gaussian.ou_basis"], default=0)
        out["numerics.expm_dim_max"] = max(self.notes["numerics.expm"], default=0)
        samples = self.notes["mc.estimate"]
        estimate_s = seconds["mc.estimate"]
        out["mc.samples_per_s"] = sum(samples) / estimate_s if estimate_s else 0.0
        out["mc.shards"] = sum(math.ceil(s / mc.SHARD_SIZE) for s in samples)
        out.update(cache_counters())
        return out


def _cache(module, name: str):
    fn = getattr(module, name, None)
    return fn.cache_info() if hasattr(fn, "cache_info") else None


def cache_counters() -> dict[str, int]:
    """Memo counters as they stand; zero for a memo the package no longer has."""
    chain = _cache(wick, "_chain_value")
    mono = _cache(moments, "_mono_moment")
    pairing = _cache(moments, "_partner_pairing_sum")
    radial = _cache(moments, "radial_moment")
    nodes = getattr(chernoff, "_node_cache", {})
    return {
        "wick.chain_hits": chain.hits if chain else 0,
        "wick.chain_misses": chain.misses if chain else 0,
        "wick.chain_entries": chain.currsize if chain else 0,
        "moments.mono_moment_hits": mono.hits if mono else 0,
        "moments.mono_moment_misses": mono.misses if mono else 0,
        "moments.pairing_sum_misses": pairing.misses if pairing else 0,
        "moments.cache_entries": sum(c.currsize for c in (mono, pairing, radial) if c),
        "chernoff.nodes_max": max((key[-1] for key in nodes), default=0),
    }

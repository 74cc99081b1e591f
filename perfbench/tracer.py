"""Out-of-tree tracing of coxfree's public functions.

The tracer replaces each listed function, in every coxfree module
namespace that binds it, by a wrapper that records a span on a span
stack.  A span's self time is its duration minus the durations of the
spans it caused.  Spans are folded into per-function aggregates held in
memory (calls, total and self seconds, counters); hot functions run
millions of times per pass, so individual spans are not kept.  Nothing
under src/ is modified: wrapping happens at run time, after import.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("symbols", "weyl", "modtwo", "involutions", "torsionfree", "geometry", "cli")


def _count_finite(stat, args, result):
    stat.counters["finite"] = stat.counters.get("finite", 0) + (result is not None)


def _count_true(stat, args, result):
    stat.counters["true"] = stat.counters.get("true", 0) + bool(result)


def _count_letters(stat, args, result):
    stat.counters["letters"] = stat.counters.get("letters", 0) + len(args[1])


def _count_elements(stat, args, result):
    stat.counters["elements"] = stat.counters.get("elements", 0) + result


# (module, attribute path, counter hook).  Dotted paths are methods.
TRACED = (
    ("symbols", "induced_subsymbol", None),
    ("symbols", "classify_finite_type", _count_finite),
    ("symbols", "CoxeterSymbol.edges", None),
    ("symbols", "euler_characteristic", None),
    ("involutions", "equivalence_classes", None),
    ("involutions", "elementary_moves", None),
    ("involutions", "is_minus_one_type", _count_true),
    ("involutions", "maximal_rank_class", None),
    ("torsionfree", "phi", _count_letters),
    ("torsionfree", "SemidirectElement.__mul__", None),
    ("torsionfree", "enumerate_image", _count_elements),
    ("torsionfree", "build_dagger", None),
    ("torsionfree", "verify_relations", None),
    ("torsionfree", "kernel_index", None),
    ("torsionfree", "certify_torsion_free", None),
    ("torsionfree", "replay_certificate", None),
    ("torsionfree", "cyclic_extension", None),
    ("weyl", "mat_mul", None),
    ("weyl", "weyl_data", None),
    ("weyl", "reflection_matrix", None),
    ("weyl", "longest_word", None),
    ("weyl", "rank_rational", None),
    ("modtwo", "weight_vector", None),
    ("modtwo", "f2_generators", None),
    ("modtwo", "orbit_span", None),
    ("modtwo", "admissible_nodes", None),
    ("modtwo", "find_target", None),
    ("geometry", "vinberg_symbol", None),
    ("geometry", "covolume_gauss_bonnet", None),
    ("geometry", "manifold_volume", None),
    ("cli", "run", None),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counters = {}

    def as_dict(self):
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                **self.counters}


class Tracer:
    """Span stack plus per-name aggregates.

    total_s counts only the outermost span of a name, so recursion (for
    example weyl_data calling itself) is not counted twice.
    """

    def __init__(self):
        self.stats = {}
        self._stack = []

    def span(self, name, fn, counter=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stat.depth == 0:
                    stat.total_s += duration
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                counter(stat, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function in each coxfree namespace binding it."""
        package = importlib.import_module("coxfree")
        modules = [package] + [importlib.import_module(f"coxfree.{m}") for m in MODULES]
        for home, path, counter in TRACED:
            name = f"{home}.{path}"
            owner = importlib.import_module(f"coxfree.{home}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.span(name, cls.__dict__[attr], counter))
                continue
            original = getattr(owner, path)
            wrapper = self.span(name, original, counter)
            for module in modules:
                if getattr(module, path, None) is original:
                    setattr(module, path, wrapper)

    def snapshot(self):
        return {name: stat.as_dict() for name, stat in self.stats.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots):
    """Sum per-name aggregates from several processes."""
    out = {}
    for snap in snapshots:
        for name, fields in snap.items():
            acc = out.setdefault(name, {})
            for key, value in fields.items():
                acc[key] = acc.get(key, 0) + value
    return out

"""Span recording around heckelab's public functions, from outside the program.

``Tracer.install`` replaces each traced function in every ``heckelab``
module namespace that binds it (a module that did ``from .satake import
satake_image`` holds its own reference), plus ``SymPoly.__mul__`` on the
class.  Each call records a span (id, parent id, layer, start, end); spans
stay in memory until the run ends.  A layer's self time is the sum of its
spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from math import factorial

OP = "op"  # root span around each benchmark op; its self time is unattributed
LAYERS = (
    "sympoly.alternant", "sympoly.mul", "satake.image", "hecke.multiply",
    "amplifier.system", "cosets.decompose", "cosets.oracle", "cosets.smith",
    "diophantine.shell", "diophantine.corollary", "diophantine.sdelta",
    "diophantine.deviation", "partitions",
)


def _orbit_size(key: tuple[int, ...]) -> int:
    size = factorial(len(key))
    for mult in Counter(key).values():
        size //= factorial(mult)
    return size


class Tracer:
    """Span recorder with per-layer counters read from arguments and results."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[tuple[int, dict]] = []  # open spans: (id, counter scratch)
        self.counts: Counter = Counter()
        self.images: set[tuple] = set()  # distinct (a, p) passed to satake_image
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def call(self, layer: str, fn, args=(), kwargs=None, observe=None):
        """Run fn inside a span of the layer; observe reads counts off the call.

        observe(tracer, info, parent_info, args, result, error) gets the
        span's scratch dict (filled by its children's observers) and its
        parent's, so a count can be passed up one level.
        """
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        info: dict = {}
        self.stack.append((sid, info))
        start = time.perf_counter()
        result = error = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, layer, start, end))
            self.counts[f"{layer}.calls"] += 1
            if observe is not None:
                parent_info = self.stack[-1][1] if self.stack else {}
                observe(self, info, parent_info, args, result, error)

    def wrap(self, layer: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, observe)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, hk) -> None:
        """Wrap every traced function in every heckelab namespace that binds it."""
        targets = {
            hk.sympoly.symmetrize_alternant: ("sympoly.alternant", None),
            hk.satake.satake_image: ("satake.image", _observe_image),
            hk.hecke.multiply: ("hecke.multiply", _observe_multiply),
            hk.amplifier.amplifier_coefficients: ("amplifier.system", None),
            hk.cosets.coset_decomposition: ("cosets.decompose", _observe_decompose),
            hk.cosets.oracle_multiply: ("cosets.oracle", _observe_oracle),
            hk.cosets.elementary_divisors: ("cosets.smith", None),
            hk.diophantine.quadratic_shell_points: ("diophantine.shell", _observe_shell),
            hk.diophantine.corollary_count_experiment: (
                "diophantine.corollary", _observe_corollary),
            hk.diophantine.enumerate_S_delta: ("diophantine.sdelta", _observe_sdelta),
            hk.diophantine.deviation_at_most: ("diophantine.deviation", None),
        }
        for name, obj in vars(hk.partitions).items():
            if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == hk.partitions.__name__):
                targets[obj] = ("partitions", None)
        wrappers = {fn: self.wrap(layer, fn, obs) for fn, (layer, obs) in targets.items()}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "heckelab" or name.startswith("heckelab."))]
        for module in modules:
            for name, obj in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)
        cls = hk.sympoly.SymPoly
        self._restore.append((cls, "__mul__", cls.__mul__))
        cls.__mul__ = self.wrap("sympoly.mul", cls.__mul__, _observe_mul)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, layer, start, end in self.spans:
            out[layer] += (end - start) - child_time[sid]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, layer, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- observers: counters read from arguments, results and child spans -------------


def _observe_image(tracer, info, parent, args, result, error):
    tracer.images.add((tuple(args[0]), args[1]))


def _observe_mul(tracer, info, parent, args, result, error):
    left, right = args
    tracer.counts["sympoly.mul.term_pairs"] += (
        sum(_orbit_size(k) for k in left.terms) * len(right.terms)
    )


def _observe_multiply(tracer, info, parent, args, result, error):
    if result is not None:
        tracer.counts["hecke.multiply.result_terms"] += len(result.terms)


def _observe_decompose(tracer, info, parent, args, result, error):
    if result is not None:
        tracer.counts["cosets.decompose.reps"] += result.degree
        parent.setdefault("degrees", []).append(result.degree)


def _observe_oracle(tracer, info, parent, args, result, error):
    if error is not None:
        if type(error).__name__ == "CosetBudgetError":
            tracer.counts["cosets.oracle.budget_exceeded"] += 1
        return
    deg_a, deg_b = info["degrees"]
    tracer.counts["cosets.oracle.pair_products"] += deg_a * deg_b


def _observe_shell(tracer, info, parent, args, result, error):
    if result is not None:
        tracer.counts["diophantine.shell.points"] += len(result)
        parent["points"] = parent.get("points", 0) + len(result)


def _observe_corollary(tracer, info, parent, args, result, error):
    if result is not None:
        tracer.counts["diophantine.corollary.count"] += result.count
        tracer.counts["diophantine.corollary.points"] += info.get("points", 0)


def _observe_sdelta(tracer, info, parent, args, result, error):
    if result is not None:
        tracer.counts["diophantine.sdelta.count"] += result.count
        tracer.counts["diophantine.sdelta.nodes"] += result.notes["nodes"]

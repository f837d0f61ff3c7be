"""Layer tracing from outside the program.

The tracer replaces primpair's public functions with timing wrappers in
every namespace that binds them: the defining module, each module that
imported the name, and the class for ``FieldCtx`` and ``FactorCache``
methods.  Nothing inside ``src/`` is edited.

Every wrapped call is a frame.  A frame's self time is its duration minus
the durations of the wrapped calls made inside it, so the self times of all
frames sum to the duration of the outermost frames, the benchmark's own
``bench.op`` roots.  Coarse boundary calls also record a span (id, parent,
operation id, name, start, end) kept in memory; hot leaf calls are only
aggregated into count, total and self time so the trace stays small.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

SPAN = True
AGG = False

# (module, attribute, metric name, records spans).  Two attributes may share
# a metric name; their calls are then counted together.
TARGETS = [
    ("cli", "main", "cli.main", SPAN),
    ("survey", "classify", "survey.classify", SPAN),
    ("survey", "witness_search", "survey.witness_search", SPAN),
    ("survey", "verify_membership_sample", "survey.verify_membership_sample", SPAN),
    ("survey", "load_published_failing", "survey.load_published", AGG),
    ("survey", "load_published_sieve", "survey.load_published", AGG),
    ("ntheory", "factor_prime_power_order", "ntheory.factor_prime_power_order", SPAN),
    ("ntheory", "factorize", "ntheory.factorize", AGG),
    ("ntheory", "is_prime", "ntheory.is_prime", AGG),
    ("ntheory", "primes_upto", "ntheory.primes_upto", AGG),
    ("ntheory", "FactorCache._load", "ntheory.cache.load", AGG),
    ("ntheory", "FactorCache.get", "ntheory.cache.get", AGG),
    ("ntheory", "FactorCache.put", "ntheory.cache.put", AGG),
    ("bounds", "check_thm31", "bounds.check_thm31", AGG),
    ("bounds", "find_sieve_params", "bounds.find_sieve_params", SPAN),
    ("bounds", "check_thm34", "bounds.check_thm34", AGG),
    ("ffield", "make_field", "ffield.make_field", SPAN),
    ("ffield", "FieldCtx.mul", "ffield.mul", AGG),
    ("ffield", "FieldCtx.pow", "ffield.pow", AGG),
    ("ffield", "FieldCtx.add", "ffield.add", AGG),
    ("ffield", "FieldCtx.inv", "ffield.inv", AGG),
    ("ffield", "FieldCtx.trace_rel", "ffield.trace_rel", AGG),
    ("ffield", "FieldCtx.element_order", "ffield.element_order", AGG),
    ("ffield", "FieldCtx.from_index", "ffield.from_index", AGG),
    ("ratfunc", "eval_rational", "ratfunc.eval_rational", AGG),
    ("ratfunc", "is_irreducible", "ratfunc.is_irreducible", AGG),
    ("ratfunc", "sample_rational", "ratfunc.sample_rational", AGG),
    ("ratfunc", "zero_pole_set", "ratfunc.zero_pole_set", AGG),
    ("charsum", "rho_indicator", "charsum.rho_indicator", AGG),
    ("charsum", "tau_indicator", "charsum.tau_indicator", AGG),
    ("charsum", "count_A_direct", "charsum.count_A_direct", SPAN),
    ("charsum", "char_sum_chi", "charsum.char_sum_chi", SPAN),
    ("charsum", "verify_lemma32", "charsum.verify_lemma32", SPAN),
    ("charsum", "verify_lemma33", "charsum.verify_lemma33", SPAN),
]

ROOT_NAME = "bench.op"

# Per-layer metrics reported by a traced run, in output order, with units.
# ``trace_overhead`` is added by run.py, which alone sees both runs.
_CALLS_SELF = [
    "ntheory.primes_upto", "ntheory.factorize", "ntheory.is_prime",
    "bounds.check_thm31", "bounds.check_thm34",
    "survey.load_published",
    "ffield.mul", "ffield.pow", "ffield.add", "ffield.inv",
    "ffield.trace_rel", "ffield.element_order", "ffield.from_index",
    "ratfunc.eval_rational", "ratfunc.is_irreducible",
    "ratfunc.sample_rational", "ratfunc.zero_pole_set",
    "charsum.rho_indicator", "charsum.tau_indicator",
    "charsum.count_A_direct", "charsum.char_sum_chi",
    "charsum.verify_lemma32", "charsum.verify_lemma33",
    "cli.main",
]
_CALLS_TOTAL = [
    "ntheory.factor_prime_power_order", "bounds.find_sieve_params",
    "ffield.make_field",
]
_CALLS_QUANTILES = ["survey.classify", "survey.witness_search"]

PER_LAYER_UNITS: dict[str, str] = {}
for _n in _CALLS_SELF:
    PER_LAYER_UNITS[_n + ".calls"] = "count"
    PER_LAYER_UNITS[_n + ".self_s"] = "s"
for _n in _CALLS_TOTAL:
    PER_LAYER_UNITS[_n + ".calls"] = "count"
    PER_LAYER_UNITS[_n + ".total_s"] = "s"
for _n in _CALLS_QUANTILES:
    PER_LAYER_UNITS[_n + ".calls"] = "count"
    PER_LAYER_UNITS[_n + ".p50_ms"] = "ms"
    PER_LAYER_UNITS[_n + ".p99_ms"] = "ms"
PER_LAYER_UNITS.update({
    "survey.verify_membership_sample.total_s": "s",
    "ntheory.cache.hits": "count",
    "ntheory.cache.misses": "count",
    "ntheory.cache.hit_ratio": "ratio",
    "ntheory.cache.load_s": "s",
    "ntheory.cache.appends": "count",
    "ntheory.cache.bytes_written": "bytes",
    "bounds.subsets_per_search": "ratio",
    "cli.stdout_bytes": "bytes",
    "trace.self_coverage": "ratio",
})


class Stat:
    """Aggregate of one metric name: calls, self time, and total time of
    outermost calls (a recursive call is not counted twice)."""

    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []          # (id, parent, op, name, start, end)
        self.op_id = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_appends = 0
        self.cache_bytes = 0
        # child-time accumulator of each open frame; [0] is outside all frames
        self._frames = [0.0]
        self._span_stack = [None]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, span=False):
        """Return ``fn`` timed as a frame under ``name``."""
        stat = self.stats.setdefault(name, Stat())
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames.append(0.0)
            stat.depth += 1
            if span:
                tracer._next_span += 1
                sid = tracer._next_span
                parent = span_stack[-1]
                span_stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                frames[-2] += dur
                stat.self_s += dur - frames.pop()
                stat.calls += 1
                stat.depth -= 1
                if not stat.depth:
                    stat.total_s += dur
                if span:
                    span_stack.pop()
                    spans.append((sid, parent, tracer.op_id, name, start, end))

        return traced

    def root(self, op_id, fn):
        """The benchmark's own span around one operation."""
        wrapped = self.wrap(ROOT_NAME, fn, span=SPAN)

        def run():
            self.op_id = op_id
            return wrapped()
        return run

    # -- installation

    def install(self):
        for module, attr, name, span in TARGETS:
            mod = importlib.import_module("primpair." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, self._counted(attr, orig), span))
            else:
                orig = getattr(mod, attr)
                wrapper = self.wrap(name, orig, span)
                for other in _primpair_modules():
                    for key in [k for k, v in vars(other).items() if v is orig]:
                        self._set(other, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def _set(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _counted(self, attr, orig):
        """Cache methods also count useful lookups and bytes appended."""
        if attr == "FactorCache.get":
            def get(cache, n):
                hit = orig(cache, n)
                if hit is not None and hit.complete:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
                return hit
            return get
        if attr == "FactorCache.put":
            def put(cache, fac):
                before = _size(cache.path)
                orig(cache, fac)
                grown = _size(cache.path) - before
                if grown > 0:
                    self.cache_appends += 1
                    self.cache_bytes += grown
            return put
        return orig

    # -- results

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def durations_ms(self, name) -> list[float]:
        return [(end - start) * 1e3 for _, _, _, n, start, end in self.spans
                if n == name]

    def layer_metrics(self, wall_s: float, stdout_bytes: int) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER_UNITS except trace_overhead."""
        def stat(name):
            return self.stats.get(name) or Stat()

        out: dict[str, float] = {}
        for name in _CALLS_SELF:
            out[name + ".calls"] = stat(name).calls
            out[name + ".self_s"] = stat(name).self_s
        for name in _CALLS_TOTAL:
            out[name + ".calls"] = stat(name).calls
            out[name + ".total_s"] = stat(name).total_s
        for name in _CALLS_QUANTILES:
            ms = self.durations_ms(name)
            out[name + ".calls"] = stat(name).calls
            out[name + ".p50_ms"] = statistics.median(ms) if ms else 0.0
            out[name + ".p99_ms"] = percentile(ms, 99)
        attempts = self.cache_hits + self.cache_misses
        searches = stat("bounds.find_sieve_params").calls
        out.update({
            "survey.verify_membership_sample.total_s":
                stat("survey.verify_membership_sample").total_s,
            "ntheory.cache.hits": self.cache_hits,
            "ntheory.cache.misses": self.cache_misses,
            "ntheory.cache.hit_ratio": self.cache_hits / attempts if attempts else 0.0,
            "ntheory.cache.load_s": stat("ntheory.cache.load").total_s,
            "ntheory.cache.appends": self.cache_appends,
            "ntheory.cache.bytes_written": self.cache_bytes,
            "bounds.subsets_per_search":
                stat("bounds.check_thm34").calls / searches if searches else 0.0,
            "cli.stdout_bytes": stdout_bytes,
            "trace.self_coverage": self.self_total() / wall_s if wall_s else 0.0,
        })
        return out

    def top_self(self, n=12) -> list[tuple[str, int, float]]:
        rows = [(name, s.calls, s.self_s) for name, s in self.stats.items()]
        return sorted(rows, key=lambda r: -r[2])[:n]


def percentile(values, pct) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _primpair_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "primpair" or name.startswith("primpair."))]

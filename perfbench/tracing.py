"""Per-layer tracing from outside the library.

The tracer replaces the names through which one quadmod module calls
another layer (for example `block_diagonalize` as bound in `counting`,
`sampling` and `cli`) with wrappers that record a span: name, start,
end, parent span and operation id.  Spans stay in memory until the run
ends.  A layer's self time is its span minus its child spans.

`split_class_size` runs millions of times per deep count, so it is only
counted, in a second pass with no spans, so that the wrapper's cost
stays out of the layer times.
"""

from __future__ import annotations

import functools
import json
import random
import time
from collections import Counter

# (module, attribute, span name); module names are relative to quadmod.
SPAN_POINTS = [
    ("counting", "block_diagonalize", "blockdiag"),
    ("sampling", "block_diagonalize", "blockdiag"),
    ("cli", "block_diagonalize", "blockdiag"),
    ("counting", "chain_tables", "tables"),
    ("sampling", "chain_tables", "tables"),
    ("cli", "count_form", "count"),
    ("cli", "count_composite", "count"),
    ("cli", "local_density", "count"),
    ("sampling", "sample_form", "sampler"),
    ("cli", "sample_form", "sampler"),
    ("cli", "sample_composite", "sampler"),
    ("sampling", "lift_sqrt_odd", "sqrt"),
    ("sampling", "sqrt_unit_mod_2k", "sqrt"),
    ("sqroots", "sqrt_unit_mod_p", "sqrt"),
    ("cli", "solutions_mod", "oracle"),
    ("cli", "chi_square_uniform", "oracle"),
    ("cli", "parse_instance", "cli.parse"),
    ("cli", "run", "cli.run"),
]

# Spans the benchmark opens around its own calls into the public API.
API_SPANS = {
    "count_form": "count",
    "count_composite": "count",
    "local_density": "count",
    "sample_form": "sampler",
    "sample_composite": "sampler",
}

PRIME_TEST_POINTS = [("modring", "is_probable_prime"), ("cli", "is_probable_prime")]
SPLIT_POINTS = [("counting", "split_class_size"), ("sampling", "split_class_size")]


class CountingRandom(random.Random):
    """random.Random that counts randrange calls over all its instances;
    the transcript is unchanged."""

    draws = 0

    def randrange(self, *args, **kwargs):
        CountingRandom.draws += 1
        return super().randrange(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self._patched: list = []

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def counter(self, name: str, fn, nonzero: str | None = None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if nonzero and out:
                counts[nonzero] += 1
            return out

        return wrapper

    def patch(self, module, attr: str, wrapper_for) -> None:
        if hasattr(module, attr):
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper_for(original))

    def install_spans(self, modules: dict) -> None:
        for mod, attr, name in SPAN_POINTS:
            if mod in modules:
                self.patch(modules[mod], attr, functools.partial(self.span, name))
        for mod, attr in PRIME_TEST_POINTS:
            if mod in modules:
                self.patch(modules[mod], attr, functools.partial(self.counter, "prime_tests"))

    def install_split_counters(self, modules: dict) -> None:
        for mod, attr in SPLIT_POINTS:
            if mod in modules:
                self.patch(modules[mod], attr, lambda fn: self.counter("split_calls", fn, "split_nonzero"))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def layer_times(self, start: int = 0) -> tuple[Counter, Counter]:
        """Nanoseconds and calls per layer over the spans from `start` on:
        blockdiag, tables, sqrt (outermost spans of each), sampler walk
        (outermost sampler spans minus their blockdiag and tables
        descendants), cli.parse, and cli.run self time."""
        spans = self.spans
        out = Counter()
        calls = Counter()
        for i in range(start, len(spans)):
            name, begin, end, parent, _ = spans[i]
            dur = end - begin
            calls[name] += 1
            ancestors = []
            a = parent
            while a != -1:
                ancestors.append(spans[a][0])
                a = spans[a][3]
            if name in ("blockdiag", "tables", "cli.parse") and name not in ancestors:
                out[name] += dur
            elif name == "sqrt" and "sqrt" not in ancestors:
                out["sqrt"] += dur
            if name in ("blockdiag", "tables") and "sampler" in ancestors and name not in ancestors:
                out["sampler_inner"] += dur
            if name == "sampler" and "sampler" not in ancestors:
                out["sampler"] += dur
            if parent != -1 and spans[parent][0] == "cli.run":
                out["cli.run_children"] += dur
            if name == "cli.run":
                out["cli.run"] += dur
        out["walk"] = out["sampler"] - out["sampler_inner"]
        out["cli.run_self"] = out["cli.run"] - out["cli.run_children"]
        return out, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def cache_entries(symbols_module) -> int:
    """Entries held by the lru caches of the symbols module."""
    total = 0
    for value in vars(symbols_module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            total += info().currsize
    return total

"""Span tracing installed from outside the package, and its reduction.

`Tracer.install` replaces each listed public function with a wrapper that
records a span (name, start, end, parent, run id) and returns exactly what
the wrapped call returns. The wrapper is put wherever callers look the name
up: every loaded `torusgraphs` module that holds the original function
object gets the wrapper in its place. Spans stay in memory until
`write_jsonl` is called at the end of a pass.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc

PACKAGE = "torusgraphs"


def replace_everywhere(original, replacement):
    """Point every loaded package-module attribute that is `original` at
    `replacement`; returns how many attributes were replaced."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def _peak_mb_start():
    if tracemalloc.is_tracing():
        return False  # an enclosing call owns the measurement
    tracemalloc.start()
    return True


def _peak_mb_stop():
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


class Tracer:
    """Records spans for the functions it wraps; one instance per pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, counters=None, memory=False):
        """Wrap fn. `counters(bound_args, result)` returns extra span fields;
        `memory` records the call's tracemalloc peak as `peak_mb`."""
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "error": False,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            owns_memory = memory and _peak_mb_start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if owns_memory:
                    span["peak_mb"] = _peak_mb_stop()
            if counters:
                try:
                    span.update(counters(signature.bind(*args, **kwargs).arguments, result))
                except (KeyError, AttributeError, TypeError):
                    # a renamed parameter or result field: count it, keep going
                    span["counter_errors"] = 1
            return result

        return wrapper

    def install(self, targets):
        """Wrap each (span name, owner, attribute, counters, memory) target.

        `owner` is a module or class; a missing attribute is skipped, so the
        benchmark keeps running when a later version drops a function.
        Returns the span names that were installed.
        """
        installed = []
        for name, owner, attr, counters, memory in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, counters, memory)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            else:
                replace_everywhere(original, wrapper)
            installed.append(name)
        return installed

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans):
    """Span id -> duration minus the durations of its direct children.

    Wrapped calls run on one thread, so children never overlap and the part
    of a span's interval they cover is the sum of their durations.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + (s["end"] - s["start"])
    return {(s["run"], s["id"]): (s["end"] - s["start"]) - child_time.get((s["run"], s["id"]), 0.0)
            for s in spans}


class SpanStats:
    """Per-name totals over a list of spans: calls, s, self_s, errors and
    the sums (or, for peak_mb, the maximum) of counter fields."""

    _BASE = {"run", "id", "parent", "name", "error", "start", "end"}

    def __init__(self, spans):
        selfs = self_times(spans)
        self.by_name = {}
        self.root_s = 0.0
        for s in spans:
            duration = s["end"] - s["start"]
            if s["parent"] is None:
                self.root_s += duration
            entry = self.by_name.setdefault(
                s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0, "seeds": set()})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += selfs[(s["run"], s["id"])]
            entry["errors"] += int(s["error"])
            for key, value in s.items():
                if key in self._BASE:
                    continue
                if key == "seed":
                    entry["seeds"].add(value)
                elif key == "peak_mb":
                    entry[key] = max(entry.get(key, 0.0), value)
                else:
                    entry[key] = entry.get(key, 0) + value

    def get(self, name, field):
        return self.by_name.get(name, {}).get(field, 0)

    def layer_self_s(self, layer):
        return sum(e["self_s"] for n, e in self.by_name.items() if n.split(".", 1)[0] == layer)

    def distinct_seeds(self, name):
        return len(self.by_name.get(name, {}).get("seeds", ()))

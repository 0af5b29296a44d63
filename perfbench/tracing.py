"""Spans around uarank's public functions, recorded from outside the library.

`Tracer.install` rebinds every public function of the traced modules in each
module namespace that binds it (so `uarank.audit.ua_rank` and
`uarank.rankers.ua_rank` both record), and wraps the constructors of the two
validated value types. Spans stay in memory; the runner writes them out when
it ends. A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "uarank"
MODULES = ("cli", "io", "types", "rankers", "metrics", "audit")
CONSTRUCTORS = ("PredictionMatrix", "RankingDistribution")
AUDIT_LOOPS = ("audit.theorem_gap_exact", "audit.theorem_gap_estimate")


def _ua_requests(fn: str, count: int) -> int:
    """UA matrices an audit asks for: one under the truth and one under the predictor per dataset."""
    return 2 * count if fn in ("ua", "mix") else 0


# Work counts per span, read from the call's arguments and result.
COUNTERS = {
    "rankers.ua_rank": lambda a, r: {"tasks": int(np.count_nonzero(a["P"].rows))},
    "audit.theorem_gap_exact": lambda a, r: {
        "tvecs": a["pop"].T ** a["n"],
        "ua_requests": _ua_requests(a["fn"], int(np.count_nonzero(a["pop"].weights)) ** a["n"]),
    },
    "audit.theorem_gap_estimate": lambda a, r: {
        "samples": a["mc_samples"],
        "ua_requests": _ua_requests(a["fn"], a["mc_samples"]),
    },
    "io.serialize_structured": lambda a, r: {"bytes": len(r.encode())},
}


class Tracer:
    def __init__(self):
        self.call_id = 0  # set by the runner before each CLI call
        self.spans = []  # [name, start, end, parent index, call id, counts]
        self._stack = []
        self._patches = []
        self._warned = set()
        self.count_s = 0.0  # time spent reading work counts, part of the tracing overhead

    def install(self) -> None:
        wrappers = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                    wrappers[obj] = self._wrap(name, obj)
                self._patch(mod, attr, wrappers[obj])
        types = importlib.import_module(f"{PACKAGE}.types")
        for cls_name in CONSTRUCTORS:
            cls = getattr(types, cls_name)
            self._patch(cls, "__init__", self._wrap(f"types.{cls_name}", cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def take(self):
        """This pass's spans and the time spent counting work; resets both."""
        spans, count_s = self.spans, self.count_s
        self.spans, self.count_s = [], 0.0
        return spans, count_s

    def span_cost(self, reps: int = 20000) -> float:
        """Seconds one span adds to a call, from a no-op function with and without a wrapper."""
        def noop():
            pass

        wrapped = self._wrap("calibrate", noop)
        t0 = perf_counter()
        for _ in range(reps):
            noop()
        t1 = perf_counter()
        for _ in range(reps):
            wrapped()
        t2 = perf_counter()
        self.spans.clear()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / reps)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter:
                t = perf_counter()
                span[5] = self._count(name, counter, sig, args, kwargs, result)
                self.count_s += perf_counter() - t
            return result

        return traced

    def _count(self, name, counter, sig, args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return counter(bound.arguments, result)
        except (KeyError, TypeError, AttributeError) as exc:
            if name not in self._warned:
                self._warned.add(name)
                print(f"warning: no work count for {name}: {exc!r}", file=sys.stderr)
            return None


def aggregate(spans: list) -> dict:
    """Self time, calls and work counts per span name, for one pass's spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s, calls = defaultdict(float), defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    ua_from_audit = 0
    for i, (name, t0, t1, parent, _, cnt) in enumerate(spans):
        self_s[name] += t1 - t0 - child[i]
        calls[name] += 1
        for key, v in (cnt or {}).items():
            counts[name][key] += v
        if name == "rankers.ua_rank" and parent >= 0 and spans[parent][0] in AUDIT_LOOPS:
            ua_from_audit += 1
    return {"self_s": self_s, "calls": calls, "counts": counts, "ua_from_audit": ua_from_audit}


def dump(path, passes: list) -> None:
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for name, t0, t1, parent, call, cnt in spans:
                fh.write(json.dumps({"pass": p, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "call": call, "counts": cnt}) + "\n")

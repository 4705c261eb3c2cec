"""Spans around calls into lrcommute's public names, installed from outside.

Modules bind names with ``from .x import y``, so a wrapper must replace the
name in every module namespace that holds it, not only where it is defined.
``Tracer.install`` does that for each target below, and for the values of
the ``verify.CHECKS`` table.

Each span records (name, start, end, parent) in flat in-memory arrays, which
``write`` dumps at exit.  Self time is computed online: a span's duration
minus the durations of its direct child spans (one thread, so children are
disjoint and nested inside their parent).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name, counter hook).  A hook receives the call's
# arguments and result and returns {counter: increment}.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_tableau", "cli.parse_tableau", None),
    ("cli", "_emit_pair", "cli.emit", None),
    ("cli", "emit_tableau", "cli.emit", None),
    ("commutor", "rho1_switching", "commutor.rho1_switching", None),
    ("commutor", "switching", "commutor.switching", None),
    ("commutor", "rho1_internal", "commutor.rho1_internal",
     lambda a, k, r: {"commutor.appends": sum(a[0].skew.inner)}),
    ("commutor", "rho1_scratch", "commutor.rho1_scratch",
     lambda a, k, r: {"commutor.appends": sum(a[0].skew.inner)}),
    ("commutor", "staged_decomposition", "commutor.staged_decomposition", None),
    ("insertion", "internal_insert", "insertion.internal_insert",
     lambda a, k, r: {"insertion.route_cells": len(r[1].route)}),
    ("insertion", "apply_order_word", "insertion.apply_order_word", None),
    ("insertion", "skew_rsk_inverse", "insertion.skew_rsk_inverse", None),
    ("insertion", "lr_violation", "insertion.lr_violation", None),
    ("tableaux", "enumerate_ballot", "tableaux.enumerate_ballot",
     lambda a, k, r: {"tableaux.enumerate_ballot.results": len(r)}),
    ("tableaux", "enumerate_ssyt", "tableaux.enumerate_ssyt",
     lambda a, k, r: {"tableaux.enumerate_ssyt.results": len(r)}),
    ("knuth", "p_tableau_rows", "knuth.p_tableau_rows", None),
    ("knuth", "knuth_class", "knuth.knuth_class",
     lambda a, k, r: {"knuth.knuth_class.words": len(r)}),
    ("schur", "lr_coefficient", "schur.lr_coefficient", None),
    ("schur", "schur_polynomial", "schur.schur_polynomial", None),
    ("schur", "poly_mul", "schur.poly_mul",
     lambda a, k, r: {"schur.poly_mul.term_products": len(a[0]) * len(a[1])}),
    ("golden", "run_golden", "golden.run_golden", None),
]

CHECK_FUNCTIONS = {
    "involution": "check_involution",
    "coincidence": "check_coincidence",
    "recursion": "check_recursion",
    "confluence": "check_confluence",
    "knuth-commutativity": "check_knuth_commutativity",
    "route-geometry": "check_route_geometry",
    "skew-rsk": "check_skew_rsk",
    "lr-oracle": "check_lr_oracle",
}

MODULES = ("cli", "commutor", "insertion", "tableaux", "knuth", "schur",
           "verify", "golden")
MAX_SPANS = 2_000_000  # stored per process; later spans still count in totals


class Tracer:
    """Span recorder.  Create one per process and ``install`` it once (the
    wrappers stay for the life of the process), then read ``summary`` or
    ``write`` the spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []  # [name id, start, child time, index]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
        return i

    def _enter(self, name_id: int) -> list:
        index = len(self.span_name)
        if index < MAX_SPANS:
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
            index = -1
        frame = [name_id, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name_id, start, child, index = frame
        self._stack.pop()
        duration = end - start
        name = self.names[name_id]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    def count(self, counts: dict) -> None:
        for key, n in counts.items():
            self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, fn, name: str, hook):
        name_id = self._id(name)
        enter, exit_, count = self._enter, self._exit, self.count

        def wrapper(*args, **kwargs):
            frame = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counts = {"trace.hook_errors": 1}  # the API has changed
                count(counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_switching(self, fn):
        """Count switches through switching's public ``on_frame`` hook."""
        inner = self._wrap(fn, "commutor.switching", None)
        counters = self.counters

        def switching(u, v, strategy="greedy", seed=0, on_frame=None):
            def counting(site, cells):
                counters["commutor.switches"] = counters.get("commutor.switches", 0) + 1
                if on_frame is not None:
                    on_frame(site, cells)
            return inner(u, v, strategy=strategy, seed=seed, on_frame=counting)

        return switching

    def _replace(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "lrcommute" and not modname.startswith("lrcommute."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lrcommute.{m}") for m in MODULES}
        tableaux, verify = mods["tableaux"], mods["verify"]
        for modname, attr, name, hook in TARGETS:
            original = getattr(mods[modname], attr, None)
            if original is None:
                continue  # a later version may have renamed or removed it
            if attr == "switching":
                self._replace(original, self._wrap_switching(original))
            else:
                self._replace(original, self._wrap(original, name, hook))
        for check, attr in CHECK_FUNCTIONS.items():
            original = getattr(verify, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, f"verify.{check}", None)
            self._replace(original, wrapped)
            for key, value in verify.CHECKS.items():
                if value is original:
                    verify.CHECKS[key] = wrapped
        self._wrap_init(tableaux.SkewTableau)

    def _wrap_init(self, cls) -> None:
        """Span ``__init__``; count validated tableaux and their cells."""
        original = cls.__init__
        name_id = self._id("tableaux.SkewTableau")
        enter, exit_, counters = self._enter, self._exit, self.counters

        def __init__(obj, outer, inner, rows, check=True):
            frame = enter(name_id)
            try:
                original(obj, outer, inner, rows, check)
            finally:
                exit_(frame)
            if check:
                counters["tableaux.SkewTableau.validated"] = (
                    counters.get("tableaux.SkewTableau.validated", 0) + 1)
                counters["tableaux.SkewTableau.validated_cells"] = (
                    counters.get("tableaux.SkewTableau.validated_cells", 0)
                    + sum(obj.outer) - sum(obj.inner))

        cls.__init__ = __init__

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counters": dict(self.counters),
                "spans": len(self.span_name), "dropped": self.dropped}

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.span_name),
                      "dropped": self.dropped,
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counters": {},
           "spans": 0, "dropped": 0}
    for s in summaries:
        for key in ("calls", "self_s", "total_s", "counters"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["spans"] += s["spans"]
        out["dropped"] += s["dropped"]
    return out

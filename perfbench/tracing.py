"""Span tracing around the package's public functions, installed from outside.

`ledger` and `network_sim` bind functions such as `sign`, `crp_audit`,
`build_tree`, `mine_block` and `pow_search` by name when they are
imported, so wrapping a function only where it is defined would miss
most calls.  `Tracer.install` replaces the function object in every
`chipchain.*` namespace that holds it.

A span is recorded only while `Tracer.op` names an op.  Spans stay in
memory as `[label, start, end, parent, op, value, kind]` lists and are written
out once, by `write`, when the run ends.  A label is the defining module
(without a leading underscore) plus the function name, for example
`identity.sign` or `pow.pow_search`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import chipchain

# Public names to trace.  A few spans also keep one value from the call:
# "sum" values are added up per label, "distinct" values are counted
# once per op.
_TRACED = {
    "new_chip": None,
    "extract_prn": None,
    "collision_report": None,
    "respond": None,
    "derive_keypair": ("distinct", lambda args, kwargs, pair: (
        (args[0] if args else kwargs["response"]).data, pair.modulus_bits)),
    "sign": None,
    "verify": None,
    "crp_audit": None,
    "build_tree": None,
    "replace_chip": ("sum", lambda args, kwargs, result: len(result[1])),
    "rotate_state_reproduce": None,
    "verify_tree": None,
    "mine_block": None,
    "verify_chain": None,
    "pow_search": ("sum", lambda args, kwargs, result: result[2] if result else 0),
    "run_scenario": None,
}


class TraceBlind(Exception):
    """The trace cannot see a function it is expected to see."""


def label_of(function) -> str:
    module = function.__module__.rpartition(".")[2].lstrip("_")
    return f"{module}.{function.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "chipchain" or name.startswith("chipchain.")]
        for name, keep in _TRACED.items():
            original = getattr(chipchain, name, None)
            if not callable(original):
                raise TraceBlind(f"chipchain.{name} is not a public function")
            wrapper = self._wrap(label_of(original), original, keep)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, label, function, keep):
        kind, extract = keep or (None, None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if self.op is None:
                return function(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    None, kind]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-label totals: calls, self time in seconds, and extras."""
        covered = [0.0] * len(self.spans)
        for label, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, dict] = {}
        distinct: dict[tuple[str, int], set] = {}
        for index, span in enumerate(self.spans):
            label, start, end, parent, op, extra, kind = span
            entry = totals.setdefault(label, {"calls": 0, "self_s": 0.0,
                                              "sum": 0, "distinct": 0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[index]
            if kind == "sum":
                entry["sum"] += extra
            elif kind == "distinct":
                distinct.setdefault((label, op), set()).add(extra)
        for (label, _op), keys in distinct.items():
            totals[label]["distinct"] += len(keys)
        return totals

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, op (times in s)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for label, start, end, parent, op, *_ in self.spans:
                fh.write(json.dumps([label, start, end, parent, op]) + "\n")

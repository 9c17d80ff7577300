"""Spans and counters recorded from outside the program.

`Tracer.install` replaces each listed public function of `ltcforge` by a
wrapper that records a span (name, start, end, parent) and, for some
functions, deterministic counters.  Callers often hold their own reference
(`from .testers import soundness_exact`), so the wrapper is bound under
every name in every `ltcforge` module that holds the original object.
Spans stay in memory; `self_seconds` turns them into per-function self
time, i.e. span time minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_exact(counts, args, kwargs, out):
    tester, code = _arg(args, kwargs, 0, "tester"), _arg(args, kwargs, 1, "code")
    total = tester.alphabet.size ** tester.n
    if len(code.codewords) < total:  # a code filling the space is not scanned
        counts["testers.soundness_exact.words"] += total
        counts["testers.soundness_exact.check_evals"] += total * len(tester.checks)


def _count_sampled(counts, args, kwargs, out):
    counts["testers.soundness_sampled.trials"] += _arg(args, kwargs, 2, "trials")


def _checks_out(name):
    def count(counts, args, kwargs, out):
        counts[name + ".checks_out"] += len(out.checks)

    return count


def _count_dumps(counts, args, kwargs, out):
    counts["serialize.bytes_written"] += len(out.encode("utf-8"))


# (module, function, counter or None); the layers are the package modules.
TARGETS = [
    ("testers", "soundness_exact", _count_exact),
    ("testers", "soundness_sampled", _count_sampled),
    ("testers", "validate", None),
    ("testers", "classify_linear", None),
    ("constructions", "dependence_tester", _checks_out("constructions.dependence_tester")),
    ("constructions", "generalized_long_code", None),
    ("constructions", "generalized_hadamard", None),
    ("constructions", "critical_family", None),
    ("separability", "separable_replacement", None),
    ("separability", "linear_separable_replacement", None),
    ("separability", "check_separable", None),
    ("separability", "check_linearly_separable", None),
    ("separability", "compatibility_encoder", None),
    ("separability", "witness_from_certificate", None),
    ("separability", "extend_compatibility", None),
    ("concat", "concatenate", None),
    ("concat", "concat_tester", _checks_out("concat.concat_tester")),
    ("concat", "alphabet_increase_tester", _checks_out("concat.alphabet_increase_tester")),
    ("concat", "embed_code", None),
    ("codes", "distance", None),
    ("codes", "rate", None),
    ("codes", "is_linear_code", None),
    ("pipeline", "linear_reduction", None),
    ("pipeline", "general_reduction", None),
    ("pipeline", "semilinear_reduction", None),
    ("pipeline", "certify", None),
    ("serialize", "report_to_json", None),
    ("serialize", "tester_to_json", None),
    ("serialize", "code_to_json", None),
    ("serialize", "dumps", _count_dumps),
    ("serialize", "tester_from_json", None),
    ("serialize", "code_from_json", None),
    ("cli", "main", None),
]

LAYERS = sorted({module for module, _, _ in TARGETS})
SPAN_NAMES = [f"{module}.{name}" for module, name, _ in TARGETS]
COUNTER_NAMES = [
    "testers.soundness_exact.words",
    "testers.soundness_exact.check_evals",
    "testers.soundness_sampled.trials",
    "constructions.dependence_tester.checks_out",
    "concat.concat_tester.checks_out",
    "concat.alphabet_increase_tester.checks_out",
    "serialize.bytes_written",
    "serialize.bytes_read",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ltcforge" or key.startswith("ltcforge."))]
        for module_name, fn_name, counter in TARGETS:
            home = sys.modules[f"ltcforge.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def snapshot(self) -> tuple[int, dict[str, int]]:
        """Span count and counters so far; the bounds of one iteration."""
        return len(self.spans), dict(self.counts)

    def self_seconds(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans[first:last] (closed spans)."""
        child = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            own[name] += end - start - child[i]
        return own

    def calls(self, first: int, last: int) -> dict[str, int]:
        out = defaultdict(int)
        for name, _, _, _ in self.spans[first:last]:
            out[name] += 1
        return out

"""Span tracer that wraps the library's layer entry points from outside.

Each wrapped function is replaced, for the duration of a traced pass, under
the name its callers look it up by (``itereq.charpoly.all_roots`` is what
``analyze_roots`` calls; ``itereq._kernels.dk_sweeps`` is what ``all_roots``
calls).  A span records its name, start, end, parent span, op id, whether it
raised, and an optional count taken from the return value.  Spans stay in
memory; ``aggregate`` turns them into per-layer metrics at the end.  The
metrics of ``itereq._kernels`` are named ``kernels.*``: a metric name
starts with a letter or a digit.

Very hot leaves (``kernels.horner``, ``recurrence.predict``) are counted
only, without a span, to keep the tracing cost down.

Which end-to-end metric each layer metric should move, and where:

* ``kernels.dk_sweeps.*``, ``poly.all_roots.*``: ops_per_s, op_ms_p90 and
  the failure count on roots; a little on fit; nothing on verify.
* ``kernels.bisect_loop.*``, ``kernels.horner.calls``, ``poly.bisect_root.*``,
  ``poly.newton_polish.s``, ``poly.deflate.*``: op_ms_p50 on roots.
* ``charpoly.*``: one analyze_roots per op on roots (a cache cannot move
  it); on fit and verify, fewer calls per op if root reports are shared,
  and ops_per_s up.
* ``recurrence.*``: ops_per_s and op_ms_p50 on fit; nothing elsewhere.
* ``verify.*`` and ``families.eval.*``: ops_per_s and op_ms_p90 on verify
  (``verify.points_*`` also peak_rss_mb); ``verify.iterate`` op_ms_p50 on fit.
* ``families.enumerate_families.*``: setup_s, and ops_per_s on fit and
  verify; ``families.build_involution.*``, ``families.conjugate.s``:
  op_ms_p90 on verify.
* ``means.qa_mean_rows.*``: ops_per_s on verify.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable

import mpmath

from itereq import _kernels, charpoly, families, recurrence, verify

_now = time.perf_counter


def _points(report) -> tuple[int, int]:
    return report.points_evaluated, report.points_escaped


# (owner, attribute, span name, count taken from the result)
SPANNED: tuple = (
    (_kernels, "dk_sweeps", "kernels.dk_sweeps", lambda res, args: res[2]),
    (_kernels, "bisect_loop", "kernels.bisect_loop", lambda res, args: res[3]),
    (charpoly, "all_roots", "poly.all_roots", None),
    (charpoly, "bisect_root", "poly.bisect_root", None),
    (charpoly, "newton_polish", "poly.newton_polish", None),
    (charpoly, "deflate", "poly.deflate", None),
    (charpoly, "analyze_roots", "charpoly.analyze_roots", None),
    (families, "analyze_roots", "charpoly.analyze_roots", None),
    (charpoly, "classify", "charpoly.classify", None),
    (charpoly, "report_matches_expectation", "charpoly.report_matches_expectation", None),
    (recurrence, "fit_closed_form", "recurrence.fit_closed_form", None),
    (mpmath, "lu_solve", "recurrence.lu_solve", None),  # looked up as recurrence.mp.lu_solve
    (recurrence, "prediction_error", "recurrence.prediction_error", None),
    (recurrence, "check_recurrence", "recurrence.check_recurrence", None),
    (verify, "verify_mean", "verify.verify_mean", lambda res, args: _points(res)),
    (verify, "verify_general", "verify.verify_general", lambda res, args: _points(res)),
    (verify, "verify_dual", "verify.verify_dual",
     lambda res, args: tuple(map(sum, zip(_points(res.primal), _points(res.dual))))),
    (verify, "verify_second_order", "verify.verify_second_order", lambda res, args: _points(res)),
    (verify, "iterate", "verify.iterate", None),
    (verify, "qa_mean_rows", "means.qa_mean_rows", None),
    (families, "enumerate_families", "families.enumerate_families", None),
    (families, "build_involution", "families.build_involution", None),
    (families, "conjugate", "families.conjugate", None),
)
COUNTED: tuple = (
    (_kernels, "horner", "kernels.horner"),
    (recurrence, "predict", "recurrence.predict"),
)
SOLUTION_CLASSES = (
    families.Identity, families.Translation, families.Affine,
    families.ThreePiece, families.Involution, families.Conjugate,
)
VERIFY_SPANS = frozenset({
    "verify.verify_mean", "verify.verify_general", "verify.verify_dual",
    "verify.verify_second_order", "verify.iterate",
})


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self) -> None:
        # span: [name, start, end, parent, op, raised, count]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _span(self, name: str, fn: Callable, count=None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = _now()
                stack.pop()
            if count is not None:
                rec[6] = count(res, args)
            return res

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _eval(self, fn: Callable) -> Callable:
        """``_eval_array`` as called by verify: a span only directly under a verify span."""
        spans, stack = self.spans, self._stack
        traced = self._span("families.eval", fn, lambda res, args: len(args[1]))

        def wrapper(sol, xs):
            if stack and spans[stack[-1]][0] in VERIFY_SPANS:
                return traced(sol, xs)
            return fn(sol, xs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name, count in SPANNED:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), count))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        for cls in SOLUTION_CLASSES:
            self._patch(cls, "_eval_array", self._eval(cls.__dict__["_eval_array"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def span_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "raised", "count")
        return [dict(zip(keys, s)) for s in self.spans]


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals: calls, inclusive seconds, self seconds, counts."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    failed: Counter = Counter()
    counted: Counter = Counter()
    points = [0, 0]
    for i, (name, start, end, parent, _, raised, count) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_time[i]
        failed[name] += raised
        if isinstance(count, tuple):  # grid points of a verify_* report
            if parent < 0 or spans[parent][0] not in VERIFY_SPANS:
                points[0] += count[0]
                points[1] += count[1]
        elif count is not None:
            counted[name] += count

    roots = [i for i, s in enumerate(spans) if s[0] == "poly.all_roots"]
    attempts = [sum(spans[c][0] == "kernels.dk_sweeps" for c in children[i]) for i in roots]
    first_try = sum(1 for i, a in zip(roots, attempts) if a == 1 and not spans[i][5])

    m = {
        "kernels.dk_sweeps.calls": calls["kernels.dk_sweeps"],
        "kernels.dk_sweeps.s": busy["kernels.dk_sweeps"],
        "kernels.dk_sweeps.sweeps": counted["kernels.dk_sweeps"],
        "kernels.bisect_loop.calls": calls["kernels.bisect_loop"],
        "kernels.bisect_loop.s": busy["kernels.bisect_loop"],
        "kernels.bisect_loop.iters": counted["kernels.bisect_loop"],
        "kernels.horner.calls": tracer.counts["kernels.horner"],
        "poly.all_roots.calls": calls["poly.all_roots"],
        "poly.all_roots.s": busy["poly.all_roots"],
        "poly.all_roots.self_s": own["poly.all_roots"],
        "poly.all_roots.attempts": sum(attempts),
        "poly.all_roots.first_try_frac": first_try / len(roots) if roots else 0.0,
        "poly.all_roots.failed": failed["poly.all_roots"],
        "poly.bisect_root.calls": calls["poly.bisect_root"],
        "poly.bisect_root.s": busy["poly.bisect_root"],
        "poly.newton_polish.s": busy["poly.newton_polish"],
        "poly.deflate.calls": calls["poly.deflate"],
        "poly.deflate.s": busy["poly.deflate"],
        "charpoly.analyze_roots.calls": calls["charpoly.analyze_roots"],
        "charpoly.analyze_roots.s": busy["charpoly.analyze_roots"],
        "charpoly.analyze_roots.self_s": own["charpoly.analyze_roots"],
        "charpoly.analyze_roots.failed": failed["charpoly.analyze_roots"],
        "charpoly.classify.s": busy["charpoly.classify"],
        "charpoly.report_matches_expectation.s": busy["charpoly.report_matches_expectation"],
        "recurrence.fit_closed_form.calls": calls["recurrence.fit_closed_form"],
        "recurrence.fit_closed_form.s": busy["recurrence.fit_closed_form"],
        "recurrence.fit_closed_form.self_s": own["recurrence.fit_closed_form"],
        "recurrence.fit_closed_form.failed": failed["recurrence.fit_closed_form"],
        "recurrence.lu_solve.s": busy["recurrence.lu_solve"],
        "recurrence.prediction_error.s": busy["recurrence.prediction_error"],
        "recurrence.predict.calls": tracer.counts["recurrence.predict"],
        "recurrence.check_recurrence.s": busy["recurrence.check_recurrence"],
    }
    for fn in ("verify_mean", "verify_general", "verify_dual", "verify_second_order", "iterate"):
        m[f"verify.{fn}.calls"] = calls[f"verify.{fn}"]
        m[f"verify.{fn}.s"] = busy[f"verify.{fn}"]
    m["verify.self_s"] = sum(own[name] for name in VERIFY_SPANS)
    m["verify.points_evaluated"], m["verify.points_escaped"] = points
    m.update({
        "families.eval.calls": calls["families.eval"],
        "families.eval.points": counted["families.eval"],
        "families.eval.s": busy["families.eval"],
        "families.enumerate_families.calls": calls["families.enumerate_families"],
        "families.enumerate_families.s": busy["families.enumerate_families"],
        "families.enumerate_families.self_s": own["families.enumerate_families"],
        "families.build_involution.calls": calls["families.build_involution"],
        "families.build_involution.s": busy["families.build_involution"],
        "families.conjugate.s": busy["families.conjugate"],
        "means.qa_mean_rows.calls": calls["means.qa_mean_rows"],
        "means.qa_mean_rows.s": busy["means.qa_mean_rows"],
    })
    return m

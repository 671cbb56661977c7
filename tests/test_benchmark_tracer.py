"""The benchmark's span tracer still fits the library.

``perfbench/tracer.py`` replaces library functions by the names their
callers look them up by, and reads counts off their results (the sweep
count in ``dk_sweeps``'s 3-tuple, the point counts of each verify report).
A rename or a changed return shape in the library would break only the
benchmark, so this installs the tracer and runs one small input through
each traced layer.
"""

import importlib.util
import math
import os

from itereq import charpoly, families, recurrence, verify
from itereq.intervals import Interval, REAL_LINE
from itereq.means import Generator

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_each_layer():
    """One root analysis, one fit and each ``verify_*``, called through the
    module attributes the tracer replaces."""
    prob = charpoly.CharProblem(3, 1)
    report = charpoly.analyze_roots(prob)
    charpoly.report_matches_expectation(report)
    slope = next(
        d.slope for d in families.enumerate_families(prob, REAL_LINE).families
        if d.family == "affine"
    )
    sol = families.Affine(REAL_LINE, slope, 1.0)

    orbit = verify.iterate(sol, 0.3, -5, 12)
    cf = recurrence.fit_closed_form(orbit, report, regime_of=sol)
    recurrence.prediction_error(cf, orbit, prob.n, 12)
    recurrence.check_recurrence(orbit, charpoly.build_char_poly(prob))

    verify.verify_mean(sol, prob, samples=101)
    verify.verify_dual(sol, charpoly.build_char_poly(prob), samples=101)
    gen = Generator("log", Interval(1.0, 4.0, True, True))
    geometric = families.conjugate(gen, families.Affine(gen.image(), -0.5, math.log(2.0)))
    verify.verify_general(geometric, gen, charpoly.CharProblem(2, 2), samples=101)
    inv = families.build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x)
    verify.verify_second_order(inv, -1.0, samples=101)


def test_tracer_wraps_every_layer_and_restores_it():
    tracing = _load_tracer()
    patched = [(owner, attr) for owner, attr, *_ in tracing.SPANNED + tracing.COUNTED]
    patched += [(cls, "_eval_array") for cls in tracing.SOLUTION_CLASSES]
    originals = [owner.__dict__[attr] for owner, attr in patched]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run_each_layer()
    finally:
        tracer.uninstall()

    for (owner, attr), original in zip(patched, originals):
        assert owner.__dict__[attr] is original, (owner, attr)
    names = {span[0] for span in tracer.spans}
    assert names >= {
        "charpoly.analyze_roots", "charpoly.report_matches_expectation",
        "poly.all_roots", "kernels.dk_sweeps",
        "recurrence.fit_closed_form", "recurrence.prediction_error",
        "recurrence.check_recurrence", "verify.iterate",
        "verify.verify_mean", "verify.verify_general", "verify.verify_dual",
        "verify.verify_second_order", "means.qa_mean_rows",
        "families.enumerate_families", "families.conjugate",
        "families.build_involution", "families.eval",
    }
    assert not any(span[5] for span in tracer.spans)  # no traced call raised
    metrics = tracing.aggregate(tracer)
    assert metrics["kernels.dk_sweeps.sweeps"] >= metrics["kernels.dk_sweeps.calls"] >= 1
    # 101 points for each of mean, general, second order and both dual runs
    evaluated, escaped = metrics["verify.points_evaluated"], metrics["verify.points_escaped"]
    assert evaluated + escaped == 5 * 101 and evaluated > 0

"""Smoke test of the pipeline benchmark at minimal input size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
for every workload, traced and untraced, and that the per-op gate reports a
deliberately perturbed output or construction as failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from itereq.poly import ComplexRoot  # noqa: E402
from itereq.recurrence import ClosedForm, RealTerm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_builders():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.BUILDERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_every_metric_printed_with_its_unit(workload, trace):
    out = run_benchmark(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_gate_rejects_a_perturbed_spectrum():
    n, k = 6, 1
    op = workloads.roots_op(n, k, workloads.companion_eigenvalues(workloads.char_coeffs(n, k)))
    report, verdict = op.call()
    assert op.check((report, verdict)) == workloads.OK
    z = report.complex_roots[0]
    # a small shift leaves an inaccurate root; a large one matches no root
    for shift, expected in ((1e-6, "fail"), (2.0, "wrong")):
        moved = (ComplexRoot(z.re + shift, z.im, z.multiplicity),) + report.complex_roots[1:]
        status, detail = op.check((dataclasses.replace(report, complex_roots=moved), verdict))
        assert status == expected, detail


def test_gate_rejects_a_perturbed_fit():
    specs = workloads.family_specs(np.random.default_rng(0), 4)
    spec = next(s for s in specs if (s.n, s.k, s.family) == (4, 1, "three_piece"))
    op = workloads.fit_op(spec)
    slope, orbit, cf, pred, rec = op.call()
    assert op.check((slope, orbit, cf, pred, rec)) == workloads.OK
    i = max(range(len(cf.real_terms)), key=lambda j: abs(cf.real_terms[j].coeffs[0]))
    t = cf.real_terms[i]
    bent = RealTerm(t.lam, tuple(c * (1.0 + 1e-6) for c in t.coeffs))
    cf_bad = ClosedForm(cf.real_terms[:i] + (bent,) + cf.real_terms[i + 1:], cf.complex_terms)
    status, detail = op.check((slope, orbit, cf_bad, pred, rec))
    assert status == "wrong", detail


def test_gate_rejects_a_perturbed_construction():
    rng = np.random.default_rng(0)
    spec = next(s for s in workloads.family_specs(rng, 4) if s.family == "three_piece")
    con = workloads.family_construction(spec)
    good = workloads.mean_op(rng, con, spec.n, spec.k, workloads.GRID_SMALL, True)
    assert good.check(good.call()) == workloads.OK
    # the library builds a slope off by 1e-3; the references still expect a pass
    con_bad = dataclasses.replace(con, build=lambda: spec.build(1e-3))
    bad = workloads.mean_op(rng, con_bad, spec.n, spec.k, workloads.GRID_SMALL, True)
    status, detail = bad.check(bad.call())
    assert status == "wrong", detail

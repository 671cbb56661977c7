"""Seeded workloads of the pipeline benchmark, with a correctness gate per op.

An op is one closed-loop call into the public API of ``itereq``.  Each op
carries a label (its input, printed with any failure), the library call that
is timed, and a gate that checks the call's output against references the
benchmark computes in set-up with its own NumPy code.

A gate returns ``(status, detail)``:

* ``"ok"``    -- the output agrees with the references;
* ``"fail"``  -- the library refused or reported its own failure, and the
  references agree that the result is not usable (counted as a failed op);
* ``"wrong"`` -- the output contradicts the references (counted as a failed
  op, and the run is reported as incorrect).

Library functions are always looked up through their module at call time
(``charpoly.analyze_roots``, ``verify.verify_mean``, ...), so that the
tracer can wrap them under the names the library's own callers use.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from itereq import charpoly, families, means, recurrence, verify
from itereq.intervals import REAL_LINE, Interval
from itereq.poly import Polynomial

BANDS = ((16, 25), (26, 35), (36, 45), (46, 55), (56, 64))

# Gate tolerances.  Anchor and prediction limits are the selftest's.  A
# reported root is "the same root" as a companion eigenvalue when it lies
# closer to it than half the eigenvalue's distance to its nearest neighbour
# (the double root at 1 within DOUBLE_ROOT_TOL, since its eigenvalues split
# by ~1e-8); a root that matches no eigenvalue, or a wrong real-root layout,
# is a wrong answer.  A matched root whose backward error
# |p(z)| / sum |c_i||z|^i exceeds BACKWARD_ERROR_TOL is an inaccurate
# answer: the op fails.  The companion eigenvalues themselves stay below
# 1e-13 on every (n, k) sampled with n <= 64, so the limit only catches
# inaccuracy.
ANCHOR_TOL = 1e-10
PREDICTION_TOL = 1e-6
DOUBLE_ROOT_TOL = 1e-5
BACKWARD_ERROR_TOL = 1e-8
REAL_AXIS_TOL = 1e-6
RESIDUAL_TOL = 1e-9
CONSISTENCY_SLACK = 1e-12
SUBSAMPLE = 64

GRID_SMALL = 1001
# (n+1) rows of 2e5 doubles: ~25 MB at n = 15, far past a core's L2 and
# inside a shared L3 of ~100 MiB.
GRID_LARGE = 200_001
GRID_LARGE_SMOKE = 2_001


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]


@dataclass
class Workload:
    ops: list[Op]
    repeat: bool  # False: each input runs at most once per run
    streams: bool = False  # ops stream arrays far past a core's L2


OK = ("ok", "")


# ---------------------------------------------------------------------------
# shared references: characteristic coefficients and solution maps
# ---------------------------------------------------------------------------

def char_coeffs(n: int, k: int) -> np.ndarray:
    """Ascending coefficients of the characteristic polynomial of (n, k)."""
    c = np.full(n + 1, -1.0)
    if k == n:
        c[n] = float(n)
    else:
        c[k] += n + 1
    return c


def companion_eigenvalues(c: np.ndarray) -> np.ndarray:
    deg = len(c) - 1
    comp = np.zeros((deg, deg))
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    return np.linalg.eigvals(comp)


def open_problem_free(n_max: int) -> list[tuple[int, int]]:
    return [
        (n, k) for n in range(2, n_max + 1) for k in range(n + 1)
        if not (0 < k < n and k % 2 == 0 and n % 2 == 0)
    ]


def family_maps(family: str, slope: float | None, p: dict):
    """The map and its inverse, written independently of the library."""
    if family == "identity":
        return (lambda x: x), (lambda y: y)
    if family == "translation":
        return (lambda x: x + p["c"]), (lambda y: y - p["c"])
    if family == "affine":
        return (lambda x: slope * x + p["c"]), (lambda y: (y - p["c"]) / slope)
    a, b = p["a"], p["b"]

    def f(x):
        return np.where(x <= a, slope * (x - a) + a,
                        np.where(x >= b, slope * (x - b) + b, x))

    def g(y):
        return np.where(y <= a, (y - a) / slope + a,
                        np.where(y >= b, (y - b) / slope + b, y))

    return f, g


@dataclass(frozen=True)
class FamilySpec:
    """One member of one family from ``enumerate_families``, seeded."""

    n: int
    k: int
    family: str
    slope: float | None
    params: dict
    x0: float

    @property
    def label(self) -> str:
        ps = ",".join(f"{key}={val:.6g}" for key, val in self.params.items())
        slope = "" if self.slope is None else f" slope={self.slope!r}"
        return f"({self.n},{self.k}) {self.family}[{ps}]{slope}"

    def maps(self, slope: float | None = None):
        return family_maps(self.family, self.slope if slope is None else slope, self.params)

    def build(self, slope_shift: float = 0.0) -> families.Solution:
        """Library construction: enumerate the families, instantiate one."""
        enum = families.enumerate_families(charpoly.CharProblem(self.n, self.k), REAL_LINE)
        desc = next(d for d in enum.families if d.family == self.family)
        if slope_shift:
            desc = dataclasses.replace(desc, slope=desc.slope + slope_shift)
        return desc.instantiate(REAL_LINE, **self.params)


def family_specs(rng: np.random.Generator, n_max: int) -> list[FamilySpec]:
    """Every family for every open-problem-free (n, k), parameters seeded.

    Three-piece orbits start below ``a`` so they stay in one affine regime.
    """
    specs = []
    for n, k in open_problem_free(n_max):
        enum = families.enumerate_families(charpoly.CharProblem(n, k), REAL_LINE)
        for desc in enum.families:
            x0 = float(rng.uniform(-3.0, 3.0))
            if desc.family == "translation":
                params = {"c": float(rng.uniform(0.1, 2.0))}
            elif desc.family == "affine":
                params = {"c": float(rng.uniform(-2.0, 2.0))}
            elif desc.family == "three_piece":
                a = float(rng.uniform(-2.0, 1.0))
                params = {"a": a, "b": a + float(rng.uniform(0.5, 2.0))}
                x0 = a - float(rng.uniform(0.5, 3.0))
            else:
                params = {}
            specs.append(FamilySpec(n, k, desc.family, desc.slope, params, x0))
    return specs


def warm_library() -> None:
    """Exercise each layer once on inputs outside every workload."""
    prob = charpoly.CharProblem(3, 1)
    report = charpoly.analyze_roots(prob)
    charpoly.report_matches_expectation(report)
    sol = families.Identity(REAL_LINE)
    orbit = verify.iterate(sol, 0.5, -1, 4)
    recurrence.fit_closed_form(orbit, report)
    verify.verify_mean(sol, prob, samples=11)


# ---------------------------------------------------------------------------
# roots: analyze_roots + report_matches_expectation, one (n, k) per op
# ---------------------------------------------------------------------------

def band_sample(rng, lo: int, hi: int, m: int, taken: set) -> list[tuple[int, int]]:
    """``m`` distinct (n, k) from ``lo <= n <= hi``, Latin-hypercube in (n, k/n).

    Stratifying both n and k/n keeps the cost mix of a band nearly the same
    from seed to seed, so run-to-run spread reflects the program, not the
    draw.
    """
    n_strata, k_strata = rng.permutation(m), rng.permutation(m)
    out = []
    for j in range(m):
        n = lo + int((n_strata[j] + rng.random()) * (hi - lo + 1) / m)
        k = int((k_strata[j] + rng.random()) * (n + 1) / m)
        while (n, k) in taken:
            k = (k + 1) % (n + 1)
        taken.add((n, k))
        out.append((n, k))
    return out


def check_roots(n: int, k: int, eig: np.ndarray, result) -> tuple[str, str]:
    report, (ok, problems) = result
    if not ok:
        return "wrong", f"case table mismatch: {problems}"
    roots = [(complex(r.value, 0.0), r.multiplicity) for r in report.real_roots]
    roots += [(z.as_complex(), z.multiplicity) for z in report.complex_roots]
    if sum(m for _, m in roots) != n:
        return "wrong", f"{sum(m for _, m in roots)} roots with multiplicity for degree {n}"

    gaps = np.abs(eig[:, None] - eig[None, :]) + np.diag(np.full(n, np.inf))
    half_gap = 0.5 * np.min(gaps, axis=1)
    free = np.ones(n, dtype=bool)
    c = char_coeffs(n, k)
    worst = (0.0, 0j)
    for z, m in roots:
        dist = np.where(free, np.abs(eig - z), np.inf)
        if m > 1:
            picks = np.argsort(dist)[:m]
            if np.any(dist[picks] > DOUBLE_ROOT_TOL):
                return "wrong", (
                    f"{m}-fold root {z!r} has no {m} companion eigenvalues "
                    f"within {DOUBLE_ROOT_TOL:.0e}"
                )
        else:
            picks = [int(np.argmin(dist))]
            j = picks[0]
            if dist[j] >= half_gap[j]:
                return "wrong", (
                    f"root {z!r} matches no companion eigenvalue: nearest {eig[j]!r} is "
                    f"{dist[j]:.3e} away, half its gap to the next is {half_gap[j]:.3e}"
                )
        free[picks] = False
        scale = float(np.sum(np.abs(c) * abs(z) ** np.arange(n + 1)))
        backward = abs(np.polyval(c[::-1], z)) / scale
        worst = max(worst, (backward, z), key=lambda t: t[0])

    real_eig = eig[np.abs(eig.imag) <= REAL_AXIS_TOL * (1.0 + np.abs(eig))].real
    layout_ref = (int(np.sum(real_eig < 0.0)), int(np.sum(real_eig > 0.0)))
    layout = (
        sum(r.multiplicity for r in report.real_roots if r.value < 0.0),
        sum(r.multiplicity for r in report.real_roots if r.value > 0.0),
    )
    if layout != layout_ref:
        return "wrong", f"real roots (neg, pos) {layout} != companion {layout_ref}"
    if worst[0] > BACKWARD_ERROR_TOL:
        return "fail", (
            f"inaccurate root {worst[1]!r}: backward error {worst[0]:.3e} > "
            f"{BACKWARD_ERROR_TOL:.0e}"
        )
    return OK


def roots_op(n: int, k: int, eig: np.ndarray) -> Op:
    def call():
        report = charpoly.analyze_roots(charpoly.CharProblem(n, k))
        return report, charpoly.report_matches_expectation(report)

    return Op(f"roots (n={n}, k={k})", call, lambda res: check_roots(n, k, eig, res))


def build_roots(seed: int, smoke: bool = False) -> Workload:
    """Paper table (every k, 2 <= n <= 15) plus a stratified sample per band.

    No (n, k) repeats, so a root-report cache cannot help.  The order is
    round-robin (a slice of the paper table, then one case per band), so a
    run cut short by its deadline keeps the same mix.
    """
    rng = np.random.default_rng([seed, 1])
    per_band = 1 if smoke else 36
    n_hi = 5 if smoke else 15
    paper = [(n, k) for n in range(2, n_hi + 1) for k in range(n + 1)]
    paper = [paper[i] for i in rng.permutation(len(paper))]
    taken = set(paper)
    bands = [band_sample(rng, lo, hi, per_band, taken) for lo, hi in BANDS]
    order = []
    for j in range(per_band):
        order += paper[j::per_band]
        order += [band[j] for band in bands]
    ops = [roots_op(n, k, companion_eigenvalues(char_coeffs(n, k))) for n, k in order]
    return Workload(ops, repeat=False)


# ---------------------------------------------------------------------------
# fit: iterate -> analyze_roots -> fit_closed_form -> prediction check
# ---------------------------------------------------------------------------

def reference_orbit(spec: FamilySpec, lo: int = -5, hi: int = 30) -> np.ndarray:
    f, g = spec.maps()
    pts = np.empty(hi - lo + 1)
    pts[-lo] = spec.x0
    for m in range(1, hi + 1):
        pts[m - lo] = f(np.float64(pts[m - 1 - lo]))
    for m in range(-1, lo - 1, -1):
        pts[m - lo] = g(np.float64(pts[m + 1 - lo]))
    return pts


def closed_form_values(cf: recurrence.ClosedForm, js: np.ndarray) -> np.ndarray:
    """Evaluate a fitted closed form with the benchmark's own code."""
    total = np.zeros(len(js))
    for t in cf.real_terms:
        total += np.polyval(t.coeffs[::-1], js) * np.sign(t.lam) ** js * abs(t.lam) ** js
    for t in cf.complex_terms:
        total += (
            np.polyval(t.cos_poly[::-1], js) * np.cos(js * t.argument)
            + np.polyval(t.sin_poly[::-1], js) * np.sin(js * t.argument)
        ) * t.modulus ** js
    return total


def check_fit(spec: FamilySpec, ref: np.ndarray, result) -> tuple[str, str]:
    slope, orbit, cf, lib_pred, rec = result
    if slope != spec.slope:
        return "wrong", f"slope {slope!r} != set-up slope {spec.slope!r}"
    pts = orbit.all_values()
    if orbit.escaped or not np.allclose(pts, ref, rtol=1e-12, atol=0.0):
        return "wrong", "orbit differs from the reference orbit"
    n = spec.n
    fwd = ref[5:]
    js = np.arange(31, dtype=float)
    pred = closed_form_values(cf, js)
    anchor_err = float(np.max(np.abs(pred[:n] - fwd[:n])))
    anchor_lim = ANCHOR_TOL * (1.0 + float(np.max(np.abs(fwd[:n]))))
    pred_err = float(np.max(np.abs(pred[n:] - fwd[n:]) / (1.0 + np.abs(fwd[n:]))))
    ours_ok = anchor_err <= anchor_lim and pred_err <= PREDICTION_TOL
    lib_ok = lib_pred <= PREDICTION_TOL and rec.passed
    detail = (
        f"anchor error {anchor_err:.3e} (limit {anchor_lim:.1e}), prediction "
        f"error {pred_err:.3e} (limit {PREDICTION_TOL:.0e}), library "
        f"prediction_error {lib_pred:.3e}, check_recurrence "
        f"{rec.max_residual:.3e} pass={rec.passed}"
    )
    if ours_ok and lib_ok:
        return OK
    if not ours_ok and not lib_ok:
        return "fail", detail
    return "wrong", detail


def fit_op(spec: FamilySpec) -> Op:
    ref = reference_orbit(spec)
    prob = charpoly.CharProblem(spec.n, spec.k)

    def call():
        sol = spec.build()
        orbit = verify.iterate(sol, spec.x0, -5, 30)
        spectrum = charpoly.analyze_roots(prob)
        cf = recurrence.fit_closed_form(orbit, spectrum, regime_of=sol)
        pred = recurrence.prediction_error(cf, orbit, spec.n, 30)
        rec = recurrence.check_recurrence(orbit, charpoly.build_char_poly(prob))
        slope = getattr(sol, "slope", spec.slope)
        return slope, orbit, cf, pred, rec

    return Op(f"fit {spec.label} x0={spec.x0!r}", call, lambda res: check_fit(spec, ref, res))


def build_fit(seed: int, smoke: bool = False) -> Workload:
    """Every family of every open-problem-free (n, k), 2 <= n <= 15.

    Several families share one (n, k), so a shared root report would save
    ``analyze_roots`` calls here.
    """
    rng = np.random.default_rng([seed, 2])
    specs = family_specs(rng, 5 if smoke else 15)
    return Workload([fit_op(s) for s in specs], repeat=True)


# ---------------------------------------------------------------------------
# verify: one verify_* call per op on seeded constructions
# ---------------------------------------------------------------------------

def grid(lo: float, hi: float, lo_closed: bool, hi_closed: bool, samples: int) -> np.ndarray:
    """The verification grid: the domain clipped to [-10, 10], open ends inset."""
    wlo, whi = max(lo, -10.0), min(hi, 10.0)
    off = 1e-6 * (whi - wlo)
    a = wlo + off if (not lo_closed or lo < wlo) else wlo
    b = whi - off if (not hi_closed or hi > whi) else whi
    return np.linspace(a, b, samples)


@dataclass
class Construction:
    """A solution the op builds through the library, plus its reference maps."""

    label: str
    build: Callable[[], families.Solution]
    f: Callable[[np.ndarray], np.ndarray]
    finv: Callable[[np.ndarray], np.ndarray] | None
    domain: tuple[float, float, bool, bool]


def _iterate_reference(f, xs: np.ndarray, count: int, domain) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = domain[0], domain[1]

    def inside(v):
        slack = 1e-12 * (1.0 + np.abs(v))
        return np.isfinite(v) & (v >= lo - slack) & (v <= hi + slack)

    rows = [xs]
    alive = inside(xs)
    with np.errstate(all="ignore"):
        for _ in range(count):
            nxt = np.asarray(f(rows[-1]), dtype=float)
            alive &= inside(nxt)
            rows.append(nxt)
    return np.array(rows), alive


@dataclass
class Residual:
    """Independent max residual and verdict scale over a subsample."""

    value: float
    scale: float
    escaped_all: bool


def _residual(rows, alive, resid_fn, coeff_scale: float) -> Residual:
    if not np.any(alive):
        return Residual(math.inf, 0.0, True)
    with np.errstate(all="ignore"):
        res = resid_fn(rows[:, alive])
    scale = coeff_scale * (1.0 + float(np.max(np.abs(rows[:, alive]))))
    return Residual(float(np.max(np.abs(res))), scale, False)


def mean_residual(f, xs, domain, n: int, k: int, phi=None, phi_inv=None) -> Residual:
    rows, alive = _iterate_reference(f, xs, n, domain)

    def resid(r):
        p = r if phi is None else phi(r)
        dev = np.sum(p - p[k], axis=0) / (n + 1)
        if phi is None:
            return -dev
        return np.where(dev == 0.0, 0.0, r[k] - phi_inv(p[k] + dev))

    return _residual(rows, alive, resid, 1.0)


def linear_residual(f, xs, domain, coeffs: np.ndarray) -> Residual:
    rows, alive = _iterate_reference(f, xs, len(coeffs) - 1, domain)
    return _residual(
        rows, alive,
        lambda r: np.tensordot(coeffs, r - r[0], axes=(0, 0)) + np.sum(coeffs) * r[0],
        float(np.max(np.abs(coeffs))),
    )


def judge(report, expect_pass: bool, ours: Residual, escapes: bool = False) -> tuple[str, str]:
    """Compare one VerifyReport with the expected verdict and our residual."""
    detail = (
        f"verdict {report.passed} (expected {expect_pass}), library max residual "
        f"{report.max_residual:.3e}, ours {ours.value:.3e} at scale {ours.scale:.3e}, "
        f"{report.points_escaped} escaped"
    )
    if report.passed != expect_pass:
        return "wrong", detail
    if escapes:
        return OK if ours.escaped_all and report.points_evaluated == 0 else ("wrong", detail)
    if ours.escaped_all:
        return "wrong", detail
    if (ours.value <= RESIDUAL_TOL * ours.scale) != expect_pass:
        return "wrong", detail
    if ours.value > report.max_residual + CONSISTENCY_SLACK * ours.scale:
        return "wrong", detail
    return OK


def _subsample(rng, domain, samples: int) -> np.ndarray:
    xs = grid(*domain, samples)
    return xs[np.sort(rng.choice(samples, size=min(SUBSAMPLE, samples), replace=False))]


def mean_op(rng, con: Construction, n: int, k: int, samples: int, expect: bool,
            gen: tuple | None = None, escapes: bool = False) -> Op:
    """verify_mean, or verify_general when ``gen = (kind, p, phi, phi_inv)``."""
    xs = _subsample(rng, con.domain, samples)
    prob = charpoly.CharProblem(n, k)
    if gen is None:
        def call():
            return verify.verify_mean(con.build(), prob, samples, RESIDUAL_TOL)
        phi = phi_inv = None
        kind = "verify_mean"
    else:
        gkind, p, phi, phi_inv = gen

        def call():
            g = means.Generator(gkind, Interval(*con.domain), p)
            return verify.verify_general(con.build(), g, prob, samples, RESIDUAL_TOL)
        kind = f"verify_general[{gkind}{'' if p is None else f' p={p}'}]"

    def check(report):
        ours = mean_residual(con.f, xs, con.domain, n, k, phi, phi_inv)
        return judge(report, expect, ours, escapes)

    return Op(f"{kind} ({n},{k}) {con.label} samples={samples}", call, check)


def dual_op(rng, con: Construction, coeffs: tuple, samples: int, expect: bool) -> Op:
    xs = _subsample(rng, con.domain, samples)
    arr = np.asarray(coeffs, dtype=float)

    def call():
        return verify.verify_dual(con.build(), Polynomial(coeffs), samples, RESIDUAL_TOL)

    def check(report):
        if not report.passed:
            return "wrong", "primal and dual verdicts disagree"
        primal = judge(report.primal, expect, linear_residual(con.f, xs, con.domain, arr))
        if primal != OK:
            return primal[0], "primal: " + primal[1]
        dual = judge(report.dual, expect, linear_residual(con.finv, xs, con.domain, arr[::-1]))
        return dual if dual == OK else (dual[0], "dual: " + dual[1])

    return Op(f"verify_dual degree={len(coeffs) - 1} {con.label} samples={samples}",
              call, check)


def second_op(rng, con: Construction, rho: float, samples: int, expect: bool) -> Op:
    xs = _subsample(rng, con.domain, samples)

    def call():
        return verify.verify_second_order(con.build(), rho, samples, RESIDUAL_TOL)

    def check(report):
        rows, alive = _iterate_reference(con.f, xs, 2, con.domain)
        ours = _residual(rows, alive, lambda r: r[2] - (1.0 + rho) * r[1] + rho * r[0],
                         1.0 + abs(rho))
        return judge(report, expect, ours)

    return Op(f"verify_second_order rho={rho!r} {con.label} samples={samples}", call, check)


def family_construction(spec: FamilySpec, slope_shift: float = 0.0) -> Construction:
    f, g = spec.maps(None if spec.slope is None else spec.slope + slope_shift)
    label = spec.label + (f" slope shifted by {slope_shift:g}" if slope_shift else "")
    return Construction(label, lambda: spec.build(slope_shift), f, g,
                        (-math.inf, math.inf, False, False))


GENERATORS = {
    "log": (np.log, np.exp, math.log),
    0.5: (lambda x: x ** 2.0, lambda y: y ** 0.5, lambda v: v ** 2.0),
    2.0: (np.sqrt, lambda y: y ** 2.0, lambda v: v ** 0.5),
    3.0: (lambda x: x ** (1.0 / 3.0), lambda y: y ** 3.0, lambda v: v ** (1.0 / 3.0)),
}


def conjugate_construction(rng, key, slope: float, slope_shift: float = 0.0):
    """Log or power conjugate of an affine map with slope in (-1, 0)."""
    phi, phi_inv, phi_scalar = GENERATORS[key]
    lo = float(rng.uniform(0.5, 2.0))
    hi = lo * float(rng.uniform(2.0, 8.0))
    u, v = phi_scalar(lo), phi_scalar(hi)
    s = slope + slope_shift
    # c keeps the image of [u, v] inside [u, v] for both the slope and s
    c_lo = max(u - slope * v, u - s * v)
    c_hi = min(v - slope * u, v - s * u)
    c = float(rng.uniform(c_lo, c_hi - 1e-3 * (c_hi - c_lo)))
    kind, p = ("log", None) if key == "log" else ("power", key)
    dom = Interval(lo, hi, True, True)

    def build():
        gen = means.Generator(kind, dom, p)
        return families.conjugate(gen, families.Affine(Interval(u, v, True, True), s, c))

    con = Construction(
        f"conjugate[{kind}{'' if p is None else f' p={p}'}] on [{lo:.4g}, {hi:.4g}] "
        f"of affine(slope={s!r}, c={c:.6g})",
        build, lambda x: phi_inv(s * phi(x) + c), None, (lo, hi, True, True),
    )
    return con, (kind, p, phi, phi_inv)


def table_involution(rng) -> Construction:
    lo = float(rng.uniform(-2.0, 0.0))
    hi = lo + float(rng.uniform(1.0, 4.0))
    a = lo + (hi - lo) * float(rng.uniform(0.3, 0.7))
    m = int(rng.integers(5, 13))
    xs = np.linspace(lo, a, m)
    w = rng.uniform(0.2, 1.0, m - 1)
    ys = np.concatenate([[hi], hi - (hi - a) * np.cumsum(w) / np.sum(w)])
    ys[-1] = a

    def f(x):
        return np.where(x <= a, np.interp(x, xs, ys), np.interp(x, ys[::-1], xs[::-1]))

    def build():
        return families.build_involution(Interval(lo, hi, True, True), a, f0_table=(xs, ys))

    return Construction(f"table involution on [{lo:.4g}, {hi:.4g}] a={a:.4g} ({m} knots)",
                        build, f, f, (lo, hi, True, True))


def callable_involution(rng) -> Construction:
    """f0(x) = L - (L - a)(x/a)^q on (0, L); the library inverts it by bisection."""
    big = float(rng.uniform(1.0, 3.0))
    a = big * float(rng.uniform(0.3, 0.7))
    q = float(rng.uniform(0.8, 1.5))

    def f0(x):
        return big - (big - a) * (x / a) ** q

    def f(x):
        with np.errstate(invalid="ignore"):
            right = a * ((big - x) / (big - a)) ** (1.0 / q)
        return np.where(x <= a, f0(x), right)

    def build():
        return families.build_involution(Interval(0.0, big), a, f0=f0)

    return Construction(f"callable involution on (0, {big:.4g}) a={a:.4g} q={q:.4g}",
                        build, f, f, (0.0, big, False, False))


def second_order_construction(rng, rho: float) -> Construction:
    """A member of ``second_order_families(rho)``: three-piece, affine or translation."""
    desc = next(d for d in families.second_order_families(
        families.SecondOrderProblem(rho, REAL_LINE)).families if d.family != "identity")
    if desc.family == "three_piece":
        a = float(rng.uniform(-2.0, 1.0))
        params = {"a": a, "b": a + float(rng.uniform(0.5, 2.0))}
    elif desc.family == "affine":
        params = {"c": float(rng.uniform(-2.0, 2.0))}
    else:
        params = {"c": float(rng.uniform(0.1, 2.0))}
    f, g = family_maps(desc.family, rho, params)

    def build():
        fams = families.second_order_families(families.SecondOrderProblem(rho, REAL_LINE))
        d = next(d for d in fams.families if d.family == desc.family)
        return d.instantiate(REAL_LINE, **params)

    ps = ",".join(f"{key}={val:.6g}" for key, val in params.items())
    return Construction(f"{desc.family}[{ps}] (second order)", build, f, g,
                        (-math.inf, math.inf, False, False))


def build_verify(seed: int, smoke: bool = False) -> Workload:
    """Families, conjugates, involutions and second-order maps, plus controls.

    Grids mix 1001 points with 2e5 points.  Negative controls must fail: a
    slope off by 1e-3 (mean, general, dual and second-order forms) and a
    translation whose iterates overflow, so every grid point escapes.
    """
    rng = np.random.default_rng([seed, 3])
    n_max = 5 if smoke else 15
    large = GRID_LARGE_SMOKE if smoke else GRID_LARGE
    few = 1 if smoke else 6
    ops: list[Op] = []

    specs = family_specs(rng, n_max)
    # half the families also get a dual op: a fixed count, so the number of
    # inputs, and where the percentiles fall among them, does not depend on
    # the seed
    dual = set(rng.choice(len(specs), size=len(specs) // 2, replace=False).tolist())
    for j, spec in enumerate(specs):
        con = family_construction(spec)
        ops.append(mean_op(rng, con, spec.n, spec.k, GRID_SMALL, True))
        if j in dual:
            ops.append(dual_op(rng, con, tuple(char_coeffs(spec.n, spec.k)), GRID_SMALL, True))
    # large grids: the same number of families for every n, so the cost mix
    # of the slowest ops (which set op_ms_p90) does not depend on the seed
    for n in range(2, n_max + 1):
        same_n = [s for s in specs if s.n == n]
        for j in rng.choice(len(same_n), size=1 if smoke else 4, replace=False):
            spec = same_n[j]
            ops.append(mean_op(rng, family_construction(spec), spec.n, spec.k, large, True))

    sloped = [s for s in specs if s.family in ("affine", "three_piece")]
    contracting = [s for s in sloped if s.family == "affine" and -1.0 < s.slope < 0.0]
    # the large-grid conjugates (j = 0) take the widest (n, k): they set the
    # peak memory, which then does not depend on the seed
    widest = [s for s in contracting if s.n == n_max]
    for j in range(few):
        pool = widest if j < 1 else contracting
        spec = pool[int(rng.integers(len(pool)))]
        for key in ("log", [0.5, 2.0, 3.0][int(rng.integers(3))]):
            con, gen = conjugate_construction(rng, key, spec.slope)
            ops.append(mean_op(rng, con, spec.n, spec.k, GRID_SMALL, True, gen))
            if j < 1:
                ops.append(mean_op(rng, con, spec.n, spec.k, large, True, gen))
        con, gen = conjugate_construction(rng, "log", spec.slope, 1e-3)
        ops.append(mean_op(rng, con, spec.n, spec.k, GRID_SMALL, False, gen))

    square = (-1.0, 0.0, 1.0)
    for j in range(few):
        con = table_involution(rng)
        ops.append(second_op(rng, con, -1.0, GRID_SMALL, True))
        ops.append(dual_op(rng, con, square, GRID_SMALL, True))
        if j < 2:
            ops.append(second_op(rng, con, -1.0, large, True))
    for _ in range(1 if smoke else 2):
        ops.append(second_op(rng, callable_involution(rng), -1.0, GRID_SMALL, True))

    for j in range(few):
        rho = [float(rng.uniform(0.2, 0.9)), float(rng.uniform(1.1, 3.0)),
               float(rng.uniform(-3.0, -0.2)), 1.0][j % 4]
        con = second_order_construction(rng, rho)
        ops.append(second_op(rng, con, rho, GRID_SMALL, True))
        if j < 2:
            ops.append(second_op(rng, con, rho, large, True))
        if rho != 1.0:
            ops.append(second_op(rng, con, rho + 1e-3, GRID_SMALL, False))

    for j in range(2 * few):
        spec = sloped[int(rng.integers(len(sloped)))]
        con = family_construction(spec, 1e-3)
        ops.append(mean_op(rng, con, spec.n, spec.k, GRID_SMALL, False))
        if j < 2:
            ops.append(mean_op(rng, con, spec.n, spec.k, large, False))
        if j % 4 == 0:
            ops.append(dual_op(rng, con, tuple(char_coeffs(spec.n, spec.k)), GRID_SMALL, False))

    for _ in range(1 if smoke else 2):
        k = [1, 3, 5, 7][int(rng.integers(1 if smoke else 4))]
        steps = int(rng.integers(1, 2 * k))
        spec = FamilySpec(2 * k, k, "translation", None,
                          {"c": sys.float_info.max / (steps + 0.5)}, 0.0)
        ops.append(mean_op(rng, family_construction(spec), 2 * k, k, GRID_SMALL, False,
                           escapes=True))

    return Workload(ops, repeat=True, streams=True)


BUILDERS = {"roots": build_roots, "fit": build_fit, "verify": build_verify}

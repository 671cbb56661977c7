"""Closed forms for orbits: fit, predict, and check the linear recurrence.

An orbit of a solution obeys ``sum_i a_i x_{m+i} = 0`` with the
characteristic coefficients, so it matches a closed form

    x_j = sum_k A_k(j) lambda_k^j
        + sum_k (B_k(j) cos(j phi_k) + C_k(j) sin(j phi_k)) |mu_k|^j

where the polynomial degrees are bounded by the root multiplicities.
Fitting anchors the first ``degree`` forward orbit entries on a
generalized (confluent) Vandermonde system.  The system is solved by one
double-precision LU solve and two steps of iterative refinement whose
residual is computed in compensated double (TwoProduct and an exactly
rounded sum; Ogita, Rump & Oishi 2005).  Plain double is not enough:
prediction at index 30 amplifies a weight error by |root|^30, so the
weight of a root the orbit barely excites must be resolved far below the
rounding level of the anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import RootReport
from .errors import DomainError, SingularSystem, TooShort
from .families import Solution, ThreePiece
from .poly import Polynomial
from .verify import Orbit

_COND_LIMIT = 1e12
_ANCHOR_TOL = 1e-9
_REFINE_STEPS = 2
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a binary64 value


@dataclass(frozen=True)
class RealTerm:
    """Contribution ``A(j) * lam^j`` with ``A`` of degree multiplicity-1."""

    lam: float
    coeffs: tuple[float, ...]


@dataclass(frozen=True)
class ComplexTerm:
    """Contribution ``(B(j) cos(j*arg) + C(j) sin(j*arg)) * modulus^j``."""

    modulus: float
    argument: float
    cos_poly: tuple[float, ...]
    sin_poly: tuple[float, ...]


@dataclass(frozen=True)
class ClosedForm:
    real_terms: tuple[RealTerm, ...]
    complex_terms: tuple[ComplexTerm, ...]

    @property
    def parameter_count(self) -> int:
        return sum(len(t.coeffs) for t in self.real_terms) + sum(
            len(t.cos_poly) + len(t.sin_poly) for t in self.complex_terms
        )

    def to_json(self) -> dict:
        return {
            "real_terms": [
                {"lambda": t.lam, "coeffs": list(t.coeffs)}
                for t in self.real_terms
            ],
            "complex_terms": [
                {
                    "modulus": t.modulus,
                    "argument": t.argument,
                    "cos_poly": list(t.cos_poly),
                    "sin_poly": list(t.sin_poly),
                }
                for t in self.complex_terms
            ],
        }


def _polyval(coeffs: tuple[float, ...], j: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * j + c
    return acc


def predict(cf: ClosedForm, j: int) -> float:
    """Evaluate the closed form at index ``j``."""
    total = 0.0
    for t in cf.real_terms:
        total += _polyval(t.coeffs, j) * t.lam**j
    for t in cf.complex_terms:
        envelope = t.modulus**j
        total += (
            _polyval(t.cos_poly, j) * math.cos(j * t.argument)
            + _polyval(t.sin_poly, j) * math.sin(j * t.argument)
        ) * envelope
    return total


@dataclass(frozen=True)
class RecurrenceReport:
    max_residual: float
    passed: bool
    windows: int

    def to_json(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "pass": self.passed,
            "windows": self.windows,
        }


def _contiguous_values(orbit: Orbit) -> np.ndarray:
    """The longest non-NaN run of orbit values containing index 0."""
    pts = orbit.all_values()
    zero = -orbit.m_lo
    lo = zero
    while lo > 0 and not np.isnan(pts[lo - 1]):
        lo -= 1
    hi = zero
    while hi + 1 < len(pts) and not np.isnan(pts[hi + 1]):
        hi += 1
    return pts[lo : hi + 1]


def check_recurrence(
    orbit: Orbit, coeffs: Polynomial, tol: float = 1e-9
) -> RecurrenceReport:
    """Max residual of ``sum_i a_i x_{m+i}`` over all admissible windows."""
    vals = _contiguous_values(orbit)
    deg = coeffs.degree
    if len(vals) < deg + 1:
        raise TooShort(
            f"orbit provides {len(vals)} values, recurrence needs {deg + 1}"
        )
    arr = coeffs.as_array()
    windows = len(vals) - deg
    residuals = np.empty(windows)
    for m in range(windows):
        residuals[m] = math.fsum(arr[i] * vals[m + i] for i in range(deg + 1))
    scale = coeffs.inf_norm * (1.0 + float(np.max(np.abs(vals))))
    max_resid = float(np.max(np.abs(residuals)))
    return RecurrenceReport(max_resid, max_resid <= tol * scale, windows)


def single_regime(sol: Solution, orbit: Orbit) -> bool:
    """Certificate that an orbit never crosses an affine regime boundary.

    Only three-piece maps have regime boundaries; every other family is a
    single affine law, so the certificate holds trivially.
    """
    if not isinstance(sol, ThreePiece):
        return True
    vals = _contiguous_values(orbit)
    return bool(
        np.all(vals <= sol.a) or np.all(vals >= sol.b)
        or np.all((vals >= sol.a) & (vals <= sol.b))
    )


def _spectrum_terms(spectrum: RootReport):
    reals = [(r.value, r.multiplicity) for r in spectrum.real_roots]
    complexes = []
    for z in spectrum.complex_roots:
        if z.im > 0.0:
            phi = math.atan2(z.im, z.re)
            complexes.append((z.modulus, phi, z.multiplicity))
        elif z.im == 0.0:
            reals.append((z.re, z.multiplicity))
    return reals, complexes


def fit_closed_form(
    orbit: Orbit,
    spectrum: RootReport,
    regime_of: Solution | None = None,
) -> ClosedForm:
    """Fit the closed form through the first ``degree`` orbit entries.

    The anchor system is a confluent Vandermonde matrix (powers-of-j
    columns for multiple roots, cos/sin columns for conjugate pairs),
    built and solved in double precision: one LU solve, then two steps
    of iterative refinement ``x += solve(A, b - A x)`` with the residual
    computed in compensated double.  The refinement matters because a
    weight error at root ``lambda`` grows by ``|lambda|^30`` at index 30:
    an orbit of (3, 1) that decays like 0.414^j puts a weight of about
    1e-19 on the root -2.414, and a bare double solve leaves 1e-17 there,
    a prediction error of 3e-6 at index 30.
    ``regime_of`` optionally supplies the generating solution so that
    branch-crossing orbits of three-piece maps are refused: the linear
    recurrence only holds while the orbit stays in one affine regime.
    Raises :class:`DomainError` naming the first anchor that is not
    finite, and :class:`SingularSystem` when the system's condition number
    exceeds 1e12 or the anchors cannot be reproduced.
    """
    deg = spectrum.problem.degree
    vals = orbit.forward_values()
    if len(vals) < deg:
        raise TooShort(f"orbit provides {len(vals)} forward values, need {deg}")
    if regime_of is not None and not single_regime(regime_of, orbit):
        raise DomainError(
            "orbit crosses an affine regime boundary; the linear recurrence "
            "does not apply across branches"
        )
    anchors = vals[:deg]
    for j, v in enumerate(anchors):
        if not math.isfinite(v):
            raise DomainError(f"anchor {j} is not finite: {float(v)!r}")
    reals, complexes = _spectrum_terms(spectrum)

    n_cols = sum(m for _, m in reals) + sum(2 * m for _, _, m in complexes)
    if n_cols != deg:
        raise SingularSystem(
            f"spectrum provides {n_cols} parameters for degree {deg}"
        )

    # condition guard on the double-precision rendering of the system
    cols64 = []
    J = np.arange(deg, dtype=float)
    for lam, mult in reals:
        for t in range(mult):
            cols64.append(J**t * np.sign(lam) ** J * np.abs(lam) ** J
                          if lam < 0 else J**t * lam**J)
    for mod, phi, mult in complexes:
        for t in range(mult):
            cols64.append(J**t * np.cos(J * phi) * mod**J)
            cols64.append(J**t * np.sin(J * phi) * mod**J)
    A64 = np.column_stack(cols64)
    cond = float(np.linalg.cond(A64))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystem(
            f"anchor system condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )

    # solve for anchors scaled into [-1, 1] by a power of two, which is
    # exact and keeps the products split in _residual clear of overflow
    peak = float(np.max(np.abs(anchors)))
    exp = math.frexp(peak)[1]
    b = np.ldexp(anchors, -exp)
    weights = np.linalg.solve(A64, b)
    for _ in range(_REFINE_STEPS):
        weights += np.linalg.solve(A64, _residual(A64, b, weights))

    cf = _assemble(reals, complexes, np.ldexp(weights, exp).tolist())
    limit = _ANCHOR_TOL * (1.0 + peak)
    for j in range(deg):
        err = abs(predict(cf, j) - anchors[j])
        if not err <= limit:
            raise SingularSystem(
                f"fit does not reproduce anchor {j}: "
                f"{predict(cf, j)!r} vs {float(anchors[j])!r}, "
                f"error {err:.3e} exceeds {limit:.3e}"
            )
    return cf


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half 26 bits wide."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _residual(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``b - A x`` rounded once from its exact value.

    TwoProduct (Dekker) turns each ``A[i, j] * x[j]`` into ``p + e``
    exactly; ``math.fsum`` then adds ``b[i]`` and every row's products
    and error terms with a single rounding.
    """
    p = A * x
    a_hi, a_lo = _split(A)
    x_hi, x_lo = _split(x)
    e = ((a_hi * x_hi - p) + a_hi * x_lo + a_lo * x_hi) + a_lo * x_lo
    terms = np.hstack([b[:, None], -p, -e])
    return np.array([math.fsum(row) for row in terms.tolist()])


def _assemble(reals, complexes, weights: list[float]) -> ClosedForm:
    real_terms = []
    pos = 0
    for lam, mult in reals:
        real_terms.append(RealTerm(lam, tuple(weights[pos : pos + mult])))
        pos += mult
    complex_terms = []
    for mod, phi, mult in complexes:
        cos_c, sin_c = [], []
        for _ in range(mult):
            cos_c.append(weights[pos])
            sin_c.append(weights[pos + 1])
            pos += 2
        complex_terms.append(ComplexTerm(mod, phi, tuple(cos_c), tuple(sin_c)))
    return ClosedForm(tuple(real_terms), tuple(complex_terms))


def prediction_error(
    cf: ClosedForm, orbit: Orbit, j_lo: int, j_hi: int
) -> float:
    """Max guarded relative error of predictions against stored values."""
    worst = 0.0
    for j in range(j_lo, j_hi + 1):
        if j < orbit.m_lo or j > orbit.m_hi:
            continue
        actual = orbit.value(j)
        if math.isnan(actual):
            continue
        err = abs(predict(cf, j) - actual) / (1.0 + abs(actual))
        worst = max(worst, err)
    return worst

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

The anchor system depends only on the spectrum, so ``fit_closed_form``
takes it from one bounded LRU memo keyed on the frozen ``RootReport``
(which ``analyze_roots`` already shares per (n, k), and which hashes its
roots once): the spectrum terms, the read-only matrix and its condition
number are built once per spectrum, and equal reports get the same
system.  As with ``analyze_roots``, failures are not cached, so a
spectrum the condition guard refuses raises on every call.

Anchors, the anchor check and predictions read one basis (``_basis``):
the matrix of ``J^t lambda^J``, ``J^t cos(J phi) mu^J`` and
``J^t sin(J phi) mu^J`` columns at the indices ``J``, in the order of the
weights.  Its value at an index does not depend on the other indices, so
``predict`` is ``predict_range`` at one index, bit for bit.  The basis is
evaluated once per spectrum and index range and kept, read-only, in one
bounded LRU memo (``_cached_basis``) keyed on the exact bits of the terms
and on ``(j_lo, j_hi)``: the anchor system and every prediction read it,
so a spectrum predicted again in one process costs no evaluation.  An
``OverflowError`` is not cached.
``check_recurrence`` multiplies all windows of the orbit at once and sums
each exactly with ``math.fsum``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .charpoly import _REPORT_CACHE_SIZE, RootReport
from .errors import DomainError, SingularSystem, TooShort
from .families import Solution, ThreePiece
from .poly import Polynomial
from .verify import Orbit

_COND_LIMIT = 1e12
_SYSTEM_CACHE_SIZE = _REPORT_CACHE_SIZE
# each spectrum's anchor range and its prediction range, with room to spare
_BASIS_CACHE_SIZE = 2 * _REPORT_CACHE_SIZE
_DOUBLE = struct.Struct("d")
_ANCHOR_TOL = 1e-9
RECURRENCE_TOL = 1e-9  # check_recurrence's residual limit, relative
# largest held-out relative prediction error (``prediction_error``) a fit
# may show and still count as confirmed
PREDICTION_TOL = 1e-6
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


def _basis(reals, complexes, J: np.ndarray) -> np.ndarray:
    """The closed-form basis at the integer indices ``J``, one row per index.

    ``reals`` holds ``(lam, multiplicity)`` and ``complexes`` holds
    ``(modulus, argument, multiplicity)`` (see ``_spectrum_terms``).  The
    columns are ``J^t lam^J`` for each real root, then ``J^t cos(J phi)
    mu^J`` and ``J^t sin(J phi) mu^J`` for each conjugate pair, ``t``
    below the multiplicity: the order in which ``_assemble`` reads the
    weights; with no terms it has no columns (the empty sum).  Raises
    :class:`OverflowError` where a root power leaves the float range (a
    zero root at a negative index included); a product that overflows is
    +-inf, without a warning.
    """
    columns = [(lam, 0.0, t, False) for lam, mult in reals for t in range(mult)]
    columns += [
        (mod, phi, t, sine)
        for mod, phi, mult in complexes
        for t in range(mult)
        for sine in (False, True)
    ]
    if not columns:
        return np.empty((len(J), 0))
    bases, angles, ts, sines = zip(*columns)
    # np.power, np.sin and np.cos get contiguous operands of the basis's
    # shape: NumPy evaluates a broadcast operand by another kernel, whose
    # last bit can depend on the number of indices
    J = np.asarray(J)[:, None]
    index = np.empty((len(J), len(bases)))
    index[:] = J
    rows = np.empty_like(index)
    rows[:] = bases
    with np.errstate(over="ignore", divide="ignore"):
        powers = np.power(rows, index)
        if np.isinf(powers).any():
            raise OverflowError("a root power leaves the float range")
        phase = index * angles
        waves = np.where(sines, np.sin(phase), np.cos(phase))  # cos(0) = 1
        if any(ts):
            waves = J ** np.array(ts) * waves  # J^t exact in integers
        return waves * powers


def _terms_key(reals, complexes) -> tuple:
    """The spectrum terms with every float as its eight bytes.

    ``==`` merges 0.0 and -0.0, whose odd powers differ in sign, and NaNs
    pass their sign on to the powers, so the memo keys on the bits.
    """
    pack = _DOUBLE.pack
    return (
        tuple((pack(lam), mult) for lam, mult in reals),
        tuple((pack(mod), pack(phi), mult) for mod, phi, mult in complexes),
    )


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE, typed=True)
def _cached_basis(terms: tuple, j_lo: int, j_hi: int) -> np.ndarray:
    """``_basis`` at ``j_lo..j_hi``, read-only, one shared array per key.

    ``terms`` is ``_terms_key`` of the spectrum terms; a hit is the array
    the same ``_basis`` call made.  ``typed`` keeps an index 3 apart from
    3.0.  An :class:`OverflowError` is not cached.
    """
    unpack = _DOUBLE.unpack
    reals, complexes = terms
    basis = _basis(
        [(unpack(lam)[0], mult) for lam, mult in reals],
        [(unpack(mod)[0], unpack(phi)[0], mult) for mod, phi, mult in complexes],
        np.arange(j_lo, j_hi + 1),
    )
    basis.flags.writeable = False
    return basis


def _combine(basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row of ``basis`` times ``weights``, summed.

    One ``np.add.reduce`` along each contiguous row, so a row's sum does
    not depend on the other rows.  Terms that overflow are +-inf and add
    to NaN with opposite signs; neither warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.reduce(basis * weights, axis=1)


def predict_range(cf: ClosedForm, j_lo: int, j_hi: int) -> np.ndarray:
    """The closed form at ``j = j_lo..j_hi``: its basis (from the memo)
    times its weights."""
    reals = [(t.lam, len(t.coeffs)) for t in cf.real_terms]
    complexes = [(t.modulus, t.argument, len(t.cos_poly)) for t in cf.complex_terms]
    weights = [c for t in cf.real_terms for c in t.coeffs]
    for t in cf.complex_terms:
        for pair in zip(t.cos_poly, t.sin_poly):
            weights += pair
    basis = _cached_basis(_terms_key(reals, complexes), j_lo, j_hi)
    return _combine(basis, np.array(weights))


def predict(cf: ClosedForm, j: int) -> float:
    """Evaluate the closed form at index ``j``."""
    return float(predict_range(cf, j, j)[0])


@dataclass(frozen=True)
class RecurrenceReport:
    max_residual: float
    passed: bool
    windows: int


def check_recurrence(orbit: Orbit, coeffs: Polynomial) -> RecurrenceReport:
    """Max residual of ``sum_i a_i x_{m+i}`` over all admissible windows,
    passing at ``RECURRENCE_TOL`` relative to the coefficients and orbit.

    The windows ``x_m..x_{m+deg}`` are gathered as the rows of one array
    and multiplied by the coefficients at once; each row's products are
    then summed exactly by ``math.fsum``.  Where ``(deg + 1) * inf_norm *
    max |x_m|`` reaches 2^1023 a product or sum could overflow, so there
    the orbit is scaled into [-2, 2] by a power of two, as
    ``fit_closed_form`` scales its anchors, and the residual scaled back.
    A residual that is infinite once scaled back never passes.
    """
    vals = orbit.points
    deg = coeffs.degree
    if len(vals) < deg + 1:
        raise TooShort(
            f"orbit provides {len(vals)} values, recurrence needs {deg + 1}"
        )
    peak = float(np.abs(vals).max())
    exp = 0
    if (deg + 1) * coeffs.inf_norm * peak >= 2.0**1023:
        exp = math.frexp(peak)[1] - 1
        vals = np.ldexp(vals, -exp)
    windows = len(vals) - deg
    products = vals[np.add.outer(np.arange(windows), np.arange(deg + 1))]
    products *= coeffs.as_array()
    residuals = np.fromiter(map(math.fsum, products.tolist()), float, windows)
    max_resid = float(np.abs(residuals).max()) * 2.0**exp
    limit = RECURRENCE_TOL * coeffs.inf_norm * (1.0 + peak)
    passed = math.isfinite(max_resid) and max_resid <= limit
    return RecurrenceReport(max_resid, passed, windows)


def single_regime(sol: Solution, orbit: Orbit) -> bool:
    """Certificate that an orbit never crosses an affine regime boundary.

    Only three-piece maps have regime boundaries; every other family is a
    single affine law, so the certificate holds trivially.
    """
    if not isinstance(sol, ThreePiece):
        return True
    vals = orbit.points
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


@dataclass(frozen=True)
class _AnchorSystem:
    """The anchor system of one spectrum, shared by every fit on it.

    ``reals`` and ``complexes`` are the spectrum terms (see
    ``_spectrum_terms``); ``matrix`` is the confluent Vandermonde matrix,
    the read-only basis at indices ``0..degree-1`` that ``_cached_basis``
    keeps, ``halves`` its read-only Veltkamp split (see ``_residual``) and
    ``cond`` its 2-norm condition number.
    """

    reals: tuple[tuple[float, int], ...]
    complexes: tuple[tuple[float, float, int], ...]
    matrix: np.ndarray
    halves: tuple[np.ndarray, np.ndarray]
    cond: float


@functools.lru_cache(maxsize=_SYSTEM_CACHE_SIZE)
def _anchor_system(spectrum: RootReport) -> _AnchorSystem:
    """The anchor system of ``spectrum``, one shared object per equal report.

    Raises :class:`SingularSystem` when the spectrum's parameter count is
    not its degree or the condition number exceeds 1e12; failures are not
    cached.
    """
    deg = spectrum.problem.degree
    reals, complexes = _spectrum_terms(spectrum)
    n_cols = sum(m for _, m in reals) + sum(2 * m for _, _, m in complexes)
    if n_cols != deg:
        raise SingularSystem(
            f"spectrum provides {n_cols} parameters for degree {deg}"
        )

    A64 = _cached_basis(_terms_key(reals, complexes), 0, deg - 1)
    cond = float(np.linalg.cond(A64))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystem(
            f"anchor system condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    halves = _split(A64)
    for a in halves:
        a.flags.writeable = False
    return _AnchorSystem(tuple(reals), tuple(complexes), A64, halves, cond)


def fit_closed_form(
    orbit: Orbit,
    spectrum: RootReport,
    regime_of: Solution | None = None,
) -> ClosedForm:
    """Fit the closed form through the first ``degree`` orbit entries.

    The anchor system is a confluent Vandermonde matrix (powers-of-j
    columns for multiple roots, cos/sin columns for conjugate pairs),
    built once per spectrum (``_anchor_system``) and solved in double
    precision: one LU solve, then two steps of iterative refinement
    ``x += solve(A, b - A x)`` with the residual computed in compensated
    double.  The refinement matters because a
    weight error at root ``lambda`` grows by ``|lambda|^30`` at index 30:
    an orbit of (3, 1) that decays like 0.414^j puts a weight of about
    1e-19 on the root -2.414, and a bare double solve leaves 1e-17 there,
    a prediction error of 3e-6 at index 30.
    ``regime_of`` optionally supplies the generating solution so that
    branch-crossing orbits of three-piece maps are refused: the linear
    recurrence only holds while the orbit stays in one affine regime.
    The anchors are finite, as every orbit's points are (``Orbit``).
    Raises :class:`SingularSystem` when the system's condition number
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
    system = _anchor_system(spectrum)
    A64 = system.matrix

    # solve for anchors scaled into [-1, 1] by a power of two, which is
    # exact and keeps the products split in _residual clear of overflow
    peak = float(np.max(np.abs(anchors)))
    exp = math.frexp(peak)[1]
    b = np.ldexp(anchors, -exp)
    weights = np.linalg.solve(A64, b)
    for _ in range(_REFINE_STEPS):
        weights += np.linalg.solve(A64, _residual(system, b, weights))

    weights = np.ldexp(weights, exp)
    cf = _assemble(system.reals, system.complexes, weights.tolist())
    limit = _ANCHOR_TOL * (1.0 + peak)
    fitted = _combine(A64, weights)  # predict_range(cf, 0, deg - 1), bit for bit
    missed = np.flatnonzero(~(np.abs(fitted - anchors) <= limit))
    if missed.size:
        j = int(missed[0])
        err = abs(fitted[j] - anchors[j])
        raise SingularSystem(
            f"fit does not reproduce anchor {j}: "
            f"{float(fitted[j])!r} vs {float(anchors[j])!r}, "
            f"error {err:.3e} exceeds {limit:.3e}"
        )
    return cf


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half 26 bits wide."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _residual(system: _AnchorSystem, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``b - A x`` rounded once from its exact value, ``A`` the system's matrix.

    TwoProduct (Dekker) turns each ``A[i, j] * x[j]`` into ``p + e``
    exactly; ``math.fsum`` then adds ``b[i]`` and every row's products
    and error terms with a single rounding.
    """
    p = system.matrix * x
    a_hi, a_lo = system.halves
    x_hi, x_lo = _split(x)
    e = ((a_hi * x_hi - p) + a_hi * x_lo + a_lo * x_hi) + a_lo * x_lo
    terms = np.hstack([b[:, None], -p, -e])
    return np.fromiter(map(math.fsum, terms.tolist()), float, len(b))


def _assemble(reals, complexes, weights: list[float]) -> ClosedForm:
    """The closed form with ``weights`` on the spectrum terms.

    Its term records are built without the frozen dataclasses' ``__init__``
    (about a microsecond per term), as ``poly._root_records`` builds roots;
    each equals the record the constructor gives.
    """
    real_terms = []
    pos = 0
    for lam, mult in reals:
        term = object.__new__(RealTerm)
        term.__dict__.update(lam=lam, coeffs=tuple(weights[pos : pos + mult]))
        real_terms.append(term)
        pos += mult
    complex_terms = []
    for mod, phi, mult in complexes:
        end = pos + 2 * mult
        term = object.__new__(ComplexTerm)
        term.__dict__.update(
            modulus=mod,
            argument=phi,
            cos_poly=tuple(weights[pos:end:2]),
            sin_poly=tuple(weights[pos + 1 : end : 2]),
        )
        complex_terms.append(term)
        pos = end
    return ClosedForm(tuple(real_terms), tuple(complex_terms))


def prediction_error(
    cf: ClosedForm, orbit: Orbit, j_lo: int, j_hi: int
) -> float:
    """Max guarded relative error of predictions against stored values.

    Indices outside the orbit are skipped; a range that holds no orbit
    index raises :class:`TooShort`, since no prediction was checked.  A
    prediction that overflows to +-inf gives an infinite error, and a NaN
    error (terms that overflow with opposite signs) counts as one, so it
    never reads as a pass.
    """
    lo, hi = max(j_lo, orbit.m_lo), min(j_hi, orbit.m_hi)
    if lo > hi:
        raise TooShort(
            f"prediction range [{j_lo}, {j_hi}] holds no index of the orbit's "
            f"[{orbit.m_lo}, {orbit.m_hi}]"
        )
    actual = orbit.points[lo - orbit.m_lo : hi - orbit.m_lo + 1]
    with np.errstate(over="ignore"):
        err = np.abs(predict_range(cf, lo, hi) - actual) / (1.0 + np.abs(actual))
    worst = float(err.max())
    return math.inf if math.isnan(worst) else worst

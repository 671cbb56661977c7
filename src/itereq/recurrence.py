"""Closed forms for orbits: fit, predict, and check the linear recurrence.

An orbit of a solution obeys ``sum_i a_i x_{m+i} = 0`` with the
characteristic coefficients, so it matches a closed form

    x_j = sum_k A_k(j) lambda_k^j
        + sum_k (B_k(j) cos(j phi_k) + C_k(j) sin(j phi_k)) |mu_k|^j

where the polynomial degrees are bounded by the root multiplicities.
Every solution has at most three affine pieces, and an orbit in one
piece obeys ``x_{j+1} = s x_j + c``, so it excites at most the modes 1
and s (1 with a line in j for a translation).  A fit therefore first
finds the modes the orbit excites (``excited_modes``): of every set of
spectrum modes with at most three weights, the fewest whose annihilator
the first ``degree`` forward orbit values satisfy to rounding, tested by
one matrix product against a per-spectrum memo (``_candidates``) of the
sets' annihilator coefficients.  It then fits only those modes by
weighted least squares on the same anchors (``fit_modes``), with the
solution operator kept per mode set and anchor count (``_fit_system``).
A root the orbit does not excite gets no weight, so none is amplified by
``|root|^30`` at index 30, and the basis has at most three columns, well
conditioned where the spectrum's full confluent Vandermonde matrix is
not.  Memos keyed on a ``RootReport`` share one entry among equal reports;
as with ``analyze_roots``, no memo keeps a failure.

Anchors, the anchor check and predictions read one basis (``_basis``):
the matrix of ``J^t lambda^J``, ``J^t cos(J phi) mu^J`` and
``J^t sin(J phi) mu^J`` columns at the indices ``J``, in the order of the
weights.  Its value at an index does not depend on the other indices, so
``predict`` is ``predict_range`` at one index, bit for bit.  The basis is
evaluated once per set of terms and index range and kept, read-only, in
one bounded LRU memo (``_cached_basis``) keyed on the exact bits of the
terms and on ``(j_lo, j_hi)``: the fit and every prediction read it, so
a closed form predicted again in one process costs no evaluation.  An
``OverflowError`` is not cached.
``check_recurrence`` multiplies all windows of the orbit at once and sums
each exactly with ``math.fsum``.
"""

from __future__ import annotations

import functools
import itertools
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
_MODES_CACHE_SIZE = _REPORT_CACHE_SIZE
# each fitted mode set at each anchor count: a few sets per spectrum
_FIT_CACHE_SIZE = _REPORT_CACHE_SIZE
# each fitted mode set's anchor range and its prediction range, with room to spare
_BASIS_CACHE_SIZE = 2 * _REPORT_CACHE_SIZE
_DOUBLE = struct.Struct("d")
# largest anchor error a fit may show, relative to 1 + the largest anchor
ANCHOR_TOL = 1e-10
RECURRENCE_TOL = 1e-9  # check_recurrence's residual limit, relative
# largest held-out relative prediction error (``prediction_error``) a fit
# may show and still count as confirmed
PREDICTION_TOL = 1e-6
# an orbit in one affine piece obeys x_{j+1} = s x_j + c, which excites at
# most the modes 1 and s, or 1 with j (a translation); three columns hold both
_MAX_COLUMNS = 3
# the annihilator residual ratio rounding leaves: each step of an orbit is
# rounded once, and so is each annihilator coefficient
MODE_THRESHOLD = 16.0 * float(np.finfo(float).eps)


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
class ExcitedModes:
    """The spectrum modes an orbit excites, as ``excited_modes`` found them.

    ``reals`` holds ``(lam, columns)`` and ``complexes`` holds ``(modulus,
    argument, columns)``: a spectrum term with the number of weights it
    takes in place of its multiplicity (a conjugate pair takes twice its
    ``columns``).  ``anchors`` is the number of forward orbit values the
    modes were tested and are fitted on (the spectrum's degree),
    ``ratio`` the largest annihilator residual ratio over those anchors'
    windows (at most ``MODE_THRESHOLD``), and ``fewer`` the least such
    ratio among candidates with fewer columns (None when the set has one
    column): the rank gap.
    """

    reals: tuple[tuple[float, int], ...]
    complexes: tuple[tuple[float, float, int], ...]
    anchors: int
    ratio: float
    fewer: float | None

    def to_json(self) -> dict:
        return {
            "chosen": [{"lambda": lam, "columns": t} for lam, t in self.reals]
            + [
                {"modulus": mod, "argument": phi, "columns": 2 * t}
                for mod, phi, t in self.complexes
            ],
            "max_ratio": self.ratio,
            "threshold": MODE_THRESHOLD,
            "least_ratio_with_fewer_columns": self.fewer,
        }


@dataclass(frozen=True)
class _Candidates:
    """The candidate mode sets of one spectrum, fewest columns first.

    ``modes`` holds each set as ``(reals, complexes)`` of ``ExcitedModes``,
    ``columns`` its column count, and ``coeffs`` (with ``magnitudes``, its
    absolute values) its annihilator's coefficients, lowest degree first,
    one column per set, zero-padded to ``_MAX_COLUMNS + 1`` rows.  Row j of
    ``windows`` indexes the anchor window ``x_j..x_{j+3}`` in the anchors
    padded with three zeros, and ``inside[j, c]`` says whether set ``c``'s
    window at ``j`` lies within the anchors.  Every array is read-only.
    """

    modes: tuple[tuple[tuple, tuple], ...]
    columns: np.ndarray
    coeffs: np.ndarray
    magnitudes: np.ndarray
    windows: np.ndarray
    inside: np.ndarray


def _mode_sets(reals, complexes) -> list[tuple[int, tuple, tuple]]:
    """Every set of spectrum modes with at most ``_MAX_COLUMNS`` columns,
    as ``(columns, reals, complexes)``, fewest columns first.

    A real root of multiplicity m enters with 1 to m columns (the double
    root 1 as a constant or as a line in j); a conjugate pair takes two.
    """
    options = [[(lam, t) for t in range(1, mult + 1)] for lam, mult in reals]
    sets = []
    for size in range(_MAX_COLUMNS + 1):
        for roots in itertools.combinations(options, size):
            for picked in itertools.product(*roots):
                cols = sum(t for _, t in picked)
                if size and cols <= _MAX_COLUMNS:
                    sets.append((cols, picked, ()))
                if cols + 2 <= _MAX_COLUMNS:
                    sets += [(cols + 2, picked, ((mod, phi, 1),)) for mod, phi, _ in complexes]
    sets.sort(key=lambda s: s[0])
    return sets


def _annihilator(reals, complexes) -> np.ndarray:
    """The monic polynomial whose roots are the modes, lowest degree first."""
    poly = np.ones(1)
    for lam, t in reals:
        for _ in range(t):
            poly = np.convolve(poly, [-lam, 1.0])
    for mod, phi, t in complexes:
        for _ in range(t):
            poly = np.convolve(poly, [mod * mod, -2.0 * mod * math.cos(phi), 1.0])
    return poly


@functools.lru_cache(maxsize=_MODES_CACHE_SIZE)
def _candidates(spectrum: RootReport) -> _Candidates:
    """The candidate mode sets of ``spectrum``, one shared object per equal
    report."""
    deg = spectrum.problem.degree
    sets = _mode_sets(*_spectrum_terms(spectrum))
    columns = np.array([cols for cols, _, _ in sets])
    coeffs = np.zeros((_MAX_COLUMNS + 1, len(sets)))
    for c, (cols, reals, complexes) in enumerate(sets):
        coeffs[: cols + 1, c] = _annihilator(reals, complexes)
    starts = np.arange(max(deg - 1, 0))
    windows = starts[:, None] + np.arange(_MAX_COLUMNS + 1)
    inside = starts[:, None] < deg - columns
    arrays = (columns, coeffs, np.abs(coeffs), windows, inside)
    for a in arrays:
        a.flags.writeable = False
    return _Candidates(tuple((r, c) for _, r, c in sets), *arrays)


def _scaled(anchors: np.ndarray) -> tuple[np.ndarray, int, float]:
    """The anchors scaled into [-1, 1] by a power of two (exact), the
    exponent of that power and the largest anchor magnitude."""
    peak = float(np.max(np.abs(anchors)))
    exp = math.frexp(peak)[1]
    return np.ldexp(anchors, -exp), exp, peak


def excited_modes(
    orbit: Orbit,
    spectrum: RootReport,
    regime_of: Solution | None = None,
) -> ExcitedModes:
    """The fewest spectrum modes whose annihilator the anchors satisfy.

    The anchors are the first ``degree`` forward orbit values, so values
    held out of the fit stay out of the choice too.  Each candidate set
    (``_candidates``) passes when every anchor window ``x_j..x_{j+d}`` has
    ``|sum_i a_i x_{j+i}| <= MODE_THRESHOLD * sum_i |a_i| |x_{j+i}|``, ``a``
    its annihilator of degree d: what rounding leaves of a sum that is 0
    in exact arithmetic.  The fewest columns win, then the least ratio.
    ``regime_of`` optionally supplies the generating solution so that
    branch-crossing orbits of three-piece maps are refused: the linear
    recurrence only holds while the orbit stays in one affine regime.
    Raises :class:`SingularSystem`, naming the least ratio and the
    threshold, when no candidate passes.
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
    cands = _candidates(spectrum)
    # scaled, so no product overflows; the ratios do not change
    padded = np.zeros(deg + _MAX_COLUMNS)
    padded[:deg] = _scaled(vals[:deg])[0]
    windows = padded[cands.windows]
    sums = np.abs(windows @ cands.coeffs)
    sizes = np.abs(windows) @ cands.magnitudes
    ratios = np.divide(
        sums, sizes, out=np.zeros_like(sums), where=cands.inside & (sizes > 0.0)
    )
    worst = ratios.max(axis=0, initial=0.0)
    passed = worst <= MODE_THRESHOLD
    if not passed.any():
        raise SingularSystem(
            f"no set of at most {_MAX_COLUMNS} spectrum modes explains the "
            f"anchors: least annihilator residual ratio {worst.min():.3e} "
            f"exceeds the threshold {MODE_THRESHOLD:.3e}"
        )
    cols = cands.columns[passed.argmax()]  # the fewest, as the sets are sorted
    pick = int(np.where(passed & (cands.columns == cols), worst, np.inf).argmin())
    fewer = worst[cands.columns < cols]
    reals, complexes = cands.modes[pick]
    return ExcitedModes(
        reals,
        complexes,
        deg,
        float(worst[pick]),
        float(fewer.min()) if fewer.size else None,
    )


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE)
def _fit_system(terms: tuple, anchors: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis of ``terms`` at ``0..anchors-1`` and its weighted
    least-squares solution operator, both read-only, one shared pair per key.

    Each row of the basis is scaled by a power of two to a largest entry
    in [1/2, 1), then each column: an orbit value is rounded relative to
    its largest term, so the rows weigh each anchor by its rounding, and
    the columns balance the modes.  The scaled basis's singular value
    decomposition gives the operator, with both scalings folded in.
    Raises :class:`SingularSystem` when the scaled basis's condition
    number exceeds 1e12; failures are not cached.
    """
    basis = _cached_basis(terms, 0, anchors - 1)
    rows = np.ldexp(1.0, -np.frexp(np.abs(basis).max(axis=1))[1])
    scaled = basis * rows[:, None]
    cols = np.ldexp(1.0, -np.frexp(np.abs(scaled).max(axis=0))[1])
    u, s, vt = np.linalg.svd(scaled * cols, full_matrices=False)
    cond = s[0] / s[-1] if s[-1] > 0.0 else math.inf
    if not cond <= _COND_LIMIT:
        raise SingularSystem(
            f"anchor basis condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    solve = (cols[:, None] * vt.T / s) @ (u.T * rows)
    solve.flags.writeable = False
    return basis, solve


def fit_modes(orbit: Orbit, modes: ExcitedModes) -> ClosedForm:
    """The closed form on ``modes``, fitted to the first ``modes.anchors``
    forward orbit values by weighted least squares.

    The fit reads its basis and solution operator from one memo
    (``_fit_system``) keyed on the modes and the anchor count.  Raises
    :class:`SingularSystem` when the basis's condition number exceeds
    1e12 or the fit misses an anchor by more than ``ANCHOR_TOL``
    relative.
    """
    anchors = orbit.forward_values()[: modes.anchors]
    basis, solve = _fit_system(_terms_key(modes.reals, modes.complexes), modes.anchors)
    scaled, exp, peak = _scaled(anchors)
    weights = np.ldexp(solve @ scaled, exp)
    limit = ANCHOR_TOL * (1.0 + peak)
    fitted = _combine(basis, weights)  # predict_range(cf, 0, anchors - 1), bit for bit
    errors = np.abs(fitted - anchors)
    if not errors.max() <= limit:  # a NaN error fails too
        j = int(np.argmax(~(errors <= limit)))
        raise SingularSystem(
            f"fit does not reproduce anchor {j}: "
            f"{float(fitted[j])!r} vs {float(anchors[j])!r}, "
            f"error {errors[j]:.3e} exceeds {limit:.3e}"
        )
    return _assemble(modes.reals, modes.complexes, weights.tolist())


def fit_closed_form(
    orbit: Orbit,
    spectrum: RootReport,
    regime_of: Solution | None = None,
) -> ClosedForm:
    """The closed form of the orbit on the modes it excites:
    ``fit_modes(orbit, excited_modes(orbit, spectrum, regime_of))``.

    Only the excited modes carry weight, so a root the orbit never
    excites has no weight for ``|lambda|^30`` to grow at index 30.
    """
    return fit_modes(orbit, excited_modes(orbit, spectrum, regime_of))


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

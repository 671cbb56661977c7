"""Differential oracle: reported roots against high-precision mpmath roots.

Each reported real root other than 1 is compared with the root of the
exact integer polynomial ``p / (r - 1)^m`` in the same bracket, found by
bisection in 40-digit arithmetic.  For n <= 12, and for a few lifted starts
up to n = 60, the whole spectrum is also compared with ``mpmath.polyroots``
at 50 digits.  Reciprocity needs no reference: the polynomial of (n, n-k)
is that of (n, k) reversed, so each root of one is the reciprocal of a
root of the other.
"""

import mpmath as mp
import numpy as np
import pytest

from itereq.charpoly import CharProblem, analyze_roots, classify

REL_TOL = 1e-13

# k = 0 and k = n at several n; (12, 11), (40, 32) and (64, 16); (44, 1),
# whose small root had the largest relative error (6.4e-14) over every k
# for n <= 64; (62, 32), the largest for the bisection-and-Newton path that
# came before the single eigenvalue solve (1.0e-13).  From n = 21 on the
# estimates come from the lifted form: n = 2k +- 1, where its two circles
# meet near 1 and the positive root other than 1 lies closest to it, and
# k = 1 and k = n - 1, where one circle has a single slot
SAMPLE = [
    (2, 0), (9, 0), (24, 0), (33, 0), (64, 0),
    (2, 2), (7, 7), (20, 20), (64, 64),
    (12, 11), (40, 32), (64, 16), (44, 1),
    (9, 4), (25, 12), (31, 17), (48, 47), (57, 30), (62, 32),
    (31, 15), (31, 16), (47, 23), (47, 24), (63, 31), (63, 32), (99, 49), (99, 50),
    (48, 1), (64, 1), (64, 63), (100, 1), (100, 99),
]
# past n = 12, lifted starts: k = 1 and k = n - 1 (one circle with a single
# slot), n - 2k in {-1, 1, 2} (the slow w = 1 slot near 1, started from the
# Taylor root) and n = 2k (the two circles meet at the double root 1)
SPECTRUM_SAMPLE = [(n, k) for n in range(2, 13) for k in range(n + 1)] + [
    (31, 1), (33, 17), (43, 21), (44, 22), (58, 28), (60, 59),
]


def exact_deflated(prob: CharProblem) -> list[int]:
    """Ascending integer coefficients of the characteristic polynomial over (r - 1)^m."""
    n, k = prob.n, prob.k
    coeffs = [-1] * (n + 1)
    if k == n:
        coeffs[n] = n
    else:
        coeffs[k] += n + 1
    for _ in range(classify(prob).expected_real_roots[0].multiplicity):
        quotient, acc = [0] * (len(coeffs) - 1), 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc += coeffs[i]
            quotient[i - 1] = acc
        assert acc + coeffs[0] == 0  # 1 is a root: the division is exact
        coeffs = quotient
    return coeffs


def mp_root_in(coeffs: list[int], lo: float, hi: float) -> mp.mpf:
    """The sign-change point of ``coeffs`` in (lo, hi), by 40-digit bisection."""
    with mp.workdps(40):
        desc = coeffs[::-1]
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = mp.polyval(desc, a)
        assert fa * mp.polyval(desc, b) < 0
        for _ in range(160):
            mid = (a + b) / 2
            fm = mp.polyval(desc, mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        return (a + b) / 2


@pytest.mark.parametrize("n, k", SAMPLE)
def test_real_roots_match_40_digit_roots(n, k):
    prob = CharProblem(n, k)
    coeffs = exact_deflated(prob)
    report = analyze_roots(prob)
    assert report.real_roots[0].value == 1.0
    for rec in report.real_roots[1:]:
        ref = mp_root_in(coeffs, *rec.bracket)
        err = abs((mp.mpf(rec.value) - ref) / ref)
        assert err <= REL_TOL, (rec, float(ref), float(err))


@pytest.mark.parametrize("n, k", SPECTRUM_SAMPLE)
def test_spectrum_matches_50_digit_polyroots(n, k):
    prob = CharProblem(n, k)
    coeffs = exact_deflated(prob)
    report = analyze_roots(prob)
    found = [complex(r.value) for r in report.real_roots[1:]]
    found += [z.as_complex() for z in report.complex_roots for _ in range(z.multiplicity)]
    if len(coeffs) == 1:
        assert found == []
        return
    with mp.workdps(50):
        refs = [complex(z) for z in mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=100)]
    assert len(found) == len(refs)
    for z in found:
        ref = min(refs, key=lambda w: abs(w - z))
        refs.remove(ref)
        assert abs(z - ref) <= REL_TOL * abs(ref), (z, ref)


def spectrum(prob: CharProblem) -> tuple[np.ndarray, int]:
    """Every reported root but 1, each simple, and the multiplicity of 1."""
    report = analyze_roots(prob)
    found = [r.value for r in report.real_roots[1:]]
    found += [z.as_complex() for z in report.complex_roots]
    return np.array(found, dtype=complex), report.real_roots[0].multiplicity


@pytest.mark.parametrize("n", range(2, 101))
def test_roots_are_reciprocals_of_the_reversed_problem_roots(n):
    for k in range(n + 1):
        found, mult = spectrum(CharProblem(n, k))
        refs, mult_reversed = spectrum(CharProblem(n, n - k))
        assert mult == mult_reversed and len(found) == len(refs) == n - mult
        if not len(found):
            continue
        # the other roots are simple: each nearest reciprocal is a different one
        dist = np.abs(found[:, None] - 1.0 / refs[None, :])
        nearest = np.argmin(dist, axis=1)
        assert np.array_equal(np.sort(nearest), np.arange(len(refs))), k
        err = dist[np.arange(len(found)), nearest] / np.abs(found)
        assert np.all(err <= REL_TOL), (k, found[np.argmax(err)], np.max(err))


@pytest.mark.parametrize("n", [150, 151, 171, 191, 200])
def test_root_near_n_past_the_float_range_of_its_powers(n):
    # (n, n-1) has a real root near n, where r^(n-1) passes 1e308: the
    # spectrum is polished through the reversed polynomial there; at 151,
    # 171 and 191 a residual of exactly 0 meets a scale that underflowed
    prob = CharProblem(n, n - 1)
    report = analyze_roots(prob)
    one, big = report.real_roots[:2]
    assert one.value == 1.0 and n - 1 < big.value < n
    coeffs = exact_deflated(prob)
    for rec in report.real_roots[1:]:  # odd n adds a root in (-1, 0)
        ref = mp_root_in(coeffs, *rec.bracket)
        assert abs((mp.mpf(rec.value) - ref) / ref) <= REL_TOL

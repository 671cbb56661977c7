"""Quasi-arithmetic means and their generator maps.

A generator is a continuous bijection ``phi`` from an interval onto an
interval; the associated mean of ``x_0..x_n`` is
``phi^{-1}( (phi(x_0) + ... + phi(x_n)) / (n+1) )``.  Three generator
kinds cover the solved instances:

* ``identity``  -- arithmetic mean;
* ``power`` p   -- ``phi(x) = x^(1/p)``; e.g. p = 2 averages square roots;
* ``log``       -- ``phi(x) = log x``, the geometric mean.

Power and log generators require a domain inside (0, +inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .intervals import Interval, finite_real

_KINDS = ("identity", "power", "log")


@dataclass(frozen=True)
class Generator:
    """Generator map of a quasi-arithmetic mean, with its domain."""

    kind: str
    domain: Interval
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if self.kind == "power":
            if finite_real(self.p, "p") == 0.0:
                raise DomainError("power generator needs a nonzero exponent p")
        elif self.p is not None:
            raise DomainError(f"{self.kind} generator takes no exponent")
        if self.kind in ("power", "log") and self.domain.lo < 0.0:
            raise DomainError(
                f"{self.kind} generator needs a domain inside (0, +inf), "
                f"got {self.domain}"
            )
        if self.kind in ("power", "log") and self.domain.lo == 0.0 and self.domain.lo_closed:
            raise DomainError(f"{self.kind} generator domain must exclude 0")

    # -- forward / inverse maps ------------------------------------------------

    def phi(self, x):
        if self.kind == "identity":
            return x
        if self.kind == "log":
            return np.log(x) if isinstance(x, np.ndarray) else math.log(x)
        e = 1.0 / self.p
        return _power(x, e)

    def phi_inv(self, y):
        if self.kind == "identity":
            return y
        if self.kind == "log":
            return np.exp(y) if isinstance(y, np.ndarray) else math.exp(y)
        return _power(y, self.p)

    @property
    def increasing(self) -> bool:
        """Orientation of phi on its domain."""
        if self.kind == "power":
            return self.p > 0.0
        return True

    # -- domain transport --------------------------------------------------------

    def _phi_limit(self, v: float) -> float:
        """phi extended to endpoint values 0 and +-inf by continuity."""
        if self.kind == "identity":
            return v
        if self.kind == "log":
            if v == 0.0:
                return -math.inf
            if v == math.inf:
                return math.inf
            return math.log(v)
        e = 1.0 / self.p
        if v == 0.0:
            return 0.0 if e > 0 else math.inf
        if v == math.inf:
            return math.inf if e > 0 else 0.0
        return v ** e

    def _phi_inv_limit(self, v: float) -> float:
        """phi^{-1} extended to endpoint values 0 and +-inf by continuity."""
        if self.kind == "identity":
            return v
        if self.kind == "log":
            if v == -math.inf:
                return 0.0
            if v == math.inf:
                return math.inf
            return math.exp(v)
        if v == 0.0:
            return 0.0 if self.p > 0 else math.inf
        if v == math.inf:
            return math.inf if self.p > 0 else 0.0
        return v ** self.p

    def transport(self, interval: Interval) -> Interval:
        """The image phi(interval), respecting orientation and openness."""
        try:
            lo_img = self._phi_limit(interval.lo)
            hi_img = self._phi_limit(interval.hi)
        except OverflowError:
            raise DomainError(
                f"power generator with p = {self.p!r} overflows on {interval}"
            ) from None
        if self.increasing:
            return Interval(lo_img, hi_img, interval.lo_closed, interval.hi_closed)
        return Interval(hi_img, lo_img, interval.hi_closed, interval.lo_closed)

    def image(self) -> Interval:
        return self.transport(self.domain)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "power":
            out["p"] = self.p
        return out

    @classmethod
    def from_json(cls, obj: dict, domain: Interval) -> "Generator":
        kind = obj["kind"]
        return cls(kind=kind, domain=domain, p=obj.get("p"))

    @classmethod
    def parse(cls, text: str, domain: Interval) -> "Generator":
        """A generator written as ``identity``, ``log`` or ``power:P``."""
        token = text.strip().lower()
        if token in ("identity", "log"):
            return cls(token, domain)
        if token.startswith("power:"):
            return cls("power", domain, p=float(token[6:]))
        raise DomainError(f"unknown generator {text!r}; use identity, log or power:P")


def _power(x, e: float):
    if isinstance(x, np.ndarray):
        return np.power(x, e)
    return float(x) ** e


def qa_mean(gen: Generator, values: Sequence[float]) -> float:
    """Quasi-arithmetic mean of ``values`` under ``gen``.

    Every value must lie in the generator's domain; the result lies
    between the smallest and largest input (internality).  A constant
    tuple returns its value exactly (idempotence).
    """
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("mean of an empty tuple")
    for v in vals:
        if not gen.domain.contains(v):
            raise DomainError(f"value {v!r} outside generator domain {gen.domain}")
    if min(vals) == max(vals):
        return vals[0]
    total = math.fsum(gen.phi(v) for v in vals)
    return float(gen.phi_inv(total / len(vals)))


def qa_mean_rows(gen: Generator, rows: np.ndarray, anchor: int = 0) -> np.ndarray:
    """Column-wise quasi-arithmetic mean of a (terms, points) array.

    The sum is taken over deviations from the ``anchor`` row, which keeps
    the result exact (by idempotence) wherever all rows agree and well
    conditioned everywhere else.  Each point's terms are added in NumPy's
    pairwise order (see ``_column_sums``), so its mean depends neither on
    the other points nor on the layout of ``rows``.  No domain checking:
    callers mask points first.
    """
    if gen.kind == "identity":
        phi_vals = rows
    else:
        phi_vals = gen.phi(rows)
    dev = _column_sums(phi_vals - phi_vals[anchor]) / rows.shape[0]
    mean_phi = phi_vals[anchor] + dev
    if gen.kind == "identity":
        general = mean_phi
    else:
        general = gen.phi_inv(mean_phi)
    return np.where(dev == 0.0, rows[anchor], general)


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """``np.add.reduce(terms, axis=0)`` as NumPy sums one contiguous column.

    NumPy adds a column's pairwise sum to the identity 0.0.  The pairwise
    sum adds fewer than 8 terms in sequence; up to 128 terms in eight
    interleaved partial sums ``r_j += t[i + j]``, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the leftover
    terms in sequence; more terms in two halves, the first a multiple of 8
    long.  Whole-row adds on the C-ordered rows follow that order for every
    column at once, with no Fortran-ordered copy.  Starting each sequence
    from 0.0 (``+ 0.0`` on the first terms) gives a sum of zeros the sign
    the identity gives it.
    """
    count = terms.shape[0]
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _column_sums(terms[:half]) + _column_sums(terms[half:])
    if count < 8:
        total = terms[0] + 0.0
        for row in terms[1:]:
            total += row
        return total
    stop = count - count % 8
    r = terms[:8] + 0.0
    for i in range(8, stop, 8):
        r += terms[i:i + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in terms[stop:]:
        total += row
    return total

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
from .intervals import REL_SLACK, Interval, finite_real

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

    def phi(self, x, out=None):
        """phi; on a single float, extended to 0 and +inf by continuity:
        ``log(0) = -inf``, and ``0 ** e = inf`` for ``e < 0``.  An array
        ``x`` may be mapped into ``out``, an array of its shape (``x``
        itself included), which is returned."""
        if self.kind == "identity":
            if out is None:
                return x
            np.copyto(out, x)
            return out
        if self.kind == "log":
            if isinstance(x, np.ndarray):
                return np.log(x, out=out)
            return -math.inf if x == 0.0 else math.log(x)
        e = 1.0 / self.p
        return _power(x, e, out)

    def phi_inv(self, y, out=None):
        """phi^{-1}; on a single float, extended to 0 and +-inf by
        continuity as ``phi`` is.  ``out`` as for ``phi``."""
        if self.kind == "identity":
            return self.phi(y, out)
        if self.kind == "log":
            return np.exp(y, out=out) if isinstance(y, np.ndarray) else math.exp(y)
        return _power(y, self.p, out)

    @property
    def increasing(self) -> bool:
        """Orientation of phi on its domain."""
        if self.kind == "power":
            return self.p > 0.0
        return True

    # -- domain transport --------------------------------------------------------

    def transport(self, interval: Interval) -> Interval:
        """The image phi(interval), respecting orientation and openness."""
        try:
            return interval.monotone_image(self.phi, self.increasing)
        except OverflowError:
            raise DomainError(
                f"power generator with p = {self.p!r} overflows on {interval}"
            ) from None

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
            try:
                p = float(token[6:])
            except ValueError:
                p = None
            if p is not None:
                return cls("power", domain, p=p)
        raise DomainError(f"unknown generator {text!r}; use identity, log or power:P")


def _power(x, e: float, out=None):
    if isinstance(x, np.ndarray):
        return np.power(x, e, out=out)
    x = float(x)
    if x == 0.0:
        return 0.0 if e > 0.0 else math.inf
    return x ** e


def qa_mean(gen: Generator, values: Sequence[float]) -> float:
    """Quasi-arithmetic mean of ``values`` under ``gen``.

    Every value must lie in the generator's domain; the result lies
    between the smallest and largest input (internality).  A constant
    tuple returns its value exactly (idempotence).  Overflow of ``phi`` or
    its inverse, ``phi`` underflowing a value to 0 beside a ``phi`` sum of
    at most ``len(values)`` smallest normal doubles (only there can the
    lost values move the mean past rounding), or a result farther outside
    ``[min, max]`` than rounding (``REL_SLACK``) raises a
    :class:`DomainError` naming the generator and the values; a rounding
    excursion is clamped.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("mean of an empty tuple")
    for v in vals:
        if not gen.domain.contains(v):
            raise DomainError(f"value {v!r} outside generator domain {gen.domain}")
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return vals[0]
    try:
        phis = [gen.phi(v) for v in vals]
        total = math.fsum(phis)
        mean = float(gen.phi_inv(total / len(vals)))
        why = None
        lost = any(y == 0.0 and v != gen.phi_inv(0.0) for v, y in zip(vals, phis))
        if lost and total <= len(vals) * np.finfo(float).tiny:
            why = "phi underflows a nonzero value to 0"
        elif not lo - REL_SLACK * abs(lo) <= mean <= hi + REL_SLACK * abs(hi):
            why = f"result {mean!r} lies outside [{lo!r}, {hi!r}]"
    except OverflowError:
        why = "phi or its inverse overflows"
    if why:
        raise DomainError(f"mean of {vals!r} under generator {gen.to_json()}: {why}")
    return min(max(mean, lo), hi)


def qa_mean_rows(gen: Generator, rows: np.ndarray, anchor: int = 0) -> np.ndarray:
    """Column-wise quasi-arithmetic mean of a (terms, points) array,
    computed in ``rows``, which it overwrites.

    The sum is taken over deviations from the ``anchor`` row, which keeps
    the result exact (by idempotence) wherever all rows agree and well
    conditioned everywhere else.  ``phi`` maps ``rows`` in place; one
    broadcast subtraction then takes the anchor row from every row in
    place (elementwise, so each row gets the per-row operation), and the
    rows are added into row 0 one at a time, in row order, so a point's
    mean depends neither on the other points nor on the layout of
    ``rows`` (``np.add.reduce`` would depend on it).  The mean is returned
    in row 0; the other rows hold the deviations.  Beside ``rows`` only
    row-sized buffers are made: a copy of the anchor row's phi values and,
    under another generator, a copy of the anchor row and the mask of the
    points whose mean deviation is 0.  Under the identity generator a
    column whose rows all agree may differ from them in the sign of a
    zero.  No domain checking: callers mask points first.
    """
    identity = gen.kind == "identity"
    anchor_x = None if identity else rows[anchor].copy()
    phi_vals = rows if identity else gen.phi(rows, out=rows)
    base = phi_vals[anchor].copy()
    np.subtract(phi_vals, base, out=phi_vals)
    dev = phi_vals[0]
    for row in phi_vals[1:]:
        dev += row
    dev /= rows.shape[0]
    if identity:
        return np.add(base, dev, out=dev)
    unmoved = dev == 0.0
    gen.phi_inv(np.add(base, dev, out=dev), out=dev)
    np.copyto(dev, anchor_x, where=unmoved)
    return dev

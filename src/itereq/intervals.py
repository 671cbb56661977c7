"""Real intervals with open/closed/infinite endpoints."""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

from .errors import DomainError

_INF_TOKENS = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf}
# Relative slack of the membership tests that guard against rounding: a
# value x counts as inside up to REL_SLACK * (1 + |x|) past a finite end.
REL_SLACK = 1e-12


@dataclass(frozen=True)
class Interval:
    """Non-trivial interval; infinite endpoints are always open."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    # -- membership ---------------------------------------------------------

    def contains(self, x: float) -> bool:
        # false for NaN, which fails every comparison
        if not self.lo <= x <= self.hi:
            return False
        if x == self.lo:
            return self.lo_closed
        if x == self.hi:
            return self.hi_closed
        return True

    def contains_in_closure(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def is_interior(self, x: float) -> bool:
        return self.lo < x < self.hi

    def __contains__(self, x: float) -> bool:
        return self.contains(x)

    # -- structure -----------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def is_real_line(self) -> bool:
        return math.isinf(self.lo) and math.isinf(self.hi)

    @property
    def is_open(self) -> bool:
        return not self.lo_closed and not self.hi_closed

    @property
    def is_closed(self) -> bool:
        lo_ok = self.lo_closed or math.isinf(self.lo)
        hi_ok = self.hi_closed or math.isinf(self.hi)
        return lo_ok and hi_ok

    def window(self, half_width: float = 10.0) -> tuple[float, float]:
        """Bounded sampling window: the interval clipped to +-half_width.

        An interval lying wholly outside the clip range keeps its finite
        end and takes a window of width ``2 * half_width`` next to it.
        """
        lo = max(self.lo, -half_width)
        hi = min(self.hi, half_width)
        if lo < hi:
            return lo, hi
        if math.isinf(self.hi):
            return self.lo, self.lo + 2.0 * half_width
        if math.isinf(self.lo):
            return self.hi - 2.0 * half_width, self.hi
        return self.lo, self.hi

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        def enc(v: float) -> float | str:
            if v == math.inf:
                return "+inf"
            if v == -math.inf:
                return "-inf"
            return v

        return {
            "lo": enc(self.lo),
            "hi": enc(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        flags = []
        for name in ("lo_closed", "hi_closed"):
            flag = obj.get(name, False)
            if not isinstance(flag, bool):
                raise DomainError(
                    f"interval field {name!r} must be a boolean, got {flag!r}"
                )
            flags.append(flag)
        return cls(_endpoint(obj["lo"], "lo"), _endpoint(obj["hi"], "hi"), *flags)

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-inf" if math.isinf(self.lo) else f"{self.lo:g}"
        hi = "+inf" if math.isinf(self.hi) else f"{self.hi:g}"
        return f"{lb}{lo},{hi}{rb}"


REAL_LINE = Interval()


def contains_with_slack(interval: Interval, x: float) -> bool:
    """True when ``x`` is finite and in the closure of ``interval`` up to
    the relative slack ``REL_SLACK * (1 + |x|)``, in Python floats."""
    if not math.isfinite(x):
        return False
    slack = REL_SLACK * (1.0 + abs(x))
    return interval.lo - slack <= x <= interval.hi + slack


_INTERVAL_RE = re.compile(r"^\s*([\[\(])\s*([^,\s]+)\s*,\s*([^,\s\]\)]+)\s*([\]\)])\s*$")


def parse_interval(text: str) -> Interval:
    """Parse ``"(lo,hi)"`` / ``"[lo,hi]"`` (mixed brackets allowed).

    The tokens ``-inf`` / ``+inf`` / ``inf`` denote infinite endpoints.
    """
    m = _INTERVAL_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse interval {text!r}")
    lb, lo_s, hi_s, rb = m.groups()
    return Interval(
        lo=_endpoint(lo_s, "lo"),
        hi=_endpoint(hi_s, "hi"),
        lo_closed=(lb == "["),
        hi_closed=(rb == "]"),
    )


def finite_real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number and not a bool.

    Otherwise a :class:`DomainError` names the field ``name``.
    """
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real):
            if math.isfinite(value):
                return float(value)
    except OverflowError:
        pass
    raise DomainError(f"field {name!r} must be a finite real number, got {value!r}")


def _endpoint(value, name: str) -> float:
    """An endpoint given as a number or as text (``inf``, ``-inf``, ``+inf``)."""
    if isinstance(value, str):
        value = value.strip().lower()
        if value in _INF_TOKENS:
            return _INF_TOKENS[value]
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"interval endpoint {name!r} must be a number, got {value!r}")
    try:
        x = float(value)
    except (ValueError, OverflowError):
        x = math.nan
    if math.isnan(x):
        raise DomainError(f"bad interval endpoint {name!r}: {value!r}")
    return x

"""itereq: iterate-mean functional equations, their roots and solutions.

The library analyzes the equation  f^k(x) = (f^0(x) + ... + f^n(x))/(n+1)
for a continuous self-map f of a real interval: it classifies the
characteristic polynomial's root layout, constructs the closed-form
solution families (including quasi-arithmetic-mean conjugates), verifies
every construction numerically, and fits orbits to their closed-form
recurrence representation.
"""

from .charpoly import (
    CaseAnalysis,
    CharProblem,
    RootReport,
    analyze_roots,
    build_char_poly,
    classify,
    report_matches_expectation,
)
from .errors import (
    BadAnchor,
    BracketFailure,
    ConstructionError,
    DomainError,
    DomainMismatch,
    ItereqError,
    NonConvergence,
    NotAnInvolution,
    NotInvertible,
    NotSurjective,
    RootMismatch,
    SingularSystem,
    TooShort,
)
from .families import (
    OPEN_PROBLEM,
    Affine,
    Conjugate,
    FamilyDescriptor,
    FamilyEnumeration,
    Identity,
    Involution,
    SecondOrderProblem,
    Solution,
    ThreePiece,
    Translation,
    build_involution,
    conjugate,
    enumerate_families,
    second_order_families,
    solution_from_json,
)
from .intervals import REAL_LINE, Interval, parse_interval
from .means import Generator, qa_mean
from .poly import (
    ComplexRoot,
    Polynomial,
    all_roots,
)
from .recurrence import (
    ClosedForm,
    check_recurrence,
    fit_closed_form,
    predict,
    prediction_error,
    single_regime,
)
from .verify import (
    DualReport,
    Orbit,
    VerifyReport,
    antimonotone_signs_constant,
    iterate,
    verify_dual,
    verify_general,
    verify_mean,
    verify_second_order,
)

__version__ = "0.1.0"

"""Command-line front end.

Subcommands
-----------
analyze         root classification and verification for one (n, k)
solve           emit solution specs for (n, k) on an interval
verify          check a solution spec file against its equation
orbit           iterate a solution spec and emit CSV
fit-recurrence  fit a closed form to an orbit CSV and validate predictions
selftest        run the full acceptance battery

Exit codes: 0 success/pass, 1 check failure (the claim failed at this
(n, k)), 2 usage or input error, 3 unsolved regime (0 < k < n with k and
n both even), 4 numerical failure (a solver or fit gave up, a fitted
closed form left the float range, or the run ran out of memory; nothing
was refuted).  ``fit-recurrence`` on an orbit that no set of at most three
spectrum modes explains exits 1 if the orbit breaks the recurrence and 4
if it keeps it.

``--generator`` takes exactly ``identity``, ``log`` or ``power:P``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .charpoly import (
    CharProblem,
    analyze_roots,
    build_char_poly,
    classify,
    report_matches_expectation,
)
from .errors import (
    BracketFailure,
    ConstructionError,
    ItereqError,
    NonConvergence,
    RootMismatch,
    SingularSystem,
)
from .families import enumerate_families, solution_from_json
from .intervals import json_float, parse_interval
from .means import Generator
from .recurrence import (
    PREDICTION_TOL,
    RECURRENCE_TOL,
    ClosedForm,
    check_recurrence,
    excited_modes,
    fit_modes,
    prediction_error,
)
from .verify import DEFAULT_SAMPLES, DEFAULT_TOL, Orbit, iterate, verify_general

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_OPEN_PROBLEM = 3
EXIT_NUMERICAL = 4

# strict JSON (RFC 8259): every report writes a non-finite float as a string
_dumps = functools.partial(json.dumps, allow_nan=False)


def _float_repr(x: float) -> str:
    return repr(float(x))


def _positive_tol(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itereq",
        description=(
            "Analyze and verify the iterate-mean equation "
            "f^k(x) = (f^0(x) + ... + f^n(x))/(n+1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify and verify the root layout")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="emit solution specs for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--interval",
        default="(-inf,+inf)",
        help='domain, e.g. "(-inf,inf)", "[0,1]", "(0,+inf)"',
    )
    p.add_argument(
        "--params",
        default="",
        help=(
            "comma-separated free parameters, e.g. c=1 or a=0,b=1; "
            "defaults anchor at the sample-window midpoint"
        ),
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify a solution spec file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--solution", required=True, help="solution spec JSON file")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--tol", type=_positive_tol, default=DEFAULT_TOL)
    p.add_argument(
        "--generator",
        default="identity",
        help='mean generator: "identity", "log", or "power:P"',
    )

    p = sub.add_parser("orbit", help="iterate a solution spec, emit CSV")
    p.add_argument("--solution", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--back", type=int, default=0)
    p.add_argument("--csv", default=None, help="output file (default stdout)")

    p = sub.add_parser(
        "fit-recurrence", help="fit a closed form to an orbit CSV"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--orbit", required=True, help="CSV of rows m,x_m")
    p.add_argument("--json", action="store_true")

    sub.add_parser("selftest", help="run the acceptance battery")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "analyze": _cmd_analyze,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "orbit": _cmd_orbit,
        "fit-recurrence": _cmd_fit,
        "selftest": _cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except BracketFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (NonConvergence, SingularSystem, RootMismatch) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError:
        print(
            "numerical failure: a closed-form term left the float range; "
            "nothing was refuted",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except MemoryError:
        print(
            f"numerical failure: out of memory in {args.command}; "
            "the problem is too large for this machine",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (ItereqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_analyze(args) -> int:
    prob = CharProblem(args.n, args.k)
    analysis = classify(prob)
    report = analyze_roots(prob)
    matched, problems = report_matches_expectation(report)

    if args.json:
        payload = report.to_json()
        payload["case_label"] = analysis.case_label
        payload["r_min"] = analysis.r_min
        payload["r_max"] = analysis.r_max
        payload["expected_real_roots"] = [
            {"bracket": [e.bracket[0], e.bracket[1]], "multiplicity": e.multiplicity}
            for e in analysis.expected_real_roots
        ]
        payload["matched"] = matched
        payload["mismatches"] = problems
        print(_dumps(payload, indent=2))
    else:
        print(f"case {analysis.case_label}  (n={prob.n}, k={prob.k})")
        for r in report.real_roots:
            lo, hi = r.bracket
            where = "exact" if r.value == 1.0 else f"in ({lo:g}, {hi:g})"
            print(
                f"  real root {_float_repr(r.value)}  multiplicity {r.multiplicity}  {where}"
            )
        for z in report.complex_roots:
            print(
                f"  complex root {_float_repr(z.re)} + {_float_repr(z.im)}i"
                f"  modulus {_float_repr(z.modulus)}"
            )
        bound = 2 * prob.n + 1
        print(
            f"  modulus bound < {bound}: {'ok' if report.bound_2n1_ok else 'VIOLATED'}"
            f"  (margin {_float_repr(report.bound_margin)})"
        )
        gap = report.modulus_separation_min_gap
        if gap is None:
            print("  modulus separation: not applicable (k and n both even)")
        else:
            print(f"  modulus separation min gap: {_float_repr(gap)}")
        print(f"  expectations matched: {matched}")
        for msg in problems:
            print(f"  mismatch: {msg}")
    return EXIT_OK if matched else EXIT_CHECK_FAILED


def _parse_params(text: str) -> dict[str, float]:
    params: dict[str, float] = {}
    if not text.strip():
        return params
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ItereqError(f"bad --params chunk {chunk!r}; expected name=value")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name in params:
            raise ItereqError(f"--params names {name!r} more than once")
        params[name] = float(value)
    return params


def _cmd_solve(args) -> int:
    prob = CharProblem(args.n, args.k)
    domain = parse_interval(args.interval)
    params = _parse_params(args.params)
    enumeration = enumerate_families(prob, domain)
    if enumeration.is_open_problem:
        if args.json:
            print(_dumps({"status": "open_problem"}))
        else:
            print(
                f"(n={prob.n}, k={prob.k}): both k and n even; the "
                "continuous-solution classification is unsolved"
            )
        return EXIT_OPEN_PROBLEM

    known = {name for desc in enumeration.families for name in desc.free_params}
    unknown = set(params) - known
    if unknown:
        raise ItereqError(
            f"unknown parameter(s) {sorted(unknown)}; "
            f"this case takes {sorted(known) or 'none'}"
        )
    solutions = [desc.instantiate(domain, **params) for desc in enumeration.families]

    if args.json:
        print(
            _dumps(
                {"status": "ok", "solutions": [s.to_json() for s in solutions]},
                indent=2,
            )
        )
    else:
        for desc, sol in zip(enumeration.families, solutions):
            print(f"{desc.family}: {desc.note}")
            print(f"  spec: {_dumps(sol.to_json())}")
    return EXIT_OK


def _load_solution(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return solution_from_json(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ItereqError(
                f"solution spec {path!r} is not valid JSON: {exc}"
            ) from None
        except RecursionError:
            raise ConstructionError(
                f"solution spec in {path!r} is nested too deeply"
            ) from None


def _cmd_verify(args) -> int:
    prob = CharProblem(args.n, args.k)
    sol = _load_solution(args.solution)
    gen = Generator.parse(args.generator, sol.domain)
    report = verify_general(sol, gen, prob, samples=args.samples, tol=args.tol)
    print(_dumps(report.to_json()))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_orbit(args) -> int:
    sol = _load_solution(args.solution)
    if args.steps < 0 or args.back < 0:
        raise ItereqError("--steps and --back must be nonnegative")
    orb = iterate(sol, args.x0, m_lo=-args.back, m_hi=args.steps)
    rows = enumerate(orb.points.tolist(), start=orb.m_lo)
    text = "".join(["m,x_m\n", *(f"{m},{_float_repr(v)}\n" for m, v in rows)])
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_orbit_csv(path: str) -> Orbit:
    """Rows ``m,x_m`` of exactly two fields.

    Only the first non-empty line may fail to parse, as a header.
    """
    rows: list[tuple[int, float]] = []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                m_text, v_text = line.split(",")
                m, v = int(m_text), float(v_text)
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ItereqError(
                    f"cannot parse orbit row on line {lineno}: {line!r}"
                ) from None
            header_allowed = False
            if not math.isfinite(v):
                raise ItereqError(
                    f"orbit value at row index {m} is not finite: {v!r}"
                )
            rows.append((m, v))
    if not rows:
        raise ItereqError(f"no orbit rows found in {path!r}")
    rows.sort()
    ms = [m for m, _ in rows]
    if ms != list(range(ms[0], ms[0] + len(ms))):
        raise ItereqError("orbit indices must be consecutive")
    # re-index so the first row is j = 0: the recurrence is shift-invariant
    vals = [v for _, v in rows]
    return Orbit(0, len(vals) - 1, vals)


def _cmd_fit(args) -> int:
    prob = CharProblem(args.n, args.k)
    orb = _read_orbit_csv(args.orbit)
    # n rows fix the n weights exactly, so only rows past n test the fit
    rows = orb.m_hi + 1
    if rows < prob.n + 1:
        raise ItereqError(
            f"orbit has {rows} rows, need at least n + 1 = {prob.n + 1}: "
            f"{prob.n} to fit and at least one held out to check the fit"
        )
    try:
        modes = excited_modes(orb, analyze_roots(prob))
    except SingularSystem:
        # no closed form on the spectrum: refuted if the orbit breaks the
        # recurrence, a numerical failure (exit 4) if it keeps it
        rec = check_recurrence(orb, build_char_poly(prob))
        if rec.passed:
            raise
        if args.json:
            print(_dumps({
                "recurrence_max_residual": json_float(rec.max_residual),
                "recurrence_tol": RECURRENCE_TOL,
            }, indent=2))
        else:
            print(
                f"recurrence residual {_float_repr(rec.max_residual)} exceeds "
                f"RECURRENCE_TOL ({RECURRENCE_TOL:g}, relative): the orbit does "
                f"not obey the ({prob.n}, {prob.k}) recurrence"
            )
        return EXIT_CHECK_FAILED
    cf = fit_modes(orb, modes)
    worst = prediction_error(cf, orb, prob.n, orb.m_hi)

    if args.json:
        payload = cf.to_json()
        payload["modes"] = modes.to_json()
        payload["held_out_max_relative_error"] = json_float(worst)
        payload["held_out_points"] = max(0, orb.m_hi + 1 - prob.n)
        print(_dumps(payload, indent=2))
    else:
        _print_closed_form(cf)
        print(f"held-out max relative error: {_float_repr(worst)}")
    return EXIT_OK if worst <= PREDICTION_TOL else EXIT_CHECK_FAILED


def _poly_text(coeffs: tuple[float, ...]) -> str:
    return " + ".join(
        f"{_float_repr(c)}*j^{i}" if i else _float_repr(c)
        for i, c in enumerate(coeffs)
    )


def _print_closed_form(cf: ClosedForm) -> None:
    for t in cf.real_terms:
        print(f"  ({_poly_text(t.coeffs)}) * ({_float_repr(t.lam)})^j")
    for t in cf.complex_terms:
        arg = _float_repr(t.argument)
        print(
            f"  [({_poly_text(t.cos_poly)})*cos({arg}*j) + "
            f"({_poly_text(t.sin_poly)})*sin({arg}*j)] * "
            f"({_float_repr(t.modulus)})^j"
        )


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all()
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

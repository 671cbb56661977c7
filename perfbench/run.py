"""Pipeline benchmark of itereq: the ``roots``, ``fit`` and ``verify`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload roots --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 1

Every workload is a closed loop: one process, one caller, the next op starts
when the previous one returns.  The library comes from ``src/`` of the same
checkout and receives only the inputs generated from ``--seed``.  A run
makes one whole pass over the inputs and then, except on roots (whose
inputs must not repeat), reshuffled passes until ``--seconds`` is up.

``--trace 0`` measures with tracing off and prints the end-to-end metrics:
``setup_s`` (import, input generation, references and warm-up; the median
of this process and six fresh child processes doing the same set-up),
``ops_per_s`` (passing inputs over the mean per-input latency),
``op_ms_p50`` and ``op_ms_p90`` (across inputs; each input's latency is its
median over the passes, and the summary states both counts),
``peak_rss_mb``, and ``fail_frac`` in the summary.  Timings are scaled to
a reference host speed by a calibration kernel timed before every op (see
``CAL_REF_S``); the raw values are printed beside them.  An op fails when
the library raises, reports its own failure, or the gate rejects the
output; the run is ``correct`` unless an output contradicts the gate's
references.  ``attempted`` and ``failed`` count inputs, not op runs, so the
same seed gives the same counts however many passes fit in the time.

``--trace 1`` runs one traced pass over every input and then one untraced
pass over the same ops, and prints the per-layer metrics of the traced pass
plus ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's record
(environment, metrics, failure ledger, every op's timing and, when traced,
every span) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

# One BLAS thread: the benchmark is a single closed-loop process and must not
# oversubscribe the cores.  Set before NumPy is imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "itereq", "__init__.py")):
    sys.exit(f"perfbench: no itereq sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import itereq  # noqa: E402
from itereq import _kernels  # noqa: E402
from itereq.errors import ItereqError  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(itereq.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: imported itereq from {itereq.__file__}, not from {SRC}")

SETUP_CHILDREN = 6
OUT_DIR = os.path.join(HERE, "out")


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

# The hosts this runs on are shared, and their speed moves fast: on one
# 2-vCPU Xeon the same op took 7 ms in one pass and 14 ms in the next, and
# a run's median speed moved 0.8x-1.3x from run to run.  So a short kernel
# that does not touch itereq is timed right before every op, and each op's
# time is scaled by the kernel's reference time over the median of the
# CAL_WINDOW kernel times on either side of it.  The kernel mimics what the
# workloads spend their time in: small NumPy array ops and a 50-digit
# mpmath solve, plus, for workloads whose ops stream large arrays (verify),
# a pass over 6.4 MB, past a core's L2, since neighbours on the host slow
# memory-bound and interpreter-bound code by different amounts.  Timings
# read as on a host where the kernel takes its reference time, close to its
# median on that Xeon under Python 3.11, NumPy 2.4 and mpmath 1.3.  Raw
# values are printed and recorded too.
CAL_REF_S = {False: 0.0025, True: 0.0055}  # keyed by Workload.streams
CAL_WINDOW = 2
_CAL_ARRAY = np.arange(1000.0)
_CAL_MATRIX = mpmath.matrix([[mpmath.mpf(1) / (i + j + 1) + (i == j) for j in range(6)]
                             for i in range(6)])
_CAL_RHS = mpmath.matrix([1] * 6)
_LU_SOLVE = mpmath.lu_solve  # bound before the tracer wraps mpmath.lu_solve


@functools.cache
def _cal_block() -> np.ndarray:
    """The streamed array, allocated only by workloads that stream."""
    return np.linspace(0.0, 1.0, 800_000).reshape(8, 100_000)


def calibration_kernel(streams: bool) -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    a = _CAL_ARRAY
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    with mpmath.workdps(50):
        _LU_SOLVE(_CAL_MATRIX, _CAL_RHS)
    if streams:
        block = _cal_block()
        np.sum(block * block, axis=0)
    return time.perf_counter() - t0


def local_factors(cal: list[float], streams: bool) -> np.ndarray:
    """Per-op scale: the kernel's reference time over its median time around each op."""
    cal_arr = np.asarray(cal)
    local = [np.median(cal_arr[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1])
             for j in range(len(cal_arr))]
    return CAL_REF_S[streams] / np.asarray(local)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

@dataclass
class Result:
    op: int       # index into the workload's ops
    seconds: float
    cal: float    # calibration kernel seconds just before the op
    status: str
    detail: str
    exception: str | None


def run_op(op: workloads.Op) -> tuple[float, str, str, str | None]:
    """Time one op, then gate it.  Returns (seconds, status, detail, exception)."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except ItereqError as exc:
        dt = time.perf_counter() - t0
        detail = str(exc)
        best = getattr(exc, "best_residual", None)
        if best is not None:
            detail += f" [best_residual={best!r}]"
        return dt, "fail", detail, type(exc).__name__
    except Exception as exc:  # a crash is recorded as a failed, incorrect op
        dt = time.perf_counter() - t0
        return dt, "error", traceback.format_exc(limit=4), type(exc).__name__
    dt = time.perf_counter() - t0
    status, detail = op.check(out)
    return dt, status, detail, None


def run_ops(wl: workloads.Workload, order: list[int], deadline: float | None = None,
            tracer: tracing.Tracer | None = None) -> list[Result]:
    """Run ops in ``order``, until the deadline when one is given."""
    results = []
    for i in order:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        cal = calibration_kernel(wl.streams)
        if tracer is not None:
            tracer.op = len(results)
        dt, status, detail, exc = run_op(wl.ops[i])
        results.append(Result(i, dt, cal, status, detail, exc))
    return results


def schedule(wl: workloads.Workload, seed: int, deadline: float) -> list[list[Result]]:
    """One whole pass over the ops, then reshuffled passes until the deadline.

    The first pass always runs to the end, so every input is attempted in
    every run; roots runs that pass only, since its inputs must not repeat.
    """
    rng = np.random.default_rng([seed, 99])
    passes = [run_ops(wl, list(range(len(wl.ops))))]
    while wl.repeat and time.perf_counter() < deadline:
        passes.append(run_ops(wl, rng.permutation(len(wl.ops)).tolist(), deadline))
    return passes


def outcomes(results: list[Result]) -> dict[int, list[Result]]:
    """Every input's results; an input fails when any of its runs fails."""
    by_input: dict[int, list[Result]] = {}
    for r in results:
        by_input.setdefault(r.op, []).append(r)
    return by_input


def ledger(wl: workloads.Workload, results: list[Result]) -> list[dict]:
    """Every failing input once, with how often it failed and why."""
    seen: dict[int, dict] = {}
    for r in results:
        if r.status == "ok":
            continue
        entry = seen.setdefault(r.op, {
            "op": wl.ops[r.op].label, "status": r.status, "exception": r.exception,
            "message": r.detail, "times": 0,
        })
        entry["times"] += 1
    return list(seen.values())


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or f"unknown ({ref})"


def environment(args) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "itereq": itereq.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": _kernels.USING_NUMBA,
        "ITEREQ_DISABLE_NUMBA": os.environ.get("ITEREQ_DISABLE_NUMBA"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(results: list[Result], setup_s: float, streams: bool,
               calibrated: bool = True) -> dict:
    """Throughput and latency from each input's median latency.

    Each op's time is scaled by the host speed measured around it (unless
    ``calibrated`` is false).  Short bursts of host contention skew a mean
    far more than a median, so each input's latency is its median over the
    passes that ran it (inputs that run once, as in roots, keep their single
    sample).  The percentiles are taken across inputs, and throughput is
    the fraction of inputs that pass over the mean of those latencies.
    """
    cal = [r.cal for r in results]
    scale = local_factors(cal, streams) if calibrated else np.ones(len(results))
    per_input: dict[int, list[float]] = {}
    for r, f in zip(results, scale):
        per_input.setdefault(r.op, []).append(r.seconds * f)
    secs = np.array([statistics.median(v) for v in per_input.values()])
    by_input = outcomes(results)
    ok_frac = sum(all(r.status == "ok" for r in rs) for rs in by_input.values()) / len(by_input)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok_frac / float(np.mean(secs)), "1/s"),
        "op_ms_p50": (float(np.percentile(secs, 50)) * 1e3, "ms"),
        "op_ms_p90": (float(np.percentile(secs, 90)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {"calls": "count", "sweeps": "count", "iters": "count",
                   "attempts": "count", "failed": "count", "points": "count",
                   "points_evaluated": "count", "points_escaped": "count",
                   "s": "s", "self_s": "s", "first_try_frac": "frac",
                   "overhead_frac": "frac"}


def per_layer(tr: tracing.Tracer, traced: list[Result], untraced: list[Result],
              streams: bool) -> dict:
    """Per-layer totals of the traced pass (raw seconds) and the tracing cost.

    The overhead compares the two passes over their common ops, each op
    scaled by the host speed measured around it.
    """
    m = tracing.aggregate(tr)
    common = min(len(traced), len(untraced))

    def total(results: list[Result]) -> float:
        return float(np.sum(np.array([r.seconds for r in results]) *
                            local_factors([r.cal for r in results], streams)))

    m["trace.overhead_frac"] = total(traced[:common]) / total(untraced[:common]) - 1.0
    return {name: (float(v), PER_LAYER_UNITS[name.rsplit(".", 1)[1]]) for name, v in m.items()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

SETUP_CAL_SAMPLES = 15


def setup(args) -> tuple[workloads.Workload, float, float]:
    """Build and warm the workload; returns it, its raw seconds and the speed factor."""
    wl = workloads.BUILDERS[args.workload](args.seed, args.smoke)
    workloads.warm_library()
    seconds = time.perf_counter() - T0
    cal = statistics.median(calibration_kernel(wl.streams) for _ in range(SETUP_CAL_SAMPLES))
    return wl, seconds, CAL_REF_S[wl.streams] / cal


def child_setups(args) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of the same set-up in fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["setup_s"], rec["speed_factor"]))
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal inputs, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, setup_raw, setup_factor = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_raw, "speed_factor": setup_factor}))
        return 0

    record: dict = {"environment": environment(args)}
    order = list(range(len(wl.ops)))
    if args.trace:
        # the traced pass covers every input; the untraced one, the same
        # inputs in the same order, gives the tracing cost
        tr = tracing.Tracer()
        tr.install()
        try:
            results = run_ops(wl, order, tracer=tr)
        finally:
            tr.uninstall()
        untraced = run_ops(wl, order, time.perf_counter() + args.seconds)
        metrics = per_layer(tr, results, untraced, wl.streams)
        record["spans"] = tr.span_records()
        checked = results + untraced
    else:
        setups = [(setup_raw, setup_factor)] + child_setups(args)
        passes = schedule(wl, args.seed, time.perf_counter() + args.seconds)
        results = [r for p in passes for r in p]
        metrics = end_to_end(results, statistics.median(raw * f for raw, f in setups),
                             wl.streams)
        record["raw_metrics"] = {
            k: {"value": v, "unit": u} for k, (v, u) in end_to_end(
                results, statistics.median(raw for raw, _ in setups), wl.streams,
                calibrated=False).items()
        }
        record.update(setup_samples=setups, passes=len(passes),
                      ops=[[r.op, r.seconds, r.cal, r.status] for r in results])
        checked = results

    # attempted and failed count inputs: every run attempts every input once
    # or more, and an input fails when any of its runs fails
    by_input = outcomes(checked)
    attempted = len(by_input)
    failed = sum(any(r.status != "ok" for r in rs) for rs in by_input.values())
    correct = not any(r.status in ("wrong", "error") for r in checked)
    misses = ledger(wl, checked)
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  ledger=misses, attempted=attempted, failed=failed, correct=correct)

    print("environment: " + json.dumps(record["environment"]))
    for miss in misses:
        print(f"MISS x{miss['times']} [{miss['status']}] {miss['op']}: "
              f"{miss['exception'] or 'gate'}: {miss['message']}")
    print(f"{args.workload}: {attempted} of {len(wl.ops)} inputs attempted in {len(checked)} ops "
          f"({record.get('passes', 2)} passes), {failed} failed, "
          f"fail_frac {failed / max(attempted, 1):.4f} frac, correct={correct}")
    raw = record.get("raw_metrics", {})
    if raw:
        print("  timings below: calibrated to the reference host speed, then raw")
    for name, (value, unit) in metrics.items():
        extra = f"   raw {raw[name]['value']:.6g}" if name in raw else ""
        print(f"  {name:44s} {value:14.6g} {unit}{extra}")

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    print(f"record: {os.path.relpath(out_path, ROOT)}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

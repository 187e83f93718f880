"""Fixed-seed benchmark of the ``zenger`` command line.

    python3 perfbench/run.py --workload solve-composite --seed 1 --seconds 30 --trace 0

Builds the workload's request list from the seed (see workloads.py), then
feeds it to ``zenger.cli.main(argv)`` in this process as a closed loop with
one client: the next request starts when the previous one returns.  The
whole list is run as a pass, and passes repeat while the next one is
expected to end within ``--seconds`` (at least two, so every request runs
twice).  Every output is checked after the timed passes, and each
request's stdout must be byte-identical across passes.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the traced passes wrap
the public entry points of every layer (see spans.py) and give the
per-layer metrics and the tracing overhead.  Human-readable lines go first,
the last line of stdout is one JSON object, and the details (environment,
problem size and latencies per request, spans) are written to
``perfbench/_out/``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run fails with exit code 2.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is first imported, so timings do not
# depend on how many cores the machine happens to have free.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_STARTS = 7  # cold interpreter starts per run; setup_s is their median
MIN_PASSES = 2
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
SELF_SUM_TOL = 0.05  # traced self times must add up to the traced wall


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_program():
    """Import ``zenger.cli`` from ``src/`` of this checkout."""
    if not (SRC / "zenger" / "cli.py").is_file():
        raise BenchError(f"no zenger sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zenger.cli

    if SRC not in Path(zenger.cli.__file__).resolve().parents:
        raise BenchError(f"zenger imported from {zenger.cli.__file__}, not {SRC}")
    return zenger.cli


def environment() -> dict:
    """Versions and thread settings, read without changing anything."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def measure_setup(count: int = SETUP_STARTS) -> list[float]:
    """Wall time of fresh interpreters that run ``import zenger.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import zenger.cli"],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one request; returns (exit code, stdout, stderr).

    An exception that escapes ``main`` is a failed request (exit code -1),
    not a crash of the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def heap_trimmer():
    """glibc's ``malloc_trim``, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


def run_pass(cli, requests, tracer=None) -> dict:
    """One closed-loop pass over the request list.

    ``wall_s`` is the time spent in requests, the sum of their latencies.
    Between requests, outside the timing, freed heap pages go back to the
    system: each CLI call normally has a fresh process, and without this
    one request's leftovers count toward the next one's resident set, so
    the same seed read 63 or 74 MB of peak RSS from run to run.
    """
    gc.collect()
    trim = heap_trimmer()
    latencies, outputs = [], []
    for req in requests:
        t0 = perf_counter()
        if tracer is None:
            outputs.append(call_cli(cli, req.argv))
        else:
            tracer.request = req.rid
            outputs.append(tracer.span("bench.request", lambda: call_cli(cli, req.argv)))
        latencies.append(perf_counter() - t0)
        trim(0)
    return {
        "traced": tracer is not None,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "outputs": outputs,
    }


def check_outputs(requests, passes) -> list[list[str | None]]:
    """Failure reason per pass and request, None where the output is right."""
    reasons = []
    for p in passes:
        row = []
        for i, req in enumerate(requests):
            code, out, err = p["outputs"][i]
            try:
                why = req.check(code, out)
            except Exception as exc:  # noqa: BLE001 - malformed output
                why = f"unparseable output ({type(exc).__name__}: {exc})"
            if why is None and out != passes[0]["outputs"][i][1]:
                why = "stdout differs from the first pass"
            if why is not None and err:
                why += f"; stderr: {err.strip()[:200]}"
            row.append(why)
        reasons.append(row)
    return reasons


def tail_sample(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and
    its percentile rank."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(requests, passes, setup) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample counts behind them."""
    plain = [p for p in passes if not p["traced"]]
    per_request = [
        statistics.median(p["latencies"][i] for p in plain)
        for i in range(len(requests))
    ]
    tail, rank = tail_sample(per_request)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "latency_p50_ms": (1e3 * statistics.median(per_request), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setup)} cold starts",
        "wall_s": f"median of {len(plain)} passes",
        "latency_p50_ms": f"median of {len(requests)} requests, each the median of {len(plain)} passes",
        "latency_tail_ms": f"p{rank:.1f}: {min(TAIL_BEYOND, len(requests) - 1)} of {len(requests)} requests above it",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return metrics, samples


def per_request_rows(requests, passes, reasons, traced_spans) -> list[dict]:
    """Problem size, latency in each pass and failures of every request."""
    lp = {}
    for s in traced_spans:
        info = s[spans.INFO]
        if s[spans.NAME] == "lp.solve_lp" and info and "rows" in info:
            rows, cols = lp.get(s[spans.REQUEST], (0, 0))
            lp[s[spans.REQUEST]] = (max(rows, info["rows"]), max(cols, info["cols"]))
    out = []
    for i, req in enumerate(requests):
        row = {
            "rid": req.rid,
            "argv": [Path(a).name if os.sep in a else a for a in req.argv],
            "size": req.size,
            "latency_ms": [round(1e3 * p["latencies"][i], 4) for p in passes],
            "failures": [r[i] for r in reasons if r[i] is not None],
        }
        if req.rid in lp:
            row["size"] = dict(req.size, lp_rows_max=lp[req.rid][0], lp_cols_max=lp[req.rid][1])
        out.append(row)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, count=None) -> dict:
    """Run one benchmark and return everything it measured.

    ``count`` overrides the length of the request list (the self-test uses
    tiny lists).
    """
    cli = import_program()
    env = environment()
    setup = measure_setup(1 if count else SETUP_STARTS)
    tracer = spans.Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as workdir:
        build = workloads.BUILDERS[workload]
        requests = build(seed, workdir) if count is None else build(seed, workdir, count)
        passes = []
        start = perf_counter()
        # another pass only if it should end within --seconds at the mean
        # pass time so far, so a run lasts about --seconds, not one pass more
        while (len(passes) < MIN_PASSES
               or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds):
            if tracer is not None and len(passes) % 2 == 1:
                tracer.patch()
                try:
                    passes.append(run_pass(cli, requests, tracer))
                finally:
                    tracer.restore()
            else:
                passes.append(run_pass(cli, requests))
    reasons = check_outputs(requests, passes)
    attempted = len(passes) * len(requests)
    failed = sum(r is not None for row in reasons for r in row)

    metrics, samples = end_to_end(requests, passes, setup)
    problems = []
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        traced_wall = sum(p["wall_s"] for p in traced)
        own = sum(spans.self_times(tracer.spans))
        plain_wall = metrics["wall_s"][0]
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / plain_wall - 1.0, "ratio")
        metrics["trace.self_sum_frac"] = (own / traced_wall, "ratio")
        problems = spans.coverage_problems(workload, tracer.spans)
        if abs(own / traced_wall - 1.0) > SELF_SUM_TOL:
            problems.append(f"span self times add up to {own:.4f} s of {traced_wall:.4f} s traced")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "requests": len(requests),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
        "setup_starts_s": setup,
        "environment": env,
        "per_request": per_request_rows(requests, passes, reasons, tracer.spans if tracer else []),
        "patched_sites": tracer.sites if tracer else [],
        "spans": tracer.spans if tracer else [],
    }


def report(result: dict) -> None:
    """Human lines, then the one-line JSON result."""
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['requests']} requests x {result['passes']} passes, closed loop, 1 client")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']} ({env['cpus_allowed']} allowed), BLAS pinned to 1 thread")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} {result['samples'].get(name, '')}")
    print(f"  {'failed_frac':40s} {result['failed']}/{result['attempted']} ratio  "
          "requests failed over requests attempted")
    for problem in result["problems"]:
        print(f"self-check: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result) + "\n", encoding="utf-8")
    for row in result["per_request"]:
        for why in row["failures"]:
            print(f"failed request {row['rid']} {row['size']}: {why}", file=sys.stderr)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

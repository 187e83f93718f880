"""Fast self-test of the benchmark itself, on request lists of 3 or 4.

    python3 perfbench/selftest.py

Covers the metric names and units against BENCHMARK.json, the output
checks (each must reject a corrupted output and never raise), the
binding coverage of the tracer, and the refusal to run without sources.
Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread pins before numpy loads

import numpy as np

TINY = {"solve-composite": 4, "pn-cascade": 3, "numrange-sweep": 3}

# Every module binding of a traced function that the workloads reach.
EXPECTED_SITES = {
    "zenger.lp.solve_lp",
    "zenger.norms.generators", "zenger.solver.generators",
    "zenger.norms.dual_norm_lmo", "zenger.solver.dual_norm_lmo",
    "zenger.norms.projection_norm", "zenger.asymptotics.projection_norm",
    "zenger.solver.solve_zenger", "zenger.cli.solve_zenger",
    "zenger.solver.certify", "zenger.cli.certify",
    "zenger.solver._barrier_refine",
    "zenger.asymptotics.pn_table", "zenger.cli.pn_table",
    "zenger.numrange.support_curve", "zenger.cli.support_curve",
    "zenger.numrange.spectrum_hull_check", "zenger.cli.spectrum_hull_check",
    "zenger.cli.main",
}


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_metric_names_and_units(workdir: str):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(TINY)
    for workload, count in TINY.items():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, 7, 0.0, trace, count=count)
            assert result["failed"] == 0, result["per_request"]
            assert result["problems"] == [], result["problems"]
            got = {name: unit for name, (_, unit) in result["metrics"].items()}
            assert got == declared(kind), (workload, kind)
            if not trace:
                assert all(v > 0 for v, _ in result["metrics"].values())
            else:
                assert EXPECTED_SITES <= set(result["patched_sites"])


def _good_output(req) -> str:
    code, out, _ = run.call_cli(run.import_program(), req.argv)
    assert code == 0 and req.check(code, out) is None, (req.argv, out)
    return out


def test_checks_reject_corrupted_outputs(workdir: str):
    import workloads

    solve = workloads.solve_requests(5, workdir, 2)[0]
    out = _good_output(solve)
    w1 = next(line for line in out.split("\n") if line.startswith("w_1,"))
    bumped = w1.split(",")[0] + "," + repr(float(w1.split(",")[1]) * 1.001)
    assert "norm(w)" in solve.check(0, out.replace(w1, bumped, 1))
    assert solve.check(0, out.replace("certificate,PASS", "certificate,FAIL"))
    assert solve.check(1, out) == "exit code 1"

    pn = workloads.pn_requests(5, workdir, 3)[0]
    out = _good_output(pn)
    N = pn.size["N"]
    row = out.split("\n")[1]
    assert pn.check(0, out.replace(row, f"{N},0.5,")) is not None
    assert pn.check(0, out.replace(row, f"{N},{1.0 + 2.0 ** -N + 1e-6},"))

    sweep = workloads.numrange_requests(5, workdir, 3)[0]
    out = _good_output(sweep)
    row = out.split("\n")[1]
    theta, h = row.split(",")
    assert "eigvalsh" in sweep.check(0, out.replace(row, f"{theta},{float(h) + 1e-8!r}"))
    assert sweep.check(0, out.replace(row, "")) is not None

    # malformed output and byte differences count as failures, never raise
    passes = [
        {"outputs": [(0, out, "")]},
        {"outputs": [(0, "garbage", "")]},
        {"outputs": [(0, out + " ", "")]},
    ]
    reasons = run.check_outputs([sweep], passes)
    assert reasons[0] == [None]
    assert reasons[1][0].startswith("expected") or "unparseable" in reasons[1][0]
    assert reasons[2][0] == "stdout differs from the first pass"


def test_missed_binding_is_reported(workdir: str):
    import spans
    import workloads

    cli = run.import_program()
    requests = workloads.solve_requests(3, workdir, 2)
    tracer = spans.Tracer()
    tracer.patch()
    try:
        # undo one copy, as a tracer that patched only solver.certify would
        import zenger.solver

        cli.certify = zenger.solver.certify.__wrapped__
        run.run_pass(cli, requests, tracer)
    finally:
        tracer.restore()
    problems = spans.coverage_problems("solve-composite", tracer.spans)
    assert problems == ["solver.certify recorded no calls on solve-composite"]
    assert spans.coverage_problems("numrange-sweep", tracer.spans)


def test_tail_sample(workdir: str):
    values = list(np.arange(100.0))
    assert run.tail_sample(values) == (89.0, 90.0)
    assert run.tail_sample([3.0, 1.0]) == (1.0, 50.0)


def test_refuses_to_run_without_sources(workdir: str):
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("_work-*", "_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pn-cascade",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.HERE) as workdir:
        for test in (
            test_metric_names_and_units,
            test_checks_reject_corrupted_outputs,
            test_missed_binding_is_reported,
            test_tail_sample,
            test_refuses_to_run_without_sources,
        ):
            test(workdir)
            print(f"ok {test.__name__}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenger.solver
from zenger.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_matrix(tmp_path, text, name="matrix.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def sup3(tmp_path, **extra):
    doc = {"norm": {"type": "sup", "dimension": 3}, "alpha": [0.2, 0.3, 0.5]}
    doc.update(extra)
    return write_problem(tmp_path, doc)


def random_composite_doc(seed, n, max_blocks=3):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        rows = int(rng.integers(n, n + 4))
        M = rng.normal(size=(rows, n))
        M += np.sign(M) * 0.3
        blocks.append(
            {"coef": float(rng.uniform(0.3, 2.0)), "matrix": M.tolist()}
        )
    a = rng.uniform(0.1, 1.0, size=n)
    return {
        "norm": {"type": "composite", "dimension": n, "blocks": blocks},
        "alpha": (a / a.sum()).tolist(),
    }


def module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_solve_sup_norm_report(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = main(["solve", sup3(tmp_path), "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "optimal bundle      w   = (1, 1, 1)" in out
    assert "supporting prices   phi = (0.2, 0.3, 0.5)" in out
    assert "value at prices phi     = 1" in out
    assert "certificate PASS" in out

    csv = csv_path.read_text(encoding="utf-8")
    assert "\r" not in csv
    lines = csv.splitlines()
    assert lines[0] == "quantity,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert abs(float(fields["w_2"]) - 1.0) <= 1e-9
    assert abs(float(fields["phi_3"]) - 0.5) <= 1e-9
    assert abs(float(fields["gap"])) <= 1e-9
    assert fields["certificate"] == "PASS"


def test_module_entry_point_matches_main(tmp_path, capsys):
    # ``python -m zenger`` runs __main__.py, which hands its exit code to
    # SystemExit; its stdout must be the in-process report byte for byte
    path = sup3(tmp_path)
    assert main(["solve", path]) == 0
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "zenger", "solve", path],
                          env=module_env(), cwd=tmp_path, capture_output=True,
                          check=False)
    assert proc.returncode == 0
    assert proc.stdout == want.encode()


# runs main like ``python -m zenger`` does, with a certificate tolerance
# no pair can meet
FAILING_CERTIFICATE = ("import zenger.cli, zenger.solver; "
                       "zenger.solver.CERTIFICATE_TOL = 1e-18; "
                       "raise SystemExit(zenger.cli.main())")


@pytest.mark.parametrize("runner, argv, code", [
    (["-m", "zenger"], ["solve", None], 0),
    (["-c", FAILING_CERTIFICATE], ["solve", None], 1),
    (["-m", "zenger"], ["numrange", "grid"], 0),
], ids=["solve-pass", "solve-fail", "numrange-long-report"])
def test_closed_pipe_keeps_the_exit_code(tmp_path, runner, argv, code):
    # the reader is gone before the report is written (`zenger ... | head`):
    # no traceback, and the exit code is the subcommand's own; the 256-row
    # numrange report is longer than the stdout buffer
    problem = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    matrix = write_matrix(tmp_path, "2\n1 1\n0 2\n")
    argv = [problem if a is None else matrix if a == "grid" else a
            for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable] + runner + argv,
                              env=module_env(), cwd=tmp_path,
                              stdout=write_end, stderr=subprocess.PIPE,
                              check=False)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == code


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys,
                                                    monkeypatch):
    # the parser is built once per process; one call's options must not
    # reach the next, and the certificate tolerance is read on every call
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    with monkeypatch.context() as patch:
        patch.setattr(zenger.solver, "CERTIFICATE_TOL", 1e-18)
        assert main(["solve", path]) == 1
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "certificate FAIL (tolerance 1e-18)" in out
    assert "certificate PASS (tolerance 1e-06)" in out
    csv_path = tmp_path / "out.csv"
    assert main(["solve", path, "--csv-out", str(csv_path)]) == 0
    csv_path.unlink()
    assert main(["solve", path]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]


def test_solve_cascade_geometric_rule(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    assert main(["solve", path]) == 0
    assert "certificate PASS" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--max-iter", "3"], ["--no-renormalize"],
                                   ["--tol", "1e-18"]],
                         ids=["max-iter", "no-renormalize", "tol"])
def test_solve_removed_flags_exit_2(tmp_path, capsys, flags):
    # the Newton budget and the certificate tolerance are module constants
    # and geometric weights are always renormalized, so argparse refuses
    # all three flags
    with pytest.raises(SystemExit) as exc:
        main(["solve", sup3(tmp_path)] + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_solve_unreachable_certificate_tolerance(tmp_path, capsys,
                                                 monkeypatch):
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    monkeypatch.setattr(zenger.solver, "CERTIFICATE_TOL", 1e-18)
    assert main(["solve", path]) == 1
    assert "certificate FAIL" in capsys.readouterr().out


def test_solve_unreachable_gap_tolerance(tmp_path, capsys, monkeypatch):
    path = write_problem(tmp_path, random_composite_doc(0, 4))
    monkeypatch.setattr(zenger.solver, "GAP_TOL", 1e-300)
    assert main(["solve", path]) == 3
    assert "error:" in capsys.readouterr().err


def test_solve_generator_blowup(tmp_path, capsys):
    rng = np.random.default_rng(5)
    blocks = [
        {"coef": 1.0, "matrix": rng.normal(size=(51, 2)).tolist()}
        for _ in range(3)
    ]
    path = write_problem(tmp_path, {
        "norm": {"type": "composite", "dimension": 2, "blocks": blocks},
        "alpha": [0.5, 0.5],
    })
    assert main(["solve", path]) == 4
    assert "error:" in capsys.readouterr().err

    # few rows, but rows x dimension past the entry cap
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 80},
        "alpha": {"rule": "geometric", "ratio": 0.5},
    })
    assert main(["solve", path]) == 4
    assert "error:" in capsys.readouterr().err


SUP3 = {"type": "sup", "dimension": 3}
ALPHA3 = [0.2, 0.3, 0.5]
TAIL = {"type": "example1_tail"}


def composite2(*blocks):
    return {"norm": {"type": "composite", "dimension": 2, "blocks": list(blocks)},
            "alpha": [0.5, 0.5]}


class Prefix(str):
    """An error message whose tail is the operating system's own text, so
    only its start is pinned."""


def assert_error_line(err, message):
    # a refusal prints exactly one line, "error: " and the message
    if isinstance(message, Prefix):
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    else:
        assert err == f"error: {message}\n"


# the problem file is not written, so reading it fails
UNREADABLE = object()

# (id, problem document, the message of the error line that names the branch
# of the parser that refuses it)
PARSE_FAILURES = [
    ("missing-alpha", {"norm": SUP3}, 'problem file is missing "alpha"'),
    ("unknown-key", {"norm": SUP3, "alpha": ALPHA3, "surprise": 1},
     "unknown key(s) in problem file: surprise"),
    ("bad-norm-type", {"norm": {"type": "l2", "dimension": 3}, "alpha": [1.0]},
     '"norm.type" must be one of sup, composite, example1_tail, example2'),
    ("blocks-on-sup", {"norm": {**SUP3, "blocks": []}, "alpha": ALPHA3},
     "sup norm takes no blocks"),
    ("composite-without-blocks",
     {"norm": {"type": "composite", "dimension": 2}, "alpha": [0.5, 0.5]},
     'composite norm requires a nonempty "blocks" list'),
    ("tail-with-dimension",
     {"norm": {"type": "example1_tail", "dimension": 3}, "alpha": [1.0]},
     "example1_tail takes neither dimension nor blocks"),
    ("solve-on-tail-norm", {"norm": {"type": "example1_tail"},
                            "alpha": {"rule": "geometric", "ratio": 0.5}},
     "solve needs a finite-dimensional norm, not example1_tail"),
    ("alpha-length-mismatch", {"norm": SUP3, "alpha": [0.5, 0.5]},
     "2 weights against a dimension-3 norm"),
    ("non-number", composite2({"coef": "1", "matrix": [[1.0, 0.0]]}),
     '"norm.blocks[0]".coef must be a number'),
    ("non-finite", {"norm": SUP3, "alpha": [0.2, 0.3, float("nan")]},
     '"alpha" must be finite'),
    ("norm-not-object", {"norm": "sup", "alpha": ALPHA3},
     '"norm" must be an object'),
    ("missing-dimension", {"norm": {"type": "sup"}, "alpha": ALPHA3},
     'norm type sup requires "dimension"'),
    ("bad-dimension", {"norm": {"type": "sup", "dimension": 0}, "alpha": [1.0]},
     '"norm.dimension" must be a positive integer'),
    ("blocks-on-example2",
     {"norm": {"type": "example2", "dimension": 2, "blocks": []},
      "alpha": [0.5, 0.5]},
     "example2 norm takes no blocks"),
    ("block-not-object", composite2([[1.0, 0.0]]),
     '"norm.blocks[0]" must be an object'),
    ("block-without-matrix", composite2({"coef": 1.0}),
     '"norm.blocks[0]" requires "coef" and "matrix"'),
    ("block-empty-matrix", composite2({"coef": 1.0, "matrix": []}),
     '"norm.blocks[0]".matrix must be a nonempty list of rows'),
    ("block-short-row", composite2({"coef": 1.0, "matrix": [[1.0]]}),
     '"norm.blocks[0]".matrix row 0 must list 2 numbers'),
    ("empty-alpha", {"norm": SUP3, "alpha": []}, '"alpha" list must be nonempty'),
    ("unknown-alpha-rule", {"norm": SUP3, "alpha": {"rule": "harmonic"}},
     'the only supported alpha rule is "geometric"'),
    ("alpha-without-ratio", {"norm": SUP3, "alpha": {"rule": "geometric"}},
     'alpha rule requires "ratio"'),
    ("alpha-ratio-outside", {"norm": SUP3,
                             "alpha": {"rule": "geometric", "ratio": 1.5}},
     '"alpha.ratio" must lie strictly between 0 and 1'),
    ("alpha-neither", {"norm": SUP3, "alpha": "uniform"},
     '"alpha" must be a list of numbers or a rule object'),
    ("tolerances-key", {"norm": SUP3, "alpha": ALPHA3,
                        "tolerances": {"certificate": 1e-6}},
     "unknown key(s) in problem file: tolerances"),
    ("top-level-not-object", [SUP3, ALPHA3],
     "problem file must be a JSON object"),
    ("missing-norm", {"alpha": ALPHA3}, 'problem file is missing "norm"'),
    ("max-iterations-key", {"norm": SUP3, "alpha": ALPHA3,
                            "max_iterations": 5000},
     "unknown key(s) in problem file: max_iterations"),
    ("candidate-not-object", {"norm": TAIL, "candidate_w": [0.5]},
     '"candidate_w" must be an object'),
    ("candidate-without-tail", {"norm": TAIL, "candidate_w": {"head": []}},
     '"candidate_w" requires "head" and "tail"'),
    ("candidate-head-not-list",
     {"norm": TAIL, "candidate_w": {"head": 0.5, "tail": 0.5}},
     '"candidate_w.head" must be a list of numbers'),
    ("unreadable-file", UNREADABLE, Prefix("cannot read ")),
]


@pytest.mark.parametrize("doc, message", [case[1:] for case in PARSE_FAILURES],
                         ids=[case[0] for case in PARSE_FAILURES])
def test_solve_parse_failures(tmp_path, capsys, doc, message):
    if doc is UNREADABLE:
        path = str(tmp_path / "missing.json")
    else:
        path = write_problem(tmp_path, doc)
    assert main(["solve", path]) == 2
    assert_error_line(capsys.readouterr().err, message)


@pytest.mark.parametrize("command", ["solve", "asymptotics"])
def test_overflowing_block_is_refused_up_front(tmp_path, capsys, command):
    # every number is finite, but the coefficient times an entry, or the
    # sum of two such products across blocks, is not; the file is refused
    # with one error line and no numpy warning (a warning fails the test
    # under the suite's filterwarnings = error)
    for blocks in ([{"coef": 1e300, "matrix": [[1e10, 0.0], [0.0, 1.0]]}],
                   [{"coef": 1e300, "matrix": [[1e8, 0.0], [0.0, 1.0]]}] * 2):
        path = write_problem(tmp_path, composite2(*blocks))
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_error_line(captured.err, "the sum over blocks of coefficient "
                                        "times largest row 1-norm overflows")


@pytest.mark.parametrize("command", ["solve", "asymptotics", "numrange"])
def test_unwritable_csv_out_is_a_parse_error(tmp_path, capsys, command):
    # the command runs, but its CSV cannot be written to a directory: one
    # error line, exit 2 and nothing on stdout
    source = (write_matrix(tmp_path, "2\n1 1\n0 2\n") if command == "numrange"
              else sup3(tmp_path))
    assert main([command, source, "--csv-out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_error_line(captured.err, Prefix(f"cannot write {tmp_path}: "))


def test_solve_missing_alpha_names_the_key(tmp_path, capsys):
    path = write_problem(tmp_path, {"norm": {"type": "sup", "dimension": 3}})
    assert main(["solve", path]) == 2
    assert "alpha" in capsys.readouterr().err


def test_solve_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_asymptotics_cascade_table(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    path = write_problem(tmp_path, {"norm": {"type": "example2",
                                             "dimension": 2}})
    code = main(["asymptotics", path, "--n-range", "1..12",
                 "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,pn_norm,bound"
    assert len(lines) == 13
    for N, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == N
        value, bound = float(fields[1]), float(fields[2])
        assert bound == 1.0 + 2.0 ** (-N)
        assert 1.0 <= value <= bound + 1e-9
    assert out.startswith("N,pn_norm,bound")


def test_asymptotics_cascade_report_is_pinned(tmp_path, capsys):
    # byte pin: every row prints exactly 1 + 2^-N, as value and as bound
    path = write_problem(tmp_path, {"norm": {"type": "example2",
                                             "dimension": 2}})
    assert main(["asymptotics", path, "--n-range", "1..12"]) == 0
    rows = [f"{N},{1 + 2.0 ** -N:.17g},{1 + 2.0 ** -N:.17g}"
            for N in range(1, 13)]
    expected = "\n".join(["N,pn_norm,bound"] + rows) + "\n"
    assert capsys.readouterr().out == expected


def test_asymptotics_identity_projection_prints_one(tmp_path, capsys):
    # from N = dimension on, P_N = I and pn_norm is exactly 1, with no LP
    n = 3
    path = write_problem(tmp_path, random_composite_doc(5, n))
    assert main(["asymptotics", path, "--n-range", f"{n}..{n + 1}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["N,pn_norm,bound", f"{n},1,", f"{n + 1},1,"]


def test_asymptotics_sup_table_is_flat(tmp_path, capsys):
    path = write_problem(tmp_path, {"norm": {"type": "sup", "dimension": 5}})
    assert main(["asymptotics", path, "--n-range", "1..6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) == 1.0
        assert fields[2] == ""


def test_asymptotics_tail_norm_report(tmp_path, capsys):
    # byte pin: the tail norm's table, check and refutation are plain float
    # arithmetic, the same on every platform
    path = write_problem(tmp_path, {"norm": TAIL})
    assert main(["asymptotics", path, "--n-range", "1..3"]) == 0
    assert capsys.readouterr().out == (
        "N,pn_norm,bound\n1,1,1\n2,1,1\n3,1,1\n\n"
        "liminf check on e: norm_value = 2, limit_estimate = 1,"
        " consistent = false\n"
        "candidate w: head=(), tail=0.5\n"
        "refutation witness: N = 2, value = 1.5, x: head=(1, 1), tail=0\n")


def test_asymptotics_honors_candidate(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "example1_tail"},
        "alpha": {"rule": "geometric", "ratio": 0.5},
        "candidate_w": {"head": [-0.25], "tail": 0.5},
    })
    assert main(["asymptotics", path]) == 0
    out = capsys.readouterr().out
    assert "candidate w: head=(-0.25), tail=0.5" in out
    assert "refutation witness: N = 1, value = 2, x: head=(-1), tail=0" in out


def test_asymptotics_rejects_bad_candidate(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "example1_tail"},
        "candidate_w": {"head": [1.0], "tail": 0.0},
    })
    assert main(["asymptotics", path]) == 2
    assert "candidate_w rejected" in capsys.readouterr().err


def test_asymptotics_rejects_candidate_on_finite_norm(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "sup", "dimension": 3},
        "candidate_w": {"head": [1.0], "tail": 0.5},
    })
    assert main(["asymptotics", path]) == 2


RANGE_SHAPE = '--n-range must look like "1..12"'
RANGE_ORDER = "--n-range needs 1 <= a <= b"


@pytest.mark.parametrize("doc, n_range, message", [
    pytest.param({"norm": SUP3}, "5..2", RANGE_ORDER, id="5..2"),
    pytest.param({"norm": SUP3}, "0..3", RANGE_ORDER, id="0..3"),
    pytest.param({"norm": SUP3}, "abc", RANGE_SHAPE, id="abc"),
    pytest.param({"norm": SUP3}, "1..2..3", RANGE_SHAPE, id="1..2..3"),
    pytest.param({"norm": SUP3}, "a..b", RANGE_SHAPE, id="a..b"),
    pytest.param({"norm": TAIL, "alpha": [1.0]}, "1..3",
                 "example1_tail needs the geometric alpha rule, "
                 "not a finite list", id="tail-alpha-list"),
])
def test_asymptotics_rejects_bad_ranges(tmp_path, capsys, doc, n_range,
                                        message):
    path = write_problem(tmp_path, doc)
    assert main(["asymptotics", path, "--n-range", n_range]) == 2
    assert_error_line(capsys.readouterr().err, message)


def test_numrange_diagonal_report(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    path = write_matrix(tmp_path, "2\n0 0\n0 1\n")
    code = main(["numrange", path, "--grid", "64", "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectrum hull inside numerical range: PASS" in out
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta,h"
    assert len(lines) == 65
    theta0, h0 = lines[1].split(",")
    assert float(theta0) == 0.0
    assert abs(float(h0) - 1.0) <= 1e-10


def test_numrange_nilpotent_margin(tmp_path, capsys):
    path = write_matrix(tmp_path, "2\n0 1\n0 0\n")
    assert main(["numrange", path]) == 0
    assert "worst margin = 0.5" in capsys.readouterr().out


def test_numrange_complex_entries(tmp_path, capsys):
    path = write_matrix(tmp_path, "2\n1+2j 1j\n0 -1-1j\n")
    assert main(["numrange", path]) == 0


def test_numrange_rejects_non_triangular(tmp_path, capsys):
    path = write_matrix(tmp_path, "2\n0 0\n1 0\n")
    assert main(["numrange", path]) == 5
    assert "error:" in capsys.readouterr().err


# (matrix file text, the message of the error line)
NUMRANGE_SHAPE_ERRORS = [
    ("3\n0 0 0\n0 0 0\n", "expected 3 rows, found 2"),
    ("2\n0 0 0\n0 0\n", "row 1 has 3 entries, expected 2"),
    ("0\n", "matrix dimension must be positive"),
]


def test_numrange_shape_errors(tmp_path, capsys):
    for text, message in NUMRANGE_SHAPE_ERRORS:
        assert main(["numrange", write_matrix(tmp_path, text)]) == 5
        assert_error_line(capsys.readouterr().err, message)


# (matrix file text, or None for a file that is not written; extra flags;
# the message of the error line)
NUMRANGE_PARSE_ERRORS = [
    ("two\n0 0\n0 0\n", [], "first line must be the matrix dimension"),
    ("1\nfoo\n", [], "bad entry 'foo' at row 1"),
    ("2\n0 1\n0 0\n", ["--grid", "7"], "--grid must be at least 8"),
    ("\n \n", [], "matrix file is empty"),
    ("1\ninf\n", [], "matrix entries must be finite"),
    (None, [], Prefix("cannot read ")),
]


def test_numrange_parse_errors(tmp_path, capsys):
    for text, flags, message in NUMRANGE_PARSE_ERRORS:
        path = str(tmp_path / "missing.txt")
        if text is not None:
            path = write_matrix(tmp_path, text)
        assert main(["numrange", path] + flags) == 2
        assert_error_line(capsys.readouterr().err, message)


@pytest.mark.parametrize("argv, human_lines", [
    (["solve", "sup3"], 7),
    (["numrange", "matrix"], 2),
    (["asymptotics", "example2", "--n-range", "1..4"], 0),
    (["asymptotics", "tail", "--n-range", "1..4"], 3),
], ids=["solve", "numrange", "asymptotics-example2", "asymptotics-tail"])
def test_report_is_the_csv_file_then_the_human_lines(tmp_path, capsys, argv,
                                                     human_lines):
    # stdout is the --csv-out file byte for byte, then, when the command
    # has a human section, one blank line and that section
    files = {
        "sup3": sup3(tmp_path),
        "matrix": write_matrix(tmp_path, "2\n1 1\n0 2\n"),
        "example2": write_problem(tmp_path, {"norm": {"type": "example2",
                                                      "dimension": 2}},
                                  name="example2.json"),
        "tail": write_problem(tmp_path, {"norm": TAIL}, name="tail.json"),
    }
    argv = [files.get(a, a) for a in argv]
    csv_path = tmp_path / "out.csv"
    assert main(argv + ["--csv-out", str(csv_path)]) == 0
    out = capsys.readouterr().out
    csv = csv_path.read_text(encoding="utf-8")
    assert csv.endswith("\n") and "\n\n" not in csv
    assert out.startswith(csv)
    rest = out[len(csv):].split("\n")
    if human_lines:
        assert rest[0] == rest[-1] == "" and all(rest[1:-1])
        assert len(rest) == human_lines + 2
    else:
        assert rest == [""]


def test_reports_are_deterministic(tmp_path, capsys):
    problem = write_problem(tmp_path, random_composite_doc(3, 3))
    curve = write_matrix(tmp_path, "3\n1 0.5 0\n0 2j 1\n0 0 -1\n")
    asym = write_problem(tmp_path, {"norm": {"type": "example2",
                                             "dimension": 2}}, name="a.json")
    runs = []
    for tag in ("one", "two"):
        csv_a = tmp_path / f"solve-{tag}.csv"
        csv_b = tmp_path / f"asym-{tag}.csv"
        csv_c = tmp_path / f"curve-{tag}.csv"
        assert main(["solve", problem, "--csv-out", str(csv_a)]) == 0
        assert main(["asymptotics", asym, "--n-range", "1..6",
                     "--csv-out", str(csv_b)]) == 0
        assert main(["numrange", curve, "--csv-out", str(csv_c)]) == 0
        runs.append((
            capsys.readouterr().out,
            csv_a.read_bytes(), csv_b.read_bytes(), csv_c.read_bytes(),
        ))
    assert runs[0] == runs[1]

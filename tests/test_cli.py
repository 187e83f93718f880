import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "zenger", "solve", path],
                          env=env, cwd=tmp_path, capture_output=True,
                          check=False)
    assert proc.returncode == 0
    assert proc.stdout == want.encode()


def test_solve_cascade_geometric_rule(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    assert main(["solve", path]) == 0
    assert "certificate PASS" in capsys.readouterr().out


def test_solve_no_renormalize_rejects_truncated_rule(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    assert main(["solve", path, "--no-renormalize"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_unreachable_certificate_tolerance(tmp_path, capsys):
    path = write_problem(tmp_path, {
        "norm": {"type": "example2", "dimension": 12},
        "alpha": {"rule": "geometric", "ratio": 0.25},
    })
    assert main(["solve", path, "--tol", "1e-18"]) == 1
    assert "certificate FAIL" in capsys.readouterr().out


def test_solve_unreachable_gap_tolerance(tmp_path, capsys):
    doc = random_composite_doc(0, 4)
    doc["tolerances"] = {"gap": 1e-300}
    doc["max_iterations"] = 1
    path = write_problem(tmp_path, doc)
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


@pytest.mark.parametrize("doc", [
    {"norm": {"type": "sup", "dimension": 3}},
    {"norm": {"type": "sup", "dimension": 3}, "alpha": [0.2, 0.3, 0.5],
     "surprise": 1},
    {"norm": {"type": "l2", "dimension": 3}, "alpha": [1.0]},
    {"norm": {"type": "sup", "dimension": 3, "blocks": []},
     "alpha": [0.2, 0.3, 0.5]},
    {"norm": {"type": "composite", "dimension": 2}, "alpha": [0.5, 0.5]},
    {"norm": {"type": "sup", "dimension": 3}, "alpha": [0.2, 0.3, 0.5],
     "tolerances": {"gap": -1.0}},
    {"norm": {"type": "example1_tail", "dimension": 3}, "alpha": [1.0]},
    {"norm": {"type": "example1_tail"}, "alpha": {"rule": "geometric",
                                                  "ratio": 0.5}},
    {"norm": {"type": "sup", "dimension": 3}, "alpha": [0.5, 0.5]},
    {"norm": {"type": "sup", "dimension": 3}, "alpha": [0.2, 0.3, 0.5],
     "tolerances": {"line_search": 1e-12}},
], ids=[
    "missing-alpha", "unknown-key", "bad-norm-type", "blocks-on-sup",
    "composite-without-blocks", "bad-tolerance", "tail-with-dimension",
    "solve-on-tail-norm", "alpha-length-mismatch", "line-search-tolerance",
])
def test_solve_parse_failures(tmp_path, capsys, doc):
    assert main(["solve", write_problem(tmp_path, doc)]) == 2
    assert "error:" in capsys.readouterr().err


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
    path = write_problem(tmp_path, {"norm": {"type": "example1_tail"}})
    assert main(["asymptotics", path]) == 0
    out = capsys.readouterr().out
    assert "norm_value = 2, limit_estimate = 1, consistent = false" in out
    assert "candidate w: head=(), tail=0.5" in out
    assert "refutation witness: N = 2, value = 1.5, x: head=(1, 1), tail=0" in out


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


@pytest.mark.parametrize("n_range", ["5..2", "0..3", "abc", "1..2..3"])
def test_asymptotics_rejects_bad_ranges(tmp_path, capsys, n_range):
    path = write_problem(tmp_path, {"norm": {"type": "sup", "dimension": 3}})
    assert main(["asymptotics", path, "--n-range", n_range]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_numrange_shape_errors(tmp_path, capsys):
    bad_rows = write_matrix(tmp_path, "3\n0 0 0\n0 0 0\n", name="rows.txt")
    assert main(["numrange", bad_rows]) == 5
    bad_entries = write_matrix(tmp_path, "2\n0 0 0\n0 0\n", name="entries.txt")
    assert main(["numrange", bad_entries]) == 5
    capsys.readouterr()


def test_numrange_parse_errors(tmp_path, capsys):
    bad_header = write_matrix(tmp_path, "two\n0 0\n0 0\n", name="header.txt")
    assert main(["numrange", bad_header]) == 2
    bad_entry = write_matrix(tmp_path, "1\nfoo\n", name="entry.txt")
    assert main(["numrange", bad_entry]) == 2
    good = write_matrix(tmp_path, "2\n0 1\n0 0\n", name="good.txt")
    assert main(["numrange", good, "--grid", "7"]) == 2
    capsys.readouterr()


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

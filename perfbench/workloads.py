"""Seeded request lists for the benchmark workloads, and the checks that
judge each request's output with the benchmark's own numpy formulas.

Each workload is a fixed list of ``zenger`` command lines over problem or
matrix files written into a scratch directory.  The size schedule of every
list is fixed (so the mix of cheap and expensive requests is the same for
every seed), and the seed draws the entries and the order.  The program only
ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Tolerances of the output checks; each one is stated in the workload's
# contract in README.md.
NORM_TOL = 1e-6
FACTOR_TOL = 1e-6
PN_TOL = 1e-9
SUPPORT_TOL = 1e-9
NUMRANGE_GRID = 256


@dataclass
class Request:
    """One CLI call: its argv, its problem size and its output check.

    ``check(exit_code, stdout)`` returns None when the output is right and
    a short reason otherwise.
    """

    rid: int
    argv: list[str]
    size: dict
    check: Callable[[int, str], str | None] = field(repr=False)


def _csv_section(stdout: str) -> list[str]:
    return stdout.split("\n\n", 1)[0].rstrip("\n").split("\n")


# ---------------------------------------------------------------- solve


def solve_shapes(count: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, rows per block) for each request, a fixed schedule.

    A quarter of the list is the large tier: n = 5 with three blocks of
    5, 5 and 6 rows, 1200 generators.  The rest cycles n over 2..5 and the
    block count over 1..2; the k-th recurrence of an (n, blocks) pair gives
    block j n + (k + j) % 4 rows (4 to 256 generators).  One homogeneous
    large tier, rather than a few draws up to 4096 generators, keeps the
    tail percentile inside a single size class, so seeds agree on it.
    """
    large = count // 4
    shapes = [(5, (5, 5, 6))] * large
    for i in range(count - large):
        n = 2 + i % 4
        blocks = 1 + (i // 4) % 2
        k = i // 8
        shapes.append((n, tuple(n + (k + j) % 4 for j in range(blocks))))
    return shapes


def check_solve(code: int, stdout: str, blocks, alpha) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = dict(line.split(",", 1) for line in _csv_section(stdout)[1:])
    if rows.get("certificate") != "PASS":
        return f"certificate {rows.get('certificate')!r}"
    n = alpha.size
    try:
        w = np.array([float(rows[f"w_{k + 1}"]) for k in range(n)])
        phi = np.array([float(rows[f"phi_{k + 1}"]) for k in range(n)])
    except (KeyError, ValueError) as exc:
        return f"unreadable w or phi: {exc}"
    norm_w = sum(coef * np.max(np.abs(M @ w)) for coef, M in blocks)
    if not abs(norm_w - 1.0) <= NORM_TOL:
        return f"norm(w) = {norm_w!r}"
    factor = float(np.max(np.abs(w * phi - alpha)))
    if not factor <= FACTOR_TOL:
        return f"max |w phi - alpha| = {factor!r}"
    return None


def solve_requests(seed: int, workdir: str, count: int = 120) -> list[Request]:
    """Random composite norms drawn as in acceptance criterion 1."""
    rng = np.random.default_rng(seed)
    shapes = solve_shapes(count)
    requests = []
    for rid, idx in enumerate(rng.permutation(count)):
        n, block_rows = shapes[idx]
        blocks = []
        for rows in block_rows:
            M = rng.normal(size=(rows, n))
            M += np.sign(M) * 0.3
            blocks.append((float(rng.uniform(0.3, 2.0)), M))
        alpha = rng.uniform(0.1, 1.0, size=n)
        alpha /= alpha.sum()
        doc = {
            "norm": {
                "type": "composite",
                "dimension": n,
                "blocks": [
                    {"coef": coef, "matrix": M.tolist()} for coef, M in blocks
                ],
            },
            "alpha": alpha.tolist(),
        }
        path = os.path.join(workdir, f"solve-{rid:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        size = {
            "n": n,
            "blocks": len(block_rows),
            "block_rows": list(block_rows),
            "generators": math.prod(2 * r for r in block_rows),
        }
        requests.append(
            Request(
                rid,
                ["solve", path],
                size,
                lambda code, out, b=blocks, a=alpha: check_solve(code, out, b, a),
            )
        )
    return requests


# ------------------------------------------------------------ asymptotics


def check_pn(code: int, stdout: str, N: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = _csv_section(stdout)
    if lines[0] != "N,pn_norm,bound" or len(lines) != 2:
        return f"expected one table row, got {lines!r}"
    fields = lines[1].split(",")
    if int(fields[0]) != N:
        return f"row for N = {fields[0]}, asked for {N}"
    pn = float(fields[1])
    if not 1.0 - PN_TOL <= pn <= 1.0 + 2.0 ** (-N) + PN_TOL:
        return f"||P_{N}|| = {pn!r} outside [1, 1 + 2^-{N}]"
    return None


# Copies of each truncation level N in the pn-cascade list.  The cheap
# levels come ten times each and 7..9 twice, so the median request sits
# inside the N = 4 group and the tail percentile inside the N = 6 group,
# not on the border between two levels, and a pass stays short enough for
# several per run; N = 7..9 still take about two thirds of a pass.
PN_COPIES = {1: 10, 2: 10, 3: 10, 4: 10, 5: 10, 6: 10, 7: 2, 8: 2, 9: 2}


def pn_requests(seed: int, workdir: str, count: int | None = None) -> list[Request]:
    """Single-row ``||P_N||`` tables of the cascaded-difference norm.

    Every seed runs the truncation levels of :data:`PN_COPIES` (the first
    ``count`` of them in ascending order, when given); the seed sets their
    order and the dimension written into the problem file, which the
    example2 family ignores (it uses dimension N + 1).
    """
    rng = np.random.default_rng(seed)
    path = os.path.join(workdir, "example2.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"norm": {"type": "example2", "dimension": int(rng.integers(1, 10))}}, fh)
    levels = [N for N, copies in PN_COPIES.items() for _ in range(copies)][:count]
    requests = []
    for rid, idx in enumerate(rng.permutation(len(levels))):
        N = levels[idx]
        requests.append(
            Request(
                rid,
                ["asymptotics", path, "--n-range", f"{N}..{N}"],
                {"N": N, "n": N + 1, "generators": 4 * (N + 1) ** 2},
                lambda code, out, N=N: check_pn(code, out, N),
            )
        )
    return requests


# --------------------------------------------------------------- numrange


def support_reference(A: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and top eigenvalues of the rotated Hermitian parts of A."""
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    Hr = 0.5 * (A + A.conj().T)
    Hi = 0.5j * (A.conj().T - A)
    stack = np.cos(thetas)[:, None, None] * Hr + np.sin(thetas)[:, None, None] * Hi
    return thetas, np.linalg.eigvalsh(stack)[:, -1]


def check_numrange(code: int, stdout: str, thetas, h_ref) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = _csv_section(stdout)
    if lines[0] != "theta,h" or len(lines) != thetas.size + 1:
        return f"expected {thetas.size} curve rows, got {len(lines) - 1}"
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if not np.array_equal(table[:, 0], thetas):
        return "angle grid differs from 2 pi k / grid"
    worst = float(np.max(np.abs(table[:, 1] - h_ref)))
    if not worst <= SUPPORT_TOL:
        return f"max |h - eigvalsh| = {worst!r}"
    return None


def numrange_requests(seed: int, workdir: str, count: int = 104) -> list[Request]:
    """Support sweeps of random upper-triangular complex matrices.

    n cycles over 4..16; the seed draws the entries and the order.
    """
    rng = np.random.default_rng(seed)
    requests = []
    for rid, idx in enumerate(rng.permutation(count)):
        n = 4 + int(idx) % 13
        A = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        path = os.path.join(workdir, f"matrix-{rid:03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n}\n")
            for row in A:
                fh.write(" ".join(repr(complex(z)) for z in row) + "\n")
        thetas, h_ref = support_reference(A, NUMRANGE_GRID)
        requests.append(
            Request(
                rid,
                ["numrange", path, "--grid", str(NUMRANGE_GRID)],
                {"n": n, "grid": NUMRANGE_GRID},
                lambda code, out, t=thetas, h=h_ref: check_numrange(code, out, t, h),
            )
        )
    return requests


BUILDERS = {
    "solve-composite": solve_requests,
    "pn-cascade": pn_requests,
    "numrange-sweep": numrange_requests,
}

"""Command line interface: solve, asymptotics, numrange.

Problem files are JSON with top-level keys "norm", "alpha", and optional
"candidate_w" (only for the tail norm).  Reports carry a machine-readable
CSV section (17 significant digits, LF line endings) followed by a human
section that states the result in market terms: the bundle w, the
supporting prices phi, and the value of the bundle at those prices.

Exit codes: 0 pass, 1 certificate or containment failure, 2 parse or
validation error, 3 non-convergence (including LP breakdowns and refuter
search limits), 4 generator blowup, 5 matrix shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    SearchLimitExceeded,
    example1_refute,
    example2_family,
    geometric_alpha,
    geometric_rule,
    liminf_check,
    pn_table,
)
from .core import TailVector, ZengerError
from .norms import (
    Block,
    CompositeNorm,
    Example1TailNorm,
    Example2Norm,
    GeneratorBlowup,
    LPFailure,
    SupNorm,
    norm_dimension,
)
from .numrange import (
    DEFAULT_GRID,
    NotTriangular,
    spectrum_hull_check,
    support_curve,
)
from .solver import NonConvergence, ZengerProblem, certify, solve_zenger

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_GENERATOR_BLOWUP = 4
EXIT_MATRIX_SHAPE = 5

_TOP_KEYS = {"norm", "alpha", "candidate_w"}
_NORM_KEYS = {"type", "dimension", "blocks"}
_NORM_TYPES = ("sup", "composite", "example1_tail", "example2")


class ParseError(Exception):
    """Problem or matrix file failed validation."""


class MatrixShapeError(Exception):
    """Matrix file has the wrong row or entry count."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_h(x) -> str:
    return format(float(x), ".12g")


def _vector_str(v) -> str:
    return "(" + ", ".join(_fmt_h(x) for x in v) + ")"


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number")
    value = float(value)
    if not np.isfinite(value):
        raise ParseError(f"{where} must be finite")
    return value


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"unknown key(s) in {where}: {', '.join(unknown)}")


@dataclass
class ParsedProblem:
    spec: object
    alpha_list: np.ndarray | None
    alpha_ratio: float | None
    candidate_w: TailVector | None


def _parse_norm(obj) -> object:
    if not isinstance(obj, dict):
        raise ParseError('"norm" must be an object')
    _check_keys(obj, _NORM_KEYS, '"norm"')
    kind = obj.get("type")
    if kind not in _NORM_TYPES:
        raise ParseError(f'"norm.type" must be one of {", ".join(_NORM_TYPES)}')
    if kind == "example1_tail":
        if "dimension" in obj or "blocks" in obj:
            raise ParseError("example1_tail takes neither dimension nor blocks")
        return Example1TailNorm()
    if "dimension" not in obj:
        raise ParseError(f'norm type {kind} requires "dimension"')
    dimension = obj["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise ParseError('"norm.dimension" must be a positive integer')
    if kind in ("sup", "example2"):
        if "blocks" in obj:
            raise ParseError(f"{kind} norm takes no blocks")
        return (SupNorm if kind == "sup" else Example2Norm)(dimension)
    blocks_doc = obj.get("blocks")
    if not isinstance(blocks_doc, list) or not blocks_doc:
        raise ParseError('composite norm requires a nonempty "blocks" list')
    blocks = []
    for i, doc in enumerate(blocks_doc):
        where = f'"norm.blocks[{i}]"'
        if not isinstance(doc, dict):
            raise ParseError(f"{where} must be an object")
        _check_keys(doc, {"coef", "matrix"}, where)
        if "coef" not in doc or "matrix" not in doc:
            raise ParseError(f'{where} requires "coef" and "matrix"')
        coef = _number(doc["coef"], f"{where}.coef")
        rows = doc["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"{where}.matrix must be a nonempty list of rows")
        parsed_rows = []
        for j, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dimension:
                raise ParseError(
                    f"{where}.matrix row {j} must list {dimension} numbers"
                )
            parsed_rows.append([_number(x, f"{where}.matrix[{j}]") for x in row])
        blocks.append(Block(coef, np.array(parsed_rows)))
    return CompositeNorm(tuple(blocks))


def _parse_alpha(value) -> tuple[np.ndarray | None, float | None]:
    if isinstance(value, list):
        if not value:
            raise ParseError('"alpha" list must be nonempty')
        return np.array([_number(x, '"alpha"') for x in value]), None
    if isinstance(value, dict):
        _check_keys(value, {"rule", "ratio"}, '"alpha"')
        if value.get("rule") != "geometric":
            raise ParseError('the only supported alpha rule is "geometric"')
        if "ratio" not in value:
            raise ParseError('alpha rule requires "ratio"')
        ratio = _number(value["ratio"], '"alpha.ratio"')
        if not (0.0 < ratio < 1.0):
            raise ParseError('"alpha.ratio" must lie strictly between 0 and 1')
        return None, ratio
    raise ParseError('"alpha" must be a list of numbers or a rule object')


def _parse_candidate(obj) -> TailVector:
    if not isinstance(obj, dict):
        raise ParseError('"candidate_w" must be an object')
    _check_keys(obj, {"head", "tail"}, '"candidate_w"')
    if "head" not in obj or "tail" not in obj:
        raise ParseError('"candidate_w" requires "head" and "tail"')
    head = obj["head"]
    if not isinstance(head, list):
        raise ParseError('"candidate_w.head" must be a list of numbers')
    entries = [_number(x, '"candidate_w.head"') for x in head]
    tail = _number(obj["tail"], '"candidate_w.tail"')
    return TailVector(np.array(entries), tail)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_problem(path: str) -> ParsedProblem:
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "problem file")
    if "norm" not in doc:
        raise ParseError('problem file is missing "norm"')
    spec = _parse_norm(doc["norm"])
    alpha_list = alpha_ratio = None
    if "alpha" in doc:
        alpha_list, alpha_ratio = _parse_alpha(doc["alpha"])
    candidate_w = None
    if "candidate_w" in doc:
        if not isinstance(spec, Example1TailNorm):
            raise ParseError('"candidate_w" only applies to example1_tail')
        candidate_w = _parse_candidate(doc["candidate_w"])
    return ParsedProblem(
        spec=spec,
        alpha_list=alpha_list,
        alpha_ratio=alpha_ratio,
        candidate_w=candidate_w,
    )


def _parse_n_range(text: str) -> list[int]:
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError as exc:
        raise ParseError('--n-range must look like "1..12"') from exc
    if lo < 1 or hi < lo:
        raise ParseError("--n-range needs 1 <= a <= b")
    return list(range(lo, hi + 1))


def cmd_solve(args) -> tuple[int, list[str], list[str]]:
    parsed = _load_problem(args.problem)
    spec = parsed.spec
    if isinstance(spec, Example1TailNorm):
        raise ParseError("solve needs a finite-dimensional norm, not example1_tail")
    if parsed.alpha_list is None and parsed.alpha_ratio is None:
        raise ParseError('problem file is missing "alpha"')
    n = norm_dimension(spec)
    if parsed.alpha_list is not None:
        alpha = parsed.alpha_list
    else:
        alpha = geometric_alpha(parsed.alpha_ratio, n)
    problem = ZengerProblem(spec=spec, alpha=alpha)
    pair = solve_zenger(problem)
    cert = certify(pair, problem)
    verdict = "PASS" if cert.ok else "FAIL"

    csv_lines = ["quantity,value"]
    for k in range(n):
        csv_lines.append(f"w_{k + 1},{_fmt(pair.w[k])}")
    for k in range(n):
        csv_lines.append(f"phi_{k + 1},{_fmt(pair.phi[k])}")
    csv_lines.append(f"gap,{_fmt(pair.gap)}")
    csv_lines.append(f"objective,{_fmt(pair.objective)}")
    csv_lines.append(f"iterations,{pair.iterations}")
    csv_lines.append(f"norm_residual,{_fmt(cert.norm_residual)}")
    csv_lines.append(f"dual_residual,{_fmt(cert.dual_residual)}")
    csv_lines.append(f"pairing_residual,{_fmt(cert.pairing_residual)}")
    csv_lines.append(f"factor_residual,{_fmt(cert.factor_residual)}")
    csv_lines.append(f"certificate,{verdict}")

    value = float(pair.w @ pair.phi)
    human = [
        f"optimal bundle      w   = {_vector_str(pair.w)}",
        f"supporting prices   phi = {_vector_str(pair.phi)}",
        f"value at prices phi     = {_fmt_h(value)}",
        f"duality gap             = {_fmt_h(pair.gap)}",
        f"iterations              = {pair.iterations}",
        "residuals: norm {0}, dual {1}, pairing {2}, factor {3}".format(
            _fmt_h(cert.norm_residual),
            _fmt_h(cert.dual_residual),
            _fmt_h(cert.pairing_residual),
            _fmt_h(cert.factor_residual),
        ),
        f"certificate {verdict} (tolerance {_fmt_h(cert.tolerance)})",
    ]
    return (EXIT_OK if cert.ok else EXIT_FAIL), csv_lines, human


def _tail_vector_str(x: TailVector) -> str:
    return f"head={_vector_str(x.head)}, tail={_fmt_h(x.tail)}"


def cmd_asymptotics(args) -> tuple[int, list[str], list[str]]:
    parsed = _load_problem(args.problem)
    spec = parsed.spec
    ns = _parse_n_range(args.n_range)
    family = example2_family if isinstance(spec, Example2Norm) else (lambda N: spec)
    table = pn_table(family, ns)
    human: list[str] = []
    if isinstance(spec, Example1TailNorm):
        if parsed.alpha_list is not None:
            raise ParseError(
                "example1_tail needs the geometric alpha rule, not a finite list"
            )
        ratio = parsed.alpha_ratio if parsed.alpha_ratio is not None else 0.5
        candidate = (
            parsed.candidate_w
            if parsed.candidate_w is not None
            else TailVector(np.array([]), 0.5)
        )
        report = liminf_check(spec, TailVector(np.array([]), 1.0), ns)
        try:
            witness = example1_refute(candidate, geometric_rule(ratio))
        except ValueError as exc:
            raise ParseError(f"candidate_w rejected: {exc}") from exc
        human = [
            "liminf check on e: norm_value = {0}, limit_estimate = {1},"
            " consistent = {2}".format(
                _fmt_h(report.norm_value),
                _fmt_h(report.limit_estimate),
                "true" if report.consistent else "false",
            ),
            f"candidate w: {_tail_vector_str(candidate)}",
            "refutation witness: N = {0}, value = {1}, x: {2}".format(
                witness.N, _fmt_h(witness.value), _tail_vector_str(witness.x)
            ),
        ]

    csv_lines = ["N,pn_norm,bound"]
    for row in table.rows:
        bound = _fmt(row.bound) if row.bound is not None else ""
        csv_lines.append(f"{row.N},{_fmt(row.pn_norm)},{bound}")
    return EXIT_OK, csv_lines, human


def _load_matrix(path: str) -> np.ndarray:
    lines = [line.strip() for line in _read(path).splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("matrix file is empty")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParseError("first line must be the matrix dimension") from exc
    if n < 1:
        raise MatrixShapeError("matrix dimension must be positive")
    rows = lines[1:]
    if len(rows) != n:
        raise MatrixShapeError(f"expected {n} rows, found {len(rows)}")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        tokens = row.split()
        if len(tokens) != n:
            raise MatrixShapeError(
                f"row {i + 1} has {len(tokens)} entries, expected {n}"
            )
        for j, token in enumerate(tokens):
            try:
                out[i, j] = complex(token)
            except ValueError as exc:
                raise ParseError(f"bad entry {token!r} at row {i + 1}") from exc
    return out


def cmd_numrange(args) -> tuple[int, list[str], list[str]]:
    A = _load_matrix(args.matrix)
    if args.grid < 8:
        raise ParseError("--grid must be at least 8")
    curve = support_curve(A, args.grid)
    check = spectrum_hull_check(A, curve)
    csv_lines = ["theta,h"]
    for theta, h in zip(curve.thetas, curve.values):
        csv_lines.append(f"{_fmt(theta)},{_fmt(h)}")
    verdict = "PASS" if check.ok else "FAIL"
    human = [
        f"worst margin = {_fmt_h(check.worst_margin)}",
        f"spectrum hull inside numerical range: {verdict}",
    ]
    return (EXIT_OK if check.ok else EXIT_FAIL), csv_lines, human


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenger",
        description="Dual pairs on polyhedral norm balls: solve, certify, probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute and certify a dual pair")
    solve.add_argument("problem", help="JSON problem file")
    solve.add_argument("--csv-out", default=None, help="write the CSV section here")
    solve.set_defaults(handler=cmd_solve)

    asym = sub.add_parser("asymptotics", help="projection norm tables and checks")
    asym.add_argument("problem", help="JSON problem file")
    asym.add_argument("--n-range", default="1..12", help='truncations, e.g. "1..12"')
    asym.add_argument("--csv-out", default=None, help="write the CSV table here")
    asym.set_defaults(handler=cmd_asymptotics)

    numr = sub.add_parser("numrange", help="numerical range support sweep")
    numr.add_argument("matrix", help="matrix file: dimension line, then rows")
    numr.add_argument("--grid", type=int, default=DEFAULT_GRID,
                      help="angle count")
    numr.add_argument("--csv-out", default=None, help="write the curve CSV here")
    numr.set_defaults(handler=cmd_numrange)
    return parser


# built once per process, at import, so its cost is paid by the import and
# not by every call of main; parse_args keeps no state between calls
PARSER = _build_parser()


# the exit code of an error a command raises: the first entry that matches
# wins, and an error that matches none propagates
_ERROR_CODES = (
    ((MatrixShapeError, NotTriangular), EXIT_MATRIX_SHAPE),
    (GeneratorBlowup, EXIT_GENERATOR_BLOWUP),
    ((NonConvergence, LPFailure, SearchLimitExceeded), EXIT_NO_CONVERGENCE),
    ((ParseError, ZengerError, ValueError), EXIT_PARSE),
)


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        code, csv_lines, human = args.handler(args)
        if args.csv_out:
            try:
                with open(args.csv_out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write("\n".join(csv_lines) + "\n")
            except OSError as exc:
                raise ParseError(f"cannot write {args.csv_out}: {exc}") from exc
    except Exception as exc:
        for errors, exit_code in _ERROR_CODES:
            if isinstance(exc, errors):
                print(f"error: {exc}", file=sys.stderr)
                return exit_code
        raise
    # the report is the CSV section, then a blank line and the human
    # section when the command has one
    try:
        print("\n".join(csv_lines + [""] + human if human else csv_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`zenger ... | head`); what is
        # left, and the interpreter's flush at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

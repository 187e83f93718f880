"""Polyhedral norms, their support functionals, and dual-norm evaluation.

Every polyhedral norm here is a positive combination of sup norms of linear
images, ``sum_j coef_j * max_r |(A_j x)_r|``.  Expanding the sign and row
choices of each block yields a finite symmetric set of support functionals
u_i with ``norm(x) = max_i <u_i, x>``; the unit ball is the polytope they cut
out, and the dual norm of g is the LP value ``max <g, x>`` over that ball.

Two structured norms round out the family: the sequence norm
``sup + limsup`` on eventually constant sequences, and a weighted-difference
norm ``max|x_k| + max_k |x_k - x_1 2^{1-k}|`` whose tail behaviour on
eventually constant sequences is computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DimensionMismatch, TailVector, ZengerError, as_stack, as_vector
from . import lp as _lp

GENERATOR_LIMIT = 2 * 10 ** 6  # entries (rows x dimension) of the expansion
RANK_TOL = 1e-10


class GeneratorBlowup(ZengerError):
    """The support-functional expansion would exceed the entry cap."""


class RankDeficientNorm(ZengerError):
    """Stacked block rows do not have full column rank, so the formula is
    only a seminorm."""


class LPFailure(ZengerError):
    """The dual-norm LP did not reach an optimum."""


class NotPolyhedral(ZengerError):
    """Operation requires a norm with a finite generator description."""


@dataclass(frozen=True)
class SupNorm:
    """max_k |x_k| on vectors of a fixed length."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")


@dataclass(frozen=True)
class Block:
    coef: float
    matrix: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.coef) and self.coef > 0):
            raise ValueError("block coefficient must be positive and finite")
        M = np.array(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
            raise ValueError(f"block matrix must be 2-d, got shape {M.shape}")
        # the largest magnitude is nan or inf exactly when some entry is
        if not math.isfinite(float(np.abs(M).max())):
            raise ValueError("block entries must be finite")
        M.setflags(write=False)
        object.__setattr__(self, "coef", float(self.coef))
        object.__setattr__(self, "matrix", M)


@dataclass(frozen=True)
class CompositeNorm:
    """sum_j coef_j * max_r |(A_j x)_r| with full-column-rank stacked rows
    and a finite sum_j coef_j * max_r ||A_j[r]||_1, which bounds every entry
    of :func:`generators` and norm(x) for max_k |x_k| <= 1."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        entries = []
        for blk in self.blocks:
            entries.append(blk if isinstance(blk, Block) else Block(*blk))
        if not entries:
            raise ValueError("at least one block is required")
        n = entries[0].matrix.shape[1]
        for blk in entries:
            if blk.matrix.shape[1] != n:
                raise DimensionMismatch("blocks disagree on dimension")
        with np.errstate(over="ignore"):
            bound = sum(blk.coef * float(np.abs(blk.matrix).sum(axis=1).max())
                        for blk in entries)
        if not math.isfinite(bound):
            raise ValueError("the sum over blocks of coefficient times "
                             "largest row 1-norm overflows")
        stacked = np.vstack([blk.matrix for blk in entries])
        if np.linalg.matrix_rank(stacked, tol=RANK_TOL) < n:
            raise RankDeficientNorm(
                "stacked block rows are column rank deficient"
            )
        object.__setattr__(self, "blocks", tuple(entries))

    @property
    def dimension(self) -> int:
        return self.blocks[0].matrix.shape[1]


@dataclass(frozen=True)
class Example2Norm:
    """max_k |x_k| + max_k |x_k - x_1 w_k| with w_k = 2^{1-k}.

    On a dense vector this is the dimension-n truncation; on a
    :class:`TailVector` the supremum over the infinite tail is exact.
    """

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def weights(self) -> np.ndarray:
        return 2.0 ** (-np.arange(self.dimension))


@dataclass(frozen=True)
class Example1TailNorm:
    """sup |x_k| + limsup |x_k| on eventually constant sequences."""


NormSpec = SupNorm | CompositeNorm | Example2Norm | Example1TailNorm


class DualEval(NamedTuple):
    value: float | np.ndarray
    achiever: np.ndarray


@dataclass(frozen=True)
class EquivalenceConstants:
    """Best constants in c_lower * sup|x| <= norm(x) <= C_upper * sup|x|."""

    c_lower: float
    C_upper: float


def norm_dimension(spec: NormSpec) -> int | None:
    """Ambient dimension for dense vectors, or None when the norm acts only
    on sequences."""
    if isinstance(spec, (SupNorm, CompositeNorm, Example2Norm)):
        return spec.dimension
    if isinstance(spec, Example1TailNorm):
        return None
    raise TypeError(f"not a norm spec: {spec!r}")


def _blocks_of(spec: NormSpec) -> tuple[Block, ...]:
    if isinstance(spec, SupNorm):
        return (Block(1.0, np.eye(spec.dimension)),)
    if isinstance(spec, CompositeNorm):
        return spec.blocks
    if isinstance(spec, Example2Norm):
        n = spec.dimension
        second = np.eye(n)
        second[:, 0] -= spec.weights
        return (Block(1.0, np.eye(n)), Block(1.0, second))
    raise NotPolyhedral(f"{type(spec).__name__} has no generator description")


def eval_norm(spec: NormSpec, x) -> float:
    """Evaluate the norm on a dense vector or a :class:`TailVector`.

    Tail vectors are accepted by the sup norm, the sup+limsup norm, and the
    weighted-difference norm (the dense rule on the head and the first tail
    entry, or the tail limit, whichever is larger); dense vectors must
    match the spec dimension.
    """
    if isinstance(x, TailVector):
        if isinstance(spec, SupNorm):
            return x.sup
        if isinstance(spec, Example1TailNorm):
            return x.sup + x.limsup
        if isinstance(spec, Example2Norm):
            # past the head, x_k - x_1 2^{1-k} moves monotonically toward
            # the tail constant, so its sup is at k = h + 1 or in the limit
            h = x.head.size
            return max(eval_norm(Example2Norm(h + 1), x.prefix(h + 1)),
                       x.sup + x.limsup)
        raise DimensionMismatch(
            "eventually constant sequences are not supported by this norm"
        )
    if isinstance(spec, Example1TailNorm):
        raise DimensionMismatch(
            "this norm needs a TailVector with an explicit tail constant"
        )
    v = as_vector(x)
    n = norm_dimension(spec)
    if v.size != n:
        raise DimensionMismatch(f"vector has length {v.size}, norm expects {n}")
    total = 0.0
    for blk in _blocks_of(spec):
        total += blk.coef * float(np.max(np.abs(blk.matrix @ v)))
    return total


def generators(spec: NormSpec) -> np.ndarray:
    """Support functionals u_i with norm(x) = max_i <u_i, x>, as the rows of
    a read-only array.

    Expanding the sign and row choices of every block gives prod_j
    (2 * rows_j) rows; the distinct ones are returned, sign symmetric and
    sorted lexicographically by :func:`_sorted_distinct_rows`.  When the
    product times the dimension passes ``GENERATOR_LIMIT`` entries,
    :class:`GeneratorBlowup` is raised before anything is allocated."""
    blocks = _blocks_of(spec)
    count = math.prod(2 * blk.matrix.shape[0] for blk in blocks)
    n = blocks[0].matrix.shape[1]
    if count * n > GENERATOR_LIMIT:
        raise GeneratorBlowup(
            f"{count} support functionals of dimension {n} exceed the cap "
            f"of {GENERATOR_LIMIT} entries"
        )
    combos = np.zeros((1, n))
    for blk in blocks:
        scaled = blk.coef * blk.matrix
        step = np.concatenate([scaled, -scaled])
        combos = (combos[:, None, :] + step[None, :, :]).reshape(-1, n)
    combos = _sorted_distinct_rows(combos)
    combos.setflags(write=False)
    return combos


def _sorted_distinct_rows(V: np.ndarray) -> np.ndarray:
    """The rows ``np.unique(V, axis=0)`` returns, in its order: sorted
    lexicographically, one of each run of equal rows.

    A stable sort of the first column settles the order unless that column
    has ties, as the rows of :class:`SupNorm` and :class:`Example2Norm`
    do; only then are all columns sorted.  Of rows equal up to the sign of
    a zero, the first one in ``V`` is kept.  The fast path stays because
    it took 9.3 ms per 120 solve requests of the bench, against 22.2 ms
    for ``lexsort`` always (2 vCPUs, BLAS at one thread)."""
    order = np.argsort(V[:, 0], kind="stable")
    first = V[order, 0]
    if np.any(first[1:] == first[:-1]):
        order = np.lexsort(V.T[::-1])
    V = V[order]
    keep = np.ones(V.shape[0], dtype=bool)
    keep[1:] = np.any(V[1:] != V[:-1], axis=1)
    return V[keep]


def dual_norm_lmo(spec: NormSpec, g, *, gens: np.ndarray | None = None) -> DualEval:
    """Dual-norm evaluation: value and a maximizer of <g, x> over the unit ball.

    Solved as the LP over the generator constraints <u_i, x> <= 1.  The
    maximizer is the simplex's optimal basic point: a vertex of the ball
    when the maximizer is unique, otherwise some point of the optimal face.
    ``g`` is one functional (n,), giving a float value and an (n,)
    achiever, or a stack (k, n), giving values (k,) and achievers (k, n)
    from one stacked LP.  Passing the precomputed ``generators(spec)``
    skips re-expansion on repeated calls.  ``g`` and the constraint array,
    ``gens`` or the expansion, are checked here once; the simplex of
    :mod:`zenger.lp` takes them as they are.
    """
    n = norm_dimension(spec)
    if n is None:
        raise NotPolyhedral(f"{type(spec).__name__} has no generator description")
    G = as_stack(g)
    if G.shape[-1] != n:
        raise DimensionMismatch(f"vector has length {G.shape[-1]}, norm expects {n}")
    U = np.asarray(generators(spec) if gens is None else gens, dtype=float)
    if U.ndim != 2 or U.shape[1] != n:
        rows = U.shape[0] if U.ndim else 0
        raise ValueError(f"constraint matrix shape {U.shape} does not match "
                         f"{rows} rows and {n} variables")
    if not np.all(np.isfinite(U)):
        raise ValueError("constraint entries must be finite")
    program = _lp.LinearProgram(G, U, np.ones(U.shape[0]))
    try:
        result = _lp.solve_lp(program)
    except _lp.LPError as exc:
        raise LPFailure(f"simplex failed on the dual-norm LP: {exc}") from exc
    if result.status != _lp.OPTIMAL:
        raise LPFailure(f"dual-norm LP ended with status {result.status}")
    return DualEval(result.value, result.point)


def projection_norm(spec: NormSpec, N: int) -> float:
    """Operator norm of the truncation projection P_N on this normed space.

    Since P_N is diagonal, sup over the ball of norm(P_N x) equals the
    largest dual norm of a projected support functional.  Only the
    functionals that P_N moves need an LP: a fixed one, P_N u = u, has dual
    norm at most 1, since <u, x> <= norm(x) <= 1 on the ball, and ||P_N|| is
    at least 1, since P_N e_1 = e_1.  So the maximum starts at 1, and for
    N >= dimension (P_N = I) it is exactly 1 with no LP solved.  The moved
    functionals go to :func:`dual_norm_lmo` as one stack, one stacked LP
    over the shared ball.

    On :class:`Example1TailNorm` it is 1 in closed form: P_N x is finitely
    supported, so its limsup is 0 and norm(P_N x) = sup |P_N x| <= sup |x|
    <= norm(x); e_1 is fixed by P_N and attains the bound.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if isinstance(spec, Example1TailNorm):
        return 1.0
    gens = generators(spec)
    V = gens[np.any(gens[:, N:] != 0.0, axis=1)]
    V[:, N:] = 0.0
    V = _canonical_rows(V)
    if V.shape[0] == 0:
        return 1.0
    return max(1.0, float(np.max(dual_norm_lmo(spec, V, gens=gens).value)))


def _canonical_rows(V: np.ndarray) -> np.ndarray:
    """Drop null rows and sign duplicates; the dual norm is even, so one
    representative per +-pair suffices."""
    nonzero = np.any(V != 0.0, axis=1)
    V = V[nonzero]
    idx = np.argmax(V != 0.0, axis=1)
    lead = V[np.arange(V.shape[0]), idx]
    V = V * np.where(lead < 0, -1.0, 1.0)[:, None]
    return _sorted_distinct_rows(V)


def equivalence_constants(spec: NormSpec) -> EquivalenceConstants:
    """Best constants relating the norm to the sup norm.

    Upper: the norm of a sign vector matching u_i is ||u_i||_1, so the max
    over functionals is attained.  Lower: the largest coordinate functional
    on the unit ball is max_k dual_norm(e_k), one stacked LP over the n
    coordinate functionals.
    """
    U = generators(spec)
    upper = float(np.max(np.sum(np.abs(U), axis=1)))
    worst = float(np.max(dual_norm_lmo(spec, np.eye(U.shape[1]), gens=U).value))
    return EquivalenceConstants(c_lower=1.0 / worst, C_upper=upper)

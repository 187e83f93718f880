"""Truncation asymptotics: projection-norm tables, liminf checks, and the
refuter showing the tail norm admits no dual pair.

The projection P_N keeps the first N coordinates.  Two questions are probed
empirically here.  First, how does the operator norm of P_N behave as N
grows (for the cascaded-difference norm it decays like 1 + 2^{-N} toward 1).
Second, does norm(x) = liminf_N norm(P_N x) hold vectorwise; for the
sup-plus-limsup tail norm it fails on the constant sequence e, and
example1_refute turns any unit-sphere candidate weight vector into a finite
witness that its price functional has dual norm above one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import TailVector, ZengerError, project_PN
from .norms import Example1TailNorm, Example2Norm, NormSpec, eval_norm, projection_norm

REFUTE_LIMIT = 10 ** 6  # indices example1_refute searches before giving up


class SearchLimitExceeded(ZengerError):
    """The refuter's partial sums did not pass 1 within the index budget."""


class PnRow(NamedTuple):
    N: int
    pn_norm: float
    bound: float | None


@dataclass(frozen=True)
class PnTable:
    """Operator norms of the truncation projections, one row per N."""

    rows: tuple


class LiminfReport(NamedTuple):
    limit_estimate: float
    norm_value: float
    consistent: bool


@dataclass(frozen=True)
class RefutationWitness:
    """Finitely supported x with norm exactly 1 whose pairing with the
    candidate prices exceeds 1, disproving dual-norm-1 for that candidate."""

    N: int
    x: TailVector
    value: float


def geometric_rule(ratio: float) -> Callable[[int], float]:
    """The weight rule alpha_k = (1 - ratio) * ratio^(k-1), summing to 1."""
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie strictly between 0 and 1")

    def alpha(k: int) -> float:
        if k < 1:
            raise ValueError("indices are 1-based")
        return (1.0 - ratio) * ratio ** (k - 1)

    return alpha


def geometric_alpha(ratio: float, n: int) -> np.ndarray:
    """First n geometric weights, renormalized so the truncation sums to 1
    (the raw truncation sums to 1 - ratio^n)."""
    if n < 1:
        raise ValueError("n must be positive")
    rule = geometric_rule(ratio)
    raw = np.array([rule(k) for k in range(1, n + 1)])
    return raw / raw.sum()


def pn_table(spec_family: Callable[[int], NormSpec], n_range: Iterable[int]) -> PnTable:
    """Operator norm of P_N on each member of a per-N family of norms.

    The analytic bound, 1 + 2^(-N) for the cascaded-difference norm and 1
    for the sup-plus-limsup norm, is attached to the row.
    """
    rows = []
    for N in n_range:
        N = int(N)
        if N < 1:
            raise ValueError("truncation levels are positive integers")
        spec = spec_family(N)
        value = projection_norm(spec, N)
        bound = (1.0 + 2.0 ** (-N) if isinstance(spec, Example2Norm)
                 else 1.0 if isinstance(spec, Example1TailNorm) else None)
        rows.append(PnRow(N=N, pn_norm=value, bound=bound))
    return PnTable(rows=tuple(rows))


def example2_family(N: int) -> Example2Norm:
    """Ambient dimension N + 1, so truncation at N sees the first dropped
    coordinate and the projection norm reflects the tail penalty."""
    return Example2Norm(N + 1)


def liminf_check(spec: NormSpec, x: TailVector, n_range: Iterable[int]) -> LiminfReport:
    """Compare norm(x) against the tail behaviour of norm(P_N x).

    The liminf is estimated as the minimum over the upper half of the N
    range.  The verdict is reported, never asserted: the whole point of the
    tail norm is that consistency can legitimately fail (for the constant
    sequence e it reports 1 against a norm of 2).
    """
    ns = sorted({int(N) for N in n_range})
    if not ns or ns[0] < 1:
        raise ValueError("need a nonempty range of positive truncation levels")
    norm_value = eval_norm(spec, x)
    values = [eval_norm(spec, project_PN(x, N)) for N in ns]
    tail = values[len(values) // 2 :]
    limit_estimate = min(tail)
    consistent = abs(limit_estimate - norm_value) <= 1e-9
    return LiminfReport(
        limit_estimate=limit_estimate,
        norm_value=norm_value,
        consistent=consistent,
    )


def example1_refute(w: TailVector, alpha: Callable[[int], float]) -> RefutationWitness:
    """Find the smallest N <= ``REFUTE_LIMIT`` with sum_{k<=N} alpha_k / |w_k| > 1.

    The candidate w must lie on the unit sphere of the tail norm with every
    represented entry nonzero, including the tail constant.  Then |w_k| <= 1
    everywhere with strict inequality somewhere (the tail constant alone
    contributes twice to the norm, so |c| <= 1/2), which makes the partial
    sums exceed 1 at a finite N.  The witness x carries sign(w_k) in its
    first N slots and zeros after, so its norm is exactly 1, yet it pairs
    with the prices phi_k = alpha_k / w_k to a value above 1: no prices built
    on w can have dual norm 1.
    """
    if w.tail == 0.0:
        raise ValueError(
            "candidate must have a nonzero tail constant; otherwise its"
            " entries vanish eventually and it already fails w_k != 0"
        )
    if np.any(w.head == 0.0):
        raise ValueError("candidate entries must all be nonzero")
    norm_value = eval_norm(Example1TailNorm(), w)
    if abs(norm_value - 1.0) > 1e-12:
        raise ValueError(
            f"candidate must lie on the unit sphere, got norm {norm_value!r}"
        )
    limit = REFUTE_LIMIT
    partial = 0.0
    signs = []
    for k in range(1, limit + 1):
        w_k = w.entry(k)
        a_k = float(alpha(k))
        if a_k <= 0.0:
            raise ValueError("alpha rule must be positive at every index")
        signs.append(1.0 if w_k > 0.0 else -1.0)
        partial += a_k / abs(w_k)
        if partial > 1.0:
            x = TailVector(np.array(signs), 0.0)
            return RefutationWitness(N=k, x=x, value=partial)
    raise SearchLimitExceeded(
        f"partial sums reached only {partial!r} after {limit} terms"
    )

"""Discrete-time barrier checks over belief trajectories.

A barrier value h certifies membership of the current belief in the set
{h >= 0}. Two one-step conditions are checked between consecutive
belief points:

  invariance:  h_next - h_prev >= -gamma * h_prev   (0 < gamma < 1)
      keeps {h >= 0} forward invariant once entered (h_next >=
      (1 - gamma) * h_prev, so nonnegativity is preserved exactly);

  contraction: h_next - rho * h_prev >= eps * (1 - rho)
      (0 < rho < 1, eps > 0) forces h to cross into {h >= 0} from
      below within a computable number of steps, since compliance
      implies h_t - eps >= rho^t * (h_0 - eps).

reach_steps turns the contraction inequality into that step budget.
Barriers for conjunctions and disjunctions compose by pointwise min and
max respectively, through the Min and Max nodes of ldtl.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidStart


@dataclass(frozen=True)
class LinearAlpha:
    """Linear class-K decay bound alpha(r) = gamma * r, 0 < gamma < 1.

    Applied as written for negative h as well: below zero the bound
    demands strict improvement rather than allowing further decay.
    """

    gamma: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    def __call__(self, r: float) -> float:
        return self.gamma * r


@dataclass(frozen=True)
class FtParams:
    """Contraction factor and margin for finite-time checks."""

    rho: float
    eps: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


def dtbf_check(h_prev: float, h_next: float, alpha: LinearAlpha) -> bool:
    """One-step invariance condition h_next - h_prev >= -alpha(h_prev)."""
    return h_next - h_prev >= -alpha(h_prev)


def ft_dtbf_check(h_prev: float, h_next: float, p: FtParams) -> bool:
    """One-step contraction condition h_next - rho*h_prev >= eps*(1-rho)."""
    return h_next - p.rho * h_prev >= p.eps * (1.0 - p.rho)


def ft_time_bound(h0: float, p: FtParams) -> int:
    """Step budget to reach {h >= 0} from h0 < 0 under per-step
    contraction: floor(log((eps - h0) / eps) / log(1 / rho)).

    Raises InvalidStart when h0 >= 0 (already inside the set).
    """
    if h0 >= 0.0:
        raise InvalidStart(h0)
    return math.floor(math.log((p.eps - h0) / p.eps) / math.log(1.0 / p.rho))


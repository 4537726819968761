"""Analytical model of the multi-message GASP baseline.

Only the quantities the simulator and cost comparison need: the
recovery-threshold case table (with m*T playing the role of the
collusion parameter), the budget-to-m mapping, and the upload cost.
Codeword construction and decoding for GASP are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import as_int, block_dims
from .errors import BudgetTooSmallError, ParameterError, UnsupportedRegimeError
from .scheme import field_element_bits


@dataclass(frozen=True)
class GaspParams:
    """Partitioning/privacy parameters of the univariate baseline.

    The threshold case table is stated for L <= K only; other inputs
    are rejected rather than extrapolated.
    """

    K: int
    L: int
    T: int
    m: int

    def __post_init__(self):
        for name in ("K", "L", "T", "m"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, ParameterError))
        if min(self.K, self.L, self.m) < 1 or self.T < 0:
            raise UnsupportedRegimeError(f"need K, L, m >= 1 and T >= 0, got {self}")
        if self.L > self.K:
            raise UnsupportedRegimeError(
                f"threshold cases are tabulated for L <= K only, got L={self.L} > K={self.K}"
            )


def gasp_rth(g: GaspParams) -> int:
    """Recovery threshold of the baseline with m sub-tasks per worker."""
    k, l, mt = g.K, g.L, g.m * g.T
    if mt < 1:
        raise UnsupportedRegimeError(
            f"baseline needs m*T >= 1 (it is a private scheme), got m*T={mt}"
        )
    if mt == 1 and l > 1:
        return k * l + k + l
    if 1 < mt < l:
        return k * l + k + l + mt * mt + mt - 3
    if l <= mt < k:
        return (k + mt) * (l + 1) - 1
    # Integers with 1 <= mT and L <= K leave only L <= K <= mT here.
    return 2 * k * l + 2 * mt - 1


def gasp_max_m(budget: int) -> int:
    """Largest m under a partition budget: each sub-task needs one coded
    partition of each input matrix."""
    if as_int(budget, "budget", ParameterError) < 2:
        raise BudgetTooSmallError(
            f"budget {budget} cannot hold a coded partition of each matrix"
        )
    return budget // 2


def gasp_upload_cost_bits(
    g: GaspParams, n_workers: int, r: int, s: int, c: int, q: int
) -> int:
    """Total upload bits: N * m * (rs/K + sc/L) field elements."""
    br, bc = block_dims(g.K, g.L, (r, s, c), UnsupportedRegimeError)
    per_task = br * s + s * bc
    return n_workers * g.m * per_task * field_element_bits(q)

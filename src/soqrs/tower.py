"""The rules of the degenerate-series tower that need no arrays.

Which towers exist (check_tower) and the four steps between neighbouring
blocks (FAMILIES).  gtbasis builds the tower's arrays from them, degenerate
series assembly walks the steps, and classify decides on them exactly
without loading numpy.
"""

from __future__ import annotations


def check_tower(r: int, s: int, epsilon: int, cutoff: int | None = None) -> None:
    """Refuse a tower the degenerate series does not define, with ValueError.

    The rules of every tower: ranks r, s > 2, epsilon 0 or 1 and, when a
    cutoff is given, a cutoff of at least epsilon, so that a block fits.
    """
    if r <= 2 or s <= 2:
        raise ValueError(f"ranks must exceed 2, got r={r}, s={s}")
    if epsilon not in (0, 1):
        raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
    if cutoff is not None and cutoff < epsilon:
        raise ValueError(f"cutoff {cutoff} is below epsilon {epsilon}: "
                         "the truncated tower has no blocks")


FAMILIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
"""The steps (dm, dm') between neighbouring blocks, one per noncompact family.

An edge's family indexes this.
"""

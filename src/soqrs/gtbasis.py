"""Gelfand-Tsetlin chain patterns and the truncated degenerate-series basis.

A class-1 basis vector of so'_q(n) is a chain (m_n, m_{n-1}, ..., m_3, m_2)
with m_n >= m_{n-1} >= ... >= m_3 >= |m_2|; only the last entry may be
negative, and only n = 3 admits half-integer labels.  The degenerate
series of so'_q(r,s) lives on pairs of such chains, one for so'_q(r) with
top label m and one for so'_q(s) with top label m', subject to the parity
constraint m + m' == epsilon (mod 2).  The infinite tower is truncated at
m + m' <= cutoff; compact blocks are never truncated internally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _is_half_integer(x) -> bool:
    f = Fraction(x)
    return f.denominator == 2


def _as_label(x):
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    if f.denominator == 2:
        return f
    raise ValueError(f"pattern labels must be integers or half-integers, got {x!r}")


@dataclass(frozen=True)
class ChainPattern:
    """One Gelfand-Tsetlin chain for so'_q(n), top label included."""

    n: int
    entries: tuple

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"chain rank must be >= 3, got n={self.n}")
        if len(self.entries) != self.n - 1:
            raise ValueError(
                f"chain for so'_q({self.n}) needs {self.n - 1} entries, "
                f"got {len(self.entries)}"
            )
        e = self.entries
        for a, b in zip(e, e[1:-1]):
            if a < b:
                raise ValueError(f"labels must be non-increasing: {e}")
        if len(e) >= 2 and e[-2] < abs(e[-1]):
            raise ValueError(f"last label must satisfy m_3 >= |m_2|: {e}")
        if len(e) == 1 and e[0] < 0:
            raise ValueError(f"top label must be nonnegative: {e}")

    @property
    def top(self):
        return self.entries[0]


@dataclass(frozen=True)
class DoublePattern:
    """Pair of chains labelling one degenerate-series basis vector."""

    left: ChainPattern
    right: ChainPattern

    @property
    def m(self):
        return self.left.top

    @property
    def mp(self):
        return self.right.top

    @property
    def block(self):
        return (self.left.top, self.right.top)

    def as_list(self) -> list:
        return list(self.left.entries) + list(self.right.entries)


def class1_dim(n: int, m) -> int:
    """Dimension of the class-1 representation of so'_q(n) with top label m."""
    if n == 3:
        return int(2 * Fraction(m) + 1)
    m = int(m)
    return (2 * m + n - 2) * math.factorial(m + n - 3) // (
        math.factorial(m) * math.factorial(n - 2)
    )


def _checked_top(n: int, top):
    if n < 3:
        raise ValueError(f"rank must be >= 3, got n={n}")
    top = _as_label(top)
    if top < 0:
        raise ValueError(f"top label must be nonnegative, got {top}")
    if n > 3 and _is_half_integer(top):
        raise ValueError(
            f"half-integer top label {top} is only supported for n=3"
        )
    return top


def enumerate_chain(n: int, top) -> list[ChainPattern]:
    """All chains with the given top label, ascending lexicographic order.

    Half-integer tops are allowed only for n = 3; class-1 representations
    of so'_q(n), n > 3, carry integer weights.
    """
    top = _checked_top(n, top)
    if _is_half_integer(top):
        return [ChainPattern(3, (top, j - top)) for j in range(int(2 * top) + 1)]
    return [ChainPattern(n, tuple(e)) for e in chain_labels(n, top)[top].tolist()]


def chain_labels(n: int, top) -> list[np.ndarray]:
    """The chains of enumerate_chain(n, t) as rows (m_n, ..., m_2), for t = 0..top.

    One int64 array per integer top label t, rows in ascending order.
    """
    top = _checked_top(n, top)
    if _is_half_integer(top):
        raise ValueError(f"chain_labels needs an integer top label, got {top}")
    # labels[t] holds every (m_k, ..., m_2) with m_k = t, starting at k = 3
    labels = [np.stack((np.full(2 * t + 1, t), np.arange(-t, t + 1)), axis=1)
              for t in range(top + 1)]
    for _ in range(n - 3):
        labels = [np.concatenate(labels[:t + 1]) for t in range(top + 1)]
        labels = [np.column_stack((np.full(len(rest), t), rest))
                  for t, rest in enumerate(labels)]
    return [a.astype(np.int64) for a in labels]


def enumerate_blocks(epsilon: int, cutoff: int) -> list[tuple[int, int]]:
    """Blocks (m, m') with m + m' <= cutoff and m + m' == epsilon (mod 2).

    Ordered by (m+m', m): every ring sigma = m+m' is contiguous and rings
    ascend, so the blocks below any ring form a prefix.
    """
    return [(m, sigma - m) for sigma in range(epsilon, cutoff + 1, 2)
            for m in range(sigma + 1)]


class TruncatedSpace:
    """Ordered double-pattern basis of the degenerate series, cut at m+m' <= cutoff.

    The basis holds every double pattern with m + m' <= cutoff and
    m + m' == epsilon (mod 2).  Ordering is lexicographic by
    (m+m', m, left entries descending, right entries descending), which
    keeps each (m, m') block contiguous and reproducible: block (m, m')
    starts at its offset and is ordered left-chain-major, so the column of
    (left chain a, right chain b) is offset + a * len(right chains) + b.

    The space stores only the blocks, their offsets and, per top label and
    side, the ascending chain_labels array and the descending chain list;
    `basis` lists every pattern and is built on first use.
    """

    def __init__(self, r: int, s: int, epsilon: int, cutoff: int):
        if r <= 2 or s <= 2:
            raise ValueError(f"ranks r, s must exceed 2, got r={r}, s={s}")
        if epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
        if cutoff < epsilon:
            raise ValueError(
                f"cutoff {cutoff} is below epsilon {epsilon}: no block fits"
            )
        self.r = int(r)
        self.s = int(s)
        self.epsilon = int(epsilon)
        self.cutoff = int(cutoff)

        self.blocks = enumerate_blocks(self.epsilon, self.cutoff)
        # labels[0][m]: ascending label array of the so'_q(r) chains with
        # top m, labels[1][m']: so'_q(s); chains[side][m] lists them descending
        towers = {n: chain_labels(n, self.top_ring) for n in {self.r, self.s}}
        self.labels = (towers[self.r], towers[self.s])
        self.chains = tuple(
            {t: [ChainPattern(n, tuple(e)) for e in a[::-1].tolist()]
             for t, a in enumerate(self.labels[side])}
            for side, n in enumerate((self.r, self.s))
        )
        self.positions = tuple(
            {c.entries: i for chains in side.values() for i, c in enumerate(chains)}
            for side in self.chains
        )
        sizes = [len(self.chains[0][m]) * len(self.chains[1][mp])
                 for m, mp in self.blocks]
        self.offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self.block_slices: dict[tuple[int, int], slice] = {
            b: slice(int(self.offsets[j]), int(self.offsets[j + 1]))
            for j, b in enumerate(self.blocks)
        }

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    @property
    def top_ring(self) -> int:
        """Largest admissible m+m' value (parity-adjusted cutoff)."""
        if (self.cutoff - self.epsilon) % 2 == 0:
            return self.cutoff
        return self.cutoff - 1

    @functools.cached_property
    def basis(self) -> list[DoublePattern]:
        return [DoublePattern(lc, rc) for m, mp in self.blocks
                for lc in self.chains[0][m] for rc in self.chains[1][mp]]

    def pattern(self, i: int) -> DoublePattern:
        """The pattern at column i, without building the basis."""
        j = int(np.searchsorted(self.offsets, i, side="right")) - 1
        m, mp = self.blocks[j]
        a, b = divmod(i - int(self.offsets[j]), len(self.chains[1][mp]))
        return DoublePattern(self.chains[0][m][a], self.chains[1][mp][b])

    def index_of(self, p: DoublePattern) -> int:
        sl = self.block_slices.get(p.block)
        a = self.positions[0].get(p.left.entries)
        b = self.positions[1].get(p.right.entries)
        if sl is None or a is None or b is None:
            raise KeyError(f"pattern {p} is not in the truncated space")
        return sl.start + a * len(self.chains[1][p.mp]) + b

    def interior_indices(self, depth: int) -> range:
        """Columns whose m+m' is at least `depth` below the top ring.

        Relative to the top admissible ring rather than the raw cutoff, so
        that a depth-3 interior is truncation-free for cubic relations at
        either parity of the cutoff.  Rings ascend, so this is a prefix.
        """
        limit = self.top_ring - depth
        inner = sum(1 for m, mp in self.blocks if m + mp <= limit)
        return range(int(self.offsets[inner]))

    def block_diagonal(self, values: dict) -> np.ndarray:
        """Diagonal of the block-scalar operator equal to values[b] on block b."""
        return np.repeat(np.array([values[b] for b in self.blocks]),
                         np.diff(self.offsets))

    def dump_basis(self) -> list[list[int]]:
        return [p.as_list() for p in self.basis]

    def __repr__(self) -> str:
        return (
            f"TruncatedSpace(r={self.r}, s={self.s}, epsilon={self.epsilon}, "
            f"cutoff={self.cutoff}, dim={self.dim})"
        )

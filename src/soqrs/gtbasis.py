"""Gelfand-Tsetlin chains as label arrays and the truncated degenerate-series basis.

A class-1 basis vector of so'_q(n) is a chain (m_n, m_{n-1}, ..., m_3, m_2)
with m_n >= m_{n-1} >= ... >= m_3 >= |m_2|; only the last entry may be
negative, and only n = 3 admits half-integer labels, which are built where
they are used (compactrep.build_so3, the CLI dump), not here.  The degenerate
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


def class1_dim(n: int, m) -> int:
    """Dimension of the class-1 representation of so'_q(n) with top label m."""
    if n == 3:
        return int(2 * Fraction(m) + 1)
    m = int(m)
    return (2 * m + n - 2) * math.factorial(m + n - 3) // (
        math.factorial(m) * math.factorial(n - 2)
    )


def chain_labels(n: int, top) -> list[np.ndarray]:
    """The chains (m_n, ..., m_2) of so'_q(n) with m_n = t, for t = 0..top.

    One int64 array per integer top label t, rows in ascending order.
    """
    if n < 3:
        raise ValueError(f"rank must be >= 3, got n={n}")
    label = Fraction(top)
    if label.denominator != 1 or label < 0:
        raise ValueError(f"chain_labels needs a nonnegative integer top label, got {top}")
    top = int(label)
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


def block_arrays(epsilon: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of enumerate_blocks(epsilon, cutoff) as int64 arrays m, m'."""
    rings = np.arange(epsilon, cutoff + 1, 2, dtype=np.int64)
    sizes = rings + 1
    sigma = np.repeat(rings, sizes)
    m = np.arange(sigma.size, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return m, sigma - m


FAMILIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
"""The steps (dm, dm') between neighbouring blocks, one per noncompact family.

An edge's family indexes this.
"""


def lattice_steps(epsilon: int, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source block, family, target block) of every FAMILIES step below the cutoff.

    Blocks are positions in enumerate_blocks(epsilon, cutoff) order and a
    family indexes FAMILIES.  One entry per directed step, in (source
    block, family) order; a step that leaves the quadrant or passes the
    cutoff has none.
    """
    m, mp = block_arrays(epsilon, cutoff)
    steps = np.array(FAMILIES)
    tm, tmp = m[:, None] + steps[:, 0], mp[:, None] + steps[:, 1]
    src, family = np.nonzero((tm >= 0) & (tmp >= 0) & (tm + tmp <= cutoff))
    return src, family, block_index(epsilon, tm[src, family], tmp[src, family])


def block_index(epsilon: int, m: np.ndarray, mp: np.ndarray) -> np.ndarray:
    """Positions of blocks (m, m') in enumerate_blocks(epsilon, .) order.

    Ring sigma = epsilon + 2k holds sigma + 1 blocks, so k(epsilon+1) + k(k-1)
    blocks precede it, and block (m, m') is the m-th of its ring.
    """
    k = (m + mp - epsilon) // 2
    return k * (epsilon + 1) + k * (k - 1) + m


@dataclass(frozen=True, eq=False)
class BlockEdges:
    """Every edge of the block lattice once, with the columns it links.

    Edge k joins block src[k] to block dst[k] > src[k] (ids in block
    order) by a FAMILIES step; edges are ordered by src, then by step.
    col_src[k] and col_dst[k] are the columns of the patterns of the two
    blocks whose inner labels are all zero, so the noncompact generator
    links the blocks by its entries (col_dst, col_src) and (col_src,
    col_dst).  adjacency[b] lists (edge, other block, backwards) for every
    edge of block b in edge order, backwards when b is the edge's dst.
    The arrays are read-only.
    """

    src: np.ndarray
    dst: np.ndarray
    col_src: np.ndarray
    col_dst: np.ndarray
    adjacency: tuple


class TruncatedSpace:
    """Ordered double-chain basis of the degenerate series, cut at m+m' <= cutoff.

    The basis holds every pair (left chain of so'_q(r) with top m, right
    chain of so'_q(s) with top m') with m + m' <= cutoff and m + m' ==
    epsilon (mod 2).  Ordering is lexicographic by (m+m', m, left entries
    descending, right entries descending), which keeps each (m, m') block
    contiguous and reproducible: block (m, m') starts at its offset and is
    ordered left-chain-major, so the column of (left chain a, right chain
    b) is offset + a * len(right chains) + b.

    The space stores only the blocks, their offsets and, per top label and
    side, the ascending chain_labels array; `pattern` and `basis_array`
    read the basis rows from those arrays.  `block_steps` and
    `block_edges`, the table the metric and intertwiner solvers walk, are
    built on first use.
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
        # top m, labels[1][m']: so'_q(s); a block lists them descending
        towers = {n: chain_labels(n, self.top_ring) for n in {self.r, self.s}}
        self.labels = (towers[self.r], towers[self.s])
        sizes = [len(self.labels[0][m]) * len(self.labels[1][mp])
                 for m, mp in self.blocks]
        self.offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    @property
    def top_ring(self) -> int:
        """Largest admissible m+m' value (parity-adjusted cutoff)."""
        if (self.cutoff - self.epsilon) % 2 == 0:
            return self.cutoff
        return self.cutoff - 1

    def pattern(self, i: int) -> tuple:
        """Row i of basis_array as Python ints: (m_r, ..., m_2, m'_s, ..., m'_2)."""
        j = int(np.searchsorted(self.offsets, i, side="right")) - 1
        m, mp = self.blocks[j]
        left, right = self.labels[0][m], self.labels[1][mp]
        a, b = divmod(i - int(self.offsets[j]), len(right))
        return tuple(left[-1 - a].tolist() + right[-1 - b].tolist())

    def interior_indices(self, depth: int) -> range:
        """Columns whose m+m' is at least `depth` below the top ring.

        Relative to the top admissible ring rather than the raw cutoff, so
        that a depth-3 interior is truncation-free for cubic relations at
        either parity of the cutoff.  Rings ascend, so this is a prefix.
        """
        limit = self.top_ring - depth
        inner = sum(1 for m, mp in self.blocks if m + mp <= limit)
        return range(int(self.offsets[inner]))

    @functools.cached_property
    def block_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lattice_steps of the space: every FAMILIES step between its blocks.

        The arrays are read-only.
        """
        steps = lattice_steps(self.epsilon, self.cutoff)
        for arr in steps:
            arr.flags.writeable = False
        return steps

    @functools.cached_property
    def block_edges(self) -> BlockEdges:
        """The block-edge table: the block_steps that ascend, with their columns."""
        m, mp = block_arrays(self.epsilon, self.cutoff)
        src, _, dst = self.block_steps
        up = dst > src
        src, dst = src[up], dst[up]
        # descending position of the chain (t, 0, ..., 0) among the chains of top t
        zero = [np.array([len(a) - 1 - np.flatnonzero(~a[:, 1:].any(axis=1))[0] for a in side])
                for side in self.labels]
        width = np.array([len(a) for a in self.labels[1]])
        column = self.offsets[:-1] + zero[0][m] * width[mp] + zero[1][mp]
        adjacency = [[] for _ in self.blocks]
        for k, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
            adjacency[a].append((k, b, False))
            adjacency[b].append((k, a, True))
        table = BlockEdges(src, dst, column[src], column[dst], tuple(map(tuple, adjacency)))
        for arr in (table.src, table.dst, table.col_src, table.col_dst):
            arr.flags.writeable = False
        return table

    def block_diagonal(self, values: dict) -> np.ndarray:
        """Diagonal of the block-scalar operator equal to values[b] on block b."""
        return np.repeat(np.array([values[b] for b in self.blocks]),
                         np.diff(self.offsets))

    def basis_array(self) -> np.ndarray:
        """Every basis vector as a row (left entries, right entries), in column order.

        Row i equals pattern(i); built per block from the label arrays.
        """
        rows = []
        for m, mp in self.blocks:
            left, right = self.labels[0][m][::-1], self.labels[1][mp][::-1]
            rows.append(np.hstack((np.repeat(left, len(right), axis=0),
                                   np.tile(right, (len(left), 1)))))
        return np.concatenate(rows)

    def __repr__(self) -> str:
        return (
            f"TruncatedSpace(r={self.r}, s={self.s}, epsilon={self.epsilon}, "
            f"cutoff={self.cutoff}, dim={self.dim})"
        )

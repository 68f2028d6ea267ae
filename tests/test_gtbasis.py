import itertools
from fractions import Fraction

import numpy as np
import pytest

from soqrs import TruncatedSpace, class1_dim
from soqrs.gtbasis import (
    FAMILIES,
    block_arrays,
    block_index,
    chain_labels,
    enumerate_blocks,
    lattice_steps,
)
from soqrs.cli import _chain_table
from oracles import (
    basis_rows,
    block_slices,
    brute_chain_count,
    brute_chains,
    brute_space_dim,
    class1_dim_formula,
    space_basis,
)


def test_enumerate_chain_examples():
    assert len(chain_labels(3, 2)[2]) == 5
    assert len(chain_labels(5, 1)[1]) == 5
    assert len(chain_labels(4, 2)[2]) == 9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_chain_counts_match_oracles(n):
    labels = chain_labels(n, 6)
    for m in range(0, 7):
        got = len(labels[m])
        assert got == brute_chain_count(n, m)
        assert got == class1_dim_formula(n, m)
        assert got == class1_dim(n, m)


def test_enumerate_chain_half_integer():
    # the half-integer so'_q(3) chains (l, m_2) of a dump, m_2 = -l..l
    table = _chain_table(3, Fraction(3, 2))
    assert [c.tolist() for c in table.columns] == [
        ["3/2"] * 4, ["-3/2", "-1/2", "1/2", "3/2"]
    ]
    assert class1_dim(3, Fraction(3, 2)) == 4
    with pytest.raises(ValueError):
        chain_labels(4, Fraction(3, 2))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_chain_labels_match_brute_force(n):
    # every admissible chain once, in ascending order, for each top label
    labels = chain_labels(n, 5)
    assert len(labels) == 6
    for top, rows in enumerate(labels):
        assert rows.dtype == np.int64
        assert [tuple(e) for e in rows.tolist()] == brute_chains(n, top)
    with pytest.raises(ValueError):
        chain_labels(3, Fraction(3, 2))
    with pytest.raises(ValueError):
        chain_labels(2, 1)


def test_enumerate_chain_betweenness():
    for e in chain_labels(5, 3)[3].tolist():
        assert all(e[i] >= e[i + 1] for i in range(len(e) - 2))
        assert e[-2] >= abs(e[-1])


def test_build_space_dimensions():
    assert TruncatedSpace(3, 3, 0, 2).dim == 20
    assert TruncatedSpace(3, 3, 1, 1).dim == 6
    assert TruncatedSpace(4, 3, 0, 0).dim == 1


@pytest.mark.parametrize("r,s,eps,cutoff", [
    (3, 3, 0, 4), (3, 4, 1, 5), (4, 4, 0, 4), (5, 3, 1, 4),
])
def test_build_space_dim_matches_brute_force(r, s, eps, cutoff):
    assert TruncatedSpace(r, s, eps, cutoff).dim == brute_space_dim(r, s, eps, cutoff)


def test_build_space_rejects_small_ranks():
    with pytest.raises(ValueError):
        TruncatedSpace(2, 3, 0, 4)
    with pytest.raises(ValueError):
        TruncatedSpace(3, 1, 0, 4)
    with pytest.raises(ValueError, match="below epsilon"):
        TruncatedSpace(3, 3, 1, 0)  # no block of odd m+m' fits


def test_block_completeness():
    sp = TruncatedSpace(4, 3, 0, 6)
    slices = block_slices(sp)
    assert list(slices) == sp.blocks
    for j, ((m, mp), sl) in enumerate(slices.items()):
        expected = class1_dim(4, m) * class1_dim(3, mp)
        assert sl.stop - sl.start == expected
        assert (sl.start, sl.stop) == (sp.offsets[j], sp.offsets[j + 1])
        for i in range(sl.start, sl.stop):
            row = sp.pattern(i)
            assert (row[0], row[sp.r - 1]) == (m, mp)


def test_block_arrays_and_index_follow_enumerate_blocks():
    for eps in (0, 1):
        for cutoff in range(eps, 13):
            blocks = enumerate_blocks(eps, cutoff)
            m, mp = block_arrays(eps, cutoff)
            assert m.dtype == mp.dtype == np.int64
            assert list(zip(m.tolist(), mp.tolist())) == blocks
            assert block_index(eps, m, mp).tolist() == list(range(len(blocks)))


def test_lattice_steps_are_the_space_block_steps():
    for eps in (0, 1):
        # odd cutoff - eps: the top ring lies below the cutoff
        for cutoff in range(eps, 10):
            steps = lattice_steps(eps, cutoff)
            space = TruncatedSpace(3, 4, eps, cutoff)
            assert space.top_ring <= cutoff
            for a, b in zip(steps, space.block_steps):
                assert a.dtype == b.dtype and np.array_equal(a, b), (eps, cutoff)
            blocks = enumerate_blocks(eps, cutoff)
            expected = [(i, f, blocks.index((m + dm, mp + dmp)))
                        for i, (m, mp) in enumerate(blocks)
                        for f, (dm, dmp) in enumerate(FAMILIES)
                        if (m + dm, mp + dmp) in blocks]
            assert list(zip(*(a.tolist() for a in steps))) == expected, (eps, cutoff)


def test_ordering_and_index_roundtrip():
    sp = TruncatedSpace(3, 3, 0, 2)
    assert sp.pattern(0) == (0, 0, 0, 0)
    basis = space_basis(sp)
    for i, (left, right) in enumerate(basis):
        assert sp.pattern(i) == left + right
    # blocks ordered by (m+m', m), each block left-chain-major and descending
    keys = [(left[0] + right[0], left[0]) for left, right in basis]
    assert keys == sorted(keys)
    assert basis == sorted(basis, key=lambda p: (p[0][0] + p[1][0], p[0][0],
                                                 tuple(-x for x in p[0] + p[1])))


def test_interior_indices_and_top_ring():
    sp = TruncatedSpace(3, 3, 0, 8)
    rows = basis_rows(sp)
    assert sp.top_ring == 8
    interior = sp.interior_indices(3)
    assert all(rows[i][0] + rows[i][2] <= 5 for i in interior)
    assert all(
        i in interior
        for i, p in enumerate(rows) if p[0] + p[2] <= 5
    )
    sp1 = TruncatedSpace(3, 3, 1, 8)
    rows1 = basis_rows(sp1)
    assert sp1.top_ring == 7
    assert max(rows1[i][0] + rows1[i][2] for i in sp1.interior_indices(3)) <= 4


def test_basis_array_matches_patterns():
    for r, s, eps, cutoff in ((3, 4, 1, 3), (3, 3, 0, 0), (5, 3, 0, 5), (4, 6, 1, 4)):
        sp = TruncatedSpace(r, s, eps, cutoff)
        rows = sp.basis_array()
        assert rows.dtype == np.int64 and rows.shape == (sp.dim, (r - 1) + (s - 1))
        assert [tuple(row) for row in rows.tolist()] == basis_rows(sp)


def test_pattern_is_the_oracle_row():
    # every column, r, s in {3, 4, 5}, both parities, cutoffs 0, 1 and 5;
    # Python ints, not NumPy ones
    for r, s, (eps, cutoff) in itertools.product(
            (3, 4, 5), (3, 4, 5), ((0, 0), (0, 1), (0, 5), (1, 1), (1, 5))):
        sp = TruncatedSpace(r, s, eps, cutoff)
        want = basis_rows(sp)
        got = [sp.pattern(i) for i in range(sp.dim)]
        assert got == want, (r, s, eps, cutoff)
        assert all(type(x) is int for row in got for x in row)

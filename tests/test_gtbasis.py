from fractions import Fraction

import numpy as np
import pytest

from soqrs import (
    ChainPattern,
    DoublePattern,
    TruncatedSpace,
    class1_dim,
    enumerate_chain,
)
from soqrs.gtbasis import (
    FAMILIES,
    block_arrays,
    block_index,
    chain_labels,
    enumerate_blocks,
    lattice_steps,
)
from oracles import brute_chain_count, brute_chains, brute_space_dim, class1_dim_formula


def test_enumerate_chain_examples():
    assert len(enumerate_chain(3, 2)) == 5
    assert len(enumerate_chain(5, 1)) == 5
    assert len(enumerate_chain(4, 2)) == 9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_chain_counts_match_oracles(n):
    for m in range(0, 7):
        got = len(enumerate_chain(n, m))
        assert got == brute_chain_count(n, m)
        assert got == class1_dim_formula(n, m)
        assert got == class1_dim(n, m)


def test_enumerate_chain_half_integer():
    chains = enumerate_chain(3, Fraction(3, 2))
    assert len(chains) == 4
    assert [c.entries[1] for c in chains] == [
        Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)
    ]
    with pytest.raises(ValueError):
        enumerate_chain(4, Fraction(3, 2))


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
    for c in enumerate_chain(5, 3):
        e = c.entries
        assert all(e[i] >= e[i + 1] for i in range(len(e) - 2))
        assert e[-2] >= abs(e[-1])


def test_chain_pattern_validation():
    with pytest.raises(ValueError):
        ChainPattern(4, (1, 2, 0))
    with pytest.raises(ValueError):
        ChainPattern(3, (1, 2))
    with pytest.raises(ValueError):
        ChainPattern(4, (1, 2))


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
    for (m, mp), sl in sp.block_slices.items():
        expected = class1_dim(4, m) * class1_dim(3, mp)
        assert sl.stop - sl.start == expected
        for pat in sp.basis[sl]:
            assert pat.block == (m, mp)


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
    first = sp.basis[0]
    assert first.block == (0, 0)
    assert sp.index_of(first) == 0
    for i, pat in enumerate(sp.basis):
        assert sp.index_of(pat) == i
        assert sp.pattern(i) == pat
    # blocks ordered by (m+m', m)
    keys = [(p.m + p.mp, p.m) for p in sp.basis]
    assert keys == sorted(keys)


def test_pattern_index_not_found():
    sp = TruncatedSpace(3, 3, 0, 2)
    outside = DoublePattern(ChainPattern(3, (2, 0)), ChainPattern(3, (2, 0)))
    with pytest.raises(KeyError):
        sp.index_of(outside)


def test_interior_indices_and_top_ring():
    sp = TruncatedSpace(3, 3, 0, 8)
    assert sp.top_ring == 8
    interior = sp.interior_indices(3)
    assert all(sp.basis[i].m + sp.basis[i].mp <= 5 for i in interior)
    assert all(
        i in interior
        for i, p in enumerate(sp.basis) if p.m + p.mp <= 5
    )
    sp1 = TruncatedSpace(3, 3, 1, 8)
    assert sp1.top_ring == 7
    assert max(sp1.basis[i].m + sp1.basis[i].mp for i in sp1.interior_indices(3)) <= 4


def test_basis_array_matches_patterns():
    for r, s, eps, cutoff in ((3, 4, 1, 3), (3, 3, 0, 0), (5, 3, 0, 5), (4, 6, 1, 4)):
        sp = TruncatedSpace(r, s, eps, cutoff)
        rows = sp.basis_array()
        assert rows.dtype == np.int64 and rows.shape == (sp.dim, (r - 1) + (s - 1))
        assert rows.tolist() == [p.as_list() for p in sp.basis]

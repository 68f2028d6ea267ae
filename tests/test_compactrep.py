import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from soqrs import (
    QParam,
    R_coeff,
    build_class1,
    build_so3,
    check_relations,
    check_star,
    d_coeff,
)
from soqrs.compactrep import assemble
from oracles import class1_chains, cl_compact_matrices, cl_R, coo_to_csc, q_compact_coo


def test_out_of_range_q_is_refused():
    from soqrs.compactrep import _ratio_sqrt

    with pytest.raises(ValueError, match="out of floating-point range at q=50"):
        build_class1(3, 200, QParam(50.0))
    with pytest.raises(ValueError, match="out of floating-point range at q=50"):
        d_coeff(400, QParam(50.0))
    with pytest.raises(ValueError, match="out of floating-point range at q=1000000"):
        build_class1(5, 35, QParam(1e6))  # R's denominator overflows first
    # the denominator overflows, so the ratio underflows to 0
    with pytest.raises(ValueError, match=r"\(27, 27\)/\(55, 53\).*range at q=1000000"):
        _ratio_sqrt((27, 27), (55, 53), QParam(1e6))
    # a truly negative radicand still is an inadmissible pattern
    with pytest.raises(ArithmeticError, match="negative radicand"):
        _ratio_sqrt((1, 1), (-1, 2), QParam(2.0))
    # so'_q(3) at top 25 stays in range at q = 1e6 and still builds
    assert all(np.isfinite(g.mat.data).all() for g in build_class1(3, 25, QParam(1e6)))


def test_d_coeff_at_singular_points():
    # limit oracle: the raw quotient form evaluated just off the 0/0 point
    m = 1e-8
    raw = math.sqrt((m * (m + 1)) / ((2 * m) * (2 * m + 2)))
    assert d_coeff(0, QParam(1.0)) == pytest.approx(raw, abs=1e-7)
    assert d_coeff(0, QParam(1.0)) == pytest.approx(0.5, abs=1e-14)
    assert d_coeff(3, QParam(1.0)) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_d_coeff_symmetry(q):
    p = QParam(q)
    for twice_m in range(-8, 8):
        m = Fraction(twice_m, 2)
        assert d_coeff(m, p) == pytest.approx(d_coeff(-m - 1, p), abs=1e-14)


def test_so3_diagonal_generator():
    gens = build_so3(1, QParam(2.0))
    diag = gens[0].mat.diagonal()
    assert np.allclose(diag, [-1j, 0.0, 1j])

    p = QParam(2.0)
    half = p.qnum(Fraction(1, 2))
    gens = build_so3(Fraction(1, 2), p)
    assert np.allclose(gens[0].mat.diagonal(), [-1j * half, 1j * half])


def test_so3_classical_ladder():
    gens = build_so3(1, QParam(1.0))
    M = gens[1].mat.toarray()
    v = 1.0 / math.sqrt(2.0)
    expected = np.array([[0, -v, 0], [v, 0, -v], [0, v, 0]], dtype=complex)
    assert np.allclose(M, expected, atol=1e-14)


def test_R_coeff_values():
    assert R_coeff(0, 0, 4, QParam(1.0)) == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    assert R_coeff(1, 0, 5, QParam(1.0)) == pytest.approx(0.5, abs=1e-14)
    assert R_coeff(0, 1, 4, QParam(2.0)) == 0.0  # wall: [m1 - m2 + 1] = [0]
    with pytest.raises(ValueError):
        R_coeff(1, 0, 3, QParam(2.0))
    # cross-check against the classical oracle at q = 1
    for m1 in range(0, 4):
        for m2 in range(0, m1 + 1):
            for n in (4, 5, 6):
                assert R_coeff(m1, m2, n, QParam(1.0)) == pytest.approx(
                    cl_R(m1, m2, n), abs=1e-14)


def test_class1_small_dimensions_and_relations():
    gens = build_class1(4, 1, QParam(1.0))
    assert gens[0].dim == 4
    report = check_relations(gens, qp=QParam(1.0), tol=1e-12)
    assert report.passed, report.max_residual


def test_class1_n3_equals_so3():
    a = build_class1(3, 2, QParam(2.0))
    b = build_so3(2, QParam(2.0))
    for ga, gb in zip(a, b):
        assert (ga.mat != gb.mat).nnz == 0


def test_class1_restriction_blocks():
    # restriction to the next algebra down is labelled by the second entry
    basis = class1_chains(5, 1)
    seconds = {c[1] for c in basis}
    assert seconds == {0, 1}
    gens = build_class1(5, 1, QParam(2.0))
    # generators below the top leave the top restriction label alone
    for g in gens[:-1]:
        coo = g.mat.tocoo()
        for i, j in zip(coo.row, coo.col):
            assert basis[i][1] == basis[j][1]


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_compact_relations_and_star(q):
    p = QParam(q)
    for n in range(3, 6):
        for m in range(0, 4):
            gens = build_class1(n, m, p)
            rel = check_relations(gens, qp=p, tol=1e-10)
            assert rel.passed, (n, m, q, rel.max_residual)
            star = check_star(gens, tol=1e-12)
            assert star.passed, (n, m, q, star.max_residual)


def test_commutators_vanish_exactly():
    gens = build_class1(6, 2, QParam(2.0))
    report = check_relations(gens, qp=QParam(2.0), tol=1e-10)
    for row in report.rows:
        if row.relation.startswith("commutator"):
            assert row.residual < 1e-12, row


def test_classical_matrices_match_oracle():
    p = QParam(1.0)
    for n in (3, 4, 5):
        for m in (0, 1, 2, 3):
            basis = class1_chains(n, m)
            expected = cl_compact_matrices(n, basis)
            for g in build_class1(n, m, p):
                assert np.allclose(g.mat.toarray(), expected[g.i], atol=1e-12), (n, m, g.i)


def test_near_classical_limit():
    for n, m in [(3, 2), (4, 2), (5, 1)]:
        at_one = build_class1(n, m, QParam(1.0))
        near = build_class1(n, m, QParam(1.0 + 1e-8))
        for a, b in zip(at_one, near):
            assert np.max(np.abs((a.mat - b.mat).toarray())) < 1e-6


def test_sparsity_contract():
    for g in build_class1(5, 3, QParam(2.0)):
        percol = np.diff(g.mat.tocsc().indptr)
        assert percol.max() <= 2


def test_anti_hermiticity_exact():
    for g in build_class1(5, 2, QParam(0.5)):
        diff = g.mat.conjugate().transpose() + g.mat
        assert abs(diff).max() < 1e-12 if diff.nnz else True


def _same_bytes(a, b) -> bool:
    """Equal csc arrays, compared as bytes so that signed zeros count."""
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                            (a.data, b.data)))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 7.0])
def test_class1_matches_per_chain_reference(q):
    # the array assembly against the chain-by-chain walk with the same
    # bracket and d(m) functions: identical bytes, and no 0/0 at a wall
    p = QParam(q)
    cases = [(n, top) for n in range(3, 8) for top in range(0, 9)]
    cases += [(3, Fraction(k, 2)) for k in range(1, 18, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, top in cases:
            gens = build_so3(top, p) if n == 3 else build_class1(n, top, p)
            chains = class1_chains(n, top)
            ref = q_compact_coo(chains, p.qnum, lambda m: d_coeff(m, p))
            assert [g.i for g in gens] == sorted(ref)
            for g in gens:
                rows, cols, vals = ref[g.i]
                want = sparse.coo_matrix(
                    (np.asarray(vals, dtype=np.complex128), (rows, cols)),
                    shape=(len(chains), len(chains)),
                ).tocsc()
                assert _same_bytes(g.mat, want), (n, top, q, g.i)


def test_assemble_is_scipys_coo_to_csc_byte_for_byte():
    rng = np.random.default_rng(5)
    cases = []
    for dim, nnz in [(9, 40), (64, 900), (1, 1)]:
        flat = rng.choice(dim * dim, size=nnz, replace=False)  # unsorted, no repeats
        vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
        vals[:4] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)][:nnz]
        cases.append((dim, flat // dim, flat % dim, vals))
    cases.append((0, [], [], []))  # the empty matrix
    cases.append((5, [], [], []))  # no entries
    # column 2 stays empty, column 4 holds rows in descending input order
    cases.append((5, [4, 0, 3, 1, 2], [0, 1, 4, 4, 3], [1, -0.0, 2j, 3, 0.0]))
    for dim, rows, cols, vals in cases:
        got = assemble(dim, rows, cols, vals)
        want = coo_to_csc(dim, rows, cols, vals)
        assert got.shape == want.shape == (dim, dim)
        assert _same_bytes(got, want), (dim, len(rows))


@pytest.mark.parametrize("rows, cols, what", [
    ([0, -1], [1, 0], r"entry \(-1, 0\) lies outside the 3 x 3 matrix"),
    ([0, 1], [3, 0], r"entry \(0, 3\) lies outside"),
    ([2, 0, 2], [1, 0, 1], r"entry \(2, 1\) is given twice"),
])
def test_assemble_refuses_bad_coordinates(rows, cols, what):
    with pytest.raises(ValueError, match=what):
        assemble(3, rows, cols, np.ones(len(rows)))

import math
from fractions import Fraction

import numpy as np
import pytest

from soqrs import (
    K_coeff,
    PrimedBasisUndefined,
    QParam,
    RepSpec,
    SpectralParam,
    build_degenerate,
    build_degenerate_primed,
    check_relations,
    check_star,
    primed_transform,
)
from soqrs.degenrep import frame
from soqrs.gtbasis import FAMILIES
from oracles import (
    block_diagonal,
    block_slices,
    cl_degenerate_noncompact,
    primed_zero_factor,
    q_KL,
    q_degenerate_noncompact_entries,
    space_basis,
)

E = SpectralParam.exact
Q2 = QParam(2.0)


def test_K_coeff_values():
    assert K_coeff(0, 0, 3, QParam(1.0)) == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    # lowering wall from m = 0: zero through the numerator, any rank, any q
    assert K_coeff(-1, 0, 3, Q2) == 0.0
    assert K_coeff(-1, 0, 4, Q2) == 0.0  # denominator [0] is never touched
    # direct numeric oracle for L_0 at s=4, q=2
    w = lambda b: (2 ** (b / 2) - 2 ** (-b / 2)) / (2 ** 0.5 - 2 ** -0.5)
    expected = math.sqrt(w(1) * w(2) / (w(4) * w(2)))
    assert K_coeff(0, 0, 4, Q2) == pytest.approx(expected, abs=1e-14)


def test_K_coeff_out_of_range_q_is_a_value_error():
    with pytest.raises(ValueError, match="out of floating-point range at q=50"):
        K_coeff(200, 0, 3, QParam(50.0))


def test_K_coeff_even_in_k():
    for m in range(0, 4):
        for k in range(-m, m + 1):
            assert K_coeff(m, k, 3, Q2) == pytest.approx(
                K_coeff(m, -k, 3, Q2), abs=1e-15)


def test_frame_kl_is_the_oracle_K_times_L_bit_for_bit():
    """Every kl of a frame is q_KL(m, k, r) * q_KL(m', k', s) of the oracle, byte for byte.

    The oracle reads K_m of the left chain (m, k, ...) when its top rises
    and K_{m-1} when it falls, L likewise on the right; the entry's edge
    family is the pair of those top steps, and no inner label moves.
    """
    for q in (0.3, 0.5, 1.0, 2.0, 7.0):
        p = QParam(q)
        for r, s in [(3, 3), (3, 5), (5, 4)]:
            for eps in (0, 1):
                fr = frame(r, s, eps, 5, p)
                basis = space_basis(fr.space)
                cols = np.repeat(np.arange(fr.space.dim), np.diff(fr.indptr))
                families = np.array(FAMILIES)[fr.family[fr.edge]].tolist()
                want = []
                for row, col, family in zip(fr.indices.tolist(), cols.tolist(), families):
                    (a, b), (a2, b2) = basis[col], basis[row]
                    steps = [a2[0] - a[0], b2[0] - b[0]]
                    assert steps == family and (a2[1:], b2[1:]) == (a[1:], b[1:])
                    want.append(q_KL(a[0] - (steps[0] < 0), a[1], r, p.qnum)
                                * q_KL(b[0] - (steps[1] < 0), b[1], s, p.qnum))
                assert np.array(want).tobytes() == fr.kl.tobytes(), (q, r, s, eps)


def test_origin_column_single_entry():
    spec = RepSpec(3, 3, 0, E(Fraction(1, 2)), QParam(1.0), 2)
    rep = build_degenerate(spec)
    col = rep.noncompact.mat[:, 0]
    assert col.nnz == 1
    left, right = space_basis(rep.space)[col.tocoo().row[0]]
    assert (left[0], right[0]) == (1, 1)


def test_vanishing_coefficient_severs_block_edge():
    # [lambda + m + m'] = 0 on the (1,1) -> (2,2) transition at lambda = -2
    spec = RepSpec(3, 3, 0, E(-2), Q2, 8)
    rep = build_degenerate(spec)
    slices = block_slices(rep.space)
    src = slices[(1, 1)]
    dst = slices[(2, 2)]
    sub = rep.noncompact.mat[dst, src]
    assert sub.nnz == 0
    # but the (2,2) -> (3,3) edge upward is also severed only where stated
    src2 = slices[(2, 2)]
    dst2 = slices[(3, 3)]
    assert rep.noncompact.mat[dst2, src2].nnz > 0


def test_lower_wall_is_exact():
    spec = RepSpec(3, 4, 1, E(Fraction(7, 10)), Q2, 6)
    rep = build_degenerate(spec)
    coo = rep.noncompact.mat.tocoo()
    basis = space_basis(rep.space)
    for i, j in zip(coo.row, coo.col):
        (src_l, src_r), (tgt_l, tgt_r) = basis[j], basis[i]
        if src_l[0] == 0:
            assert tgt_l[0] == 1  # no lowering ever produced
        if src_r[0] == 0:
            assert tgt_r[0] == 1


def test_sparsity_contract():
    spec = RepSpec(4, 4, 0, E(Fraction(37, 100)), Q2, 6)
    rep = build_degenerate(spec)
    for g in rep.generators:
        percol = np.diff(g.mat.tocsc().indptr)
        if g.i == 5:  # noncompact
            assert percol.max() <= 4
        else:
            assert percol.max() <= 2


def test_no_stored_zeros():
    for spec in [RepSpec(4, 4, 0, E(Fraction(37, 100)), Q2, 6),
                 RepSpec(3, 4, 1, E(-2), QParam(0.5), 6)]:
        for rep in (build_degenerate(spec), build_degenerate_primed(spec)):
            for g in rep.generators:
                assert g.mat.nnz == g.mat.count_nonzero(), (rep.basis_kind, g.i)


@pytest.mark.parametrize("r,s,eps,q", [(3, 3, 1, 2.0), (4, 3, 0, 0.5)])
def test_relations_generic_lambda(r, s, eps, q):
    spec = RepSpec(r, s, eps, E(Fraction(7, 10)), QParam(q), 8)
    rep = build_degenerate(spec)
    report = check_relations(rep, depth=3, tol=1e-9)
    assert report.passed, report.worst_row()


def test_relations_complex_lambda():
    spec = RepSpec(4, 4, 0, E(3, 0, 1), Q2, 6)
    report = check_relations(build_degenerate(spec), depth=3, tol=1e-9)
    assert report.passed, report.max_residual


def test_relations_classical_q():
    spec = RepSpec(3, 3, 0, E(1, 0, 1), QParam(1.0), 6)
    report = check_relations(build_degenerate(spec), depth=3, tol=1e-10)
    assert report.passed, report.max_residual


def test_build_rejects_pi_over_h_at_classical_q():
    spec = RepSpec(3, 3, 0, E(1, 1), QParam(1.0), 6)
    with pytest.raises(ValueError):
        build_degenerate(spec)


def test_classical_entries_match_oracle():
    for lam_exact, lam_plain in [(E(Fraction(2, 5)), 0.4), (E(1, 0, 1), 1 + 1j)]:
        spec = RepSpec(3, 4, 0, lam_exact, QParam(1.0), 5)
        rep = build_degenerate(spec)
        patterns = space_basis(rep.space)
        expected = cl_degenerate_noncompact(
            3, 4, 0, lam_plain, patterns, rep.space.top_ring)
        assert np.allclose(rep.noncompact.mat.toarray(), expected, atol=1e-12)


@pytest.mark.parametrize("q", [0.5, 2.0])
def test_q_deformed_entries_match_oracle(q):
    for lam_exact, lam_plain in [(E(Fraction(37, 100)), 0.37),
                                 (E(Fraction(3, 2), 0, Fraction(7, 10)), 1.5 + 0.7j)]:
        for r, s in [(3, 4), (4, 3), (4, 4)]:
            for eps in (0, 1):
                rep = build_degenerate(RepSpec(r, s, eps, lam_exact, QParam(q), 6))
                patterns = space_basis(rep.space)
                expected = q_degenerate_noncompact_entries(
                    r, s, lam_plain, q, patterns, rep.space.top_ring)
                coo = rep.noncompact.mat.tocoo()
                got = dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data))
                assert got.keys() == expected.keys(), (r, s, eps)
                for key, want in expected.items():
                    assert abs(got[key] - want) <= 1e-12 * abs(want), (r, s, eps, key)


def test_near_classical_limit_degenerate():
    spec1 = RepSpec(3, 3, 0, E(Fraction(2, 5)), QParam(1.0), 6)
    spec2 = RepSpec(3, 3, 0, E(Fraction(2, 5)), QParam(1.0 + 1e-8), 6)
    for a, b in zip(build_degenerate(spec1).generators,
                    build_degenerate(spec2).generators):
        assert np.max(np.abs((a.mat - b.mat).toarray())) < 1e-6


# ---------------------------------------------------------------------------
# primed basis


def test_primed_transform_base_coefficient():
    spec = RepSpec(3, 3, 1, E(Fraction(2, 5)), Q2, 6)
    tr = primed_transform(spec)
    # (1, 0) has m0 = (m+m'-eps)/2 = 0 and i = |m-m'-eps|/2 = 0: empty products
    assert tr.coefficients[(1, 0)] == 1.0


def test_primed_transform_unit_modulus_on_principal_line():
    spec = RepSpec(4, 4, 0, E(3, 0, 1), Q2, 6)
    tr = primed_transform(spec)
    for block, c in tr.coefficients.items():
        assert abs(abs(c) - 1.0) < 1e-10, block


def test_primed_transform_undefined_at_resonance():
    spec = RepSpec(3, 3, 0, E(0), Q2, 4)
    with pytest.raises(PrimedBasisUndefined) as exc:
        primed_transform(spec)
    assert "lambda" in str(exc.value)
    # the exact refusal names the factor and block that a numeric walk of
    # the factors finds first, for [lambda + c] and [-lambda + c] alike
    factors = set()
    for re in range(-8, 9):
        try:
            primed_transform(RepSpec(3, 4, 1, E(re), Q2, 6))
            found = None
        except PrimedBasisUndefined as refused:
            found = (refused.factor, refused.block)
        assert found == primed_zero_factor(3, 4, 1, complex(re), Q2.q, 6), re
        if found is not None:
            factors.add(found[0].startswith("[-lambda"))
    assert factors == {False, True}


def test_primed_equals_conjugated_standard():
    spec = RepSpec(3, 3, 0, E(Fraction(2, 5)), Q2, 6)
    rep_std = build_degenerate(spec)
    rep_pr = build_degenerate_primed(spec)
    D = block_diagonal(rep_std.space, primed_transform(spec).coefficients)
    A = rep_std.noncompact.mat.toarray()
    conj = np.diag(D) @ A @ np.diag(1.0 / D)
    assert np.max(np.abs(conj - rep_pr.noncompact.mat.toarray())) < 1e-9
    # compact generators are untouched by the block-scalar rescaling
    for gs, gp in zip(rep_std.generators, rep_pr.generators):
        if gs.i != 4:
            assert abs(gs.mat - gp.mat).max() < 1e-12


def test_primed_hermitian_on_principal_line():
    spec = RepSpec(4, 4, 0, E(3, 0, 2), Q2, 6)
    rep = build_degenerate_primed(spec)
    report = check_star(rep, tol=1e-9)
    assert report.passed, report.to_dict()


def test_primed_real_at_real_principal_lambda():
    spec = RepSpec(3, 3, 1, E(2), Q2, 6)
    rep = build_degenerate_primed(spec)
    A = rep.noncompact.mat.toarray()
    assert np.max(np.abs(A.imag)) < 1e-12


def test_primed_relations_hold():
    spec = RepSpec(3, 4, 1, E(Fraction(5, 4)), Q2, 8)
    report = check_relations(build_degenerate_primed(spec), depth=3, tol=1e-9)
    assert report.passed, report.max_residual


def test_repspec_validation():
    with pytest.raises(ValueError):
        RepSpec(2, 3, 0, E(1), Q2, 4)
    with pytest.raises(ValueError):
        RepSpec(3, 3, 2, E(1), Q2, 4)
    with pytest.raises(ValueError):
        RepSpec(3, 3, 0, E(1), Q2, -1)
    with pytest.raises(ValueError, match="below epsilon"):
        RepSpec(3, 3, 1, E(1), Q2, 0)  # the tower would have no blocks


def test_gen_refuses_an_index_outside_the_generators():
    rep = build_degenerate(RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 4))
    assert [rep.gen(i).i for i in range(2, 7)] == [2, 3, 4, 5, 6]
    for i in (0, 1, 7):
        with pytest.raises(ValueError, match=f"generator index {i} is outside 2..6"):
            rep.gen(i)


def test_rep_records_its_frame_signs_and_edge_values():
    spec = RepSpec(3, 4, 1, E(-2, 0, Fraction(1, 3)), Q2, 5)
    for build, signs in ((build_degenerate, (1, -1, 1, -1)),
                         (build_degenerate_primed, (1, -1, -1, 1))):
        rep = build(spec)
        fr = rep.frame
        assert rep.space is fr.space and rep.signs == signs
        assert rep.edge_values.dtype == np.complex128 and not rep.edge_values.flags.writeable
        assert rep.edge_values.shape == fr.family.shape
        assert all(g is h for g, h in zip(rep.generators[:2] + rep.generators[3:], fr.compact))
        # the provenance stays out of the repr
        assert "edge_values" not in repr(rep)

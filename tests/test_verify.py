import math
from fractions import Fraction

import numpy as np
import pytest

from soqrs import (
    FOUND,
    INDEFINITE,
    NONE,
    QParam,
    RepSpec,
    SpectralParam,
    build_degenerate,
    build_degenerate_primed,
    build_class1,
    build_so3,
    check_relations,
    check_star,
    conjugate_rep,
    primed_transform,
    solve_intertwiner,
    solve_metric,
)
from oracles import full_product_relations

E = SpectralParam.exact
Q2 = QParam(2.0)


def test_so3_relations_pass():
    gens = build_so3(3, Q2)
    report = check_relations(gens, qp=Q2, tol=1e-12)
    assert report.passed, report.max_residual


def _rows(report):
    return [(r.relation, r.residual, r.worst) for r in report.rows]


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_relations_match_full_products(q):
    # residuals formed on the interior columns only equal the full
    # products cut afterwards: same rows, residuals and worst patterns
    specs = [(4, 4, 0, 6), (3, 4, 1, 7), (3, 5, 0, 7), (5, 3, 1, 6),
             (3, 3, 0, 7), (3, 3, 1, 6)]
    qp = QParam(q)
    for r, s, eps, cutoff in specs:
        spec = RepSpec(r, s, eps, E(Fraction(r + s - 2, 2), 0, Fraction(3, 2)),
                       qp, cutoff)
        for rep in (build_degenerate(spec), build_degenerate_primed(spec)):
            space = rep.space
            for depth in (0, 1, 2, 3, 4, space.top_ring + 1):
                report = check_relations(rep, depth=depth)
                ncols = len(space.interior_indices(depth))
                assert (report.columns, report.dim) == (ncols, rep.dim)
                want = full_product_relations(rep.generators, qp.a, ncols,
                                              space.pattern)
                assert _rows(report) == want, (r, s, eps, cutoff, depth)
                if ncols == 0:
                    assert report.passed and report.max_residual == 0.0
    for n, top in ((3, Fraction(5, 2)), (4, 3), (5, 2)):
        gens = build_so3(top, qp) if n == 3 else build_class1(n, top, qp)
        report = check_relations(gens, qp=qp)
        assert report.columns == report.dim == gens[0].dim
        assert _rows(report) == full_product_relations(gens, qp.a, None, int)


def test_relation_report_counts_columns():
    # depth 3 below the top ring 10 keeps the rings m+m' <= 6
    spec = RepSpec(4, 4, 0, E(3, 0, 1), Q2, 10)
    report = check_relations(build_degenerate(spec), depth=3).to_dict()
    assert (report["columns"], report["dim"]) == (1386, 13013)
    star = check_star(build_degenerate_primed(spec)).to_dict()
    assert star["columns"] == star["dim"] == 13013


def test_degenerate_relations_pass():
    spec = RepSpec(3, 3, 1, E(Fraction(7, 10)), Q2, 8)
    report = check_relations(build_degenerate(spec), depth=3, tol=1e-9)
    assert report.passed


def test_corrupted_entry_detected_and_localized():
    spec = RepSpec(3, 3, 0, E(Fraction(7, 10)), Q2, 8)
    rep = build_degenerate(spec)
    interior = rep.space.interior_indices(3)
    col = interior[len(interior) // 2]
    pat = rep.space.basis[col]
    A = rep.noncompact.mat.tolil()
    row = A.rows[col][0] if A.rows[col] else col
    A[row, col] += 0.1
    rep.generators[rep.spec.r + 1 - 2] = type(rep.noncompact)(
        rep.noncompact.i, A.tocsc())
    report = check_relations(rep, depth=3, tol=1e-9)
    assert not report.passed
    worst = report.worst_row().worst
    dist = max(abs(worst.m - pat.m), abs(worst.mp - pat.mp))
    assert dist <= 2, (worst.block, pat.block)


def test_relations_invariant_under_block_diag_conjugation():
    spec = RepSpec(3, 3, 1, E(Fraction(7, 10)), Q2, 8)
    rep = build_degenerate(spec)
    rng = np.random.default_rng(7)
    diag = {b: 0.5 + 1.5 * rng.random() for b in rep.space.blocks}
    conj = conjugate_rep(rep, diag)
    report = check_relations(conj, depth=3, tol=1e-9)
    assert report.passed, report.max_residual


def test_check_star_compact_passes():
    gens = build_so3(Fraction(5, 2), Q2)
    assert check_star(gens, tol=1e-12).passed


def test_check_star_primed_principal_passes():
    spec = RepSpec(4, 4, 0, E(3, 0, 2), Q2, 6)
    report = check_star(build_degenerate_primed(spec), tol=1e-9)
    assert report.passed


def test_check_star_standard_generic_fails_only_noncompact():
    spec = RepSpec(3, 3, 0, E(Fraction(7, 10)), Q2, 6)
    report = check_star(build_degenerate(spec), tol=1e-9)
    assert not report.passed
    for row in report.rows:
        if "hermitian" in row.relation and not row.relation.startswith("star[4]"):
            assert row.residual < 1e-12
    noncompact = [r for r in report.rows if r.relation.startswith("star[4]")]
    assert noncompact and noncompact[0].residual > 0.1


def test_solve_metric_principal():
    spec = RepSpec(4, 4, 0, E(3, 0, 2), Q2, 6)
    rep = build_degenerate(spec)
    ms = solve_metric(rep)
    assert ms.status == FOUND
    # principal line: the standard basis is already orthonormal, c constant
    vals = list(ms.weights.values())
    assert max(vals) / min(vals) == pytest.approx(1.0, abs=1e-10)
    # and in the primed basis the weights stay constant too
    ms_pr = solve_metric(build_degenerate_primed(spec))
    assert ms_pr.status == FOUND
    vals = list(ms_pr.weights.values())
    assert max(vals) / min(vals) == pytest.approx(1.0, abs=1e-10)


def test_solve_metric_supplementary_nonconstant():
    spec = RepSpec(4, 4, 0, E(Fraction(7, 2)), Q2, 8)
    ms = solve_metric(build_degenerate(spec))
    assert ms.status == FOUND
    vals = list(ms.weights.values())
    assert min(vals) > 0
    assert max(vals) / min(vals) > 1.01


def test_solve_metric_off_series():
    spec = RepSpec(4, 4, 0, SpectralParam.inexact(0.7 + 1.3j), Q2, 8)
    assert solve_metric(build_degenerate(spec)).status == NONE
    spec = RepSpec(4, 4, 0, E(Fraction(7, 10)), Q2, 8)
    assert solve_metric(build_degenerate(spec)).status == INDEFINITE


def test_metric_conjugation_restores_star():
    spec = RepSpec(3, 3, 0, E(Fraction(5, 2)), Q2, 8)  # supplementary window
    rep = build_degenerate(spec)
    ms = solve_metric(rep)
    assert ms.status == FOUND
    sqrt_c = {b: math.sqrt(v) for b, v in ms.weights.items()}
    conj = conjugate_rep(rep, sqrt_c)
    assert check_star(conj, tol=1e-8).passed


def test_metric_agrees_with_primed_moduli_on_principal_line():
    spec = RepSpec(4, 4, 0, E(3, 0, 1), Q2, 6)
    ms = solve_metric(build_degenerate(spec))
    assert ms.status == FOUND
    tr = primed_transform(spec)
    ratios = [
        math.sqrt(ms.weights[b]) / abs(tr.coefficient(*b))
        for b in ms.weights
    ]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=1e-8)


def test_intertwiner_identity():
    spec = RepSpec(3, 3, 0, E(Fraction(3, 10)), Q2, 6)
    rep = build_degenerate(spec)
    sol = solve_intertwiner(rep, rep)
    assert sol is not None
    assert np.allclose(sol.diagonal, 1.0)


def test_intertwiner_mirror_pair():
    lam = E(Fraction(3, 10))
    specA = RepSpec(3, 3, 0, lam, Q2, 8)
    specB = RepSpec(3, 3, 0, lam.mirrored(6), Q2, 8)
    repA, repB = build_degenerate(specA), build_degenerate(specB)
    sol = solve_intertwiner(repA, repB)
    assert sol is not None and sol.residual < 1e-8
    back = solve_intertwiner(repB, repA)
    assert back is not None
    for b, v in sol.block_values.items():
        assert back.block_values[b] == pytest.approx(1.0 / v, rel=1e-8)


def test_intertwiner_half_period_alternating_signs():
    lam = E(Fraction(3, 10))
    specA = RepSpec(3, 3, 0, lam, Q2, 8)
    specC = RepSpec(3, 3, 0, E(Fraction(3, 10), 2), Q2, 8)
    sol = solve_intertwiner(build_degenerate(specA), build_degenerate(specC))
    assert sol is not None
    for (m, mp), v in sol.block_values.items():
        assert abs(abs(v) - 1.0) < 1e-10
        assert v.real == pytest.approx((-1.0) ** m, abs=1e-10)


def test_intertwiner_rejects_mismatched_spaces():
    specA = RepSpec(3, 3, 0, E(Fraction(3, 10)), Q2, 8)
    specB = RepSpec(3, 4, 0, E(Fraction(3, 10)), Q2, 8)
    with pytest.raises(ValueError):
        solve_intertwiner(build_degenerate(specA), build_degenerate(specB))


def test_intertwiner_none_for_inequivalent():
    specA = RepSpec(3, 3, 0, E(Fraction(3, 10)), Q2, 8)
    specB = RepSpec(3, 3, 0, E(Fraction(9, 10)), Q2, 8)
    assert solve_intertwiner(build_degenerate(specA), build_degenerate(specB)) is None

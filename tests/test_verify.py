import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

import soqrs.verify as verify_module

from soqrs import (
    DegenerateRep,
    FOUND,
    GeneratorMatrix,
    INDEFINITE,
    NONE,
    QParam,
    RepSpec,
    SpectralParam,
    TruncatedSpace,
    build_degenerate,
    build_degenerate_primed,
    build_class1,
    build_so3,
    check_relations,
    check_star,
    primed_transform,
    solve_intertwiner,
    solve_metric,
)
from soqrs.degenrep import frame
from soqrs.verify import RelationResidual, ResidualReport
from oracles import (
    basis_rows,
    block_edges,
    conjugate_rep,
    full_product_relations,
    solve_intertwiner_reference,
)

E = SpectralParam.exact
Q2 = QParam(2.0)


def test_check_relations_takes_a_qp_only_with_bare_generators():
    # a rep brings its own q: a second one would be ignored, so it is refused
    rep = build_degenerate(RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 4))
    with pytest.raises(ValueError, match="brings its own q"):
        check_relations(rep, qp=QParam(7.0))
    with pytest.raises(ValueError, match="a QParam is required"):
        check_relations(rep.generators)
    assert check_relations(rep.generators, qp=Q2).dim == rep.dim


def test_so3_relations_pass():
    gens = build_so3(3, Q2)
    report = check_relations(gens, qp=Q2, tol=1e-12)
    assert report.passed, report.max_residual
    # the relations read q; the star condition does not
    with pytest.raises(ValueError, match="QParam is required"):
        check_relations(gens)
    assert check_star(gens).passed


def _rows(report):
    return [(r.relation, r.residual, r.worst) for r in report.rows]


def _json_worst(report):
    return [row["worst"] for row in report.to_dict()["rows"]]


def _block(space, row):
    """The block (m, m') of a basis row."""
    return row[0], row[space.r - 1]


def _distance(space, a, b):
    """How many steps apart the blocks of two basis rows lie."""
    (m, mp), (n, np_) = _block(space, a), _block(space, b)
    return max(abs(m - n), abs(mp - np_))


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
                                              basis_rows(space).__getitem__)
                assert _rows(report) == want, (r, s, eps, cutoff, depth)
                # the JSON form of a worst pattern is a list of ints
                assert repr(_json_worst(report)) == repr(
                    [None if w is None else list(w) for _, _, w in want])
                if ncols == 0:
                    assert report.passed and report.max_residual == 0.0
    for n, top in ((3, Fraction(5, 2)), (4, 3), (5, 2)):
        gens = build_so3(top, qp) if n == 3 else build_class1(n, top, qp)
        report = check_relations(gens, qp=qp)
        assert report.columns == report.dim == gens[0].dim
        assert _rows(report) == full_product_relations(gens, qp.a, None, int)
        assert repr(_json_worst(report)) == repr([r.worst for r in report.rows])


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
    pat = basis_rows(rep.space)[col]
    A = rep.noncompact.mat.tolil()
    row = A.rows[col][0] if A.rows[col] else col
    A[row, col] += 0.1
    rep.generators[rep.spec.r + 1 - 2] = type(rep.noncompact)(
        rep.noncompact.i, A.tocsc())
    report = check_relations(rep, depth=3, tol=1e-9)
    assert not report.passed
    worst = report.worst_row().worst
    assert _distance(rep.space, worst, pat) <= 2, (worst, pat)


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
    spec = RepSpec(4, 4, 0, E(Fraction(0.7), 0, Fraction(1.3)), Q2, 8)
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
        math.sqrt(ms.weights[b]) / abs(tr.coefficients[b])
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


@pytest.mark.parametrize("r,s,eps,cutoff,lam,q", [
    (3, 3, 0, 2, E(Fraction(1, 3)), 0.5),  # an entry with a -0.0 imaginary part
    (3, 4, 1, 5, E(Fraction(5, 2), 0, Fraction(1, 3)), 2.0),
    (5, 3, 0, 4, E(1), 1.0),  # severed edges
    (4, 4, 0, 0, E(1), 2.0),  # a single block
    (3, 3, 1, 1, E(-3), 0.5),  # one edge, one entry per column, a -0.0 imaginary part
])
def test_solver_edges_match_pattern_lookups(r, s, eps, cutoff, lam, q):
    # the space's block-edge table read through the CSC arrays equals the
    # per-edge scalar lookups between the zero patterns
    from soqrs.verify import _entries

    for rep in (build_degenerate(RepSpec(r, s, eps, lam, QParam(q), cutoff)),
                build_degenerate_primed(RepSpec(r, s, eps, lam, QParam(q), cutoff))):
        A, edges, blocks = rep.noncompact.mat, rep.space.block_edges, rep.space.blocks
        got = list(zip([blocks[k] for k in edges.src.tolist()],
                       [blocks[k] for k in edges.dst.tolist()],
                       _entries(A, edges.col_dst, edges.col_src).tolist(),
                       _entries(A, edges.col_src, edges.col_dst).tolist()))
        assert repr(got) == repr(block_edges(rep.space, A))


# ---------------------------------------------------------------------------
# MetricSolution.reason: why a status is not `found`


def _with_entry_scaled(rep, row, col, factor):
    """rep with the noncompact entry (row, col) multiplied by factor."""
    A = rep.noncompact.mat.tolil()
    A[row, col] = A[row, col] * factor
    gens = [type(g)(g.i, A.tocsc()) if g.i == rep.spec.r + 1 else g
            for g in rep.generators]
    return DegenerateRep(rep.spec, rep.space, gens, rep.basis_kind)


def _found_rep():
    rep = build_degenerate(RepSpec(4, 4, 0, E(3, 0, 2), Q2, 6))
    ms = solve_metric(rep)
    assert ms.status == FOUND and ms.reason is None and ms.to_dict()["reason"] is None
    return rep


def test_metric_reason_inconsistent_edge():
    rep = _found_rep()
    edges, blocks = rep.space.block_edges, rep.space.blocks
    k = len(edges.src) // 2
    bad = _with_entry_scaled(rep, edges.col_dst[k], edges.col_src[k], 1.5)
    ms = solve_metric(bad)
    assert ms.status == NONE and ms.weights is None
    assert ms.reason.startswith("inconsistent edge ("), ms.reason
    assert "relative mismatch" in ms.reason and ms.to_dict()["reason"] == ms.reason
    assert str(blocks[edges.src[k]]) in ms.reason or str(blocks[edges.dst[k]]) in ms.reason


def test_metric_reason_zero_weight_on_a_one_sided_edge():
    # [lambda + m + m'] vanishes on ring 2: (1,1) -> (2,2) is cut one way only
    ms = solve_metric(build_degenerate(RepSpec(3, 3, 0, E(-2), QParam(0.5), 6)))
    assert ms.status == NONE
    assert ms.reason.startswith(
        "one-sided edge (1, 1)-(2, 2) forces weight 0 on block (2, 2): |A[dst,src]| = 0.000e+00"
    ), ms.reason


def test_metric_reason_one_sided_edge_closing_a_cycle():
    # more edges than a spanning tree has, so some one-sided edge is first
    # walked to a block that already has a weight
    rep = _found_rep()
    edges, blocks = rep.space.block_edges, rep.space.blocks
    assert len(edges.src) > len(blocks) - 1
    for k in range(len(edges.src)):
        src, dst = edges.col_src[k], edges.col_dst[k]
        row, col = (dst, src) if k % 2 else (src, dst)
        ms = solve_metric(_with_entry_scaled(rep, row, col, 0.0))
        assert ms.status == NONE
        pair = f"{blocks[edges.src[k]]}-{blocks[edges.dst[k]]}"
        assert ms.reason.startswith(f"one-sided edge {pair} forces weight 0 on block "), ms.reason


def test_metric_reason_imaginary_weights():
    ms = solve_metric(build_degenerate(
        RepSpec(3, 3, 0, E(Fraction(5, 2), 0, Fraction(1, 3)), QParam(0.5), 6)))
    assert ms.status == NONE and ms.connected
    assert ms.reason.startswith("weights are not real: max |Im c| = "), ms.reason


def test_metric_reason_disconnected():
    # both directions of every edge between the diagonals m-m' = -1 and 1 vanish
    ms = solve_metric(build_degenerate(RepSpec(3, 3, 1, E(2), QParam(0.5), 6)))
    assert ms.status == NONE and not ms.connected
    assert ms.reason == "disconnected: 6 of 12 blocks reached from (0, 1)"


def test_metric_reason_residual_over_tolerance():
    # an entry off the zero patterns: the edge recurrences still agree,
    # the weighted adjoint residual does not
    rep = _found_rep()
    edges, A = rep.space.block_edges, rep.noncompact.mat
    linked = set(edges.col_src.tolist()) | set(edges.col_dst.tolist())
    col = max(set(range(rep.dim)) - linked, key=lambda c: A.indptr[c + 1] - A.indptr[c])
    bad = _with_entry_scaled(rep, A.indices[A.indptr[col]], col, 1.5)
    ms = solve_metric(bad)
    assert ms.status == NONE and ms.weights is not None
    assert ms.reason.startswith("weighted adjoint residual "), ms.reason


def test_solvers_refuse_a_nan_entry():
    # one NaN entry off the block-edge amplitudes, in a checked column: every
    # comparison with NaN is False, so each verdict must ask for a finite value
    rep = build_degenerate_primed(RepSpec(3, 3, 0, E(2, 0, Fraction(1, 3)), Q2, 6))
    assert solve_metric(rep).status == FOUND and solve_intertwiner(rep, rep) is not None
    edges, A = rep.space.block_edges, rep.noncompact.mat
    amplitudes = {(int(a), int(b)) for k in range(edges.src.size)
                  for a, b in ((edges.col_dst[k], edges.col_src[k]),
                               (edges.col_src[k], edges.col_dst[k]))}
    row, col = next((int(A.indices[k]), col)
                    for col in range(len(rep.space.interior_indices(3)))
                    for k in range(A.indptr[col], A.indptr[col + 1])
                    if (int(A.indices[k]), col) not in amplitudes and A.data[k] != 0)
    bad = _with_entry_scaled(rep, row, col, math.nan)
    ms = solve_metric(bad)
    assert ms.status == NONE and math.isnan(ms.residual)
    assert ms.reason == "weighted adjoint residual nan is not finite"
    assert solve_intertwiner(bad, bad) is None
    report = check_relations(bad)
    assert not report.passed and math.isnan(report.max_residual)
    assert not check_star(bad).passed


def test_solvers_refuse_nan_amplitudes():
    rep = build_degenerate(RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 4))
    A = rep.noncompact.mat.copy()
    A.data = np.full_like(A.data, np.nan)
    bad = DegenerateRep(rep.spec, rep.space,
                        [GeneratorMatrix(g.i, A) if g.i == rep.spec.r + 1 else g
                         for g in rep.generators], rep.basis_kind)
    ms = solve_metric(bad)
    assert (ms.status, ms.weights, ms.residual, ms.connected) == (NONE, None, None, None)
    assert ms.reason == "edge (0, 0)-(1, 1): amplitude A[dst,src] = (nan+0j) is not finite"
    for pair in ((bad, bad), (rep, bad), (bad, rep)):
        assert solve_intertwiner(*pair) is None


def test_a_nan_row_fails_its_report():
    # Python's max keeps a finite value over a NaN that follows it
    for rows in (["finite", "nan", "large"], ["nan", "finite", "large"]):
        value = {"finite": 1e-16, "nan": math.nan, "large": 1e-12}
        report = ResidualReport([RelationResidual(n, value[n]) for n in rows], 1e-9, 4, 4)
        assert [report.row_passed(r) for r in report.rows] == [n != "nan" for n in rows]
        assert not report.passed and math.isnan(report.max_residual)
        assert report.worst_row().relation == "nan"
        assert report.to_dict()["passed"] is False
    assert ResidualReport([], 1e-9, 0, 0).passed
    gens = build_class1(4, 2, Q2)
    A = gens[2].mat.copy()
    A.data[0] = math.nan
    report = check_relations(gens[:2] + [GeneratorMatrix(4, A)], qp=Q2)
    failed = [r.relation for r in report.rows if not report.row_passed(r)]
    assert failed == ["cubic[3,4]a", "cubic[3,4]b"]
    assert not report.passed and math.isnan(report.max_residual)


def test_metric_reason_first_nonpositive_weight():
    rep = build_degenerate(RepSpec(4, 4, 0, E(Fraction(7, 10)), Q2, 8))
    ms = solve_metric(rep)
    assert ms.status == INDEFINITE
    first = next(b for b in rep.space.blocks if ms.weights[b] <= 0)
    assert first == (0, 2)
    assert ms.reason == f"first nonpositive weight: block (0, 2), c = {ms.weights[first]:.6g}"


# ---------------------------------------------------------------------------
# the frame record and the structural check


def _frozen_copy(mat):
    """A read-only copy of a CSC matrix: equal, but not the same object."""
    copy = mat.copy()
    for a in (copy.data, copy.indices, copy.indptr):
        a.flags.writeable = False
    return copy


def _with_compact(rep, i, mat):
    gens = [GeneratorMatrix(g.i, mat) if g.i == i else g for g in rep.generators]
    return DegenerateRep(rep.spec, rep.space, gens, rep.basis_kind)


def _stripped(rep):
    """rep without its frame, signs and edge values: every check takes the full path."""
    return DegenerateRep(rep.spec, rep.space, rep.generators, rep.basis_kind)


def _count_rows(monkeypatch) -> list:
    """A list that gets one item per residual read out (_column_max call)."""
    calls = []
    column_max = verify_module._column_max
    monkeypatch.setattr(verify_module, "_column_max",
                        lambda mat, space: calls.append(1) or column_max(mat, space))
    return calls


def _moved_entry(rep, i, depth):
    """Generator i with one interior entry moved into the next block in block order.

    Returns the read-only mutated matrix and the column of the moved entry.
    """
    space = rep.space
    interior = len(space.interior_indices(depth))
    coo = rep.gen(i).mat.tocoo()
    k = int(np.flatnonzero(coo.col >= interior // 2)[0])
    j = int(np.searchsorted(space.offsets, coo.row[k], side="right")) - 1
    size = space.offsets[j + 2] - space.offsets[j + 1]
    rows = coo.row.copy()
    rows[k] = space.offsets[j + 1] + (rows[k] - space.offsets[j]) % size
    moved = _frozen_copy(sparse.csc_matrix((coo.data, (rows, coo.col)), shape=coo.shape))
    return moved, int(coo.col[k])


def _tower(lam_re, kind):
    spec = RepSpec(4, 4, 0, E(lam_re, 0, Fraction(5, 8)), Q2, 8)
    return build_degenerate(spec) if kind == "standard" else build_degenerate_primed(spec)


JUNCTION = ("cubic[4,5]a", "cubic[4,5]b", "cubic[5,6]a", "cubic[5,6]b")
FAR = ("commutator[2,5]", "commutator[3,5]", "commutator[5,7]", "commutator[5,8]")


def test_warm_checks_equal_cold_ones(monkeypatch):
    # a lambda sweep on one tower in both bases: every report equals, by
    # repr, the report of the same rep stripped of its provenance, and a
    # warm relation check forms only the 4 junction rows of 27
    frame.cache_clear()
    reps = [_tower(lam_re, kind) for lam_re in (3, Fraction(1, 3), Fraction(-5, 2))
            for kind in ("standard", "primed")]
    cold = {}
    for depth in (0, 3):
        for k, rep in enumerate(reps):
            relations, star = check_relations(_stripped(rep), depth=depth), check_star(_stripped(rep))
            cold[k, depth] = [repr(x) for x in (relations.to_dict(), _rows(relations),
                                                star.to_dict(), _rows(star))]
    calls = _count_rows(monkeypatch)
    formed = []
    relations_of = verify_module._Relations.row
    monkeypatch.setattr(verify_module._Relations, "row",
                        lambda self, name, *args: formed.append(name) or relations_of(self, name, *args))
    for depth in (0, 3):
        for k, rep in enumerate(reps):
            calls.clear()
            formed.clear()
            relations, star = check_relations(rep, depth=depth), check_star(rep)
            assert len(calls) == (27 if k == 0 else 4) + (7 if (k, depth) == (0, 0) else 1)
            if k:
                assert tuple(formed) == JUNCTION
            warm = [repr(x) for x in (relations.to_dict(), _rows(relations),
                                      star.to_dict(), _rows(star))]
            assert warm == cold[k, depth], (k, depth)


def test_warm_check_cuts_a_narrower_square_from_a_wider_one(monkeypatch):
    # at depth 3 the junction rows ask for the square of the noncompact
    # generator on the interior columns and again on the fewer columns a
    # compact generator reaches: the second is cut from the first, so a
    # warm check makes 17 products, not 18, with the same report
    frame.cache_clear()
    reps = [build_degenerate(RepSpec(4, 4, 0, E(lam_re, 0, Fraction(5, 8)), Q2, 6))
            for lam_re in (3, Fraction(1, 3))]
    check_relations(reps[0])
    calls = []
    matmat = sparse._sparsetools.csr_matmat
    monkeypatch.setattr(sparse._sparsetools, "csr_matmat",
                        lambda *args: calls.append(1) or matmat(*args))
    warm = check_relations(reps[1])
    assert len(calls) == 17
    monkeypatch.undo()
    assert repr(warm.to_dict()) == repr(check_relations(_stripped(reps[1])).to_dict())


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_checks_and_solvers_refuse_a_tol_that_is_not_finite_and_positive(tol):
    # an infinite tol passes any residual and a NaN or nonpositive one
    # fails every row, so each is refused before any work
    rep = build_degenerate(RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 4))
    gens = build_class1(4, 1, Q2)
    calls = [lambda: check_relations(rep, tol=tol), lambda: check_relations(gens, qp=Q2, tol=tol),
             lambda: check_star(rep, tol=tol), lambda: check_star(gens, tol=tol),
             lambda: solve_metric(rep, tol=tol), lambda: solve_intertwiner(rep, rep, tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            call()


def test_check_relations_refuses_a_negative_depth():
    rep = build_degenerate(RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 4))
    for target, kwargs in ((rep, {}), (build_class1(4, 1, Q2), {"qp": Q2})):
        with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
            check_relations(target, depth=-1, **kwargs)
    assert check_relations(rep, depth=0).columns == rep.dim


def test_compact_generator_made_writeable_is_recomputed():
    frame.cache_clear()
    rep = _tower(3, "standard")
    assert check_relations(rep).passed and check_star(rep).passed
    mat = rep.gen(3).mat
    k = mat.indptr[len(rep.space.interior_indices(3)) // 2]
    try:
        mat.data.flags.writeable = True
        mat.data[k] += 0.1
        relations, star = check_relations(rep), check_star(rep)
        assert not relations.passed and not star.passed
        assert relations.worst_row().relation in (
            "cubic[2,3]a", "cubic[2,3]b", "cubic[3,4]a", "cubic[3,4]b",
            "commutator[3,6]", "commutator[3,7]", "commutator[3,8]")
        assert star.worst_row().relation == "star[3] anti-hermitian"
    finally:
        mat.data[k] -= 0.1
        mat.data.flags.writeable = False
        frame.cache_clear()


def test_corrupted_compact_copy_is_recomputed_and_localized():
    rep = _tower(3, "primed")
    assert check_relations(rep).passed and check_star(rep).passed
    mat = rep.gen(7).mat
    col = len(rep.space.interior_indices(3)) // 2
    bad = _frozen_copy(mat)
    bad.data.flags.writeable = True
    bad.data[bad.indptr[col]] *= 1.5
    bad.data.flags.writeable = False
    corrupted = _with_compact(rep, 7, bad)
    relations, star = check_relations(corrupted), check_star(corrupted)
    assert not relations.passed and not star.passed
    worst = relations.worst_row()
    assert "7" in worst.relation
    pat = basis_rows(rep.space)[col]
    assert _distance(rep.space, worst.worst, pat) <= 2
    assert star.worst_row().relation == "star[7] anti-hermitian"
    assert _block(rep.space, star.worst_row().worst) == _block(rep.space, pat)
    # the clean rep is still right afterwards
    assert check_relations(rep).passed and check_star(rep).passed


def test_record_dies_with_its_frame():
    frame.cache_clear()
    gc.collect()
    before = len(verify_module._records)
    rep = _tower(3, "standard")
    check_relations(rep)
    check_star(rep)
    assert len(verify_module._records) == before + 1
    dead = weakref.ref(rep.frame)
    # a second frame has a record of its own
    frame.cache_clear()
    other = build_degenerate(RepSpec(3, 4, 1, E(Fraction(1, 3)), Q2, 5))
    check_relations(other)
    assert len(verify_module._records) == before + 2
    del rep
    gc.collect()
    assert dead() is None
    assert len(verify_module._records) == before + 1
    assert verify_module._frame_record(other) is verify_module._records[other.frame]


def test_moved_compact_entry_fails_and_is_not_skipped(monkeypatch):
    # a compact entry moved into a neighbouring block: the relations
    # fail, and the intertwiner forms the residual of the generator
    # that is not the frame's
    clean = build_degenerate(RepSpec(4, 4, 0, E(Fraction(1, 3)), Q2, 8))
    mirror = build_degenerate(RepSpec(4, 4, 0, E(Fraction(17, 3)), Q2, 8))
    for i in (2, 3, 4, 6, 7, 8):
        moved, col = _moved_entry(clean, i, 3)
        mutated = _with_compact(clean, i, moved)
        report = check_relations(mutated)
        assert not report.passed, i
        worst, pat = report.worst_row(), basis_rows(clean.space)[col]
        assert str(i) in worst.relation
        assert _distance(clean.space, worst.worst, pat) <= 2
        assert check_relations(clean).passed
        assert solve_intertwiner(clean, mutated) is None
        assert solve_intertwiner(mutated, clean) is None
        # the same matrix in both reps, but not block-diagonal
        assert solve_intertwiner(mutated, _with_compact(mirror, i, moved)) is None
    # with every compact generator the frame's, only the noncompact one is formed
    formed = []
    times = verify_module._times
    monkeypatch.setattr(verify_module, "_times", lambda s, g: formed.append(1) or times(s, g))
    sol = solve_intertwiner(clean, mirror)
    assert sol is not None and len(formed) == 2
    assert repr((sol.block_values, sol.residual, sol.diagonal.tobytes())) == repr(
        (lambda s: (s.block_values, s.residual, s.diagonal.tobytes()))(
            solve_intertwiner_reference(clean, mirror)))


def test_bare_generators_are_formed_in_full_per_a(monkeypatch):
    # a bare generator list has no frame: every row is formed on every
    # call, with the a of its qp, and equals the full products
    gens = [GeneratorMatrix(g.i, _frozen_copy(g.mat)) for g in build_class1(5, 3, Q2)]
    calls = _count_rows(monkeypatch)
    for qp in (Q2, QParam(3.0), Q2):
        calls.clear()
        report = check_relations(gens, qp=qp)
        assert len(calls) == len(report.rows) == 9
        assert _rows(report) == full_product_relations(gens, qp.a, None, int)
        assert report.passed == (qp is Q2)
        calls.clear()
        assert check_star(gens).passed and len(calls) == len(gens)


def test_memo_entry_is_per_space_object():
    # the same compact matrices on another space object: every row is
    # formed again, with that space naming the worst columns
    rep = _tower(3, "standard")

    def counting_space(seen):
        space = TruncatedSpace(4, 4, 0, 8)
        space.pattern = lambda i: seen.append(i) or TruncatedSpace.pattern(space, i)
        return DegenerateRep(rep.spec, space, rep.generators, rep.basis_kind)

    cold, warm = [], []
    want = check_relations(counting_space(cold)).to_dict()
    got = check_relations(counting_space(warm)).to_dict()
    assert repr(got) == repr(want) == repr(check_relations(rep).to_dict())
    assert warm == cold and len(cold) > 8


def test_respaced_copy_with_provenance_takes_the_full_path(monkeypatch):
    # a rep that keeps its frame but not the frame's space object
    rep = _tower(3, "standard")
    moved = dataclasses.replace(rep, space=TruncatedSpace(4, 4, 0, 8))
    assert verify_module._frame_record(rep) is not None
    assert verify_module._frame_record(moved) is None
    calls = _count_rows(monkeypatch)
    assert repr(check_relations(moved)) == repr(check_relations(_stripped(rep)))
    assert len(calls) == 2 * 27


# ---------------------------------------------------------------------------
# mutations of the frame path: each must fail check_relations


def _failing(report) -> set:
    return {row.relation for row in report.rows if row.residual >= report.tol}


def _interior_entry(mat, space):
    """(storage position, column) of the first entry of a middle interior column at depth 3."""
    col = len(space.interior_indices(3)) // 2
    return int(mat.indptr[col]), col


def test_frame_kl_value_perturbed_on_one_edge_fails():
    frame.cache_clear()
    fr = frame(4, 4, 0, 8, Q2)
    k, col = _interior_entry(fr, fr.space)
    fr.kl.flags.writeable = True
    try:
        fr.kl[k] *= 1.01
    finally:
        fr.kl.flags.writeable = False
    try:
        for kind in ("standard", "primed"):
            rep = _tower(3, kind)
            assert rep.frame is fr and verify_module._frame_record(rep) is not None
            report = check_relations(rep)
            assert report.worst_row().relation == "cubic[4,5]b", report.worst_row()
            assert _distance(fr.space, report.worst_row().worst, basis_rows(fr.space)[col]) <= 2
            # the far rows no longer vanish on the unit pattern, so they are
            # formed on the rep, as the full path forms them
            assert _failing(report) == {"cubic[4,5]a", "cubic[4,5]b", "cubic[5,6]b",
                                        "commutator[3,5]", "commutator[5,7]"}
            assert repr(report) == repr(check_relations(_stripped(rep)))
    finally:
        frame.cache_clear()


def test_frame_compact_coefficient_changed_on_one_top_fails():
    # one coefficient of G_3(m = 2), in every block (2, m') of kron(G_3(2), I)
    frame.cache_clear()
    fr = frame(4, 4, 0, 8, Q2)
    space, mat = fr.space, fr.compact[1].mat
    assert fr.compact[1].i == 3
    cols = np.repeat(np.arange(space.dim), np.diff(mat.indptr))
    block = np.searchsorted(space.offsets, cols, side="right") - 1
    top = np.array([m for m, _ in space.blocks])[block]
    width = np.array([len(space.labels[1][mp]) for _, mp in space.blocks])[block]
    left_row = (mat.indices - space.offsets[block]) // width
    left_col = (cols - space.offsets[block]) // width
    first = np.flatnonzero((top == 2) & (left_row != left_col))[0]
    hit = (top == 2) & (left_row == left_row[first]) & (left_col == left_col[first])
    assert hit.sum() > 1
    mat.data.flags.writeable = True
    try:
        mat.data[hit] *= 1.01
    finally:
        mat.data.flags.writeable = False
    try:
        rep = _tower(3, "standard")
        assert verify_module._frame_record(rep) is not None
        report = check_relations(rep)
        assert report.worst_row().relation == "cubic[2,3]a", report.worst_row()
        assert _block(space, report.worst_row().worst)[0] == 2
        assert _failing(report) == {"cubic[2,3]a", "cubic[3,4]b", "commutator[3,5]"}
        assert repr(report) == repr(check_relations(_stripped(rep)))
    finally:
        frame.cache_clear()


def test_noncompact_entry_edited_after_build_takes_the_full_path(monkeypatch):
    frame.cache_clear()
    rep = _tower(3, "standard")
    assert check_relations(rep).passed and check_star(rep).passed
    N = rep.noncompact.mat
    k, col = _interior_entry(N, rep.space)
    calls = _count_rows(monkeypatch)
    N.data.flags.writeable = True
    N.data[k] *= 1.01
    for writeable in (True, False):
        # while writeable, and read-only again: only the bits tell the edit
        N.data.flags.writeable = writeable
        assert verify_module._frame_record(rep) is None
        calls.clear()
        report = check_relations(rep)
        assert len(calls) == 27
        assert report.worst_row().relation == "cubic[4,5]b", report.worst_row()
        assert _distance(rep.space, report.worst_row().worst, basis_rows(rep.space)[col]) <= 2
        assert repr(report) == repr(check_relations(_stripped(rep)))
    # the star rows and the intertwiner read only the compact generators,
    # which are still the frame's: the record serves them, as the full path would
    calls.clear()
    star = check_star(rep)
    assert len(calls) == 1 and repr(star) == repr(check_star(_stripped(rep)))
    mirror = _tower(5, "standard")
    for x, y in ((rep, mirror), (mirror, rep), (rep, rep)):
        want = solve_intertwiner(_stripped(x), _stripped(y))
        got = solve_intertwiner(x, y)
        assert repr(None if got is None else (got.block_values, got.residual)) == repr(
            None if want is None else (want.block_values, want.residual))
    frame.cache_clear()


def test_swapped_frame_array_takes_the_full_path():
    # a frame matrix given another read-only array after its record was made
    frame.cache_clear()
    rep = _tower(3, "standard")
    assert check_relations(rep).passed and verify_module._frame_record(rep) is not None
    mat = rep.gen(3).mat
    data = mat.data
    mat.data = _frozen_copy(mat).data
    try:
        assert verify_module._frame_record(rep) is None
        assert repr(check_relations(rep)) == repr(check_relations(_stripped(rep)))
    finally:
        mat.data = data
        frame.cache_clear()

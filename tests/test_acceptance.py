"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from soqrs import (
    FOUND,
    NONE,
    QParam,
    RepSpec,
    SpectralParam,
    build_class1,
    build_degenerate,
    build_degenerate_primed,
    check_relations,
    check_star,
    classify_irreducible,
    classify_star,
    cross_check,
    predict_constituents,
    scan_lattice,
    solve_intertwiner,
    solve_metric,
)
from soqrs.classify import NO_SERIES
from soqrs.gtbasis import chain_labels
from oracles import (
    brute_chain_count,
    class1_chains,
    class1_dim_formula,
    cl_compact_matrices,
    cl_degenerate_generators,
    space_basis,
)

E = SpectralParam.exact

RATIONALS_20 = [Fraction(2 * k + 1, 2) for k in range(-4, 6)] + [
    Fraction(k, 3) for k in (-5, -4, -2, -1, 1, 2, 4, 5, 7, 8)
]


def test_criterion_1_compact_relation_suite():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(3, 7):
        for m in range(0, 5):
            for q in (0.5, 1.0, 2.0):
                p = QParam(q)
                gens = build_class1(n, m, p)
                report = check_relations(gens, qp=p, tol=1e-10)
                worst = max(worst, report.max_residual)
                assert report.passed, (n, m, q, report.max_residual)
    elapsed = time.monotonic() - t0
    print(f"\n[criterion 1] PASS compact relations: n<=6, m<=4, "
          f"q in {{1/2,1,2}}; worst residual {worst:.2e} (<1e-10), "
          f"{elapsed:.1f}s (<30s)")
    assert elapsed < 30.0


def test_criterion_2_dimension_oracle():
    for n in range(3, 7):
        for m in range(0, 5):
            got = len(chain_labels(n, m)[m])
            assert got == class1_dim_formula(n, m), (n, m)
            assert got == brute_chain_count(n, m), (n, m)
    print("[criterion 2] PASS dimension oracle: chain_labels counts equal "
          "the classical class-1 dimension formula exactly")


def test_criterion_3_degenerate_relation_suite():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for r, s in itertools.product((3, 4), repeat=2):
        half = Fraction(r + s - 2, 2)
        lams = [E(Fraction(37, 100)), E(-2), E(half, 0, 1),
                E(Fraction(3, 5), 1)]
        for eps in (0, 1):
            for lam in lams:
                for q in (0.5, 2.0):
                    spec = RepSpec(r, s, eps, lam, QParam(q), 8)
                    rep = build_degenerate(spec)
                    report = check_relations(rep, depth=3, tol=1e-9)
                    worst = max(worst, report.max_residual)
                    count += 1
                    assert report.passed, (r, s, eps, lam, q,
                                           report.max_residual)
    elapsed = time.monotonic() - t0
    print(f"[criterion 3] PASS degenerate relations: {count} representations, "
          f"worst residual {worst:.2e} (<1e-9), {elapsed:.1f}s (<120s)")
    assert elapsed < 120.0


def test_criterion_4_closed_form_scanner_consistency():
    disagreements = []
    checked = 0
    for r, s in itertools.product(range(3, 8), repeat=2):
        for eps in (0, 1):
            lams = [E(L) for L in range(-6, r + s + 5)]
            lams += [E(x) for x in RATIONALS_20]
            # period-shifted copies of walls, and im_y != 0 beside them
            lams += [E(L, t) for L in (-2, 0, 1, r + s - 2, r + s) for t in (2, 4)]
            lams += [E(L, 0, Fraction(1, 3)) for L in (-2, 0, r + s - 2)]
            for lam in lams:
                cc = cross_check(r, s, eps, lam, cutoff=12)
                checked += 1
                if not cc.agree:
                    disagreements.append((r, s, eps, lam))
    assert not disagreements, disagreements
    print(f"[criterion 4] PASS closed-form/scanner consistency: {checked} "
          f"parameters, 0 disagreements")


def test_criterion_5_decomposition_agreement():
    cutoff = 14
    tested = 0
    for r, s in itertools.product((3, 4, 5), repeat=2):
        for eps in (0, 1):
            for L in range(-4, r + s + 1):
                lam = E(L)
                if classify_irreducible(r, s, eps, lam):
                    continue
                cl = predict_constituents(r, s, eps, lam)
                scan = scan_lattice(RepSpec(r, s, eps, lam, QParam(2.0),
                                            cutoff))
                predicted = sorted(
                    (c.region.blocks(eps, cutoff) for c in cl.constituents
                     if c.region.blocks(eps, cutoff)),
                    key=lambda f: sorted(f)[0])
                got = sorted(scan.components, key=lambda f: sorted(f)[0])
                assert predicted == got, (r, s, eps, L)
                tested += 1
    print(f"[criterion 5] PASS decomposition agreement: {tested} reducible "
          f"cases, scanner regions equal predicted predicates exactly")


def test_criterion_6_period_identities():
    q = QParam(2.0)
    worst_identity = 0.0
    for (r, s, eps, lam) in [(3, 3, 0, E(Fraction(3, 10))),
                             (4, 3, 1, E(Fraction(1, 2), 0, Fraction(1, 3)))]:
        base = build_degenerate(RepSpec(r, s, eps, lam, q, 8))
        shifted = build_degenerate(RepSpec(
            r, s, eps, SpectralParam.exact(lam.re, lam.im_t + 4, lam.im_y),
            q, 8))
        for ga, gb in zip(base.generators, shifted.generators):
            diff = (ga.mat - gb.mat)
            if diff.nnz:
                worst_identity = max(worst_identity, abs(diff).max())
        assert worst_identity < 1e-12

        half = build_degenerate(RepSpec(
            r, s, eps, SpectralParam.exact(lam.re, lam.im_t + 2, lam.im_y),
            q, 8))
        sol = solve_intertwiner(base, half)
        assert sol is not None and sol.residual < 1e-8
        assert np.max(np.abs(np.abs(sol.diagonal) - 1.0)) < 1e-10
    print(f"[criterion 6] PASS period identities: full-period matrices "
          f"identical to {worst_identity:.1e} (<1e-12); half-period "
          f"intertwiner unit-modulus, residual <1e-8")


def test_criterion_7_mirror_intertwiners():
    q = QParam(2.0)
    lams = [Fraction(3, 10), Fraction(11, 10), Fraction(7, 4),
            Fraction(12, 5), Fraction(1, 3)]
    worst = 0.0
    for r, s in [(3, 3), (3, 4), (4, 4)]:
        for x in lams:
            lam = E(x)
            repA = build_degenerate(RepSpec(r, s, 0, lam, q, 8))
            repB = build_degenerate(RepSpec(r, s, 0, lam.mirrored(r + s),
                                            q, 8))
            sol = solve_intertwiner(repA, repB)
            assert sol is not None, (r, s, x)
            assert sol.residual < 1e-8, (r, s, x, sol.residual)
            worst = max(worst, sol.residual)
    print(f"[criterion 7] PASS mirror intertwiners: 15 pairs, worst residual "
          f"{worst:.1e} (<1e-8)")


def test_criterion_8_star_series_metrics():
    q = QParam(2.0)
    # principal line, two values; the primed basis must be Hermitian directly
    for lam in [E(3, 0, 2), E(3, Fraction(1, 2))]:
        rep = build_degenerate(RepSpec(4, 4, 0, lam, q, 6))
        assert solve_metric(rep).status == FOUND, lam
        primed = build_degenerate_primed(RepSpec(4, 4, 0, lam, q, 6))
        star = check_star(primed, tol=1e-9)
        assert star.passed, (lam, star.max_residual)
    # strange series, two values
    for (r, s, eps, lam) in [(4, 4, 0, E(Fraction(1, 2), 1)),
                             (3, 4, 1, E(-2, 1))]:
        rep = build_degenerate(RepSpec(r, s, eps, lam, q, 8))
        assert solve_metric(rep).status == FOUND, (r, s, eps)
    # supplementary window, one value per rank-parity case
    for (r, s, eps, lam) in [(4, 4, 0, E(Fraction(7, 2))),
                             (3, 3, 0, E(Fraction(5, 2))),
                             (3, 4, 0, E(Fraction(11, 4)))]:
        ms = solve_metric(build_degenerate(RepSpec(r, s, eps, lam, q, 8)))
        assert ms.status == FOUND, (r, s, eps, ms.status)
        assert min(ms.weights.values()) > 0
    # off-series controls
    for lam in [SpectralParam.inexact(0.7 + 1.3j),
                E(2, 0, Fraction(3, 5))]:
        ms = solve_metric(build_degenerate(RepSpec(4, 4, 0, lam, q, 8)))
        assert ms.status == NONE, (lam, ms.status)
    print("[criterion 8] PASS star-series metrics: principal x2 (primed "
          "Hermitian <1e-9), strange x2, supplementary x3 all positive; "
          "2 off-series controls yield none")


def test_criterion_9_classical_limit_regression():
    p_near = QParam(1.0 + 1e-8)
    worst = 0.0
    for n in range(3, 6):
        for m in range(0, 4):
            oracle = cl_compact_matrices(n, class1_chains(n, m))
            for g in build_class1(n, m, p_near):
                worst = max(worst,
                            np.max(np.abs(g.mat.toarray() - oracle[g.i])))
    assert worst < 1e-6, worst

    worst_d = 0.0
    for (r, s, eps, lam, lam_plain) in [
        (3, 3, 0, E(Fraction(2, 5)), 0.4),
        (4, 3, 1, E(-1), -1.0),
        (3, 4, 0, E(1, 0, 1), 1 + 1j),
    ]:
        rep = build_degenerate(RepSpec(r, s, eps, lam, p_near, 6))
        patterns = space_basis(rep.space)
        oracle = cl_degenerate_generators(r, s, eps, lam_plain, patterns,
                                          rep.space.top_ring)
        for g in rep.generators:
            worst_d = max(worst_d,
                          np.max(np.abs(g.mat.toarray() - oracle[g.i])))
    assert worst_d < 1e-6, worst_d
    print(f"[criterion 9] PASS classical limit: q = 1+1e-8 matches the "
          f"classical oracle entrywise; compact worst {worst:.1e}, "
          f"degenerate worst {worst_d:.1e} (<1e-6)")


def test_criterion_10_odd_odd_strip_metrics_and_mirrors():
    """The upper half of the odd/odd strip, checked by the matrix solvers.

    For odd r, s, integer lambda of parity epsilon with
    (r+s)/2 - 2 <= lambda < r+s-2 lies on the irreducible strip, past the
    paper's stated bound.  A positive metric exists exactly where
    classify_star names a *-series (the principal centre), and every such
    lambda has a diagonal intertwiner to its mirror.
    """
    q = QParam(2.0)
    checked = 0
    for r, s in itertools.product((3, 5, 7), repeat=2):
        if r + s > 10:
            continue
        for eps in (0, 1):
            for L in range((r + s) // 2 - 2, r + s - 2):
                if (L - eps) % 2:
                    continue
                lam = E(L)
                rep = build_degenerate(RepSpec(r, s, eps, lam, q, 6))
                mirror = build_degenerate(RepSpec(r, s, eps, lam.mirrored(r + s),
                                                  q, 6))
                series = classify_star(r, s, eps, lam)
                assert ((solve_metric(rep).status == FOUND)
                        == (series != NO_SERIES)), (r, s, eps, L, series)
                assert solve_intertwiner(rep, mirror) is not None, (r, s, eps, L)
                checked += 1
    assert checked == 26
    print(f"[criterion 10] PASS odd/odd strip: {checked} parameters past the "
          f"stated bound; metric exists exactly on the principal centre, "
          f"mirror intertwiner found for each")

"""The array-level checks and solvers against their sparse-product references.

check_relations and check_star read every residual from the CSC arrays,
and solve_metric and solve_intertwiner walk the space's block-edge table
and form their residuals by scaling stored entries.  Each must report
what the sparse products report, bit for bit: rows by relation, residual
and worst pattern; solutions by repr, the diagonal by its bytes.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from soqrs import (
    QParam,
    RepSpec,
    SpectralParam,
    build_class1,
    build_degenerate,
    build_degenerate_primed,
    build_so3,
    check_relations,
    check_star,
    solve_intertwiner,
    solve_metric,
)
from soqrs.degenrep import frame
from oracles import (
    column_max_coo,
    conjugate_rep,
    full_product_relations,
    solve_intertwiner_reference,
    solve_metric_reference,
)

E = SpectralParam.exact
RANKS = [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 4)]


def _lambdas(r: int, s: int) -> list:
    """Exact, principal and Im-lambda points, edge-severing integers, an inexact one."""
    return [
        E(Fraction(1, 3)),
        E(Fraction(r + s - 2, 2), 0, Fraction(3, 4)),
        E(Fraction(5, 2), 0, Fraction(1, 3)),
        E(-2, 0, Fraction(1, 3)),
        E(-2),
        E(1),
        SpectralParam.inexact(0.7 + 0.4j),
    ]


def _mirror(lam, r: int, s: int, qp: QParam):
    if lam.is_exact:
        return lam.mirrored(r + s)
    return SpectralParam.inexact(r + s - 2 - lam.value(qp))


def _metric(ms) -> str:
    return repr((ms.status, ms.weights, ms.residual, ms.connected))


def _intertwiner(sol) -> str:
    if sol is None:
        return "None"
    return repr((sol.block_values, sol.residual, sol.diagonal.dtype, sol.diagonal.tobytes()))


def _pairs(spec: RepSpec, mirror: RepSpec):
    """(rep, mirror rep) in the standard basis, then in the primed basis."""
    for build in (build_degenerate, build_degenerate_primed):
        yield build(spec), build(mirror)


@pytest.mark.parametrize("q", [1e-3, 0.5, 1.0, 2.0])
def test_solvers_match_sparse_product_references(q):
    qp = QParam(q)
    checked = set()
    for (r, s), eps, cutoff in itertools.product(RANKS, (0, 1), (0, 1, 4)):
        if cutoff < eps:
            continue
        # cold: a new frame and space, so the first solve builds the table
        frame.cache_clear()
        for lam in _lambdas(r, s):
            spec = RepSpec(r, s, eps, lam, qp, cutoff)
            mirror = RepSpec(r, s, eps, _mirror(lam, r, s, qp), qp, cutoff)
            for rep, rep_mirror in _pairs(spec, mirror):
                for x in (rep, rep_mirror):
                    want = _metric(solve_metric_reference(x))
                    # the second solve reads the table the first one left
                    for _ in range(2):
                        ms = solve_metric(x)
                        assert _metric(ms) == want, (x.spec, x.basis_kind)
                        checked.add((ms.status, len(x.space.blocks) == 1))
                for x, y in ((rep, rep_mirror), (rep_mirror, rep), (rep, rep)):
                    want = _intertwiner(solve_intertwiner_reference(x, y))
                    assert _intertwiner(solve_intertwiner(x, y)) == want, (x.spec, y.spec)
                    checked.add(want == "None")
    assert {("found", True), ("found", False), ("indefinite", False),
            ("none", False), True, False} <= checked


def test_intertwiner_residual_matches_scipy_products():
    # numpy's complex multiply differs from scipy's kernel in the last bit
    # on this mirror pair; the entrywise products must not
    qp = QParam(0.5)
    lam = E(-2, 0, Fraction(1, 3))
    spec, mirror = RepSpec(3, 3, 0, lam, qp, 6), RepSpec(3, 3, 0, lam.mirrored(6), qp, 6)
    rep, rep_mirror = build_degenerate(spec), build_degenerate(mirror)
    sol = solve_intertwiner(rep, rep_mirror)
    assert sol is not None
    assert _intertwiner(sol) == _intertwiner(solve_intertwiner_reference(rep, rep_mirror))
    # the same pair on two frames: the compact generators are equal, not shared
    frame.cache_clear()
    rebuilt = build_degenerate(mirror)
    assert rebuilt.gen(2).mat is not rep.gen(2).mat
    assert _intertwiner(solve_intertwiner(rep, rebuilt)) == _intertwiner(sol)


def test_solvers_on_conjugated_and_severed_reps():
    rep = build_degenerate(RepSpec(3, 4, 1, E(Fraction(5, 2)), QParam(2.0), 5))
    diag = {b: 0.5 + 0.25 * k for k, b in enumerate(rep.space.blocks)}
    # at (3,3,1,cutoff 1), lambda 2 severs the one block edge both ways
    empty = build_degenerate(RepSpec(3, 3, 1, E(2), QParam(2.0), 1))
    assert empty.noncompact.mat.nnz == 0 and len(empty.space.block_edges.src) == 1
    for x in (conjugate_rep(rep, diag), empty,
              build_degenerate(RepSpec(5, 3, 0, E(1), QParam(1.0), 4))):
        assert _metric(solve_metric(x)) == _metric(solve_metric_reference(x))
        assert (_intertwiner(solve_intertwiner(x, x))
                == _intertwiner(solve_intertwiner_reference(x, x)))


def _star_rows(gens, space, noncompact_i):
    rows = []
    for g in gens:
        adj = g.mat.conjugate().transpose().tocsc()
        res = adj - g.mat if g.i == noncompact_i else adj + g.mat
        rows.append(column_max_coo(res, space))
    return rows


def test_star_rows_match_tocoo_readout():
    q2 = QParam(2.0)
    reps = [build_degenerate(RepSpec(3, 3, 0, E(Fraction(7, 10)), q2, 6)),
            build_degenerate_primed(RepSpec(4, 4, 0, E(3, 0, 2), q2, 6)),
            build_degenerate(RepSpec(3, 3, 0, E(2, 0, Fraction(3, 4)), QParam(0.5), 2))]
    reps.append(conjugate_rep(reps[0], {b: 1.0 + k for k, b in enumerate(reps[0].space.blocks)}))
    for rep in reps:
        got = [(row.residual, row.worst) for row in check_star(rep).rows]
        want = _star_rows(rep.generators, rep.space, rep.spec.r + 1)
        assert repr(got) == repr(want), rep.spec
    for gens in (build_so3(Fraction(5, 2), q2), build_class1(5, 3, QParam(0.5))):
        got = [(row.residual, row.worst) for row in check_star(gens).rows]
        assert repr(got) == repr(_star_rows(gens, None, None))


def test_relation_rows_report_the_scalar_abs():
    # on this spec the array abs of the worst entry of cubic[3,4]b differs
    # from its scalar abs in the last bit; the report gives the scalar one
    qp = QParam(0.5)
    rep = build_degenerate(RepSpec(3, 3, 0, E(2, 0, Fraction(3, 4)), qp, 2))
    report = check_relations(rep, depth=0)
    want = full_product_relations(rep.generators, qp.a, rep.dim, rep.space.pattern)
    assert [(r.relation, r.residual, r.worst) for r in report.rows] == want


def test_solvers_leave_csgraph_unloaded():
    probe = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from soqrs import (QParam, RepSpec, SpectralParam, build_degenerate,\n"
        "                   solve_intertwiner, solve_metric)\n"
        "lam = SpectralParam.exact(Fraction(5, 2), 0, Fraction(1, 2))\n"
        "rep = build_degenerate(RepSpec(3, 4, 0, lam, QParam(2.0), 6))\n"
        "mirror = build_degenerate(RepSpec(3, 4, 0, lam.mirrored(7), QParam(2.0), 6))\n"
        "assert solve_metric(rep).status == 'found'\n"
        "assert solve_intertwiner(rep, mirror) is not None\n"
        "assert 'scipy.sparse.csgraph' not in sys.modules, sorted(sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

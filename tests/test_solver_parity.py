"""The array-level checks and solvers against their sparse-product references.

check_relations and check_star form every residual on bare CSC arrays
through scipy's compiled kernels and read it from those arrays, and
solve_metric and solve_intertwiner walk the space's block-edge table
and form their residuals by scaling stored entries.  Each must report
what the sparse products report, bit for bit: rows by relation, residual
and worst pattern; solutions by repr, the diagonal by its bytes.  The
kernel helper itself must store what scipy's operators store.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from soqrs import (
    DegenerateRep,
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
from soqrs import compactrep
from soqrs.compactrep import _index_dtype
from soqrs.verify import _Csc, _frame_record
from oracles import (
    basis_rows,
    column_max_coo,
    conjugate_rep,
    full_product_relations,
    solve_intertwiner_reference,
    solve_metric_reference,
    star_relations,
)

E = SpectralParam.exact
RANKS = [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 4)]


def _lambdas(r: int, s: int) -> list:
    """Exact, principal and Im-lambda points, edge-severing integers, a float one."""
    return [
        E(Fraction(1, 3)),
        E(Fraction(r + s - 2, 2), 0, Fraction(3, 4)),
        E(Fraction(5, 2), 0, Fraction(1, 3)),
        E(-2, 0, Fraction(1, 3)),
        E(-2),
        E(1),
        E(Fraction(0.7), 0, Fraction(0.4)),
    ]


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
            mirror = RepSpec(r, s, eps, lam.mirrored(r + s), qp, cutoff)
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


def _stripped(rep):
    """rep without its frame, signs and edge values: every check takes the full path."""
    return DegenerateRep(rep.spec, rep.space, rep.generators, rep.basis_kind)


@pytest.mark.parametrize("q", [0.5, 2.0])
def test_frame_path_equals_full_path(q):
    # every report and intertwiner of a frame-built rep equals, by repr,
    # that of the same rep stripped of its provenance; lambda = -2 drops
    # edges, and the float lambda 0.7+0.4i has no vanishing
    qp = QParam(q)
    for (r, s), eps in itertools.product(RANKS, (0, 1)):
        for lam in _lambdas(r, s):
            spec = RepSpec(r, s, eps, lam, qp, 5)
            mirror = RepSpec(r, s, eps, lam.mirrored(r + s), qp, 5)
            for rep, rep_mirror in _pairs(spec, mirror):
                assert _frame_record(rep) is not None and _frame_record(rep_mirror) is not None
                bare, bare_mirror = _stripped(rep), _stripped(rep_mirror)
                for depth in (0, 3):
                    report = check_relations(rep, depth=depth)
                    assert repr(report) == repr(check_relations(bare, depth=depth)), (rep.spec, depth)
                # the far commutators vanish on the unit pattern: the record
                # holds every row but the 4 junction rows
                known = _frame_record(rep).relations.values()
                assert {len(rows) for rows in known} == {len(report.rows) - 4}, rep.spec
                assert repr(check_star(rep)) == repr(check_star(bare)), rep.spec
                for x, y, bx, by in ((rep, rep_mirror, bare, bare_mirror),
                                     (rep_mirror, rep, bare_mirror, bare),
                                     (rep, rep, bare, bare)):
                    assert (_intertwiner(solve_intertwiner(x, y))
                            == _intertwiner(solve_intertwiner(bx, by))), (x.spec, y.spec)


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
    want = full_product_relations(rep.generators, qp.a, rep.dim, basis_rows(rep.space).__getitem__)
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


# ---------------------------------------------------------------------------
# the CSC kernel helper against scipy's operators


def _random_csc(rng, shape, nnz: int) -> sparse.csc_matrix:
    """A complex CSC matrix with nnz distinct entries, some stored as 0 and -0."""
    flat = rng.choice(shape[0] * shape[1], size=nnz, replace=False)
    vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    vals[::5] = 0.0
    vals[1::7] = complex(-0.0, -0.0)
    mat = sparse.csc_matrix((vals, np.unravel_index(flat, shape)), shape=shape)
    mat.data[::5] = 0.0  # the constructor keeps explicit zeros; keep -0.0 too
    return mat


def _stored(mat) -> tuple:
    """What a CSC matrix stores, as bytes."""
    return (mat.shape, mat.indptr.dtype, mat.indptr.tobytes(), mat.indices.tobytes(),
            mat.data.dtype, mat.data.tobytes())


def test_csc_helper_stores_what_scipy_operators_store():
    rng = np.random.default_rng(11)
    a, b = _random_csc(rng, (9, 7), 30), _random_csc(rng, (7, 8), 25)
    c, d = _random_csc(rng, (9, 8), 40), _random_csc(rng, (9, 8), 0)
    empty_k = sparse.csc_matrix((9, 7), dtype=complex)
    # a (7, 8) matrix whose entries all lie in its first 4 rows
    top = _random_csc(rng, (4, 8), 15)
    low = sparse.csc_matrix((top.data, top.indices, top.indptr), shape=(7, 8))
    x = {name: _Csc.of(m) for name, m in
         (("a", a), ("b", b), ("c", c), ("d", d), ("e", empty_k), ("low", low))}
    product = a @ b
    assert not product.has_sorted_indices  # csr_matmat leaves columns unsorted
    cases = [
        (x["a"] @ x["b"], product),
        (x["c"] + x["c"], c + c),
        (x["c"] - x["a"] @ x["b"], c - product),
        # the product's unsorted output fed into a sum and a difference
        (x["a"] @ x["b"] + x["c"], product + c),
        (x["a"] @ x["b"] - x["c"], product - c),
        (2.5 * (x["a"] @ x["b"]), 2.5 * product),
        # empty operands
        (x["e"] @ x["b"], empty_k @ b),
        (x["d"] + x["c"], d + c),
        (x["c"] - x["d"], c - d),
        (x["d"] - x["d"], d - d),
        # zero-column and partial prefixes, a row prefix holding every entry
        (x["a"] @ x["b"].cols(0), a @ b[:, :0]),
        (x["a"] @ x["b"].cols(3), a @ b[:, :3]),
        (x["a"].cols(4) @ x["low"].rows(4), a[:, :4] @ low[:4, :]),
        (x["c"].cols(5) - x["c"].cols(5), c[:, :5] - c[:, :5]),
        # the adjoint, as check_star forms it
        (x["a"].adjoint(), a.conjugate().transpose().tocsc()),
        (x["a"].adjoint() - x["a"].adjoint(), a.conjugate().transpose().tocsc()
         - a.conjugate().transpose().tocsc()),
    ]
    for k, (got, want) in enumerate(cases):
        want = want.tocsc()
        assert _stored(got) == _stored(want), k
        # pruned as scipy prunes: no output keeps a buffer over twice its size
        for arr in (got.indices, got.data):
            assert arr.base is None or 2 * arr.size >= arr.base.size, k


def test_index_dtype_widens_past_int32():
    top = np.iinfo(np.int32).max
    assert _index_dtype(3, top) is np.int32
    assert _index_dtype(3, top + 1, 7) is np.int64


def _int64_indices(rep):
    """The rep with every generator's index arrays widened to int64."""
    gens = []
    for g in rep.generators:
        mat = g.mat.copy()
        mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
        gens.append(type(g)(g.i, mat))
    return type(rep)(rep.spec, rep.space, gens, rep.basis_kind)


def test_int64_indices_give_the_same_rows():
    spec = RepSpec(4, 3, 1, E(Fraction(5, 2), 0, Fraction(3, 4)), QParam(0.5), 6)
    for rep in (build_degenerate(spec), build_degenerate_primed(spec)):
        wide = _int64_indices(rep)
        assert wide.noncompact.mat.indices.dtype == np.int64
        for depth in (0, 3):
            assert (repr(check_relations(wide, depth=depth).to_dict())
                    == repr(check_relations(rep, depth=depth).to_dict()))
        assert repr(check_star(wide).to_dict()) == repr(check_star(rep).to_dict())
        assert _metric(solve_metric(wide)) == _metric(solve_metric(rep))
        assert _intertwiner(solve_intertwiner(wide, rep)) == _intertwiner(solve_intertwiner(rep, rep))


KERNELS = ("csr_matmat_maxnnz", "csr_matmat", "csr_plus_csr", "csr_minus_csr", "csr_tocsc",
           "csr_sample_values")


def test_int64_route_gives_the_int32_reports(monkeypatch):
    # with the int32 limit patched low, every operand and output of every
    # kernel call holds int64 indices, and every report equals, by repr,
    # the one of the int32 route: a standard tower and its primed rep, cold
    # and then warm from the frame's record, a mirror-pair intertwiner, and
    # a bare class-1 list
    qp = QParam(0.5)
    spec = RepSpec(4, 3, 1, E(Fraction(5, 2), 0, Fraction(3, 4)), qp, 6)
    mirror = RepSpec(4, 3, 1, spec.lam.mirrored(7), qp, 6)

    def reps():
        frame.cache_clear()
        return ([build_degenerate(spec), build_degenerate_primed(spec)],
                build_degenerate(mirror), build_class1(5, 2, qp))

    def reports(towers, rep_mirror, gens) -> str:
        out = []
        for rep in towers:
            for _ in range(2):
                out += [check_relations(rep, depth=depth).to_dict() for depth in (0, 3)]
                out.append(check_star(rep).to_dict())
            out.append(_metric(solve_metric(rep)))
        out.append(_intertwiner(solve_intertwiner(towers[0], rep_mirror)))
        out += [check_relations(gens, qp=qp).to_dict(), check_star(gens).to_dict()]
        return repr(out)

    narrow = reports(*reps())
    wide = reps()  # built on int32 indices; verify widens what it reads
    widths = []
    for name in KERNELS:
        def counted(*args, kernel=getattr(sparse._sparsetools, name)):
            widths.extend(a.dtype for a in args
                          if isinstance(a, np.ndarray) and a.dtype.kind == "i")
            return kernel(*args)
        monkeypatch.setattr(sparse._sparsetools, name, counted)
    monkeypatch.setattr(compactrep, "_INT32_MAX", -1)
    assert _index_dtype(1) is np.int64
    assert reports(*wide) == narrow
    assert _frame_record(wide[0][0]) is not None  # the warm checks read the record
    assert len(widths) > 1000 and set(widths) == {np.dtype(np.int64)}


def test_check_star_matches_sparse_operator_reference():
    reps = []
    for (r, s), eps, q in itertools.product(RANKS, (0, 1), (0.5, 2.0)):
        qp = QParam(q)
        for lam in (E(Fraction(1, 3)), E(Fraction(r + s - 2, 2), 0, Fraction(3, 4))):
            spec = RepSpec(r, s, eps, lam, qp, 4)
            reps += [build_degenerate(spec), build_degenerate_primed(spec)]
    for rep in reps:
        got = [(row.relation, row.residual, row.worst) for row in check_star(rep).rows]
        want = star_relations(rep.generators, rep.spec.r + 1, basis_rows(rep.space).__getitem__)
        assert repr(got) == repr(want), (rep.spec, rep.basis_kind)
    for q in (0.5, 1.0, 2.0, 7.0):
        qp = QParam(q)
        for gens in [build_so3(Fraction(5, 2), qp)] + [build_class1(n, 3, qp) for n in range(3, 8)]:
            got = [(row.relation, row.residual, row.worst) for row in check_star(gens).rows]
            assert repr(got) == repr(star_relations(gens, None, int)), (len(gens), q)


def test_checks_build_no_sparse_matrix(monkeypatch):
    # every intermediate of a relation or star check stays bare arrays
    spec = RepSpec(3, 4, 0, E(Fraction(5, 2), 0, Fraction(3, 4)), QParam(2.0), 5)
    reps = [build_degenerate(spec), build_degenerate_primed(spec)]
    gens = build_class1(4, 2, QParam(2.0))

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was built")

    # the common base of the CSC, CSR and COO classes
    monkeypatch.setattr(sparse._data._data_matrix, "__init__", refuse)
    with pytest.raises(AssertionError, match="was built"):
        sparse.csc_matrix((2, 2))
    for rep in reps:
        check_relations(rep, depth=0)
        check_relations(rep, depth=2)
        check_star(rep)
    check_relations(gens, qp=QParam(2.0))
    check_star(gens)

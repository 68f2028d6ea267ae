"""The cached frame of T_{eps,lambda}: byte identity and cache safety.

Every generator built on a frame must equal, byte for byte, the per-call
block-by-block assembly of oracles.kron_assembly, whether the frame was
just built, reused, or rebuilt after another tower; specs the reference
refuses must be refused with the same exception type.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from soqrs import (
    FOUND,
    QParam,
    RepSpec,
    SpectralParam,
    build_class1,
    build_degenerate,
    build_degenerate_primed,
    build_so3,
    check_relations,
    solve_intertwiner,
    solve_metric,
)
from soqrs.cli import main
from soqrs.degenrep import frame
from oracles import kron_assembly

E = SpectralParam.exact
Q2 = QParam(2.0)
TOWERS = [(r, s, eps) for r, s in [(3, 3), (3, 4), (4, 4), (5, 3)] for eps in (0, 1)]


def _lambdas(r: int, s: int) -> list:
    """Principal point, 1/3, integers that sever edges, a strange-line point."""
    return [
        E(Fraction(r + s - 2, 2), 0, Fraction(3, 4)),
        E(Fraction(1, 3)),
        E(-2),     # [lambda + m + m'] = 0 on ring 2
        E(1),      # lower families vanish on a diagonal
        E(r + s),  # [lambda - m - m' - r - s + 4] = 0 on ring 4
        E(Fraction(1, 2), 1),  # Im lambda = pi/h; undefined at q = 1
    ]


def _build(spec, primed):
    return (build_degenerate_primed if primed else build_degenerate)(spec)


def _outcome(fn):
    """fn() or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)


def _assert_same_bytes(got, want, what):
    assert isinstance(want, list), (what, want)
    assert len(got) == len(want), what
    for g, w in zip(got, want):
        a = g.mat
        for name in ("data", "indices", "indptr"):
            x, y = getattr(a, name), getattr(w, name)
            assert x.dtype == y.dtype, (what, g.i, name)
            # tobytes keeps signed zeros apart
            assert x.tobytes() == y.tobytes(), (what, g.i, name)
        assert a.shape == w.shape, (what, g.i)


def _check(case, refs):
    spec, primed = case
    got = _outcome(lambda: _build(spec, primed))
    want = refs[case]
    if isinstance(want, type):
        assert got is want, (case, got, want)
    else:
        assert not isinstance(got, type), (case, got)
        _assert_same_bytes(got.generators, want, case)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_frame_builds_match_per_call_assembly(q):
    qp = QParam(q)
    cases = [(RepSpec(r, s, eps, lam, qp, 5), primed)
             for r, s, eps in TOWERS for lam in _lambdas(r, s)
             for primed in (False, True)]
    refs = {case: _outcome(lambda: kron_assembly(*case)) for case in cases}
    assert any(isinstance(v, type) for v in refs.values()) == (q == 1.0)
    # cold: every case on an empty cache, then warm: the same case again
    for case in cases:
        frame.cache_clear()
        _check(case, refs)
        _check(case, refs)
    # interleaved: a shuffled order mixes hits with misses between them
    order = list(cases)
    random.Random(6).shuffle(order)
    before = frame.cache_info()
    for case in order:
        _check(case, refs)
    after = frame.cache_info()
    assert after.hits > before.hits and after.misses > before.misses


def test_returned_arrays_are_read_only():
    spec = RepSpec(4, 4, 0, E(3, 0, Fraction(1, 2)), Q2, 4)
    for rep in (build_degenerate(spec), build_degenerate_primed(spec)):
        for g in rep.generators:
            for arr in (g.mat.data, g.mat.indices, g.mat.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]
    fr = frame(4, 4, 0, 4, Q2)
    for arr in (fr.kl, fr.edge, fr.indices, fr.indptr, fr.family, fr.sigma, fr.d):
        assert not arr.flags.writeable


def test_reps_share_compact_matrices_not_noncompact_data():
    a = build_degenerate(RepSpec(4, 4, 0, E(Fraction(1, 3)), Q2, 5))
    b = build_degenerate(RepSpec(4, 4, 0, E(Fraction(7, 3)), Q2, 5))
    assert a.space is b.space
    for ga, gb in zip(a.generators, b.generators):
        if ga.i == 5:
            assert not np.shares_memory(ga.mat.data, gb.mat.data)
            assert np.abs(ga.mat - gb.mat).max() > 0.1
        else:
            assert ga.mat is gb.mat


def test_severed_edges_keep_the_pattern_read_only_and_unchanged():
    full = build_degenerate(RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 6)).noncompact.mat
    fr = frame(3, 3, 0, 6, Q2)
    kl = fr.kl.copy()
    cut = build_degenerate(RepSpec(3, 3, 0, E(-2), Q2, 6)).noncompact.mat
    assert cut.nnz < full.nnz
    assert frame(3, 3, 0, 6, Q2) is fr and fr.kl.tobytes() == kl.tobytes()
    # the full pattern is shared with the rep, the severed one is not
    assert np.shares_memory(full.indices, fr.indices)
    assert not np.shares_memory(cut.indices, fr.indices)


def test_primed_after_standard_equals_cold_build():
    spec = RepSpec(3, 4, 1, E(Fraction(5, 2), 0, Fraction(1, 4)), Q2, 6)
    frame.cache_clear()
    build_degenerate(spec)
    warm = build_degenerate_primed(spec)
    frame.cache_clear()
    cold = build_degenerate_primed(spec)
    assert frame.cache_info().currsize == 1
    _assert_same_bytes(warm.generators, [g.mat for g in cold.generators], spec)


def test_checks_and_solvers_pass_on_shared_matrices():
    spec = RepSpec(4, 4, 0, E(3, 0, 2), Q2, 6)
    mirror = RepSpec(4, 4, 0, spec.lam.mirrored(8), Q2, 6)
    rep, rep_mirror, primed = (build_degenerate(spec), build_degenerate(mirror),
                               build_degenerate_primed(spec))
    assert rep.gen(2).mat is rep_mirror.gen(2).mat is primed.gen(2).mat
    for r in (rep, rep_mirror, primed):
        report = check_relations(r, depth=3, tol=1e-9)
        assert report.passed, report.worst_row()
    assert solve_metric(rep).status == FOUND
    assert solve_metric(primed).status == FOUND
    assert solve_intertwiner(rep, rep_mirror) is not None


def test_failed_frame_is_not_cached():
    # at q = 1e9 the K factor of the top ring m = 17 leaves the float range
    good = RepSpec(3, 3, 0, E(Fraction(1, 3)), Q2, 5)
    bad = RepSpec(3, 3, 0, E(Fraction(1, 3)), QParam(1e9), 18)
    build_degenerate(good)
    for _ in range(2):
        with pytest.raises(ValueError, match="out of floating-point range"):
            build_degenerate(bad)
        assert frame.cache_info().currsize == 1
        rep = build_degenerate_primed(good)
        _assert_same_bytes(rep.generators, kron_assembly(good, primed=True), good)


def test_no_builder_or_dump_load_makes_a_coo_matrix(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy COO matrix was built")

    for cls in (sparse.coo_matrix, sparse.coo_array):
        monkeypatch.setattr(cls, "__init__", refuse)
    for make in (sparse.coo_matrix, sparse.coo_array):
        with pytest.raises(AssertionError, match="COO matrix was built"):
            make((2, 2))
    # the conversion the frame's CSC order used to come from
    with pytest.raises(AssertionError, match="COO matrix was built"):
        sparse.csc_matrix(([1.0], ([0], [0])), shape=(1, 1))
    frame.cache_clear()
    for r in (3, 4):
        for s in (3, 4):
            for eps in (0, 1):
                spec = RepSpec(r, s, eps, E(Fraction(1, 3)), Q2, 5)
                build_degenerate(spec)
                build_degenerate_primed(spec)
    build_class1(5, 3, Q2)
    build_so3(Fraction(5, 2), Q2)
    dump = tmp_path / "rep.json"
    assert main(["build", "--degenerate", "--r", "3", "--s", "4", "--epsilon", "1",
                 "--lambda-re", "1/3", "--cutoff", "5", "--out", str(dump)]) == 0
    assert main(["verify", "--dump", str(dump)]) == 0
    assert "PASS  overall" in capsys.readouterr().out

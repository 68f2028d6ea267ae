import inspect
import itertools
import sys
import time
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import oracles
from soqrs import (
    QParam,
    RepSpec,
    SpectralParam,
    classify_irreducible,
    classify_star,
    cross_check,
    predict_constituents,
    scan_lattice,
)
from soqrs import classify
from soqrs.classify import (
    QUOTIENT,
    SUBSPACE,
    Region,
    _region_is_closed,
    _walls,
    _window,
)
from soqrs.degenrep import bracket_shifts
from soqrs.gtbasis import FAMILIES, block_arrays, lattice_steps
from soqrs.qarith import vanishing_point

E = SpectralParam.exact
Q2 = QParam(2.0)


def test_irreducibility_examples():
    assert not classify_irreducible(4, 4, 0, E(2))
    assert classify_irreducible(4, 4, 0, E(1))
    assert classify_irreducible(4, 5, 0, E(Fraction(7, 3)))
    assert classify_irreducible(4, 5, 1, E(Fraction(7, 3)))
    assert not classify_irreducible(3, 3, 0, E(-2))
    # odd/odd: integer lambda of parity epsilon on the open strip 0 < lambda < r+s-2
    assert classify_irreducible(5, 5, 1, E(1))
    assert classify_irreducible(5, 5, 1, E(7))
    assert not classify_irreducible(5, 5, 1, E(-1))
    assert not classify_irreducible(5, 5, 1, E(9))
    # complex parameters with a pi/h component are irreducible
    assert classify_irreducible(4, 4, 0, E(2, 1))
    # but a full even multiple reduces back to the real case
    assert not classify_irreducible(4, 4, 0, E(2, 2))


def test_star_series_examples():
    assert classify_star(4, 4, 0, E(3, 0, 2)) == "principal"
    assert classify_star(4, 4, 0, E(Fraction(7, 2))) == "supplementary"
    assert classify_star(4, 5, 0, E(Fraction(37, 10))) == "supplementary"
    assert classify_star(4, 5, 1, E(Fraction(37, 10))) == "supplementary"
    assert classify_star(5, 3, 1, E(Fraction(1, 3), 1)) == "strange"
    assert classify_star(4, 4, 0, E(Fraction(7, 10))) == "none"
    # mirror applied before windowing
    assert classify_star(4, 4, 0, E(Fraction(5, 2))) == "supplementary"
    # odd/odd parity from the metric recurrences: epsilon = (s-r)/2 mod 2
    assert classify_star(3, 3, 0, E(Fraction(5, 2))) == "supplementary"
    assert classify_star(3, 3, 1, E(Fraction(5, 2))) == "none"
    assert classify_star(3, 5, 1, E(Fraction(7, 2))) == "supplementary"
    assert classify_star(3, 5, 0, E(Fraction(7, 2))) == "none"


def test_star_series_rejects_reducible():
    with pytest.raises(ValueError):
        classify_star(4, 4, 0, E(2))


def test_predict_even_even_nonpositive():
    cl = predict_constituents(4, 4, 0, E(-2))
    names = {c.name: c for c in cl.constituents}
    assert set(names) == {"T^F", "T^0", "T^-", "T^+"}
    assert names["T^F"].region.sigma_max == 2
    assert names["T^F"].finite_dim and names["T^F"].realized_on == "subspace"
    assert names["T^0"].region.d_min == -4 and names["T^0"].region.d_max == 4
    assert names["T^-"].region.d_min == 6
    assert names["T^+"].region.d_max == -6
    assert names["T^-"].star and names["T^+"].star and not names["T^F"].star
    assert cl.star_series == "discrete_constituent"


def test_predict_ladder():
    cl = predict_constituents(4, 4, 0, E(2))
    names = {c.name: c for c in cl.constituents}
    assert set(names) == {"T^0", "T^-", "T^+"}
    t0 = names["T^0"]
    assert t0.region.d_min == t0.region.d_max == 0
    assert t0.realized_on == "subspace"
    assert t0.star  # T^0 at (r+s-4)/2 is a *-representation
    assert any("ladder" in n for n in cl.notes)


def test_predict_odd_odd_cases():
    cl = predict_constituents(3, 3, 0, E(1))
    assert [c.name for c in cl.constituents] == ["T^0", "T^-", "T^+"]
    cl = predict_constituents(3, 3, 1, E(2))
    assert all(c.realized_on == "direct_summand" for c in cl.constituents)
    assert {c.name for c in cl.constituents} == {"T^-", "T^+"}
    cl = predict_constituents(3, 3, 0, E(-2))
    assert [c.name for c in cl.constituents] == ["T^F", "T^3"]
    # the open strip 0 < lambda < r+s-2 of parity epsilon is irreducible
    cl = predict_constituents(3, 3, 1, E(1))
    assert cl.irreducible and [c.name for c in cl.constituents] == ["full"]
    cl = predict_constituents(3, 3, 0, E(2))
    assert cl.irreducible and [c.name for c in cl.constituents] == ["full"]
    assert cl.star_series == "principal"


def test_predict_irreducible_full():
    cl = predict_constituents(4, 4, 0, E(Fraction(1, 2)))
    assert cl.irreducible
    assert len(cl.constituents) == 1
    assert cl.constituents[0].name == "full"
    assert cl.constituents[0].region.blocks(0, 6) == frozenset(
        (m, s - m) for s in range(0, 7, 2) for m in range(s + 1))


def test_predict_orientation_swap():
    # odd r, even s mirrors the even r, odd s case with wedge roles swapped
    cl_es = predict_constituents(4, 3, 0, E(-2))
    cl_se = predict_constituents(3, 4, 0, E(-2))
    names_es = {c.name for c in cl_es.constituents}
    names_se = {c.name for c in cl_se.constituents}
    assert names_es == {"T^F", "T^1", "T^+"}
    assert names_se == {"T^F", "T^2", "T^-"}
    swap = {"T^+": "T^-", "T^-": "T^+", "T^1": "T^2", "T^2": "T^1"}
    by_name_es = {c.name: c for c in cl_es.constituents}
    by_name_se = {c.name: c for c in cl_se.constituents}
    for name, c in by_name_es.items():
        partner = by_name_se[swap.get(name, name)]
        assert partner.region == c.region.swapped()


def test_predict_partitions_lattice():
    cases = [(4, 4, 0, -2), (4, 4, 0, 2), (4, 4, 0, 3), (4, 3, 0, -2),
             (4, 3, 0, 2), (4, 3, 1, 3), (3, 3, 0, 1), (3, 3, 1, 2),
             (3, 3, 0, -4), (5, 4, 1, 5), (5, 5, 1, 2), (4, 4, 0, 8)]
    for r, s, eps, L in cases:
        if classify_irreducible(r, s, eps, E(L)):
            continue
        cl = predict_constituents(r, s, eps, E(L))
        cutoff = 16
        union = []
        for c in cl.constituents:
            union.extend(c.region.blocks(eps, cutoff))
        assert len(union) == len(set(union)), (r, s, eps, L)
        full = {(m, sg - m) for sg in range(eps, cutoff + 1, 2)
                for m in range(sg + 1)}
        assert set(union) == full, (r, s, eps, L)


def test_mirror_property():
    """Verdicts and constituents are invariant under lambda -> r+s-2-lambda.

    Integer and quarter lambda from 2 below the wall at 0 to 2 above the
    wall at r+s-2, for r, s in 3..7 and both epsilon.
    """
    for r, s in itertools.product(range(3, 8), repeat=2):
        for eps in (0, 1):
            grid = [E(Fraction(k, 4)) for k in range(-8, 4 * (r + s) + 1)]
            predicted = {}
            for lam in grid:
                cl = predict_constituents(r, s, eps, lam)
                assert cl.irreducible == classify_irreducible(r, s, eps, lam)
                predicted[lam] = [(c.name, c.region) for c in cl.constituents]
            for lam in grid:
                mirror = lam.mirrored(r + s)
                assert (classify_irreducible(r, s, eps, lam)
                        == classify_irreducible(r, s, eps, mirror)), (r, s, eps, lam)
                assert predicted[lam] == predicted[mirror], (r, s, eps, lam)


def _block_sets(scan):
    """(components, regions) of a ScanResult as block sets, in its order."""
    blocks = lambda c: c.blocks(scan.epsilon, scan.cutoff)
    return ([blocks(c) for c in scan.components],
            [frozenset().union(*map(blocks, rg)) for rg in scan.regions])


def test_scan_irreducible_single_region():
    scan = scan_lattice(RepSpec(4, 4, 0, E(Fraction(1, 2)), Q2, 10))
    assert scan.components == (Region(),)
    assert scan.regions == ((Region(),),)
    assert _block_sets(scan)[1] == [frozenset(oracles.lattice_blocks(0, 10))]


def test_scan_reducible_regions_match_predicates():
    cutoff = 12
    scan = scan_lattice(RepSpec(4, 4, 0, E(-2), Q2, cutoff))
    hF = frozenset((m, sg - m) for sg in (0, 2) for m in range(sg + 1))
    h0 = frozenset(
        (m, sg - m) for sg in range(0, cutoff + 1, 2) for m in range(sg + 1)
        if -4 <= 2 * m - sg <= 4)
    components, regions = _block_sets(scan)
    assert hF in regions
    assert h0 in regions
    assert len(components) == 4
    # the cells are stated in the closed form's bounds
    assert scan.components[0] == Region(sigma_max=2, d_min=-4, d_max=4)
    assert scan.regions[0] == (scan.components[0],)


def test_scan_period_shift_gives_same_regions():
    a = scan_lattice(RepSpec(3, 3, 0, E(-4), Q2, 10))
    b = scan_lattice(RepSpec(3, 3, 0, E(-4, 2), Q2, 10))
    assert a == b


def test_scan_finite_constituent_count():
    for L in (-1, -3):
        eps = 1
        scan = scan_lattice(RepSpec(3, 3, eps, E(L), Q2, 10))
        expected = {(m, sg - m) for sg in range(eps, -L + 1, 2)
                    for m in range(sg + 1)}
        assert frozenset(expected) in _block_sets(scan)[0]


def test_cross_check_grid_small():
    for r, s in itertools.product((3, 4), repeat=2):
        for eps in (0, 1):
            for L in range(-4, r + s + 3):
                cc = cross_check(r, s, eps, E(L))
                assert cc.agree, (r, s, eps, L)
    # on the smallest windows: 1 with no wall, 5 at (3, 3, lambda = 0)
    assert cross_check(3, 3, 1, E(Fraction(1, 2))).n_regions == 1
    assert cross_check(3, 3, 0, E(0)).agree


def _lattice_params(r, s):
    """Integer, quarter, period-shifted, strange and im_y != 0 parameters."""
    lams = [E(L) for L in range(-4, r + s + 3)]
    lams += [E(Fraction(k, 4)) for k in (-7, -2, 1, 6, 4 * (r + s) - 11)]
    lams += [E(L, t) for L in (-2, 1, r + s - 2) for t in (2, 4, -2)]
    lams += [E(L, 1) for L in (-2, 0, 2)] + [E(Fraction(1, 2), 1)]
    lams += [E(L, 0, Fraction(1, 3)) for L in (-2, 0, 2)] + [E(0, 2, 1)]
    return lams


def _differs_from_reference(scan, r, s, eps, lam):
    """Whether the components or regions of scan, as block sets, differ from scan_reference's."""
    want = oracles.scan_reference(r, s, eps, lam, scan.cutoff)
    return any(len(g) != len(w) or set(g) != w for g, w in zip(_block_sets(scan), want))


def _scan_mismatches(module, ranks, windows):
    """The cases where module.scan_lattice and oracles.scan_reference disagree.

    For r, s in `ranks`, both epsilon and the lambdas of _lattice_params,
    on the windows windows(r, s, eps, lam): the components and the regions
    of the scan, as block sets (Region.blocks), against those of the
    per-block search.  A scan that follows an edge to a position holding
    no cell (a KeyError) disagrees too.
    """
    bad = []
    for r, s in itertools.product(ranks, repeat=2):
        for eps in (0, 1):
            for lam in _lattice_params(r, s):
                for cutoff in windows(r, s, eps, lam):
                    what = (r, s, eps, lam, cutoff)
                    try:
                        scan = module.scan_lattice(RepSpec(r, s, eps, lam, Q2, cutoff))
                    except KeyError as exc:
                        bad.append((what, exc))
                        continue
                    if _differs_from_reference(scan, r, s, eps, lam):
                        bad.append(what)
    return bad


def _reference_windows(r, s, eps, lam):
    """Every window up to 2 past the walls, every third one for a lambda with no wall."""
    top = max(6, _window(r, s, vanishing_point(lam)) + 2)
    return range(eps, top + 1, 1 if lam.is_integer else 3)


def test_scan_matches_per_block_reference():
    assert _scan_mismatches(classify, (3, 4, 5), _reference_windows) == []


def test_scan_matches_per_block_reference_on_wide_windows():
    """Far walls, up to 400 blocks."""
    for r, s, eps, lam in ((4, 4, 0, E(-14)), (3, 5, 1, E(-13)), (4, 5, 1, E(25)),
                           (5, 3, 0, E(-12, 2)), (4, 4, 1, E(Fraction(1, 2)))):
        cutoff = 38 + eps
        scan = scan_lattice(RepSpec(r, s, eps, lam, Q2, cutoff))
        assert not _differs_from_reference(scan, r, s, eps, lam), (r, s, eps, lam)


def test_strong_components_are_the_mutually_reachable_blocks():
    """The cells of the cuts partition the blocks as mutual reachability does."""
    for r, s in itertools.product(range(3, 7), repeat=2):
        for eps in (0, 1):
            for lam in _lattice_params(r, s):
                for window in (eps, 12, _window(r, s, vanishing_point(lam)), 38 + eps):
                    components, _ = _block_sets(scan_lattice(RepSpec(r, s, eps, lam, Q2, window)))
                    parts = oracles.table_components(r, s, eps, lam, window)
                    assert (len(components), set(components)) == (len(parts), parts), \
                        (r, s, eps, lam, window)


def test_steps_across_one_level_in_one_direction_share_one_shift():
    """What the cells rest on: each gap between levels is live or cut whole, per direction."""
    for r, s in itertools.product(range(3, 9), repeat=2):
        for eps in (0, 1):
            for window in range(eps, 25, 2):
                m, mp = block_arrays(eps, window)
                src, family, dst = lattice_steps(eps, window)
                sigma, d = m + mp, m - mp
                shift = np.choose(family, bracket_shifts(r, s, sigma[src], d[src]))
                ring = sigma[src] != sigma[dst]
                level = np.where(ring, np.minimum(sigma[src], sigma[dst]),
                                 np.minimum(d[src], d[dst]))
                up = np.where(ring, sigma[dst] > sigma[src], d[dst] > d[src])
                crossings = np.stack([ring, level, up])
                n_crossings = np.unique(crossings, axis=1).shape[1]
                n_shifts = np.unique(np.vstack([crossings, shift]), axis=1).shape[1]
                assert n_crossings == n_shifts, (r, s, eps, window)


def test_cross_check_counts_the_scanned_components():
    for r, s in itertools.product((3, 4, 5), repeat=2):
        for eps in (0, 1):
            for lam in _lattice_params(r, s):
                window = _window(r, s, vanishing_point(lam))
                scan = scan_lattice(RepSpec(r, s, eps, lam, Q2, window))
                assert (cross_check(r, s, eps, lam).n_regions
                        == len(scan.components)), (r, s, eps, lam)


def _all_regions(bounds):
    opt = (None,) + bounds
    return [Region(*b) for b in itertools.product(opt, repeat=4)]


def test_region_is_closed_matches_per_block_reference():
    # the constituent regions predict_constituents checks, on its own window
    for r, s in ((3, 3), (4, 4), (3, 4), (5, 4)):
        for eps in (0, 1):
            for lam in _lattice_params(r, s):
                cl = predict_constituents(r, s, eps, lam)
                L = vanishing_point(cl.lam)
                window = _window(r, s, L)
                for c in cl.constituents:
                    assert (_region_is_closed(c.region, r, s, eps, L, window)
                            == oracles.region_is_closed(c.region, r, s, eps, cl.lam,
                                                        window)), (r, s, eps, lam, c)
    # every region with bounds from {-2, 1, 4}, on a window the walls cross
    regions = _all_regions((-2, 1, 4))
    for r, s in ((3, 4), (4, 4)):
        for eps in (0, 1):
            for lam in [E(L) for L in (-2, 0, 1, 2, 3, 5, 7)] + [E(Fraction(1, 2)), E(2, 1)]:
                L = vanishing_point(lam)
                for region in regions:
                    assert (_region_is_closed(region, r, s, eps, L, 9)
                            == oracles.region_is_closed(region, r, s, eps, lam, 9)), \
                        (r, s, eps, lam, region)


def _reference_window_mismatches(module, ranks, lam_max):
    """Where module's realized_on flags or cross_check counts differ on a far window.

    For r, s in `ranks`, both epsilon, lambda in Z/2 from -lam_max to
    lam_max and the lambdas of _lattice_params: each realized_on flag of
    predict_constituents against closure in the table, and the cross_check
    count against the table's, on oracles.closure_window, which lies far
    past every wall.
    """
    bad = []
    for r, s in itertools.product(ranks, repeat=2):
        for eps in (0, 1):
            lams = [E(Fraction(k, 2)) for k in range(-2 * lam_max, 2 * lam_max + 1)]
            lams += _lattice_params(r, s)
            # grouped by reference window, so each window's table is built once
            for lam in sorted(lams, key=lambda lam: oracles.closure_window(r, s, lam)):
                cl = module.predict_constituents(r, s, eps, lam)
                window = oracles.closure_window(r, s, cl.lam)
                for c in cl.constituents:
                    if ((c.realized_on != QUOTIENT)
                            != oracles.table_region_is_closed(c.region, r, s, eps, cl.lam,
                                                              window)):
                        bad.append(("closure", r, s, eps, lam, c))
                if (module.cross_check(r, s, eps, lam).n_regions
                        != oracles.table_component_count(r, s, eps, lam, window)):
                    bad.append(("count", r, s, eps, lam))
    return bad


def test_closure_on_the_scan_window_matches_the_reference_window():
    """Each realized_on flag, and each cross_check count, equals the table's far past every wall."""
    assert _reference_window_mismatches(classify, range(3, 9), 30) == []


def _wall_route_mismatches(module, ranks, pad):
    """Where the wall route of `module` and the table route of oracles disagree.

    For r, s in `ranks`, both epsilon, integer, im_t = 2 and half-integer
    lambda with real part from -pad to r+s+pad, on the windows epsilon,
    epsilon+1, 3, 12, the scan window and 38+epsilon: the cuts and the
    component count of every case, and the closure of every constituent
    region and its swap.  Each table-route answer depends on lambda only
    through its vanishing point, so it is computed once per (L, window).
    """
    bad = []
    for r, s in itertools.product(ranks, repeat=2):
        for eps in (0, 1):
            cases = {}
            for L in range(-pad, r + s + pad + 1):
                for lam in (E(L), E(L, 2), E(Fraction(2 * L + 1, 2))):
                    cl = module.predict_constituents(r, s, eps, lam)
                    regions = [rg for c in cl.constituents for rg in (c.region, c.region.swapped())]
                    for window in {eps, eps + 1, 3, 12, 38 + eps,
                                   module._window(r, s, vanishing_point(lam))}:
                        cases.setdefault((window, vanishing_point(lam)), (lam, set()))[1] \
                            .update(regions)
            # grouped by window, so each window's table is built once
            for (window, L), (lam, regions) in sorted(cases.items(), key=lambda kv: kv[0][0]):
                cuts = module._cuts(r, s, eps, L, window)
                count = len(module._cells(eps, window, *cuts))
                what = (r, s, eps, L, window)
                if cuts != oracles.table_cuts(r, s, eps, lam, window):
                    bad.append(("cuts", what, cuts))
                if count != oracles.table_component_count(r, s, eps, lam, window):
                    bad.append(("count", what, count))
                for region in regions:
                    closed = module._region_is_closed(region, r, s, eps, L, window)
                    if closed != oracles.table_region_is_closed(region, r, s, eps, lam, window):
                        bad.append(("closure", what, region))
    return bad


def test_wall_route_matches_the_table_route():
    """Cuts, counts and closures from the walls equal those of every step of the window."""
    assert _wall_route_mismatches(classify, range(3, 10), 60) == []


def _mutant(monkeypatch, old: str, new: str) -> types.ModuleType:
    """soqrs.classify with the one statement `old` replaced by `new`."""
    source = inspect.getsource(classify)
    assert source.count(old) == 1, old
    module = types.ModuleType("soqrs._classify_mutant")
    module.__package__ = "soqrs"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), classify.__file__, "exec"), module.__dict__)
    return module


_CUT = "cuts[axis].add(min(wall, wall + move))"
_LEVEL = "level = _floor(bound, epsilon) if move > 0 else -_floor(-bound, epsilon)"


@pytest.mark.parametrize("old, new", [
    # the cut of one family (ring_up, ring_down, diag_mp_up) moved by one ring or diagonal
    (_CUT, "cuts[axis].add(min(wall, wall + move) + 2 * (family == 0))"),
    (_CUT, "cuts[axis].add(min(wall, wall + move) + 2 * (family == 3))"),
    (_CUT, "cuts[axis].add(min(wall, wall + move) + 2 * (family == 2))"),
    # the level next to one closure bound off by one
    (_LEVEL, "level = _floor(bound - (name == 'sigma_max'), epsilon) if move > 0 "
             "else -_floor(-bound, epsilon)"),
    (_LEVEL, "level = _floor(bound, epsilon) if move > 0 "
             "else -_floor(-bound - (name == 'sigma_min'), epsilon)"),
    (_LEVEL, "level = _floor(bound - (name == 'd_max'), epsilon) if move > 0 "
             "else -_floor(-bound, epsilon)"),
    (_LEVEL, "level = _floor(bound, epsilon) if move > 0 "
             "else -_floor(-bound - (name == 'd_min'), epsilon)"),
], ids=["ring_up-cut", "ring_down-cut", "diag_mp_up-cut",
        "sigma_max", "sigma_min", "d_max", "d_min"])
def test_the_table_route_catches_a_moved_cut_or_bound(monkeypatch, old, new):
    assert _wall_route_mismatches(_mutant(monkeypatch, old, new), range(3, 6), 6) != []


@pytest.mark.parametrize("old, new", [
    # an edge of the cell DAG into the cell on the wrong side of its bound
    ('"d_max": (0, 1)', '"d_max": (0, -1)'),
    # the lower bound of each cell above a cut moved up by one level
    ("(lo, *[c + 2 for c in cuts])", "(lo, *[c + 4 for c in cuts])"),
], ids=["reversed-edge", "moved-cell-bound"])
def test_the_reference_catches_a_reversed_edge_or_a_moved_cell_bound(monkeypatch, old, new):
    windows = lambda r, s, eps, lam: (6 + eps, _window(r, s, vanishing_point(lam)))
    assert _scan_mismatches(_mutant(monkeypatch, old, new), (3, 4), windows) != []


def test_the_reference_window_catches_a_window_shrunk_by_4(monkeypatch):
    module = _mutant(monkeypatch, "abs(mp_up) + 2) + 2", "abs(mp_up) + 2) - 2")
    kinds = {bad[0] for bad in _reference_window_mismatches(module, (3, 4), 10)}
    assert kinds == {"closure", "count"}


def _far_lambda_reports(lams):
    """(predict_constituents, cross_check) reports at (4,4,0), time and traced peak."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        reports = [(predict_constituents(4, 4, 0, lam), cross_check(4, 4, 0, lam))
                   for lam in lams]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return reports, elapsed, peak


def _shape(report):
    """A classification with L written out of its region bounds."""
    cl, cc = report
    bounds = lambda rg: tuple(x is not None for x in (rg.sigma_min, rg.sigma_max,
                                                       rg.d_min, rg.d_max))
    return ([(c.name, bounds(c.region), c.realized_on, c.star, c.finite_dim)
             for c in cl.constituents], cl.irreducible, cl.star_series,
            cc.n_regions, cc.agree)


def test_large_lambda_prediction_memory():
    """At |lambda| = 10^6 the reports have the shape checked against the table at |lambda| = 40."""
    far = [E(-10**6), E(10**6), E(Fraction(-2 * 10**6 + 1, 2))]
    reports, elapsed, peak = _far_lambda_reports(far)
    assert elapsed < 1.0 and peak < 1e6, (elapsed, peak)
    near, _, _ = _far_lambda_reports([E(-40), E(40), E(Fraction(-79, 2))])
    for cl, cc in near:
        window = _window(4, 4, vanishing_point(cl.lam))
        for c in cl.constituents:
            assert ((c.realized_on != QUOTIENT)
                    == oracles.table_region_is_closed(c.region, 4, 4, 0, cl.lam, window)), c
        assert cc.n_regions == oracles.table_component_count(4, 4, 0, cl.lam, window)
    assert [_shape(a) for a in reports] == [_shape(b) for b in near]
    cl, cc = reports[0]
    assert [c.realized_on for c in cl.constituents] == [SUBSPACE, QUOTIENT, QUOTIENT,
                                                        QUOTIENT]
    assert cl.constituents[0].region == Region(sigma_max=10**6)
    assert cc.n_regions == 4 and cc.agree
    assert [c.name for c in reports[2][0].constituents] == ["full"]
    assert reports[2][1].n_regions == 1


def test_large_lambda_scan_memory():
    """At lambda = -10^6 the scan is four cells, and T^F's cell is its own closure."""
    lam = E(-10**6)
    spec = RepSpec(4, 4, 0, lam, Q2, _window(4, 4, vanishing_point(lam)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        scan = scan_lattice(spec)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1e6, (elapsed, peak)
    assert len(scan.components) == 4
    cell = scan.components[0]
    assert scan.regions[0] == (cell,)
    t_f = predict_constituents(4, 4, 0, lam).constituents[0]
    assert (t_f.name, t_f.realized_on) == ("T^F", SUBSPACE)
    # the same blocks on the rings either side of the wall
    m = np.array([0, 1, 500_000, 10**6, 10**6 + 1, 10**6 + 2])
    for sigma in (10**6, 10**6 + 2):
        keep = m <= sigma
        assert np.array_equal(cell.contains(m[keep], sigma - m[keep]),
                              t_f.region.contains(m[keep], sigma - m[keep]))


def test_region_blocks_match_per_block_reference():
    for region in _all_regions((-3, 0, 1, 4)):
        for eps in (0, 1):
            for cutoff in (eps, 5, 8):
                expected = frozenset(
                    b for b in oracles.lattice_blocks(eps, cutoff)
                    if oracles.region_contains(region, *b))
                assert region.blocks(eps, cutoff) == expected, (region, eps, cutoff)


def test_walls_reported_in_reports():
    walls = predict_constituents(4, 5, 0, E(2)).to_dict()["walls"]
    assert walls == {"ring_up": -2, "diag_m_up": 1, "diag_mp_up": 0,
                     "ring_down": -3}
    # period-shifted by a full 2 pi i / h: the same walls
    assert cross_check(4, 5, 0, E(2, 2)).to_dict()["walls"] == walls
    for lam in (E(Fraction(1, 2)), E(2, 1), E(2, 0, 1)):
        assert set(predict_constituents(4, 5, 0, lam).to_dict()["walls"].values()) \
            == {None}
        assert set(cross_check(4, 5, 0, lam).to_dict()["walls"].values()) == {None}


def test_walls_are_the_severed_edges():
    """Every kept edge crosses no reported wall; every cut one lies on it or a quadrant wall."""
    for r, s, eps, L in ((4, 4, 0, -2), (4, 5, 1, 3), (3, 3, 0, 1), (5, 3, 1, 5)):
        lam = E(L)
        walls = cross_check(r, s, eps, lam).to_dict()["walls"]
        steps = {"ring_up": (1, 1), "diag_m_up": (1, -1),
                 "diag_mp_up": (-1, 1), "ring_down": (-1, -1)}
        for m, mp in oracles.lattice_blocks(eps, 12):
            kept = set(oracles.moves(r, s, lam, m, mp))
            for name, (dm, dmp) in steps.items():
                coord = m + mp if dm == dmp else m - mp
                in_quadrant = m + dm >= 0 and mp + dmp >= 0
                assert ((m + dm, mp + dmp) in kept) == (in_quadrant
                                                        and coord != walls[name])


def test_walls_are_where_the_bracket_shifts_vanish():
    """Each family's shift is -L on its reported wall and nowhere else in the window."""
    hit = set()
    for r, s in itertools.product(range(3, 8), repeat=2):
        for L in range(-8, r + s + 7):
            walls = _walls(r, s, L)
            for eps in (0, 1):
                m, mp = block_arrays(eps, 2 * (abs(L) + r + s + 8))
                sigma, d = m + mp, m - mp
                shifts = bracket_shifts(r, s, sigma, d)
                for f, ((dm, dmp), shift, wall) in enumerate(zip(FAMILIES, shifts, walls)):
                    on_wall = (sigma if dm == dmp else d) == wall
                    assert np.array_equal(shift == -L, on_wall), (r, s, L, eps, f)
                    if on_wall.any():
                        hit.add(f)
    assert hit == {0, 1, 2, 3}

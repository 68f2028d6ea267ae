import itertools
import tracemalloc
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
from soqrs.classify import (
    QUOTIENT,
    SUBSPACE,
    Region,
    _live_steps,
    _region_is_closed,
    _scan_window,
    _step_table,
    _strong_components,
    _sufficient_cutoff,
    _walls,
)
from soqrs.degenrep import bracket_shifts
from soqrs.gtbasis import FAMILIES, block_arrays

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


def test_scan_irreducible_single_region():
    scan = scan_lattice(RepSpec(4, 4, 0, E(Fraction(1, 2)), Q2, 10))
    assert len(scan.components) == 1
    assert len(scan.regions) == 1
    assert scan.regions[0] == frozenset(scan.blocks)


def test_scan_reducible_regions_match_predicates():
    cutoff = 12
    scan = scan_lattice(RepSpec(4, 4, 0, E(-2), Q2, cutoff))
    hF = frozenset((m, sg - m) for sg in (0, 2) for m in range(sg + 1))
    h0 = frozenset(
        (m, sg - m) for sg in range(0, cutoff + 1, 2) for m in range(sg + 1)
        if -4 <= 2 * m - sg <= 4)
    assert hF in scan.regions
    assert h0 in scan.regions
    assert len(scan.components) == 4


def test_scan_period_shift_gives_same_regions():
    a = scan_lattice(RepSpec(3, 3, 0, E(-4), Q2, 10))
    b = scan_lattice(RepSpec(3, 3, 0, E(-4, 2), Q2, 10))
    assert a.components == b.components
    assert a.regions == b.regions


def test_scan_finite_constituent_count():
    for L in (-1, -3):
        eps = 1
        scan = scan_lattice(RepSpec(3, 3, eps, E(L), Q2, 10))
        expected = {(m, sg - m) for sg in range(eps, -L + 1, 2)
                    for m in range(sg + 1)}
        assert frozenset(expected) in scan.components


def test_cross_check_grid_small():
    for r, s in itertools.product((3, 4), repeat=2):
        for eps in (0, 1):
            for L in range(-4, r + s + 3):
                cc = cross_check(r, s, eps, E(L), cutoff=12)
                assert cc.agree, (r, s, eps, L)


def test_scan_requires_exact():
    from soqrs import InexactSpectralError

    spec = RepSpec(3, 3, 0, SpectralParam.inexact(0.5), Q2, 6)
    with pytest.raises(InexactSpectralError):
        scan_lattice(spec)


def _lattice_params(r, s):
    """Integer, quarter, period-shifted, strange and im_y != 0 parameters."""
    lams = [E(L) for L in range(-4, r + s + 3)]
    lams += [E(Fraction(k, 4)) for k in (-7, -2, 1, 6, 4 * (r + s) - 11)]
    lams += [E(L, t) for L in (-2, 1, r + s - 2) for t in (2, 4, -2)]
    lams += [E(L, 1) for L in (-2, 0, 2)] + [E(Fraction(1, 2), 1)]
    lams += [E(L, 0, Fraction(1, 3)) for L in (-2, 0, 2)] + [E(0, 2, 1)]
    return lams


def test_scan_matches_per_block_reference():
    for r, s in itertools.product((3, 4, 5), repeat=2):
        for eps in (0, 1):
            for lam in _lattice_params(r, s):
                top = max(6, _sufficient_cutoff(r, s, lam) + 2)
                for cutoff in range(eps, top + 1, 1 if lam.is_integer else 3):
                    scan = scan_lattice(RepSpec(r, s, eps, lam, Q2, cutoff))
                    blocks, components, regions = oracles.scan_reference(
                        r, s, eps, lam, cutoff)
                    what = (r, s, eps, lam, cutoff)
                    assert scan.blocks == blocks, what
                    assert scan.components == components, what
                    assert scan.regions == regions, what


def test_scan_matches_per_block_reference_on_wide_windows():
    """Far walls, up to 400 blocks."""
    for r, s, eps, lam in ((4, 4, 0, E(-14)), (3, 5, 1, E(-13)), (4, 5, 1, E(25)),
                           (5, 3, 0, E(-12, 2)), (4, 4, 1, E(Fraction(1, 2)))):
        cutoff = 38 + eps
        scan = scan_lattice(RepSpec(r, s, eps, lam, Q2, cutoff))
        assert ((scan.blocks, scan.components, scan.regions)
                == oracles.scan_reference(r, s, eps, lam, cutoff)), (r, s, eps, lam)


def test_strong_components_are_the_mutually_reachable_blocks():
    """The cells of the cuts partition the blocks as mutual reachability does."""
    for r, s in itertools.product(range(3, 7), repeat=2):
        for eps in (0, 1):
            for lam in _lattice_params(r, s):
                for window in (eps, 12, _scan_window(r, s, lam), 38 + eps):
                    m, _, src, dst, dead, count, labels = _strong_components(
                        RepSpec(r, s, eps, lam, Q2, window))
                    parts = {frozenset(np.flatnonzero(labels == c).tolist())
                             for c in range(count)}
                    edges = zip(src[~dead].tolist(), dst[~dead].tolist())
                    assert parts == oracles.strong_partition(m.size, edges), \
                        (r, s, eps, lam, window)


def test_steps_across_one_level_in_one_direction_share_one_shift():
    """What the cells rest on: each gap between levels is live or cut whole, per direction."""
    for r, s in itertools.product(range(3, 9), repeat=2):
        for eps in (0, 1):
            for window in range(eps, 25, 2):
                m, mp, src, dst, shift = _step_table(r, s, eps, window)
                sigma, d = m + mp, m - mp
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
                window = max(12, _sufficient_cutoff(r, s, lam))
                scan = scan_lattice(RepSpec(r, s, eps, lam, Q2, window))
                assert (cross_check(r, s, eps, lam, cutoff=12).n_regions
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
                window = _scan_window(r, s, cl.lam)
                for c in cl.constituents:
                    steps = _live_steps(r, s, eps, cl.lam, window)
                    assert (_region_is_closed(c.region, *steps)
                            == oracles.region_is_closed(c.region, r, s, eps, cl.lam,
                                                        window)), (r, s, eps, lam, c)
    # every region with bounds from {-2, 1, 4}, on a window the walls cross
    regions = _all_regions((-2, 1, 4))
    for r, s in ((3, 4), (4, 4)):
        for eps in (0, 1):
            for lam in [E(L) for L in (-2, 0, 1, 2, 3, 5, 7)] + [E(Fraction(1, 2)), E(2, 1)]:
                steps = _live_steps(r, s, eps, lam, 9)
                for region in regions:
                    assert (_region_is_closed(region, *steps)
                            == oracles.region_is_closed(region, r, s, eps, lam, 9)), \
                        (r, s, eps, lam, region)


def test_closure_on_the_scan_window_matches_the_reference_window():
    """Each realized_on flag equals closure on the window reaching far past every wall."""
    for r, s in itertools.product(range(3, 9), repeat=2):
        for eps in (0, 1):
            lams = [E(Fraction(k, 2)) for k in range(-60, 61)] + _lattice_params(r, s)
            # grouped by reference window, so each window's table is built once
            for lam in sorted(lams, key=lambda lam: oracles.closure_window(r, s, lam)):
                cl = predict_constituents(r, s, eps, lam)
                steps = _live_steps(r, s, eps, cl.lam, oracles.closure_window(r, s, cl.lam))
                for c in cl.constituents:
                    assert ((c.realized_on != QUOTIENT)
                            == _region_is_closed(c.region, *steps)), (r, s, eps, lam, c)


def test_step_table_warm_results_equal_cold_ones():
    """Interleaved keys: a result read from the cached table equals one from a fresh table."""
    calls = []
    for r, s, eps in ((4, 4, 0), (3, 5, 1), (4, 4, 1), (5, 4, 0)):
        for lam in (E(-3), E(2), E(Fraction(1, 2)), E(-20), E(2, 2), E(r + s + 1)):
            calls += [lambda r=r, s=s, eps=eps, lam=lam: predict_constituents(r, s, eps, lam),
                      lambda r=r, s=s, eps=eps, lam=lam: cross_check(r, s, eps, lam),
                      lambda r=r, s=s, eps=eps, lam=lam: scan_lattice(
                          RepSpec(r, s, eps, lam, Q2, 9))]
    _step_table.cache_clear()
    cold = []
    for call in calls:
        _step_table.cache_clear()
        cold.append(repr(call()))
    # twice through, in a different order each time, with the cache kept
    for order in (calls, calls[::-1]):
        warm = [repr(call()) for call in order]
        assert warm == (cold if order is calls else cold[::-1])
        assert _step_table.cache_info().currsize <= 1
    assert _step_table.cache_info().hits > 0


def test_step_table_is_read_only():
    for a in _step_table(4, 4, 0, 12):
        with pytest.raises(ValueError):
            a[0] = 7
    assert _step_table.cache_info().currsize == 1


def test_large_lambda_prediction_memory():
    """predict_constituents at lambda = -1000 stays under 150 MB of traced allocation."""
    _step_table.cache_clear()
    tracemalloc.start()
    try:
        cl = predict_constituents(4, 4, 0, E(-1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _step_table.cache_clear()
    assert [c.realized_on for c in cl.constituents] == [SUBSPACE, QUOTIENT, QUOTIENT,
                                                        QUOTIENT]
    assert peak < 150e6, peak


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
            walls = _walls(r, s, E(L))
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

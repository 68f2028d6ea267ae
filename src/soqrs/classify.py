"""Exact classification: irreducibility, *-series, and constituent structure.

Everything here is decided exactly on an exact spectral parameter.  The
four transition brackets of the noncompact generator vanish on at most one
ring sigma = m+m' or one diagonal d = m-m' each; those cuts determine
reducibility, the invariant subspaces, and the irreducible constituents.
The builder's two decisions are what is decided on: the steps between
blocks are gtbasis.lattice_steps, and the bracket of each step is
[lambda + c] with c from degenrep.bracket_shifts.  A step is cut exactly
where c == -L, with L = qarith.vanishing_point(lambda) found once per
lambda in rational arithmetic, which puts each family's cuts on one wall
(_walls, which the tests tie to bracket_shifts).  Everything is decided
on the walls alone, in integer arithmetic and in time independent of
|lambda| and of the window; blocks are listed only on request, by
Region.blocks.

Two independent routes are provided and cross-checked:

* closed-form case analysis (classify_irreducible, classify_star and
  the case tables _even_even_cases, _even_odd_cases and _odd_odd_cases,
  read by predict_constituents), which transcribes the reducibility
  criterion and the constituent tables case by case, with the mirror
  equivalence lambda -> r+s-2-lambda filling the ranges the tables do
  not state directly;

* a lattice scanner (scan_lattice) on the walls: _cuts turns the walls
  and a window's extent into the cut gaps between rings and diagonals,
  _cells lists the non-empty cells between them (the strongly connected
  components of the graph of live steps), and the cells form a DAG with
  an edge across each bound a cell leaks over (_leaks), whose forward
  closures are the invariant subspaces.

What they share is the region vocabulary (Region) and the step rule,
stated once in _has_step, which _cuts and _leaks both ask:
predict_constituents takes its regions from the tables and asks
_region_is_closed, which is _leaks finding no bound, whether each is a
subspace; the scanner asks _leaks for its cells' edges.  cross_check
compares the closed-form verdict with the number of cells.
predict_constituents and cross_check decide on the window of _window,
which shows every wall and is worked out from the walls alone.

The supplementary-series parity for r == s (mod 2): the stated rule ties
epsilon to the parity of (r+s)/2, but solving the positivity recurrences
for the invariant metric gives epsilon == (s-r)/2 (mod 2).  The two agree
for even r, s and differ for odd r, s; the computed rule is implemented
(see the decisions ledger).

The odd/odd irreducibility bound: the stated criterion calls integer
lambda of parity epsilon irreducible only for 0 < lambda < (r+s)/2 - 2,
which is not invariant under the mirror lambda -> r+s-2-lambda (for
so'(3,5), epsilon = 1, it calls lambda = 1 irreducible and its mirror
lambda = 5 reducible).  The whole open strip 0 < lambda < r+s-2 is taken
as irreducible instead: the scanner finds a single strong component at
every strip point, solve_metric finds a positive metric at the centre
lambda = (r+s-2)/2 (the principal series), and solve_intertwiner links
every strip point to its mirror.  Every reducible lambda then reduces to
a canonical L <= (r+s-2)/2, which the decomposition tables cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .degenrep import RepSpec
from .gtbasis import FAMILIES, block_arrays
from .qarith import (
    EQUIVALENT_FLIP,
    SpectralParam,
    normalize_spectral,
    vanishing_point,
)

PRINCIPAL = "principal"
STRANGE = "strange"
SUPPLEMENTARY = "supplementary"
DISCRETE_CONSTITUENT = "discrete_constituent"
NO_SERIES = "none"

SUBSPACE = "subspace"
QUOTIENT = "quotient"
DIRECT_SUMMAND = "direct_summand"


@dataclass(frozen=True)
class Region:
    """Conjunction of bounds on sigma = m+m' and d = m-m' over the block lattice."""

    sigma_min: int | None = None
    sigma_max: int | None = None
    d_min: int | None = None
    d_max: int | None = None

    def contains(self, m, mp):
        """Whether block (m, m') lies in the region, elementwise on int arrays."""
        sigma, d = m + mp, m - mp
        inside = np.ones(np.shape(sigma), dtype=bool)
        for lo, hi, x in ((self.sigma_min, self.sigma_max, sigma),
                          (self.d_min, self.d_max, d)):
            if lo is not None:
                inside &= x >= lo
            if hi is not None:
                inside &= x <= hi
        return inside

    def blocks(self, epsilon: int, cutoff: int) -> frozenset:
        m, mp = block_arrays(epsilon, cutoff)
        inside = self.contains(m, mp)
        return frozenset(zip(m[inside].tolist(), mp[inside].tolist()))

    def swapped(self) -> "Region":
        """The same region with the roles of m and m' exchanged."""
        neg = lambda x: None if x is None else -x
        return Region(self.sigma_min, self.sigma_max, neg(self.d_max), neg(self.d_min))

    def describe(self) -> str:
        parts = []
        if self.sigma_max is not None:
            parts.append(f"m+m' <= {self.sigma_max}")
        if self.sigma_min is not None:
            parts.append(f"m+m' >= {self.sigma_min}")
        if self.d_min is not None:
            parts.append(f"m-m' >= {self.d_min}")
        if self.d_max is not None:
            parts.append(f"m-m' <= {self.d_max}")
        return " and ".join(parts) if parts else "all (m, m')"

    def to_dict(self) -> dict:
        return {
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "text": self.describe(),
        }


@dataclass
class Constituent:
    name: str
    region: Region
    realized_on: str
    star: bool
    finite_dim: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "region": self.region.to_dict(),
            "realized_on": self.realized_on,
            "star": self.star,
            "finite_dim": self.finite_dim,
        }


@dataclass
class Classification:
    r: int
    s: int
    epsilon: int
    lam: SpectralParam
    irreducible: bool
    star_series: str
    constituents: list[Constituent]
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "epsilon": self.epsilon,
            "lambda": repr(self.lam),
            "irreducible": self.irreducible,
            "star_series": self.star_series,
            "constituents": [c.to_dict() for c in self.constituents],
            "notes": list(self.notes),
            "walls": _wall_dict(self.r, self.s, self.lam),
        }


def _validate(r: int, s: int, epsilon: int) -> None:
    if r <= 2 or s <= 2:
        raise ValueError(f"ranks must exceed 2, got r={r}, s={s}")
    if epsilon not in (0, 1):
        raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")


def classify_irreducible(r: int, s: int, epsilon: int, lam: SpectralParam) -> bool:
    """Closed-form irreducibility of T_{eps,lambda}.

    Both ranks even: reducible exactly for integer lambda of parity
    epsilon.  Mixed parity: reducible exactly for integer lambda.  Both
    ranks odd: irreducible for non-integer lambda, and for integer lambda
    of parity epsilon on the open strip 0 < lambda < r+s-2 (a departure
    from the stated bound, recorded in the module docstring).
    """
    _validate(r, s, epsilon)
    nlam, _ = normalize_spectral(lam)
    if not nlam.is_integer:
        return True
    L = int(nlam.re)
    matches_eps = (L - epsilon) % 2 == 0
    if r % 2 == 0 and s % 2 == 0:
        return not matches_eps
    if r % 2 != s % 2:
        return False
    # both odd
    return matches_eps and 0 < L < r + s - 2


def classify_star(r: int, s: int, epsilon: int, lam: SpectralParam) -> str:
    """Which *-series an irreducible T_{eps,lambda} belongs to.

    principal: Re lambda = (r+s-2)/2; strange: Im lambda = pi/h; and the
    real supplementary window ((r+s)/2 - 1, (r+s)/2) for equal rank
    parity with epsilon == (s-r)/2 (mod 2), or ((r+s)/2 - 1, (r+s-1)/2)
    for mixed parity with either epsilon.  The mirror equivalence
    lambda <-> r+s-2-lambda is applied before windowing.
    """
    _validate(r, s, epsilon)
    if not classify_irreducible(r, s, epsilon, lam):
        raise ValueError(
            "star-series tags apply to irreducible parameters; reducible "
            "parameters carry stars on their constituents"
        )
    nlam, _ = normalize_spectral(lam)
    if 2 * nlam.re == r + s - 2:
        return PRINCIPAL
    if nlam.im_t == 1 and nlam.im_y == 0:
        return STRANGE
    if nlam.im_t == 0 and nlam.im_y == 0:
        half = Fraction(r + s, 2)
        mu = max(nlam.re, r + s - 2 - nlam.re)
        if r % 2 == s % 2:
            if half - 1 < mu < half and epsilon == ((s - r) // 2) % 2:
                return SUPPLEMENTARY
        else:
            if half - 1 < mu < Fraction(r + s - 1, 2):
                return SUPPLEMENTARY
    return NO_SERIES


# ---------------------------------------------------------------------------
# block-lattice scanner


# Report names of the gtbasis.FAMILIES steps, in that order.
_FAMILY_NAMES = ("ring_up", "diag_m_up", "diag_mp_up", "ring_down")


def _walls(r: int, s: int, L: int | None) -> tuple:
    """Wall of each family in FAMILIES order, None where its bracket never vanishes.

    The wall is the one ring sigma = m+m' (ring_up, ring_down) or diagonal
    d = m-m' (the diag families) on which the family's
    degenrep.bracket_shifts entry equals -L, for the L of
    qarith.vanishing_point.
    """
    if L is None:
        return (None,) * 4
    return (-L, s - 2 - L, L - r + 2, L - r - s + 4)


def _wall_dict(r: int, s: int, lam: SpectralParam) -> dict:
    """The ring sigma or diagonal d each transition family is severed on, or None."""
    return dict(zip(_FAMILY_NAMES, _walls(r, s, vanishing_point(lam))))


def _window(r: int, s: int, L: int | None) -> int:
    """The window predict_constituents and cross_check decide on, worked out from the walls.

    It shows every wall, and every wall of the mirror (see
    _region_is_closed): it lies 2 past each ring wall and 4 past each
    diagonal wall, in magnitude, so it holds each wall's step and blocks on
    both of its sides, and a wider window changes no count and no closure.
    With no wall it is 1, since a window of 0 holds no block of odd epsilon.
    """
    if L is None:
        return 1
    up, m_up, mp_up, down = _walls(r, s, L)
    return max(abs(up), abs(down), abs(m_up) + 2, abs(mp_up) + 2) + 2


def _floor(x: int, epsilon: int) -> int:
    """The largest level <= x of parity epsilon: every block's sigma and d have it."""
    return x - (x - epsilon) % 2


def _holds_block(epsilon: int, sigma_lo: int, sigma_hi: int, d_lo: int, d_hi: int,
                 m_min: int = 0, mp_min: int = 0) -> bool:
    """Whether a block has sigma and d in the closed bounds, m >= m_min and m' >= mp_min.

    The block's sigma and d share the parity of epsilon, and m = (sigma+d)/2,
    m' = (sigma-d)/2.  The diagonals allowed on a ring widen as sigma grows,
    so the top ring in the bounds decides.
    """
    top = _floor(sigma_hi, epsilon)
    d_lo = max(-_floor(-d_lo, epsilon), 2 * m_min - top)
    d_hi = min(_floor(d_hi, epsilon), top - 2 * mp_min)
    return sigma_lo <= top and d_lo <= d_hi


# Per FAMILIES step: the level it moves (0: the ring sigma, 1: the diagonal
# d), the change of that level, and the Region bound it leaves a region across.
_MOVES = ((0, 2, "sigma_max"), (1, 2, "d_max"), (1, -2, "d_min"), (0, -2, "sigma_min"))


def _has_step(family: int, epsilon: int, window: int, box: tuple, level: int) -> bool:
    """Whether a block of the window in box, on the level the family moves, has its step.

    box is (sigma_lo, sigma_hi, d_lo, d_hi), closed bounds, and the level a
    ring sigma or a diagonal d.  The one step rule: a step (dm, dm') of
    FAMILIES exists where it keeps m, m' >= 0 and its target ring in the
    window.  So ring_up needs its target ring inside the window, ring_down
    m, m' >= 1, diag_m_up m' >= 1 and diag_mp_up m >= 1.
    """
    dm, dmp = FAMILIES[family]
    sigma_lo, sigma_hi, d_lo, d_hi = box
    sigma_hi = min(sigma_hi, window - max(dm + dmp, 0))
    if _MOVES[family][0]:
        inside, d_lo, d_hi = d_lo <= level <= d_hi, level, level
    else:
        inside, sigma_lo, sigma_hi = sigma_lo <= level <= sigma_hi, level, level
    return inside and _holds_block(epsilon, sigma_lo, sigma_hi, d_lo, d_hi, dm < 0, dmp < 0)


def _cuts(r: int, s: int, epsilon: int, L: int | None, window: int) -> tuple:
    """(ring_cuts, diag_cuts): the gaps lambda cuts in the lattice below the window.

    A gap is named by the level below it: ring cut c separates the rings
    sigma <= c from sigma > c, diagonal cut c the diagonals d <= c from
    d > c.  A family cuts the gap its step crosses from its wall (see
    _walls) where a block of the window on that wall has the step
    (_has_step): above the wall for ring_up and diag_m_up, below it for
    ring_down and diag_mp_up.  Each is one ring or one diagonal, so the
    cuts are exactly the gaps crossed by the steps of the window that
    lambda cuts.
    """
    cuts = (set(), set())
    if L is not None:
        for family, wall in enumerate(_walls(r, s, L)):
            axis, move, _ = _MOVES[family]
            if _has_step(family, epsilon, window, (0, window, -window, window), wall):
                cuts[axis].add(min(wall, wall + move))
    return tuple(sorted(cuts[0])), tuple(sorted(cuts[1]))


def _gaps(cuts: tuple, lo, hi) -> list:
    """(first, last) level of each run between the cuts, the outer runs from lo and to hi."""
    return list(zip((lo, *[c + 2 for c in cuts]), (*cuts, hi)))


def _cells(epsilon: int, window: int, ring_cuts: tuple, diag_cuts: tuple) -> list:
    """(i, j) of each cell between the cuts that holds a block of the window, in cell order.

    Cell (i, j), one of at most 3 x 3, holds the blocks with i ring cuts
    below their sigma and j diagonal cuts below their d.
    """
    d_gaps = list(enumerate(_gaps(diag_cuts, -window, window)))
    return [(i, j) for i, (s_lo, s_hi) in enumerate(_gaps(ring_cuts, 0, window))
            for j, (d_lo, d_hi) in d_gaps if _holds_block(epsilon, s_lo, s_hi, d_lo, d_hi)]


def _leaks(region: Region, r: int, s: int, epsilon: int, L: int | None, window: int):
    """The bounds of the region that a live step of the window leaves it across, by name.

    A ring step changes only sigma and a diagonal step only d, so a step
    that leaves the region crosses one bound, and each bound is crossed
    outwards by one family only (_MOVES): ring_up across sigma_max,
    ring_down across sigma_min, diag_m_up across d_max and diag_mp_up
    across d_min.  The steps of that family that cross the bound leave
    from the ring or diagonal of the region next to it, and whether they
    are live depends only on that level: they are cut exactly when it is
    the family's wall (_walls).  So the region leaks across a bound exactly
    when that level is not the family's wall and holds a block of the
    region, inside the window, that has the step (_has_step).
    """
    box = (0 if region.sigma_min is None else region.sigma_min,
           window if region.sigma_max is None else min(region.sigma_max, window),
           -window if region.d_min is None else region.d_min,
           window if region.d_max is None else region.d_max)
    for family, wall in enumerate(_walls(r, s, L)):
        _, move, name = _MOVES[family]
        bound = getattr(region, name)
        if bound is not None:
            level = _floor(bound, epsilon) if move > 0 else -_floor(-bound, epsilon)
            if level != wall and _has_step(family, epsilon, window, box, level):
                yield name


# The cell a step across each bound lands in, as a move in (i, j) of _cells:
# a ring step keeps d and a diagonal step keeps sigma.
_ACROSS = {"sigma_max": (1, 0), "sigma_min": (-1, 0), "d_max": (0, 1), "d_min": (0, -1)}


@dataclass(frozen=True)
class ScanResult:
    """Strong components and invariant regions of the transition graph of a window.

    The window holds the blocks with m+m' <= cutoff.  components are the
    cells of _cells in cell order; regions[k] is the forward closure of
    components[k], the components it unites in cell order.  A component's
    blocks are component.blocks(epsilon, cutoff).
    """

    epsilon: int
    cutoff: int
    components: tuple[Region, ...]
    regions: tuple[tuple[Region, ...], ...]


def scan_lattice(spec: RepSpec) -> ScanResult:
    """Severed-edge scan of the block lattice, exact in lambda.

    Takes the directed graph of blocks within the cutoff with an edge per
    non-vanishing transition, and returns its strongly connected
    components, the non-empty cells between the cut rings and diagonals,
    together with all principal forward-closed block sets (the candidate
    invariant subspaces), the closures of the components through the live
    steps between them.  Irreducible parameters give a single component
    whose closure is the whole lattice.  Decided on the walls alone, in
    time independent of |lambda| and of the cutoff:

    * the steps that cross one gap in one direction are all live or all
      dead: degenrep.bracket_shifts makes a ring step's shift depend only
      on its family and source sigma, and a diagonal step's only on its
      family and source d, and only ring steps change sigma and only
      diagonal steps change d;
    * so a closed path crosses no cut, and blocks of different cells lie
      in different components, while steps up in sigma to a cell's top
      ring, then along that ring, join any two of its blocks, both ways;
    * the components form a DAG with an edge from a cell across each bound
      it leaks over (_leaks) into the neighbour on that side (_ACROSS),
      and a region is the set of cells one cell reaches in it.
    """
    r, s, epsilon, window = spec.r, spec.s, spec.epsilon, spec.cutoff
    L = vanishing_point(spec.lam)
    ring_cuts, diag_cuts = _cuts(r, s, epsilon, L, window)
    # a cell's Region leaves open the sides past the outer cuts
    s_gaps, d_gaps = _gaps(ring_cuts, None, None), _gaps(diag_cuts, None, None)
    cells = {(i, j): Region(*s_gaps[i], *d_gaps[j])
             for i, j in _cells(epsilon, window, ring_cuts, diag_cuts)}
    succ = {(i, j): [(i + di, j + dj)
                     for di, dj in map(_ACROSS.get, _leaks(cell, r, s, epsilon, L, window))]
            for (i, j), cell in cells.items()}

    def closure(start: tuple) -> tuple:
        seen, stack = {start}, [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return tuple(cell for ij, cell in cells.items() if ij in seen)

    return ScanResult(epsilon, window, tuple(cells.values()), tuple(map(closure, cells)))


# ---------------------------------------------------------------------------
# constituent prediction


def _region_is_closed(region: Region, r: int, s: int, epsilon: int,
                      L: int | None, window: int) -> bool:
    """Whether no live step of the window leaves the region: it leaks across no bound.

    predict_constituents asks on the _window of L, which decides closure
    as the whole lattice would: every bound of a constituent region is a
    wall of L or of its mirror r+s-2-L, or such a wall +-2 (each mirror
    wall is a wall of L shifted by 2), and _window lies at least 4 past
    every positive ring wall (at most one ring wall is positive, and the
    other's magnitude is then at least 2 larger) and past the magnitude of
    every diagonal wall, so the window holds a step across each bound.
    Steps that leave the window upward keep d and therefore cannot witness
    a leak of a sigma-unbounded region.
    """
    return next(_leaks(region, r, s, epsilon, L, window), None) is None


def _full_constituent(series: str) -> Constituent:
    return Constituent("full", Region(), SUBSPACE, star=series != NO_SERIES)


def _wedge_cases(r, s, L, sigma_min=None):
    """T^0 between the wedges T^- and T^+ for L <= (r+s)/2 - 2; the wedges alone one past.

    Even/even and odd/odd ranks share these; T^0 keeps m+m' >= sigma_min
    when T^F lies below it.
    """
    half = (r + s) // 2
    star_l0 = (r + s - 4) // 2
    if L <= half - 2:
        return [
            ("T^0", Region(sigma_min=sigma_min, d_min=L - r + 2, d_max=-L + s - 2),
             L == star_l0, False),
            ("T^-", Region(d_min=-L + s), True, False),
            ("T^+", Region(d_max=L - r), True, False),
        ]
    # L == half - 1, the centre of the mirror
    return [
        ("T^-", Region(d_min=L - r + 2), True, False),
        ("T^+", Region(d_max=-L + s - 2), True, False),
    ]


def _even_even_cases(r, s, eps, L):
    """Constituents for even r, even s, integer L == eps (mod 2), L <= (r+s-2)/2."""
    if L <= 0:
        return [("T^F", Region(sigma_max=-L), False, True),
                *_wedge_cases(r, s, L, sigma_min=-L + 2)], None
    return _wedge_cases(r, s, L), "ladder" if L == (r + s) // 2 - 2 else None


def _even_odd_cases(r, s, eps, L):
    """Constituents for even r, odd s, integer L <= (r+s-2)/2.

    Every integer lambda is reducible.
    """
    if (L - eps) % 2 == 0:
        if L <= 0:
            return [
                ("T^F", Region(sigma_max=-L), False, True),
                ("T^1", Region(sigma_min=-L + 2, d_min=L - r + 2), False, False),
                ("T^+", Region(d_max=L - r), True, False),
            ], None
        return [
            ("T^1", Region(d_min=L - r + 2), False, False),
            ("T^+", Region(d_max=L - r), True, False),
        ], None
    return [
        ("T^2", Region(d_max=s - 2 - L), False, False),
        ("T^-", Region(d_min=s - L), True, False),
    ], None


def _odd_odd_cases(r, s, eps, L):
    """Constituents for odd r, odd s, reducible integer L <= (r+s-2)/2.

    L of parity epsilon is reducible only for L <= 0: the open strip
    0 < L < r+s-2 is irreducible.
    """
    if (L - eps) % 2 == 0:
        return [
            ("T^F", Region(sigma_max=-L), False, True),
            ("T^3", Region(sigma_min=-L + 2), False, False),
        ], None
    return _wedge_cases(r, s, L), None


_SWAP_NAMES = {"T^+": "T^-", "T^-": "T^+", "T^1": "T^2", "T^2": "T^1"}


def predict_constituents(r: int, s: int, epsilon: int,
                         lam: SpectralParam) -> Classification:
    """Full classification: verdict, *-series, constituents with predicates.

    Irreducible parameters yield the single full constituent.  Reducible
    parameters are matched against the decomposition tables from the
    canonical side L <= (r+s-2)/2 of the mirror equivalence
    lambda -> r+s-2-lambda; constituent regions are mirror-invariant, while
    subspace/quotient realization is recomputed from edge directions.
    """
    _validate(r, s, epsilon)
    nlam, flip = normalize_spectral(lam)
    notes = []
    if flip == EQUIVALENT_FLIP:
        notes.append("period reduction used an odd half-period (sign flip)")

    if classify_irreducible(r, s, epsilon, nlam):
        series = classify_star(r, s, epsilon, nlam)
        return Classification(r, s, epsilon, nlam, True, series,
                              [_full_constituent(series)], notes)

    assert nlam.is_integer, "reducible parameters are integral after reduction"
    L = int(nlam.re)

    swap = r % 2 == 1 and s % 2 == 0
    rr, ss = (s, r) if swap else (r, s)
    if rr % 2 == 0 and ss % 2 == 0:
        case_fn = _even_even_cases
    elif rr % 2 == 0:
        case_fn = _even_odd_cases
    else:
        case_fn = _odd_odd_cases

    # classify from the canonical mirror side so that lambda and
    # r+s-2-lambda get identical constituent names and regions; which
    # regions are invariant in *this* representation is recomputed below
    Lc = min(L, rr + ss - 2 - L)
    if Lc != L:
        notes.append(f"mirrored: structure taken from lambda' = {Lc}")
    spec, extra = case_fn(rr, ss, epsilon, Lc)
    if extra == "ladder":
        notes.append("ladder constituent: support on a single diagonal")
    if rr % 2 == 0 and ss % 2 == 1:
        notes.append("both wedge constituents flagged as discrete series "
                     "(star list ambiguity recorded)")

    constituents = []
    for name, region, star, finite in spec:
        if swap:
            name = _SWAP_NAMES.get(name, name)
            region = region.swapped()
        constituents.append(Constituent(name, region, QUOTIENT, star, finite))

    window = _window(r, s, L)
    closed_flags = [_region_is_closed(c.region, r, s, epsilon, L, window)
                    for c in constituents]
    if len(constituents) == 2 and all(closed_flags):
        for c in constituents:
            c.realized_on = DIRECT_SUMMAND
        notes.append("direct sum of two constituents")
    else:
        for c, closed in zip(constituents, closed_flags):
            c.realized_on = SUBSPACE if closed else QUOTIENT

    star_series = (
        DISCRETE_CONSTITUENT if any(c.star for c in constituents) else NO_SERIES
    )
    return Classification(r, s, epsilon, nlam, False, star_series,
                          constituents, notes)


@dataclass
class CrossCheck:
    r: int
    s: int
    epsilon: int
    lam: SpectralParam
    irreducible_closed_form: bool
    n_regions: int

    @property
    def agree(self) -> bool:
        return self.irreducible_closed_form == (self.n_regions <= 1)

    def to_dict(self) -> dict:
        return {
            "r": self.r, "s": self.s, "epsilon": self.epsilon,
            "lambda": repr(self.lam),
            "irreducible_closed_form": self.irreducible_closed_form,
            "scanner_components": self.n_regions,
            "agree": self.agree,
            "walls": _wall_dict(self.r, self.s, self.lam),
        }


def cross_check(r: int, s: int, epsilon: int, lam: SpectralParam) -> CrossCheck:
    """Compare the closed-form verdict with the scanner's component count.

    The components are the non-empty cells between the cuts of _cuts (see
    _cells and scan_lattice) on the _window of lambda, so no wall lies
    outside the window to masquerade as irreducibility; they are counted
    without building the window's blocks.
    """
    _validate(r, s, epsilon)
    irr = classify_irreducible(r, s, epsilon, lam)
    L = vanishing_point(lam)
    window = _window(r, s, L)
    cuts = _cuts(r, s, epsilon, L, window)
    return CrossCheck(r, s, epsilon, lam, irr, len(_cells(epsilon, window, *cuts)))

"""Exact classification: irreducibility, *-series, and constituent structure.

Everything here is decided exactly on an exact spectral parameter.  The
four transition brackets of the noncompact generator vanish on at most one
ring sigma = m+m' or one diagonal d = m-m' each; those cuts determine
reducibility, the invariant subspaces, and the irreducible constituents.
The builder's two decisions are read here, not restated: the steps
between blocks are gtbasis.lattice_steps, and the bracket of each step is
[lambda + c] with c from degenrep.bracket_shifts.  A step is cut exactly
where c == -L, with L = qarith.vanishing_point(lambda) found once per
lambda in rational arithmetic, so every lattice edge is an integer array
test.  Only that cut depends on lambda: _step_table keeps the blocks, the
steps and the shift of every step of one window (one entry, keyed on
(r, s, epsilon, window), as degenrep.frame keeps a frame).
predict_constituents checks region closure and cross_check counts
components on one window, that of _scan_window: the larger of 12 and the
smallest window that shows every wall.  Both calls on one lambda, and
every further lambda of the same (r, s, epsilon) with the same window,
read one table.

Two independent routes are provided and cross-checked:

* closed-form case analysis (classify_irreducible, predict_constituents),
  which transcribes the reducibility criterion and the constituent tables
  case by case, with the mirror equivalence lambda -> r+s-2-lambda filling
  the ranges the tables do not state directly;

* a lattice scanner (scan_lattice) that builds the directed block graph
  with an edge for every non-vanishing transition and reports its strongly
  connected components (the constituent regions: the cells between the
  rings and diagonals that a vanishing transition cuts, see
  _strong_components) and forward-closed sets (the invariant subspaces).

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

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .degenrep import RepSpec, bracket_shifts
from .gtbasis import block_arrays, lattice_steps
from .qarith import (
    EQUIVALENT_FLIP,
    QParam,
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
    lam.require_exact("irreducibility classification")
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
    lam.require_exact("star-series classification")
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


def _walls(r: int, s: int, lam: SpectralParam) -> tuple:
    """Wall of each family in FAMILIES order, None where its bracket never vanishes.

    The wall is the one ring sigma = m+m' (ring_up, ring_down) or diagonal
    d = m-m' (the diag families) on which the family's
    degenrep.bracket_shifts entry equals -L, for the L of
    qarith.vanishing_point.
    """
    L = vanishing_point(lam)
    if L is None:
        return (None,) * 4
    return (-L, s - 2 - L, L - r + 2, L - r - s + 4)


def _wall_dict(r: int, s: int, lam: SpectralParam) -> dict:
    """The ring sigma or diagonal d each transition family is severed on, or None."""
    return dict(zip(_FAMILY_NAMES, _walls(r, s, lam)))


@functools.lru_cache(maxsize=1)
def _step_table(r: int, s: int, epsilon: int, window: int) -> tuple:
    """(m, m', source, target, shift): the lambda-independent steps of a window.

    The blocks of gtbasis.block_arrays, the steps of gtbasis.lattice_steps
    and, per step, the c of its degenrep.bracket_shifts entry.  One table
    is cached, keyed on (r, s, epsilon, window), so every lambda scanned on
    the same window reads it; its arrays are read-only.
    """
    m, mp = block_arrays(epsilon, window)
    src, family, dst = lattice_steps(epsilon, window)
    sigma, d = m[src] + mp[src], m[src] - mp[src]
    shift = np.choose(family, bracket_shifts(r, s, sigma, d))
    for a in (m, mp, src, dst, shift):
        a.flags.writeable = False
    return m, mp, src, dst, shift


def _live_steps(r: int, s: int, epsilon: int, lam: SpectralParam, cutoff: int):
    """(m, m', source, target): the blocks below the cutoff and the steps lambda keeps.

    A step of _step_table is cut exactly where its shift equals -L for the
    L of qarith.vanishing_point.
    """
    m, mp, src, dst, shift = _step_table(r, s, epsilon, cutoff)
    L = vanishing_point(lam)
    if L is not None:
        live = shift != -L
        src, dst = src[live], dst[live]
    return m, mp, src, dst


def _strong_components(spec: RepSpec):
    """(m, m', source, target, dead, count, labels) of the scan of spec's window.

    The blocks and steps of the window, the mask of the steps lambda
    cuts, the number of strongly connected components of the graph of the
    other (live) steps and each block's component label, read off the
    cuts without a graph search.  A step of _step_table is dead where its
    shift equals -L.  A dead step that changes sigma cuts the gap between
    its two rings, any other dead step the gap between its two diagonals,
    and a block's label is its cell: (the number of ring cuts below its
    sigma, the number of diagonal cuts below its d).  The strong
    components are the non-empty cells:

    * degenrep.bracket_shifts makes a ring step's shift depend only on
      its family and source sigma, and a diagonal step's only on its
      family and source d, and only ring steps change sigma and only
      diagonal steps change d.  So the steps that cross one gap in one
      direction are all live or all dead, and where the window holds
      blocks on both sides of a gap it holds steps across it both ways;
    * a closed path crosses each gap as often one way as the other, so it
      crosses no cut, and blocks of different cells lie in different
      components;
    * in the window a cell is the set of blocks whose sigma and d lie in
      two intervals, and steps up in sigma to its top ring, then along
      that ring, join any two of its blocks; these steps cross no cut, so
      they run both ways.
    """
    m, mp, src, dst, shift = _step_table(spec.r, spec.s, spec.epsilon, spec.cutoff)
    L = vanishing_point(spec.lam)
    dead = np.zeros(shift.shape, dtype=bool) if L is None else shift == -L
    sigma, d = m + mp, m - mp
    a, b = src[dead], dst[dead]
    ring = sigma[a] != sigma[b]
    # sets, not np.unique: a first np.unique pages in ~0.5 MB of sort code
    ring_cuts = sorted(set(np.minimum(sigma[a], sigma[b])[ring].tolist()))
    diag_cuts = sorted(set(np.minimum(d[a], d[b])[~ring].tolist()))
    cell = (np.searchsorted(ring_cuts, sigma) * (len(diag_cuts) + 1)
            + np.searchsorted(diag_cuts, d))
    # the non-empty cells, numbered in cell order
    occupied = np.bincount(cell) > 0
    labels = np.cumsum(occupied)[cell] - 1
    return m, mp, src, dst, dead, int(occupied.sum()), labels


@dataclass
class ScanResult:
    """Strong components and invariant regions of the transition graph."""

    blocks: list[tuple[int, int]]
    components: list[frozenset]
    regions: list[frozenset]


def scan_lattice(spec: RepSpec) -> ScanResult:
    """Severed-edge scan of the block lattice, exact in lambda.

    Takes the directed graph of blocks within the cutoff with an edge per
    non-vanishing transition, and returns its strongly connected
    components (the non-empty cells between the cut rings and diagonals,
    labelled by _strong_components) together with all principal
    forward-closed block sets (the candidate invariant subspaces), the
    closures of the components through the live steps between them.
    Irreducible parameters give a single component whose closure is the
    whole lattice.
    """
    spec.lam.require_exact("lattice scan")
    m, mp, src, dst, dead, n_comp, labels = _strong_components(spec)
    src, dst = src[~dead], dst[~dead]
    blocks = list(zip(m.tolist(), mp.tolist()))
    comp_blocks: list[set] = [set() for _ in range(n_comp)]
    for b, lbl in zip(blocks, labels.tolist()):
        comp_blocks[lbl].add(b)
    components = sorted(
        (frozenset(c) for c in comp_blocks), key=lambda c: sorted(c)[0]
    )

    # forward closure of each component through the condensation DAG
    comp_adj: dict[int, set[int]] = {i: set() for i in range(n_comp)}
    lsrc, ldst = labels[src], labels[dst]
    cross = lsrc != ldst
    for i, j in set(zip(lsrc[cross].tolist(), ldst[cross].tolist())):
        comp_adj[i].add(j)

    def descendants(c0: int) -> frozenset:
        seen = {c0}
        stack = [c0]
        while stack:
            for nxt in comp_adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out: set = set()
        for c in seen:
            out |= comp_blocks[c]
        return frozenset(out)

    regions = sorted(
        {descendants(c) for c in range(n_comp)}, key=lambda rg: (len(rg), sorted(rg))
    )
    return ScanResult(blocks, components, regions)


# ---------------------------------------------------------------------------
# constituent prediction


def _region_is_closed(region: Region, m: np.ndarray, mp: np.ndarray,
                      src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether no live step leaves the region.

    m, m', src, dst are the blocks and live steps of _live_steps on the
    _scan_window of lambda, which decides closure as the whole lattice
    would:

    * every bound of a constituent region is a wall of L or of its mirror
      r+s-2-L, or such a wall +-2 (each mirror wall is a wall of L
      shifted by 2);
    * a ring step changes only sigma and a diagonal step only d, and
      whether a step is live depends only on its family and on the sigma
      (ring steps) or d (diagonal steps) of its source, so if a step
      leaves the region across a bound, so does the step of that family
      from every block of the region next to that bound;
    * hence one step across each bound decides closure, and
      _sufficient_cutoff reaches one: it lies at least 4 past every
      positive ring wall (at most one ring wall is positive, and the
      other's magnitude is then at least 2 larger) and past the magnitude
      of every diagonal wall.

    Steps that leave the window upward keep d and therefore cannot
    witness a leak of a sigma-unbounded region.
    """
    inside = region.contains(m, mp)
    return not (inside[src] & ~inside[dst]).any()


def _full_constituent(series: str) -> Constituent:
    return Constituent("full", Region(), SUBSPACE, star=series != NO_SERIES)


def _even_even_cases(r, s, eps, L):
    """Constituents for even r, even s, integer L == eps (mod 2), L <= (r+s-2)/2."""
    half = (r + s) // 2
    star_l0 = (r + s - 4) // 2
    if L <= 0:
        return [
            ("T^F", Region(sigma_max=-L), False, True),
            ("T^0", Region(sigma_min=-L + 2, d_min=L - r + 2, d_max=-L + s - 2),
             L == star_l0, False),
            ("T^-", Region(d_min=-L + s), True, False),
            ("T^+", Region(d_max=L - r), True, False),
        ], None
    if L <= half - 2:
        notes = "ladder" if L == half - 2 else None
        return [
            ("T^0", Region(d_min=L - r + 2, d_max=-L + s - 2), L == star_l0, False),
            ("T^-", Region(d_min=-L + s), True, False),
            ("T^+", Region(d_max=L - r), True, False),
        ], notes
    # L == half - 1, the centre of the mirror
    return [
        ("T^-", Region(d_min=L - r + 2), True, False),
        ("T^+", Region(d_max=-L + s - 2), True, False),
    ], None


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
    half = (r + s) // 2
    star_l0 = (r + s - 4) // 2
    if (L - eps) % 2 == 0:
        return [
            ("T^F", Region(sigma_max=-L), False, True),
            ("T^3", Region(sigma_min=-L + 2), False, False),
        ], None
    if L <= half - 2:
        return [
            ("T^0", Region(d_min=L - r + 2, d_max=-L + s - 2), L == star_l0, False),
            ("T^-", Region(d_min=-L + s), True, False),
            ("T^+", Region(d_max=L - r), True, False),
        ], None
    # L == half - 1, the centre of the mirror
    return [
        ("T^-", Region(d_min=L - r + 2), True, False),
        ("T^+", Region(d_max=s - 2 - L), True, False),
    ], None


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
    lam.require_exact("constituent prediction")
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

    steps = _live_steps(r, s, epsilon, nlam, _scan_window(r, s, nlam))
    closed_flags = [_region_is_closed(c.region, *steps) for c in constituents]
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


def _sufficient_cutoff(r: int, s: int, lam: SpectralParam) -> int:
    """Smallest window making every severed wall of lambda visible.

    A severed ring or diagonal splits the truncated lattice only once
    blocks on both of its sides fit under the cutoff; beyond this bound
    the component count is truncation-independent.
    """
    up, d_up, d_down, down = _walls(r, s, lam)
    if up is None:
        return 0
    return max(abs(up), abs(down), abs(d_up) + 2, abs(d_down) + 2) + 2


def _scan_window(r: int, s: int, lam: SpectralParam, cutoff: int = 12) -> int:
    """The window cross_check and predict_constituents scan for lambda.

    At least cutoff and wide enough to show every wall; cross_check counts
    components and predict_constituents checks region closure on it, so
    both read one _step_table.
    """
    return max(cutoff, _sufficient_cutoff(r, s, lam))


def cross_check(r: int, s: int, epsilon: int, lam: SpectralParam,
                cutoff: int = 12) -> CrossCheck:
    """Compare the closed-form verdict with the scanner's component count.

    The scan window is widened beyond `cutoff` when needed so that every
    wall of the parameter is visible; otherwise a wall lying outside the
    window would masquerade as irreducibility.
    """
    irr = classify_irreducible(r, s, epsilon, lam)
    window = _scan_window(r, s, lam, cutoff)
    *_, n_regions, _ = _strong_components(
        RepSpec(r, s, epsilon, lam, QParam(2.0), window))
    return CrossCheck(r, s, epsilon, lam, irr, n_regions)

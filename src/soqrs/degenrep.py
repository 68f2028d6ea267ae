"""The degenerate principal series T_{eps,lambda} of so'_q(r,s) on a truncated basis.

A block (m, m') of the space is the tensor product of the class-1
representations of so'_q(r) with top label m and of so'_q(s) with top
label m'.  Compact generator i <= r acts on block (m, m') as
kron(G_i(m), I) and generator i >= r+2 as kron(I, G_{r+s+2-i}(m')), with
G the class-1 matrices of compactrep.  The single noncompact generator
moves the pair of top labels (m, m') by (+-1, +-1) and keeps every inner
label; on each block edge it is

    kron(E_L diag K, E_R diag L) * (sign * bracket factor),

where E embeds the chains of one top label into the next, K and L depend
only on the two leading labels of the respective chain, and the factor is
a scalar of the edge.  K is the chain factor R of the next rank,
R of so'_q(r+1) at (m, k) for the left chain (r, m, k, ...), and L is the
same of rank s: both come from compactrep._chain_factor.  In the
standard basis the four families are

    up/up      +K_m L_{m'}     [lambda + m + m']
    up/down    -K_m L_{m'-1}   [lambda + m - m' - s + 2]
    down/up    +K_{m-1} L_{m'} [lambda - m + m' - r + 2]
    down/down  -K_{m-1} L_{m'-1} [lambda - m - m' - r - s + 4]

Lower walls are exact: K_{-1} and L_{-1} vanish through a [0] factor, so
no clipping happens at m = 0 or m' = 0.  Transitions that would leave the
cutoff are dropped; the interior mask of the space marks the columns that
are unaffected by this.

Only the edge scalar depends on lambda.  Everything else is a Frame of
(r, s, eps, cutoff, q): the space, the compact generators, and the
noncompact sparsity pattern in CSC order with the K L product and the
edge of every entry, plus the family, sigma = m+m' and d = m-m' of every
edge.  Both Kronecker forms are assembled once per frame, for all blocks
at once, from one class1_arrays call and one raising pass of K (or L)
per tower, whose transpose is the lowering; every matrix, and the
pattern's order, comes from one sort of its coordinates
(compactrep._csc_order).  A build then evaluates one
sign and one bracket (or square-root pair) per edge, and
_noncompact_arrays drops the edges whose scalar is exactly 0 and forms
the noncompact data as (kl * sign) * scalar.  The rep keeps its frame,
its four family signs and its edge scalars (no per-entry array), so
verify can tell a rep that is exactly what its frame builds, by forming
the same arrays with the same function, and read the lambda-independent
rows from the frame's record.  The most recent frame is cached
(`frame`, one entry, keyed on (r, s, eps, cutoff, q)), so the primed
build of a spec, its mirror and every further lambda on the same tower
reuse it; the cache keeps that one frame alive after its representations
are dropped, and each representation keeps its own frame alive.  The
compact matrices are shared by every representation of a frame, so all
returned matrices, and the edge scalars, are read-only.

A rescaled ("primed") basis makes the noncompact generator Hermitian on
the principal line Re lambda = (r+s-2)/2.  It shares the block edges and
the K, L tables and replaces each bracket by a square-root pair; the
square-root branches are fixed by the diagonal change of basis, not by a
naive principal branch of the bracket products (the two prescriptions
differ by a sign on the lowering terms).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy

from .compactrep import (
    GeneratorMatrix,
    _chain_factor,
    _chain_keys,
    _csc_order,
    _raise,
    _Table,
    assemble,
    class1_arrays,
)
from .gtbasis import TruncatedSpace, enumerate_blocks
from .qarith import QParam, SpectralParam, vanishing_point
from .tower import FAMILIES, check_tower


class PrimedBasisUndefined(ValueError):
    """The rescaled basis does not exist: a transform factor vanishes."""

    def __init__(self, factor: str, block: tuple[int, int]):
        self.factor = factor
        self.block = block
        super().__init__(
            f"primed basis undefined: factor {factor} vanishes at block {block}"
        )


@dataclass(frozen=True)
class RepSpec:
    """Parameters of one truncated degenerate-series representation."""

    r: int
    s: int
    epsilon: int
    lam: SpectralParam
    qp: QParam
    cutoff: int

    def __post_init__(self):
        check_tower(self.r, self.s, self.epsilon, self.cutoff)

    @property
    def lambda_value(self) -> complex:
        return self.lam.value(self.qp)


@dataclass
class DegenerateRep:
    """Generator matrices of T_{eps,lambda} on a TruncatedSpace basis.

    A rep from build_degenerate or build_degenerate_primed shares its
    space and compact generators with every rep of the same Frame, and
    all its matrix arrays are read-only.  It also records where it came
    from: its `frame`, the family `signs` and the read-only `edge_values`
    (one complex scalar per block edge) its noncompact generator was
    formed from.  A rep made by hand has no frame.
    """

    spec: RepSpec
    space: TruncatedSpace
    generators: list[GeneratorMatrix]
    basis_kind: str = "standard"
    frame: Frame | None = field(default=None, repr=False, compare=False)
    signs: tuple | None = field(default=None, repr=False, compare=False)
    edge_values: np.ndarray | None = field(default=None, repr=False, compare=False)

    def gen(self, i: int) -> GeneratorMatrix:
        n = self.spec.r + self.spec.s
        if not 2 <= i <= n:
            raise ValueError(f"generator index {i} is outside 2..{n}")
        g = self.generators[i - 2]
        if g.i != i:
            raise ValueError(f"generator list holds generator {g.i} where {i} belongs")
        return g

    @property
    def noncompact(self) -> GeneratorMatrix:
        return self.gen(self.spec.r + 1)


@dataclass(frozen=True, eq=False)
class Frame:
    """The lambda-independent part of T_{eps,lambda} at one (r, s, eps, cutoff, q).

    `compact` holds the compact generators in index order.  The noncompact
    pattern lists every entry of every block edge in canonical CSC order
    (`indices`, `indptr`), with its K_m L_m' product `kl` and the id of
    its edge; per edge it keeps the `family` (an index into FAMILIES) and
    sigma = m+m', d = m-m' of the source block.  Every array is read-only.
    """

    space: TruncatedSpace
    compact: tuple[GeneratorMatrix, ...]
    indices: np.ndarray
    indptr: np.ndarray
    kl: np.ndarray
    edge: np.ndarray
    family: np.ndarray
    sigma: np.ndarray
    d: np.ndarray


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _frozen(mat: scipy.sparse.csc_matrix) -> scipy.sparse.csc_matrix:
    _read_only(mat.data, mat.indices, mat.indptr)
    return mat


class _Pool:
    """COO factors concatenated: factor f holds entries start[f]:start[f+1].

    counts[f] is the entry count of factor f, and the entry arrays are
    ordered by factor.
    """

    def __init__(self, counts, rows, cols, vals):
        self.start = np.concatenate(([0], np.cumsum(counts)))
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals)


def _kron_blocks(a: _Pool, fa, b: _Pool, fb, b_rows, b_cols, row_off, col_off):
    """COO of the sum over terms t of kron(A_t, B_t) placed at (row_off, col_off).

    A_t is factor fa[t] of pool a, B_t factor fb[t] of pool b with shape
    (b_rows[t], b_cols[t]).  Returns, per entry, its term, row and column
    and the pool positions ia, ib of its two factor entries.
    """
    na = a.start[fa + 1] - a.start[fa]
    nb = b.start[fb + 1] - b.start[fb]
    # first per entry of an A factor, then repeated over the entries of B
    term = np.repeat(np.arange(len(fa)), na)
    ia = np.arange(term.size) + np.repeat(a.start[fa] - (np.cumsum(na) - na), na)
    reps = nb[term]
    ib = np.arange(reps.sum()) + np.repeat(b.start[fb][term] - (np.cumsum(reps) - reps), reps)
    rows = np.repeat(row_off[term] + a.rows[ia] * b_rows[term], reps) + b.rows[ib]
    cols = np.repeat(col_off[term] + a.cols[ia] * b_cols[term], reps) + b.cols[ib]
    term, ia = np.repeat(term, reps), np.repeat(ia, reps)
    return term, rows, cols, ia, ib


def _by_factor(factor, n_factors: int, rows, cols, vals) -> _Pool:
    """The pool of entries whose factor ids are `factor`, kept in entry order per factor."""
    order = np.argsort(factor, kind="stable")
    return _Pool(np.bincount(factor, minlength=n_factors),
                 rows[order], cols[order], vals[order])


def _class1_pools(space: TruncatedSpace, p: QParam) -> dict:
    """Per rank, one pool per class-1 generator, with one factor per top label.

    One class1_arrays call takes the tower's chains of every top label
    at once, ascending; no generator changes the top label, so its
    matrix is block-diagonal by top, and a stable sort on the top cuts it
    into the per-top matrices in the order of per-top calls.  The space
    orders each top's chains descending, so positions are flipped.  Equal
    ranks share one tower.
    """
    out = {}
    for n, side in {space.r: 0, space.s: 1}.items():
        labels = space.labels[side]
        chains = np.concatenate(labels)
        top = chains[:, 0]
        # the tower position of each top's last chain: descending position 0
        last = np.cumsum([len(a) for a in labels]) - 1
        out[n] = []
        for rows, cols, vals in class1_arrays(chains, p):
            t = top[cols]
            out[n].append(_by_factor(t, len(labels), last[t] - rows, last[t] - cols, vals))
    return out


def _embedding_pool(labels: list, n: int, p: QParam) -> _Pool:
    """E diag K of one tower: factor 2*top + (step == -1) maps top into top+step.

    Rows are positions among the target chains, columns among the source
    chains, both in descending order, and only chains whose K factor is
    nonzero appear.  One raising pass evaluates K once per chain below the
    highest top: K_top at the chain's second label, the chain factor of
    so'_q(n+1), and the target is the chain of top+1 with the same inner
    labels (_raise on column 0).  Lowering from top+1 reads the same K_top,
    so the lowering factor 2*(top+1) + 1 is the transpose of the raising
    factor 2*top; the chains whose lowering K vanishes at the wall are the
    ones no raising reaches.  K comes from one table of q-numbers: its
    arguments lie in [0, 2m + n] for the largest m = len(labels) - 2.
    """
    chains = np.concatenate(labels)
    top = chains[:, 0]
    keys, place = _chain_keys(chains)
    last = np.cumsum([len(a) for a in labels]) - 1
    below = len(chains) - len(labels[-1])  # the chains of every top but the highest
    q = _Table(p.qnum, 0, 2 * len(labels) + n - 4)
    factor = _chain_factor(top[:below], chains[:below, 1], n + 1, q, p)
    src, dst = _raise(keys, place, 0, factor)
    t = top[src]
    rows, cols, vals = last[t + 1] - dst, last[t] - src, factor[src]
    return _by_factor(np.concatenate((2 * t, 2 * t + 3)), 2 * len(labels),
                      np.concatenate((rows, cols)), np.concatenate((cols, rows)),
                      np.concatenate((vals, vals)))


@functools.lru_cache(maxsize=1)
def frame(r: int, s: int, epsilon: int, cutoff: int, qp: QParam) -> Frame:
    """The Frame of (r, s, epsilon, cutoff, q), kept for the next call with the same key.

    One frame is cached: it stays alive, with its space and compact
    matrices, after every representation built from it is dropped, until
    a call with another key replaces it.  A call that raises caches
    nothing.
    """
    space = TruncatedSpace(r, s, epsilon, cutoff)
    dim = space.dim
    m, mp = (np.array(x, dtype=np.int64) for x in zip(*space.blocks))
    offsets = space.offsets[:-1]
    nl = np.array([len(a) for a in space.labels[0]])
    nr = np.array([len(a) for a in space.labels[1]])
    eye = []
    for sizes in (nl, nr):  # one identity factor per top label
        i = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        eye.append(_Pool(sizes, i, i, np.ones(i.size)))

    class1 = _class1_pools(space, qp)
    compact = []
    for i in [*range(2, r + 1), *range(r + 2, r + s + 1)]:
        if i <= r:  # kron(G_i(m), I)
            pool = class1[r][i - 2]
            _, rows, cols, ia, _ = _kron_blocks(pool, m, eye[1], mp, nr[mp], nr[mp],
                                                offsets, offsets)
            vals = pool.vals[ia]
        else:  # kron(I, G_{r+s+2-i}(m'))
            pool = class1[s][r + s - i]
            _, rows, cols, _, ib = _kron_blocks(eye[0], m, pool, mp, nr[mp], nr[mp],
                                                offsets, offsets)
            vals = pool.vals[ib]
        compact.append(GeneratorMatrix(i, _frozen(assemble(dim, rows, cols, vals))))

    # one edge per directed block step, in (source block, family) order
    src, family, dst = space.block_steps
    steps = np.array(FAMILIES)
    # equal ranks share one tower, and so one pool
    left = _embedding_pool(space.labels[0], r, qp)
    right = left if s == r else _embedding_pool(space.labels[1], s, qp)
    edge, rows, cols, ia, ib = _kron_blocks(
        left, 2 * m[src] + (steps[family, 0] < 0),
        right, 2 * mp[src] + (steps[family, 1] < 0),
        nr[mp[dst]], nr[mp[src]], offsets[dst], offsets[src])
    kl = left.vals[ia] * right.vals[ib]
    # the one sort assemble makes puts the entries in canonical CSC order
    order, indices, indptr = _csc_order(dim, rows, cols)
    kl, edge = kl[order], edge[order].astype(np.min_scalar_type(max(len(src) - 1, 0)))
    sigma, d = m[src] + mp[src], m[src] - mp[src]
    _read_only(indices, indptr, kl, edge, family, sigma, d)
    return Frame(space, tuple(compact), indices, indptr, kl, edge, family, sigma, d)


def _noncompact_arrays(fr: Frame, signs, value: np.ndarray) -> tuple:
    """(data, indices, indptr) of the noncompact generator on fr, zero edges dropped.

    signs holds one sign per family and value one complex scalar per edge;
    each entry is (kl * sign) * value of its edge.  Every build forms its
    noncompact generator here, and verify compares a rep's arrays with
    what this returns before it reads anything from the rep's frame.
    """
    kl, indices, indptr = fr.kl, fr.indices, fr.indptr
    edge = fr.edge.astype(np.intp)  # a gather by an intp index is the fast one
    live = value != 0
    if not live.all():
        keep = live[edge]
        kl, edge, indices = kl[keep], edge[keep], indices[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(indices.dtype)
    sign = np.array(signs, dtype=np.float64)[fr.family]
    # the sign goes on the real kl first: folded into the complex value it
    # would flip signed zeros of the product
    return (kl * sign[edge]) * value[edge], indices, indptr


def _build(spec: RepSpec, fr: Frame, signs: tuple, values: list, basis_kind: str) -> DegenerateRep:
    """The rep whose noncompact generator is _noncompact_arrays(fr, signs, values)."""
    value = np.array(values, dtype=np.complex128)
    _read_only(value)
    dim = fr.space.dim
    mat = scipy.sparse.csc_matrix(_noncompact_arrays(fr, signs, value), shape=(dim, dim))
    gens = list(fr.compact)
    gens.insert(spec.r - 1, GeneratorMatrix(spec.r + 1, _frozen(mat)))
    return DegenerateRep(spec, fr.space, gens, basis_kind, fr, signs, value)


def bracket_shifts(r: int, s: int, sigma, d) -> tuple:
    """Per FAMILIES step, the c of its standard-basis bracket [lambda + c].

    sigma = m+m' and d = m-m' are those of the step's source block
    (ints or int arrays).  The step's amplitude vanishes exactly where
    c == -L for the L of qarith.vanishing_point.
    """
    return (sigma, d - s + 2, -d - r + 2, -sigma - r - s + 4)


def build_degenerate(spec: RepSpec) -> DegenerateRep:
    """T_{eps,lambda} in the standard (orthonormal product) basis."""
    lam, p, r, s = spec.lambda_value, spec.qp, spec.r, spec.s
    fr = frame(r, s, spec.epsilon, spec.cutoff, p)
    t = np.choose(fr.family, bracket_shifts(r, s, fr.sigma, fr.d))
    return _build(spec, fr, (1, -1, 1, -1), [p.qnum(lam + x) for x in t.tolist()],
                  "standard")


# ---------------------------------------------------------------------------
# primed basis


@dataclass
class PrimedTransform:
    """Diagonal, block-scalar change of basis |M> = C(m,m') |M>'.

    The coefficient of a block is a product over t = 1..m0 of
    sqrt([-lambda+eps+r+s+2t-4]) / sqrt([lambda+eps+2t-2]) and, for the
    off-diagonal index i, over t = 1..i of
    sqrt([-lambda+eps+r+2t-2]) / sqrt([lambda+eps-s+2t])      (m - m' >= eps)
    or
    sqrt([lambda+eps-s-2t+2]) / sqrt([-lambda+eps+r-2t])      (m - m' <= eps),
    where m0 = (m+m'-eps)/2 and i = |m-m'-eps|/2.  Both families agree at
    i = 0.  The transform is undefined wherever a factor vanishes.
    """

    spec: RepSpec
    coefficients: dict[tuple[int, int], complex]


def _checked_sqrt_factor(spec: RepSpec, sign: int, offset: int, block) -> complex:
    """Principal sqrt of [sign*lambda + offset], refusing exact zeros."""
    # [sign*lambda + offset] = 0 exactly where offset == -sign*L
    if vanishing_point(spec.lam) == -sign * offset:
        raise PrimedBasisUndefined(f"[{'-' if sign < 0 else ''}lambda{offset:+d}]", block)
    return cmath.sqrt(spec.qp.qnum(sign * spec.lambda_value + offset))


def primed_transform(spec: RepSpec) -> PrimedTransform:
    """Change-of-basis coefficients to the primed basis, block by block."""
    eps = spec.epsilon
    r, s = spec.r, spec.s
    coeffs: dict[tuple[int, int], complex] = {}
    for m, mp in enumerate_blocks(eps, spec.cutoff):
        block = (m, mp)
        m0 = (m + mp - eps) // 2
        c = complex(1.0)
        for t in range(1, m0 + 1):
            c *= _checked_sqrt_factor(spec, -1, eps + r + s + 2 * t - 4, block)
            c /= _checked_sqrt_factor(spec, +1, eps + 2 * t - 2, block)
        if m - mp >= eps:
            i = (m - mp - eps) // 2
            for t in range(1, i + 1):
                c *= _checked_sqrt_factor(spec, -1, eps + r + 2 * t - 2, block)
                c /= _checked_sqrt_factor(spec, +1, eps - s + 2 * t, block)
        else:
            i = (mp - m + eps) // 2
            for t in range(1, i + 1):
                c *= _checked_sqrt_factor(spec, +1, eps - s - 2 * t + 2, block)
                c /= _checked_sqrt_factor(spec, -1, eps + r - 2 * t, block)
        coeffs[block] = c
    return PrimedTransform(spec, coeffs)


def build_degenerate_primed(spec: RepSpec) -> DegenerateRep:
    """T_{eps,lambda} in the primed basis.

    The noncompact amplitudes are square-root pairs; writing w+ for
    sqrt([lambda + t]) and w- for sqrt([-lambda + t]) (principal branches)
    they are

        up/up      +K_m L_{m'}       w+(sigma)     w-(sigma+r+s-2)
        up/down    -K_m L_{m'-1}     w+(d-s+2)     w-(d+r)
        down/up    -K_{m-1} L_{m'}   w+(d-s)       w-(d+r-2)
        down/down  +K_{m-1} L_{m'-1} w+(sigma-2)   w-(sigma+r+s-4)

    with sigma = m+m', d = m-m'.  This is the exact conjugate of the
    standard matrix by the primed transform wherever that is defined; the
    lowering rows differ from the naive principal branch of the written
    bracket products by a sign.  Outside the domain of primed_transform
    (where it raises PrimedBasisUndefined) the matrix is still built, but
    it is not a change of basis of T; the CLI refuses such specs.
    """
    lam, p, r, s = spec.lambda_value, spec.qp, spec.r, spec.s
    fr = frame(r, s, spec.epsilon, spec.cutoff, p)
    sigma, d = fr.sigma, fr.d
    t_plus = np.choose(fr.family, (sigma, d - s + 2, d - s, sigma - 2))
    t_minus = np.choose(fr.family, (sigma + r + s - 2, d + r, d + r - 2, sigma + r + s - 4))
    return _build(spec, fr, (1, -1, -1, 1),
                  [cmath.sqrt(p.qnum(lam + a)) * cmath.sqrt(p.qnum(-lam + b))
                   for a, b in zip(t_plus.tolist(), t_minus.tolist())], "primed")

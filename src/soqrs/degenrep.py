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
a scalar of the edge.  In the standard basis the four families are

    up/up      +K_m L_{m'}     [lambda + m + m']
    up/down    -K_m L_{m'-1}   [lambda + m - m' - s + 2]
    down/up    +K_{m-1} L_{m'} [lambda - m + m' - r + 2]
    down/down  -K_{m-1} L_{m'-1} [lambda - m - m' - r - s + 4]

Lower walls are exact: K_{-1} and L_{-1} vanish through a [0] factor, so
no clipping happens at m = 0 or m' = 0.  Transitions that would leave the
cutoff are dropped; the interior mask of the space marks the columns that
are unaffected by this.

A rescaled ("primed") basis makes the noncompact generator Hermitian on
the principal line Re lambda = (r+s-2)/2.  It shares the block edges and
the K, L tables and replaces each bracket by a square-root pair; the
square-root branches are fixed by the diagonal change of basis, not by a
naive principal branch of the bracket products (the two prescriptions
differ by a sign on the lowering terms).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .compactrep import GeneratorMatrix, _ratio_sqrt, assemble, build_class1
from .gtbasis import TruncatedSpace, enumerate_blocks
from .qarith import QParam, SpectralParam, bracket_vanishes


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
        if self.r <= 2 or self.s <= 2:
            raise ValueError(f"ranks must exceed 2, got r={self.r}, s={self.s}")
        if self.epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {self.epsilon}")
        if self.cutoff < self.epsilon:
            raise ValueError(
                f"cutoff {self.cutoff} is below epsilon {self.epsilon}: "
                "the truncated tower has no blocks"
            )

    @property
    def lambda_value(self) -> complex:
        return self.lam.value(self.qp)

    def to_dict(self) -> dict:
        lam = self.lam
        d = {"r": self.r, "s": self.s, "epsilon": self.epsilon}
        if lam.is_exact:
            d["lambda_re"] = str(lam.re)
            d["lambda_im_t"] = str(lam.im_t)
            d["lambda_im"] = str(lam.im_y)
        else:
            v = lam.value(self.qp)
            d["lambda_float"] = [v.real, v.imag]
        d["q"] = self.qp.q
        d["cutoff"] = self.cutoff
        return d


@dataclass
class DegenerateRep:
    """Generator matrices of T_{eps,lambda} on a TruncatedSpace basis."""

    spec: RepSpec
    space: TruncatedSpace
    generators: list[GeneratorMatrix]
    basis_kind: str = "standard"

    @property
    def dim(self) -> int:
        return self.space.dim

    def gen(self, i: int) -> GeneratorMatrix:
        g = self.generators[i - 2]
        assert g.i == i
        return g

    @property
    def noncompact(self) -> GeneratorMatrix:
        return self.gen(self.spec.r + 1)

    def interior_indices(self, depth: int) -> range:
        return self.space.interior_indices(depth)


def K_coeff(m: int, k: int, r: int, p: QParam) -> float:
    """Transition factor ([m-k+1][m+k+r-2] / [2m+r][2m+r-2])^{1/2}.

    K for the left chain (r, m, k) and L for the right chain (s, m', k').
    k is the second label of the chain (for r = 3 the possibly negative
    so(2) label; the expression is even in k).  K_{-1}, queried when
    lowering from m = 0, is 0 through the [m-k+1] factor, before the
    denominator (which may itself vanish there) is ever evaluated.
    """
    return _ratio_sqrt((m - k + 1, m + k + r - 2), (2 * m + r, 2 * m + r - 2), p)


def _assemble_parts(dim: int, parts: list) -> sparse.csc_matrix:
    """One csc matrix from a list of (rows, cols, vals) array triples."""
    if not parts:
        return assemble(dim, (), (), ())
    return assemble(dim, *(np.concatenate(x) for x in zip(*parts)))


def _kron_index(rows_a, cols_a, rows_b, cols_b, nrows_b: int, ncols_b: int):
    """Row and column indices of kron(A, B) from the COO indices of A and B."""
    return ((rows_a[:, None] * nrows_b + rows_b).ravel(),
            (cols_a[:, None] * ncols_b + cols_b).ravel())


def _compact_generator(space: TruncatedSpace, i: int, class1) -> sparse.csc_matrix:
    """Compact generator i as kron(G_i(m), I) or kron(I, G_{r+s+2-i}(m')) per block.

    class1[n][top] holds the COO arrays of build_class1 for so'_q(n) in
    the space's chain order.  Both towers peel coordinates away from the
    boundary the noncompact generator sits on, so the neighbour
    I_{r+2,r+1} moves the second right label (the one entering L_{m'})
    and the far end I_{r+s,r+s-1} is the diagonal.
    """
    r, s = space.r, space.s
    parts = []
    for (m, mp), o in zip(space.blocks, space.offsets):
        nl, nr = len(space.chains[0][m]), len(space.chains[1][mp])
        if i <= r:
            a, c, g = class1[r][m][i - 2]
            eye = np.arange(nr)
            rows, cols = _kron_index(a, c, eye, eye, nr, nr)
            vals = np.repeat(g, nr)
        else:
            a, c, g = class1[s][mp][r + s - i]
            eye = np.arange(nl)
            rows, cols = _kron_index(eye, eye, a, c, nr, nr)
            vals = np.tile(g, nl)
        parts.append((o + rows, o + cols, vals))
    return _assemble_parts(space.dim, parts)


def _class1_blocks(space: TruncatedSpace, p: QParam) -> dict:
    """COO arrays of every class-1 generator, per rank and top label.

    build_class1 orders chains ascending; the space orders them
    descending, so positions are flipped.  Equal ranks share one tower.
    """
    out = {}
    for n, side in {space.r: 0, space.s: 1}.items():
        per_top = out[n] = {}
        for top, chains in space.chains[side].items():
            last = len(chains) - 1
            coos = (g.mat.tocoo() for g in build_class1(n, top, p))
            per_top[top] = [(last - c.row, last - c.col, c.data) for c in coos]
    return out


def _embeddings(space: TruncatedSpace, p: QParam) -> dict:
    """E diag K for every (rank, top, step): chains of top `top` into top+step.

    Each entry is (src, dst, values): positions in the two descending chain
    lists of the chains whose K factor is nonzero, and that factor.  Inner
    labels are kept, so only the top label changes.  Equal ranks share
    one table.
    """
    tables = {}
    for n, side in {space.r: 0, space.s: 1}.items():
        positions = space.positions[side]
        for top, chains in space.chains[side].items():
            for step in (1, -1):
                if top + step > space.top_ring:
                    continue
                m = top if step == 1 else top - 1
                factor = {k: K_coeff(m, k, n, p) for k in {c.entries[1] for c in chains}}
                src = [i for i, c in enumerate(chains) if factor[c.entries[1]]]
                tables[n, top, step] = (
                    np.array(src, dtype=np.int64),
                    np.array([positions[(top + step,) + chains[i].entries[1:]]
                              for i in src], dtype=np.int64),
                    np.array([factor[chains[i].entries[1]] for i in src]),
                )
    return tables


def _noncompact_generator(space: TruncatedSpace, p: QParam,
                          families: dict) -> sparse.csc_matrix:
    """Noncompact generator from the block edges and the per-family factors.

    families maps the step (dm, dm') to (sign, factor), where factor(sigma, d)
    gives the scalar of the edge leaving block (m, m') with sigma = m+m',
    d = m-m'.  Edges whose factor vanishes or whose target block lies
    beyond the cutoff carry no entries.
    """
    tables = _embeddings(space, p)
    right = space.chains[1]
    parts = []
    for (m, mp), o in zip(space.blocks, space.offsets):
        for (dm, dmp), (sign, factor) in families.items():
            target = space.block_slices.get((m + dm, mp + dmp))
            if target is None:
                continue
            value = factor(m + mp, m - mp)
            if value == 0:
                continue
            src_l, dst_l, k = tables[space.r, m, dm]
            src_r, dst_r, l = tables[space.s, mp, dmp]
            rows, cols = _kron_index(dst_l, src_l, dst_r, src_r,
                                     len(right[mp + dmp]), len(right[mp]))
            vals = ((sign * k)[:, None] * l).ravel() * value
            parts.append((target.start + rows, o + cols, vals))
    return _assemble_parts(space.dim, parts)


def _build(spec: RepSpec, families: dict, basis_kind: str) -> DegenerateRep:
    space = TruncatedSpace(spec.r, spec.s, spec.epsilon, spec.cutoff)
    class1 = _class1_blocks(space, spec.qp)
    gens = []
    for i in range(2, spec.r + spec.s + 1):
        if i == spec.r + 1:
            mat = _noncompact_generator(space, spec.qp, families)
        else:
            mat = _compact_generator(space, i, class1)
        gens.append(GeneratorMatrix(i, mat))
    return DegenerateRep(spec, space, gens, basis_kind)


def build_degenerate(spec: RepSpec) -> DegenerateRep:
    """T_{eps,lambda} in the standard (orthonormal product) basis."""
    lam, p, r, s = spec.lambda_value, spec.qp, spec.r, spec.s

    def w(t: int) -> complex:
        return p.qnum(lam + t)

    return _build(spec, {
        (1, 1): (1, lambda sigma, d: w(sigma)),
        (1, -1): (-1, lambda sigma, d: w(d - s + 2)),
        (-1, 1): (1, lambda sigma, d: w(-d - r + 2)),
        (-1, -1): (-1, lambda sigma, d: w(-sigma - r - s + 4)),
    }, "standard")


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

    def block_indices(self, m: int, mp: int) -> tuple[int, int, int]:
        """(m0, i, family) of a block; family is +1 for m-m' >= eps else -1."""
        eps = self.spec.epsilon
        m0 = (m + mp - eps) // 2
        if m - mp >= eps:
            return m0, (m - mp - eps) // 2, 1
        return m0, (mp - m + eps) // 2, -1

    def coefficient(self, m: int, mp: int) -> complex:
        return self.coefficients[(m, mp)]

    def diagonal(self, space: TruncatedSpace) -> np.ndarray:
        return space.block_diagonal(self.coefficients)


def _checked_sqrt_factor(spec: RepSpec, sign: int, offset: int, block) -> complex:
    """Principal sqrt of [sign*lambda + offset], refusing exact zeros."""
    lam = spec.lam
    if lam.is_exact and bracket_vanishes(lam, offset, sign):
        name = f"[{'-' if sign < 0 else ''}lambda{offset:+d}]"
        raise PrimedBasisUndefined(name, block)
    v = spec.qp.qnum(sign * spec.lambda_value + offset)
    if not lam.is_exact and abs(v) < 1e-12:
        name = f"[{'-' if sign < 0 else ''}lambda{offset:+d}]"
        raise PrimedBasisUndefined(name, block)
    return cmath.sqrt(v)


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
    bracket products by a sign.
    """
    lam, p, r, s = spec.lambda_value, spec.qp, spec.r, spec.s

    def w2(t_plus: int, t_minus: int) -> complex:
        return cmath.sqrt(p.qnum(lam + t_plus)) * cmath.sqrt(p.qnum(-lam + t_minus))

    return _build(spec, {
        (1, 1): (1, lambda sigma, d: w2(sigma, sigma + r + s - 2)),
        (1, -1): (-1, lambda sigma, d: w2(d - s + 2, d + r)),
        (-1, 1): (-1, lambda sigma, d: w2(d - s, d + r - 2)),
        (-1, -1): (1, lambda sigma, d: w2(sigma - 2, sigma + r + s - 4)),
    }, "primed")

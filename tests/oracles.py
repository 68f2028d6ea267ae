"""Independent oracles for the test suite.

Everything here is coded directly from the classical (q = 1) formulas,
the q-deformed noncompact formulas with [x] in its exponential form, and
plain combinatorics, without importing any evaluation code from the
package, so that package output can be checked against an independent
path.  The basis of a space, chain by chain, is built here from
brute_chains; only the block order is taken from the package, where
entrywise comparison requires it.  Entry VALUES are computed here,
except where a caller passes the scalar functions in: the per-chain
compact reference takes the bracket and d(m) as arguments, so that a
byte-for-byte comparison checks the walk over the chains rather than
the libm calls.  The
relation reference forms the full products with scipy and cuts the
columns afterwards, and the star reference forms each adjoint residual
with scipy's sparse operators.  The lattice reference decides every
transition block by block from the exact parameter and searches the
block graph with plain sets; the table reference lists every step of a
window with the shift of its bracket and reads the components and the
closure of a region off the steps lambda cuts.  The primed-refusal
reference evaluates every factor of the primed transform in floating
point and names the first one that is numerically zero.  The assembly reference for T_{eps,lambda} is the one exception to
the no-import rule: it takes its scalars from the package and rebuilds
every generator block by block on each call, with no frame shared
between calls.  The dump reference writes `soqrs build` JSON the way it
was first written: sorted (row, col, re, im) triplets and basis rows
built per pattern, through the stdlib's indent=2 encoder.  The metric
and intertwiner references are the solvers as first written, through
sparse products and scalar lookups, returning the package's solution
types; they recompute every block edge per call and walk a dict of
tuple-keyed blocks.
"""

import functools
import itertools
import json
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# brute-force pattern counting


def brute_chains(n: int, top: int) -> list:
    """Chains (m_n, ..., m_2) with m_n = top by exhaustive search, ascending.

    Every label but m_2 is nonnegative, so only m_2 runs over -top..top.
    """
    chains = []
    inner = [range(top + 1)] * (n - 3) + [range(-top, top + 1)]
    for tup in itertools.product(*inner):
        chain = (top,) + tup
        ok = all(chain[i] >= chain[i + 1] for i in range(len(chain) - 2))
        ok = ok and chain[-2] >= abs(chain[-1])
        if ok:
            chains.append(chain)
    return chains


def brute_chain_count(n: int, top: int) -> int:
    """Count chains (m_n, ..., m_2) with m_n = top by exhaustive search."""
    return len(brute_chains(n, top))


def class1_dim_formula(n: int, m: int) -> int:
    return (2 * m + n - 2) * math.factorial(m + n - 3) // (
        math.factorial(m) * math.factorial(n - 2)
    )


@functools.lru_cache(maxsize=None)
def class1_chains(n: int, top) -> tuple:
    """The chains of the class-1 representation with top label `top`, ascending.

    brute_chains(n, top) for an integer top; for a half-integer so'_q(3)
    label l, the chains (l, m_2) with m_2 = -l, ..., l, as Fractions.
    """
    top = Fraction(top)
    if top.denominator == 1:
        return tuple(brute_chains(n, int(top)))
    return tuple((top, j - top) for j in range(int(2 * top) + 1))


@functools.lru_cache(maxsize=None)
def descending_chains(n: int, top: int) -> tuple:
    """class1_chains(n, top) in the order a block lists them: descending."""
    return class1_chains(n, top)[::-1]


def brute_space_dim(r: int, s: int, epsilon: int, cutoff: int) -> int:
    total = 0
    for m in range(cutoff + 1):
        for mp in range(cutoff + 1 - m):
            if (m + mp) % 2 == epsilon % 2:
                total += brute_chain_count(r, m) * brute_chain_count(s, mp)
    return total


# ---------------------------------------------------------------------------
# the truncated basis of a space, chain by chain
#
# Built from brute_chains; only the block order is the package's.


def space_chains(space, side: int) -> list:
    """chains[t]: the descending chains with top t of so'_q(r) (side 0) or so'_q(s)."""
    n = (space.r, space.s)[side]
    return [descending_chains(n, t) for t in range(space.top_ring + 1)]


def space_positions(space, side: int) -> dict:
    """positions[chain]: the index of a chain among the chains of its top."""
    return {c: i for chains in space_chains(space, side) for i, c in enumerate(chains)}


def space_basis(space) -> list:
    """(left chain, right chain) of every column, in column order."""
    left, right = space_chains(space, 0), space_chains(space, 1)
    return [(a, b) for m, mp in space.blocks for a in left[m] for b in right[mp]]


def basis_rows(space) -> list:
    """Row (m_r, ..., m_2, m'_s, ..., m'_2) of every column, in column order."""
    return [a + b for a, b in space_basis(space)]


def block_slices(space) -> dict:
    """slice of the columns of every block (m, m')."""
    left, right = space_chains(space, 0), space_chains(space, 1)
    out, start = {}, 0
    for m, mp in space.blocks:
        out[m, mp] = slice(start, start + len(left[m]) * len(right[mp]))
        start = out[m, mp].stop
    return out


def block_diagonal(space, values: dict):
    """Diagonal of the block-scalar operator equal to values[b] on block b."""
    import numpy as np

    return np.concatenate([np.full(cols.stop - cols.start, values[b])
                           for b, cols in block_slices(space).items()])


# ---------------------------------------------------------------------------
# classical (q = 1) matrix elements


def cl_d(m: float) -> float:
    # m(m+1) / (2m)(2m+2) = 1/4, all m
    return 0.5


def cl_R(m1: int, m2: int, n: int) -> float:
    return q_R(m1, m2, n, q_bracket(1.0))


def cl_chain_action(entries, k):
    """Classical action of generator k on one chain."""
    return q_chain_action(entries, k, q_bracket(1.0), cl_d)


# ---------------------------------------------------------------------------
# q-deformed compact generators, one chain at a time


def q_R(m1: int, m2: int, n: int, br) -> float:
    """R(m1) = ([m1+m2+n-3][m1-m2+1] / [2m1+n-3][2m1+n-1])^{1/2}, 0 at the walls."""
    num = br(m1 + m2 + n - 3) * br(m1 - m2 + 1)
    if num == 0:
        return 0.0
    return math.sqrt(num / (br(2 * m1 + n - 3) * br(2 * m1 + n - 1)))


def q_chain_action(entries, k, br, d):
    """[(new_entries, coeff)] of generator k on the chain (m_n, ..., m_2).

    br(x) evaluates the bracket [x] and d(m) the so'_q(3) weight factor.
    Generator 2 is the diagonal i[m_2], generator 3 the so'_q(3) ladder
    on (m_3, m_2), generator k >= 4 moves m_{k-1}; lowering terms carry
    the minus sign and vanishing brackets drop the term.
    """
    n = len(entries) + 1
    if k == 2:
        return [(entries, 1j * br(entries[-1]))]
    if k == 3:
        l, m = entries[-2], entries[-1]
        moves = [(1, (l - m, l + m + 1), d(m)), (-1, (l + m, l - m + 1), d(m - 1))]
        pos = n - 2
    else:
        pos = n - k + 1
        mk, mk1, mk2 = entries[pos - 1], entries[pos], entries[pos + 1]
        moves = [(1, (mk + mk1 + k - 2, mk - mk1), q_R(mk1, mk2, k, br)),
                 (-1, (mk + mk1 + k - 3, mk - mk1 + 1), q_R(mk1 - 1, mk2, k, br))]
    out = []
    for step, (a, b), factor in moves:
        outer = br(a) * br(b)
        if outer == 0:
            continue
        c = math.sqrt(outer) * factor
        if c:
            new = entries[:pos] + (entries[pos] + step,) + entries[pos + 1:]
            out.append((new, step * c))
    return out


def q_compact_coo(chains, br, d) -> dict:
    """{k: (rows, cols, vals)} of every generator on the given chain order."""
    index = {c: i for i, c in enumerate(chains)}
    n = len(chains[0]) + 1
    out = {}
    for k in range(2, n + 1):
        rows, cols, vals = [], [], []
        for col, chain in enumerate(chains):
            for new, coeff in q_chain_action(chain, k, br, d):
                if coeff == 0:
                    continue
                rows.append(index[new])
                cols.append(col)
                vals.append(coeff)
        out[k] = (rows, cols, vals)
    return out


# ---------------------------------------------------------------------------
# relation residuals from the full products


def full_product_relations(gens, a, ncols, pattern) -> list:
    """[(relation, residual, worst)] of the defining relations.

    Forms every product on all columns, then keeps the first ncols
    columns (all of them when ncols is None); worst is pattern(column)
    of the largest entry.
    """
    import numpy as np

    def column_max(mat):
        if ncols is not None:
            mat = mat.tocsc()[:, :ncols]
        coo = mat.tocoo()
        if coo.nnz == 0:
            return 0.0, None
        k = int(np.argmax(np.abs(coo.data)))
        return float(abs(coo.data[k])), pattern(int(coo.col[k]))

    mats = {g.i: g.mat for g in gens}
    idxs = sorted(mats)
    rows = []
    for i in idxs[:-1]:
        X, Y = mats[i], mats[i + 1]
        YY, XX = Y @ Y, X @ X
        r1 = X @ YY - a * (Y @ (X @ Y)) + YY @ X + X
        rows.append((f"cubic[{i},{i + 1}]a", *column_max(r1)))
        r2 = XX @ Y - a * (X @ (Y @ X)) + Y @ XX + Y
        rows.append((f"cubic[{i},{i + 1}]b", *column_max(r2)))
    for ii, i in enumerate(idxs):
        for j in idxs[ii + 1:]:
            if j - i > 1:
                c = mats[i] @ mats[j] - mats[j] @ mats[i]
                rows.append((f"commutator[{i},{j}]", *column_max(c)))
    return rows


def star_relations(gens, noncompact_i, pattern) -> list:
    """[(relation, residual, worst)] of the adjoint conditions.

    Forms M^* = M.conjugate().transpose().tocsc() and M^* - M for the
    noncompact generator (index noncompact_i, None for none), M^* + M for
    every other one, with scipy's sparse operators; worst is
    pattern(column) of the largest entry, read through tocoo.
    """
    import numpy as np

    rows = []
    for g in gens:
        adj = g.mat.conjugate().transpose().tocsc()
        if g.i == noncompact_i:
            name, res = f"star[{g.i}] hermitian", (adj - g.mat).tocoo()
        else:
            name, res = f"star[{g.i}] anti-hermitian", (adj + g.mat).tocoo()
        if res.nnz == 0:
            rows.append((name, 0.0, None))
            continue
        k = int(np.argmax(np.abs(res.data)))
        rows.append((name, float(abs(res.data[k])), pattern(int(res.col[k]))))
    return rows


def q_bracket(q: float):
    """[x] = (q^{x/2} - q^{-x/2}) / (q^{1/2} - q^{-1/2}), and [x] = x at q = 1."""
    if q == 1.0:
        return lambda x: x
    return lambda x: (q ** (x / 2) - q ** (-x / 2)) / (q ** 0.5 - q ** -0.5)


def q_KL(m: int, k: int, size: int, br) -> float:
    num = br(m - k + 1) * br(m + k + size - 2)
    if num == 0:
        return 0.0
    val = num / (br(2 * m + size) * br(2 * m + size - 2))
    assert val > 0
    return math.sqrt(val)


def cl_compact_matrices(n: int, chains) -> dict:
    """Dense classical generator matrices on the given chain basis order."""
    import numpy as np

    index = {c: i for i, c in enumerate(chains)}
    dim = len(chains)
    out = {}
    for k in range(2, n + 1):
        M = np.zeros((dim, dim), dtype=complex)
        for col, chain in enumerate(chains):
            for new, coeff in cl_chain_action(chain, k):
                M[index[new], col] += coeff
        out[k] = M
    return out


def cl_degenerate_generators(r, s, epsilon, lam, patterns, top_ring) -> dict:
    """Dense classical matrices of every generator on the given pattern order.

    Shares the artifact's labelling convention: generator i <= r acts on the
    left chain as generator i, generator i >= r+2 on the right chain as
    generator r+s+2-i, and i = r+1 is the noncompact matrix.
    """
    import numpy as np

    index = {p: i for i, p in enumerate(patterns)}
    dim = len(patterns)
    out = {r + 1: cl_degenerate_noncompact(r, s, epsilon, lam, patterns,
                                           top_ring)}
    for i in list(range(2, r + 1)) + list(range(r + 2, r + s + 1)):
        M = np.zeros((dim, dim), dtype=complex)
        for col, (left, right) in enumerate(patterns):
            if i <= r:
                for new, coeff in cl_chain_action(left, i):
                    M[index[(new, right)], col] += coeff
            else:
                for new, coeff in cl_chain_action(right, r + s + 2 - i):
                    M[index[(left, new)], col] += coeff
        out[i] = M
    return out


def cl_degenerate_noncompact(r, s, epsilon, lam, patterns, top_ring):
    """Dense classical noncompact generator on the given double-pattern order.

    `patterns` is a list of (left_entries, right_entries) tuples; `lam` may
    be complex.
    """
    import numpy as np

    M = np.zeros((len(patterns), len(patterns)), dtype=complex)
    entries = q_degenerate_noncompact_entries(r, s, lam, 1.0, patterns, top_ring)
    for (row, col), coeff in entries.items():
        M[row, col] = coeff
    return M


def q_degenerate_noncompact_entries(r, s, lam, q, patterns, top_ring) -> dict:
    """Nonzero entries {(row, col): value} of the noncompact generator at q.

    `patterns` is a list of (left_entries, right_entries) tuples; `lam` may
    be complex.
    """
    br = q_bracket(q)
    index = {p: i for i, p in enumerate(patterns)}
    out = {}
    for col, (left, right) in enumerate(patterns):
        m, k = left[0], left[1]
        mp, kp = right[0], right[1]
        km, km1 = q_KL(m, k, r, br), q_KL(m - 1, k, r, br)
        lm, lm1 = q_KL(mp, kp, s, br), q_KL(mp - 1, kp, s, br)
        moves = [
            ((1, 1), km * lm * br(lam + m + mp)),
            ((1, -1), -km * lm1 * br(lam + m - mp - s + 2)),
            ((-1, 1), km1 * lm * br(lam - m + mp - r + 2)),
            ((-1, -1), -km1 * lm1 * br(lam - m - mp - r - s + 4)),
        ]
        for (dm, dmp), coeff in moves:
            if coeff == 0:
                continue
            m2, mp2 = m + dm, mp + dmp
            if m2 + mp2 > top_ring:
                continue
            tgt = ((m2,) + left[1:], (mp2,) + right[1:])
            if tgt in index:
                out[index[tgt], col] = coeff
    return out


# ---------------------------------------------------------------------------
# per-block lattice reference


def primed_zero_factor(r: int, s: int, epsilon: int, z: complex, q: float, cutoff: int):
    """(factor, block) of the first primed-transform factor [sign*z + c] with |.| < 1e-12.

    The factors of block (m, m') come in the order of the PrimedTransform
    formula, with m0 = (m+m'-eps)/2 and i = |m-m'-eps|/2: per t = 1..m0
    the pair [-z+eps+r+s+2t-4], [z+eps+2t-2]; then per t = 1..i the pair
    [-z+eps+r+2t-2], [z+eps-s+2t] when m - m' >= eps, else the pair
    [z+eps-s-2t+2], [-z+eps+r-2t].  Blocks are walked ring by ring, m
    ascending.  None when no factor is that small.  The numeric witness
    for primed_transform's exact refusal.
    """
    br = q_bracket(q)
    for block in lattice_blocks(epsilon, cutoff):
        m, mp = block
        m0, i = (m + mp - epsilon) // 2, abs(m - mp - epsilon) // 2
        factors = [f for t in range(1, m0 + 1)
                   for f in ((-1, epsilon + r + s + 2 * t - 4), (1, epsilon + 2 * t - 2))]
        if m - mp >= epsilon:
            factors += [f for t in range(1, i + 1)
                        for f in ((-1, epsilon + r + 2 * t - 2), (1, epsilon - s + 2 * t))]
        else:
            factors += [f for t in range(1, i + 1)
                        for f in ((1, epsilon - s - 2 * t + 2), (-1, epsilon + r - 2 * t))]
        for sign, c in factors:
            if abs(br(sign * z + c)) < 1e-12:
                return f"[{'-' if sign < 0 else ''}lambda{c:+d}]", block
    return None


def bracket_vanishes(lam, c: int, sign: int = 1) -> bool:
    """[sign*lambda + c] == 0 for an exact lambda = re + i(im_t pi/h + im_y).

    [z] vanishes exactly when Re z = 0, the absolute imaginary part is 0
    and the pi/h part is an even integer.  The reference for
    qarith.vanishing_point.
    """
    t = lam.im_t
    return (sign * lam.re + c == 0 and lam.im_y == 0
            and t.denominator == 1 and t.numerator % 2 == 0)


def moves(r: int, s: int, lam, m: int, mp: int):
    """Targets of the four noncompact transitions out of block (m, m'), per block.

    A transition is kept when it stays in the quadrant and its bracket
    (the factor of the noncompact generator that depends on lambda) is
    nonzero.
    """
    sigma, d = m + mp, m - mp
    if not bracket_vanishes(lam, sigma):
        yield (m + 1, mp + 1)
    if mp >= 1 and not bracket_vanishes(lam, d - s + 2):
        yield (m + 1, mp - 1)
    if m >= 1 and not bracket_vanishes(lam, -d - r + 2):
        yield (m - 1, mp + 1)
    if m >= 1 and mp >= 1 and not bracket_vanishes(lam, -sigma - r - s + 4):
        yield (m - 1, mp - 1)


def lattice_blocks(epsilon: int, cutoff: int) -> list:
    return [(m, sg - m) for sg in range(epsilon, cutoff + 1, 2) for m in range(sg + 1)]


def scan_reference(r: int, s: int, epsilon: int, lam, cutoff: int):
    """Strong components and forward closures of the block graph, by search.

    Returns (components, regions), each a set of block sets.
    """
    blocks = lattice_blocks(epsilon, cutoff)
    inside = set(blocks)
    succ = {b: [t for t in moves(r, s, lam, *b) if t in inside] for b in blocks}
    reach = {}
    for b in blocks:
        seen, stack = {b}, [b]
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach[b] = frozenset(seen)
    components = {frozenset(c for c in reach[b] if b in reach[c]) for b in blocks}
    return components, set(reach.values())


def strong_partition(n: int, edges) -> set:
    """Nodes 0..n-1 of a digraph grouped by mutual reachability.

    reach[v] is the set of nodes reachable from v, as an int with bit w
    set for node w: every node reaches itself, and reach[v] absorbs
    reach[w] for each edge v -> w until nothing changes, sweeping the
    nodes forwards and backwards in turn.  The part of v is what v
    reaches and what reaches v.
    """
    edges = list(edges)

    def closure(pairs):
        succ = [[] for _ in range(n)]
        for a, b in pairs:
            succ[a].append(b)
        reach = [1 << v for v in range(n)]
        order = list(range(n))
        changed = True
        while changed:
            changed = False
            order.reverse()
            for v in order:
                new = reach[v]
                for w in succ[v]:
                    new |= reach[w]
                if new != reach[v]:
                    reach[v], changed = new, True
        return reach

    parts = {f & b for f, b in zip(closure(edges), closure((b, a) for a, b in edges))}
    return {frozenset(v for v in range(n) if part >> v & 1) for part in parts}


def region_contains(region, m: int, mp: int) -> bool:
    sigma, d = m + mp, m - mp
    return ((region.sigma_min is None or sigma >= region.sigma_min)
            and (region.sigma_max is None or sigma <= region.sigma_max)
            and (region.d_min is None or d >= region.d_min)
            and (region.d_max is None or d <= region.d_max))


def closure_window(r: int, s: int, lam) -> int:
    """The reference window for region closure: 2(|L|+r+s+8).

    L is the real part of lambda when it is an integer, else 0.  The
    window reaches far past every wall of lambda and of its mirror, so
    closure on it is closure on the whole lattice.
    """
    L = abs(int(lam.re)) if lam.re.denominator == 1 else 0
    return 2 * (L + r + s + 8)


def region_is_closed(region, r: int, s: int, epsilon: int, lam, window: int) -> bool:
    """No kept transition leads from the region out of it, within the window."""
    for m, mp in lattice_blocks(epsilon, window):
        if not region_contains(region, m, mp):
            continue
        for tm, tmp in moves(r, s, lam, m, mp):
            if tm + tmp <= window and not region_contains(region, tm, tmp):
                return False
    return True


# table-based lattice reference: every step of a window, cut where its shift is -L


@functools.lru_cache(maxsize=8)
def lattice_table(r: int, s: int, epsilon: int, window: int) -> tuple:
    """(sigma, d, src, dst, shift) of the blocks and steps of a window, as numpy arrays.

    The blocks of lattice_blocks and, for each transition of `moves` that
    stays in the quadrant and in the window, its source, its target and
    the c of its bracket [lambda + c].  The step is cut exactly where
    c == -L, for L the integer real part of a lambda whose brackets can
    vanish (bracket_vanishes).
    """
    import numpy as np

    blocks = np.array(lattice_blocks(epsilon, window), dtype=np.int64).reshape(-1, 2)
    m, mp = blocks[:, 0], blocks[:, 1]
    sigma, d = m + mp, m - mp
    # lattice_blocks lists ring epsilon + 2k (epsilon + 2k + 1 blocks) after the rings below it
    sizes = np.arange(epsilon + 1, window + 2, 2)
    first = np.cumsum(sizes) - sizes
    src, dst, shift = [], [], []
    for (dm, dmp), c in (((1, 1), sigma), ((1, -1), d - s + 2),
                         ((-1, 1), -d - r + 2), ((-1, -1), -sigma - r - s + 4)):
        keep = (m + dm >= 0) & (mp + dmp >= 0) & (sigma + dm + dmp <= window)
        src.append(np.flatnonzero(keep))
        dst.append(first[(sigma[keep] + dm + dmp - epsilon) // 2] + m[keep] + dm)
        shift.append(c[keep])
    return sigma, d, np.concatenate(src), np.concatenate(dst), np.concatenate(shift)


@functools.lru_cache(maxsize=1024)
def vanishing_level(lam):
    """The L with [lambda + c] == 0 exactly for c == -L, or None (bracket_vanishes)."""
    if lam.re.denominator != 1 or not bracket_vanishes(lam, -lam.re.numerator):
        return None
    return lam.re.numerator


@functools.lru_cache(maxsize=4)
def _table_scan(r: int, s: int, epsilon: int, L, window: int) -> tuple:
    """(sigma, d, live src, live dst, ring_cuts, diag_cuts) of lattice_table for L.

    A step is cut where its shift is -L.  A cut step that changes sigma
    cuts the gap between its two rings, any other the gap between its two
    diagonals; a gap is named by its lower level, and both cut lists are
    sorted tuples.
    """
    import numpy as np

    sigma, d, src, dst, shift = lattice_table(r, s, epsilon, window)
    dead = np.zeros(shift.shape, dtype=bool) if L is None else shift == -L
    a, b = src[dead], dst[dead]
    ring = sigma[a] != sigma[b]
    return (sigma, d, src[~dead], dst[~dead],
            tuple(sorted(set(np.minimum(sigma[a], sigma[b])[ring].tolist()))),
            tuple(sorted(set(np.minimum(d[a], d[b])[~ring].tolist()))))


def table_components(r: int, s: int, epsilon: int, lam, window: int) -> set:
    """The strong components of the steps of lattice_table that lambda keeps, as block sets.

    Grouped by mutual reachability (strong_partition), not by the cuts.
    """
    _, _, src, dst, _, _ = _table_scan(r, s, epsilon, vanishing_level(lam), window)
    blocks = lattice_blocks(epsilon, window)
    parts = strong_partition(len(blocks), zip(src.tolist(), dst.tolist()))
    return {frozenset(blocks[v] for v in part) for part in parts}


def table_cuts(r: int, s: int, epsilon: int, lam, window: int) -> tuple:
    """(ring_cuts, diag_cuts): the gaps the steps of lattice_table that lambda cuts cross."""
    return _table_scan(r, s, epsilon, vanishing_level(lam), window)[4:]


def table_component_count(r: int, s: int, epsilon: int, lam, window: int) -> int:
    """The number of distinct (ring cuts below, diagonal cuts below) over the blocks."""
    import numpy as np

    sigma, d, _, _, ring_cuts, diag_cuts = _table_scan(r, s, epsilon, vanishing_level(lam),
                                                       window)
    cells = zip(np.searchsorted(ring_cuts, sigma).tolist(),
                np.searchsorted(diag_cuts, d).tolist())
    return len(set(cells))


def table_region_is_closed(region, r: int, s: int, epsilon: int, lam, window: int) -> bool:
    """No step of lattice_table that lambda keeps leads from the region out of it."""
    import numpy as np

    sigma, d, src, dst, *_ = _table_scan(r, s, epsilon, vanishing_level(lam), window)
    inside = np.ones(sigma.shape, dtype=bool)
    for lo, hi, x in ((region.sigma_min, region.sigma_max, sigma),
                      (region.d_min, region.d_max, d)):
        if lo is not None:
            inside &= x >= lo
        if hi is not None:
            inside &= x <= hi
    return not (inside[src] & ~inside[dst]).any()


# ---------------------------------------------------------------------------
# block edges of the metric and intertwiner solvers, one pattern lookup each


def block_edges(space, A) -> list:
    """(src, dst, A[dst, src], A[src, dst]) per block edge, by scalar lookups.

    Each edge is listed once, from the endpoint that comes first in block
    order, moving by (+1,+1), (+1,-1), (-1,+1), (-1,-1); the entries are
    read between the two patterns whose inner labels are all zero.
    """
    slices, right = block_slices(space), space_chains(space, 1)
    positions = space_positions(space, 0), space_positions(space, 1)

    def column(m, mp):
        a = positions[0][(m,) + (0,) * (space.r - 2)]
        b = positions[1][(mp,) + (0,) * (space.s - 2)]
        return slices[m, mp].start + a * len(right[mp]) + b

    blocks, seen, out = set(space.blocks), set(), []
    for m, mp in space.blocks:
        for dm, dmp in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            dst = (m + dm, mp + dmp)
            if dst not in blocks or (dst, (m, mp)) in seen:
                continue
            seen.add(((m, mp), dst))
            i, j = column(m, mp), column(*dst)
            out.append(((m, mp), dst, complex(A[j, i]), complex(A[i, j])))
    return out


# ---------------------------------------------------------------------------
# per-call Kronecker assembly of T_{eps,lambda}, block by block


def coo_to_csc(dim: int, rows, cols, vals):
    """scipy's dim x dim coo_matrix(...).tocsc() of the entries, complex128."""
    import numpy as np
    from scipy import sparse

    return sparse.coo_matrix(
        (np.asarray(vals, dtype=np.complex128),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(dim, dim)).tocsc()


def kron_assembly(spec, primed: bool = False) -> list:
    """csc matrices of generators 2..r+s of T_{eps,lambda}, assembled per call.

    The assembly walks the blocks in Python: kron(G, I) / kron(I, G) of the
    class-1 COO arrays per block and compact generator, and
    kron(E_L diag K, E_R diag L) times (sign * bracket factor) per block
    edge, each family's factor evaluated through a closure.  The scalars
    come from the package (class1_arrays per top label, K_coeff,
    QParam.qnum), so a byte comparison checks how the package splits and
    reassembles the work, not libm; the matrices come from scipy's own
    COO -> CSC conversion, not from the package's assemble.
    """
    import cmath

    import numpy as np

    from soqrs.compactrep import class1_arrays
    from soqrs.degenrep import K_coeff
    from soqrs.gtbasis import TruncatedSpace

    lam, p, r, s = spec.lambda_value, spec.qp, spec.r, spec.s
    if primed:
        def w2(t_plus, t_minus):
            return cmath.sqrt(p.qnum(lam + t_plus)) * cmath.sqrt(p.qnum(-lam + t_minus))

        families = {
            (1, 1): (1, lambda sigma, d: w2(sigma, sigma + r + s - 2)),
            (1, -1): (-1, lambda sigma, d: w2(d - s + 2, d + r)),
            (-1, 1): (-1, lambda sigma, d: w2(d - s, d + r - 2)),
            (-1, -1): (1, lambda sigma, d: w2(sigma - 2, sigma + r + s - 4)),
        }
    else:
        def w(t):
            return p.qnum(lam + t)

        families = {
            (1, 1): (1, lambda sigma, d: w(sigma)),
            (1, -1): (-1, lambda sigma, d: w(d - s + 2)),
            (-1, 1): (1, lambda sigma, d: w(-d - r + 2)),
            (-1, -1): (-1, lambda sigma, d: w(-sigma - r - s + 4)),
        }

    space = TruncatedSpace(r, s, spec.epsilon, spec.cutoff)
    chains = (space_chains(space, 0), space_chains(space, 1))
    slices = block_slices(space)

    def assemble_parts(parts):
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts)) if parts else ((), (), ())
        return coo_to_csc(space.dim, rows, cols, vals)

    def kron_index(rows_a, cols_a, rows_b, cols_b, nrows_b, ncols_b):
        return ((rows_a[:, None] * nrows_b + rows_b).ravel(),
                (cols_a[:, None] * ncols_b + cols_b).ravel())

    class1 = {}
    for n, side in {r: 0, s: 1}.items():
        per_top = class1[n] = {}
        for top, labels in enumerate(space.labels[side]):
            last = len(labels) - 1
            per_top[top] = [(last - rows, last - cols, vals)
                            for rows, cols, vals in class1_arrays(labels, p)]

    def compact(i):
        parts = []
        for (m, mp), o in zip(space.blocks, space.offsets):
            nl, nr = len(chains[0][m]), len(chains[1][mp])
            if i <= r:
                a, c, g = class1[r][m][i - 2]
                eye = np.arange(nr)
                rows, cols = kron_index(a, c, eye, eye, nr, nr)
                vals = np.repeat(g, nr)
            else:
                a, c, g = class1[s][mp][r + s - i]
                eye = np.arange(nl)
                rows, cols = kron_index(eye, eye, a, c, nr, nr)
                vals = np.tile(g, nl)
            parts.append((o + rows, o + cols, vals))
        return assemble_parts(parts)

    tables = {}
    for n, side in {r: 0, s: 1}.items():
        positions = space_positions(space, side)
        for top, of_top in enumerate(chains[side]):
            for step in (1, -1):
                if top + step > space.top_ring:
                    continue
                m = top if step == 1 else top - 1
                factor = {k: K_coeff(m, k, n, p) for k in {c[1] for c in of_top}}
                src = [i for i, c in enumerate(of_top) if factor[c[1]]]
                tables[n, top, step] = (
                    np.array(src, dtype=np.int64),
                    np.array([positions[(top + step,) + of_top[i][1:]]
                              for i in src], dtype=np.int64),
                    np.array([factor[of_top[i][1]] for i in src]),
                )

    def noncompact():
        right = chains[1]
        parts = []
        for (m, mp), o in zip(space.blocks, space.offsets):
            for (dm, dmp), (sign, factor) in families.items():
                target = slices.get((m + dm, mp + dmp))
                if target is None:
                    continue
                value = factor(m + mp, m - mp)
                if value == 0:
                    continue
                src_l, dst_l, k = tables[r, m, dm]
                src_r, dst_r, l = tables[s, mp, dmp]
                rows, cols = kron_index(dst_l, src_l, dst_r, src_r,
                                        len(right[mp + dmp]), len(right[mp]))
                vals = ((sign * k)[:, None] * l).ravel() * value
                parts.append((target.start + rows, o + cols, vals))
        return assemble_parts(parts)

    return [noncompact() if i == r + 1 else compact(i) for i in range(2, r + s + 1)]


# ---------------------------------------------------------------------------
# `soqrs build` JSON: sorted triplets, per-pattern basis, indent=2 encoder


def to_triplets(mat) -> list:
    """Deterministic (row, col, re, im) list of a sparse matrix, sorted by (col, row)."""
    coo = mat.tocoo()
    items = sorted(zip(coo.col.tolist(), coo.row.tolist(), coo.data.tolist()))
    return [(r, c, v.real, v.imag) for c, r, v in items]


def dump_generators(gens) -> list:
    out = []
    for g in gens:
        trips = to_triplets(g.mat)
        out.append({"i": g.i, "nnz": len(trips),
                    "entries": [[r, c, re, im] for r, c, re, im in trips]})
    return out


def chain_basis(n: int, top) -> list:
    """Basis rows of class1_chains(n, top); half-integer labels as strings."""
    def entry(value):
        f = Fraction(value)
        return int(f) if f.denominator == 1 else str(f)
    return [[entry(e) for e in c] for c in class1_chains(n, top)]


def dump_text(kind: str, config: dict, dim: int, basis: list, gens) -> str:
    """The `soqrs build` JSON of one representation, trailing newline included."""
    payload = {"kind": kind, "config": config, "dim": dim, "basis": basis,
               "generators": dump_generators(gens)}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# metric and intertwiner solvers through sparse products


def column_max_coo(mat, space):
    """Largest |entry| of mat and the basis_rows row of its column, through tocoo."""
    import numpy as np

    coo = mat.tocoo()
    if coo.nnz == 0:
        return 0.0, None
    k = int(np.argmax(np.abs(coo.data)))
    col = int(coo.col[k])
    worst = basis_rows(space)[col] if space is not None else col
    return float(abs(coo.data[k])), worst


def reference_block_edges(space):
    """(src, dst, i_src, i_dst) of every block edge, recomputed per call.

    The blocks are (m, m') tuples; i_src, i_dst are the columns of the
    patterns of the two blocks whose inner labels are all zero.  An edge is
    listed from the block that comes first in block order; edges are
    ordered by that block, then by step (+1,+1), (+1,-1), (-1,+1), (-1,-1).
    """
    import numpy as np
    from soqrs.gtbasis import block_arrays, block_index

    m, mp = block_arrays(space.epsilon, space.cutoff)
    steps = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    tm, tmp = m[:, None] + steps[:, 0], mp[:, None] + steps[:, 1]
    inside = (tm >= 0) & (tmp >= 0) & (tm + tmp <= space.top_ring)
    target = np.where(inside, block_index(space.epsilon, tm, tmp), -1)
    src, family = np.nonzero(target > np.arange(m.size)[:, None])
    dst = target[src, family]
    zero = [np.array([len(a) - 1 - np.flatnonzero(~a[:, 1:].any(axis=1))[0] for a in side])
            for side in space.labels]
    width = np.array([len(a) for a in space.labels[1]])
    column = space.offsets[:-1] + zero[0][m] * width[mp] + zero[1][mp]
    blocks = space.blocks
    return ([blocks[k] for k in src.tolist()], [blocks[k] for k in dst.tolist()],
            column[src], column[dst])


def reference_entries(mat, rows, cols) -> list:
    """mat[rows[k], cols[k]] as Python complex numbers, -0.0 parts read as 0.0."""
    import numpy as np

    if len(rows) == 0:
        return []
    return (np.asarray(mat[rows, cols], dtype=complex).ravel() + 0.0).tolist()


def _bfs_block_solution(space, edges, ratio_fn, start_value=1.0):
    """(values, max relative mismatch on revisited edges, connected), by dict BFS."""
    base = space.blocks[0]
    values = {base: complex(start_value)}
    queue = [base]
    mismatch = 0.0
    adjacency = {}
    for src, dst, a_fwd, a_back in edges:
        adjacency.setdefault(src, []).append((dst, a_fwd, a_back, False))
        adjacency.setdefault(dst, []).append((src, a_fwd, a_back, True))
    while queue:
        cur = queue.pop(0)
        for other, a_fwd, a_back, reversed_ in adjacency.get(cur, ()):
            r = ratio_fn(a_fwd, a_back, reversed_)
            if r is None:
                continue
            proposed = values[cur] * r
            if other in values:
                scale = max(abs(values[other]), abs(proposed), 1e-300)
                mismatch = max(mismatch, abs(values[other] - proposed) / scale)
            else:
                values[other] = proposed
                queue.append(other)
    return values, mismatch, len(values) == len(space.blocks)


def solve_metric_reference(rep, tol: float = 1e-8):
    """solve_metric through A^H C - C A with C = diags(c), as first written.

    Returns a MetricSolution with no reason.
    """
    import numpy as np
    from scipy import sparse
    from soqrs.verify import FOUND, INDEFINITE, NONE, MetricSolution

    src, dst, i_src, i_dst = reference_block_edges(rep.space)
    A = rep.noncompact.mat
    edges = list(zip(src, dst, reference_entries(A, i_dst, i_src),
                     reference_entries(A, i_src, i_dst)))
    scale = max((max(abs(f), abs(b)) for _, _, f, b in edges), default=1.0)
    ztol = 1e-13 * max(scale, 1.0)

    def ratio(a_fwd, a_back, reversed_):
        if abs(a_fwd) <= ztol and abs(a_back) <= ztol:
            return None
        if abs(a_fwd) <= ztol or abs(a_back) <= ztol:
            return 0.0
        r = np.conj(a_back) / a_fwd
        return 1.0 / r if reversed_ else r

    values, mismatch, connected = _bfs_block_solution(rep.space, edges, ratio)
    if any(v == 0.0 for v in values.values()) or mismatch > tol:
        return MetricSolution(NONE, None, None, connected)
    vals = np.array([values[b] for b in rep.space.blocks if b in values])
    if np.max(np.abs(vals.imag)) > tol * np.max(np.abs(vals)):
        return MetricSolution(NONE, None, None, connected)
    if not connected:
        return MetricSolution(NONE, None, None, False)
    weights = {b: float(v.real) for b, v in values.items()}
    C = sparse.diags(block_diagonal(rep.space, weights)).tocsc()
    res_mat = (A.conjugate().transpose() @ C - C @ A).tocoo()
    residual = float(np.max(np.abs(res_mat.data))) if res_mat.nnz else 0.0
    rel = residual / max(scale * max(abs(w) for w in weights.values()), 1e-300)
    if rel > tol:
        return MetricSolution(NONE, weights, residual, connected)
    if min(weights.values()) <= 0.0:
        return MetricSolution(INDEFINITE, weights, residual, connected)
    return MetricSolution(FOUND, weights, residual, connected)


def solve_intertwiner_reference(repA, repB, tol: float = 1e-8):
    """solve_intertwiner through S T_A - T_B S with S = diags(s), as first written."""
    import numpy as np
    from scipy import sparse
    from soqrs.verify import IntertwinerSolution

    sa, sb = repA.spec, repB.spec
    if (sa.r, sa.s, sa.epsilon, sa.cutoff, sa.qp) != (sb.r, sb.s, sb.epsilon, sb.cutoff, sb.qp):
        raise ValueError("intertwiner requires matching (r, s, epsilon, q, cutoff)")
    A, B = repA.noncompact.mat, repB.noncompact.mat
    space = repA.space
    src, dst, i_src, i_dst = reference_block_edges(space)
    edges = list(zip(src, dst, reference_entries(A, i_dst, i_src),
                     reference_entries(B, i_dst, i_src)))
    scale = max((max(abs(f), abs(b)) for _, _, f, b in edges), default=1.0)
    ztol = 1e-13 * max(scale, 1.0)

    def ratio(a_fwd, b_fwd, reversed_):
        if abs(a_fwd) <= ztol and abs(b_fwd) <= ztol:
            return None
        if abs(a_fwd) <= ztol or abs(b_fwd) <= ztol:
            return 0.0
        r = b_fwd / a_fwd
        return 1.0 / r if reversed_ else r

    values, mismatch, connected = _bfs_block_solution(space, edges, ratio)
    if any(v == 0.0 for v in values.values()) or mismatch > tol or not connected:
        return None
    diag = block_diagonal(space, values)
    S = sparse.diags(diag).tocsc()
    residual = 0.0
    for ga, gb in zip(repA.generators, repB.generators):
        res_mat = (S @ ga.mat - gb.mat @ S).tocoo()
        if res_mat.nnz:
            residual = max(residual, float(np.max(np.abs(res_mat.data))))
    rel_scale = scale * max(abs(v) for v in values.values())
    if residual > tol * max(rel_scale, 1.0):
        return None
    return IntertwinerSolution(dict(values), diag, residual)


def conjugate_rep(rep, block_values: dict):
    """Every generator conjugated by the block-scalar diagonal D: A -> D A D^-1."""
    from scipy import sparse
    from soqrs import DegenerateRep, GeneratorMatrix

    diag = block_diagonal(rep.space, block_values)
    D = sparse.diags(diag).tocsc()
    Dinv = sparse.diags(1.0 / diag).tocsc()
    gens = [GeneratorMatrix(g.i, (D @ g.mat @ Dinv).tocsc()) for g in rep.generators]
    return DegenerateRep(rep.spec, rep.space, gens, rep.basis_kind + "+conjugated")

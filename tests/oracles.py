"""Independent oracles for the test suite.

Everything here is coded directly from the classical (q = 1) formulas,
the q-deformed noncompact formulas with [x] in its exponential form, and
plain combinatorics, without importing any evaluation code from the
package, so that package output can be checked against an independent
path.  Basis ORDER is taken from the package where entrywise comparison
requires it; entry VALUES are computed here, except where a caller
passes the scalar functions in: the per-chain compact reference takes
the bracket and d(m) as arguments, so that a byte-for-byte comparison
checks the walk over the chains rather than the libm calls.  The
relation reference forms the full products with scipy and cuts the
columns afterwards.
"""

import itertools
import math


# ---------------------------------------------------------------------------
# brute-force pattern counting


def brute_chains(n: int, top: int) -> list:
    """Chains (m_n, ..., m_2) with m_n = top by exhaustive search, ascending."""
    chains = []
    for tup in itertools.product(range(-top, top + 1), repeat=n - 2):
        chain = (top,) + tup
        ok = all(chain[i] >= chain[i + 1] for i in range(len(chain) - 2))
        ok = ok and all(x >= 0 for x in chain[:-1])
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


def brute_space_dim(r: int, s: int, epsilon: int, cutoff: int) -> int:
    total = 0
    for m in range(cutoff + 1):
        for mp in range(cutoff + 1 - m):
            if (m + mp) % 2 == epsilon % 2:
                total += brute_chain_count(r, m) * brute_chain_count(s, mp)
    return total


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

"""Generator matrices for compact so'_q(n) representations.

so'_q(3) acts on |m>, m = -l..l, by a diagonal i[m] for the lowest
generator and a raising/lowering pair with d(m) ([l-m][l+m+1])^{1/2}
coefficients for the next one.  Class-1 representations of so'_q(n),
n > 3, act on GT chains: the generator indexed k shifts the label
m_{k-1} by one with coefficients built from the neighbouring labels
m_k and m_{k-2}.  All matrices are anti-Hermitian in the orthonormal
chain basis and have at most two nonzero entries per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .gtbasis import ChainPattern, enumerate_chain
from .qarith import QParam


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse matrix of one generator on an indexed pattern basis."""

    i: int
    mat: sparse.csc_matrix

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def to_triplets(self) -> list[tuple[int, int, float, float]]:
        """Deterministic (row, col, re, im) list, sorted by (col, row)."""
        coo = self.mat.tocoo()
        items = sorted(zip(coo.col.tolist(), coo.row.tolist(), coo.data.tolist()))
        return [(r, c, v.real, v.imag) for c, r, v in items]


def assemble(dim: int, rows, cols, vals) -> sparse.csc_matrix:
    """COO arrays (rows, cols, vals) -> csc matrix of fixed shape."""
    return sparse.coo_matrix(
        (np.asarray(vals, dtype=np.complex128),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(dim, dim),
    ).tocsc()


def d_coeff(m, p: QParam) -> float:
    """The so'_q(3) weight factor d(m) in singularity-free product form.

    d(m) = ([m][m+1] / [2m][2m+2])^{1/2} reduces, via [2x] = [x] (q^{x/2}+q^{-x/2}),
    to 1 / ((q^{m/2}+q^{-m/2})(q^{(m+1)/2}+q^{-(m+1)/2}))^{1/2}, which is
    finite everywhere, resolves the 0/0 at m = 0 and m = -1, and satisfies
    d(m) = d(-m-1).
    """
    mf = float(m)
    f1 = 2.0 * math.cosh(0.5 * p.h * mf)
    f2 = 2.0 * math.cosh(0.5 * p.h * (mf + 1.0))
    return 1.0 / math.sqrt(f1 * f2)


def _bracket_product(args, p: QParam) -> float:
    """Product of q-numbers of real arguments; exact-zero args short-circuit."""
    v = 1.0
    for a in args:
        if a == 0:
            return 0.0
        v *= p.qnum(a)
    return v


def _sqrt_product(args, p: QParam) -> float:
    """sqrt of a product of brackets; admissible patterns give radicand >= 0."""
    v = _bracket_product(args, p)
    if v == 0.0:
        return 0.0
    if v < 0.0:
        raise ArithmeticError(
            f"negative radicand {v} for brackets {args}; "
            "inadmissible pattern slipped through"
        )
    return math.sqrt(v)


def _ratio_sqrt(num_args, den_args, p: QParam) -> float:
    """sqrt([a1][a2] / [b1][b2]) with the numerator wall short-circuit.

    Vanishing numerator brackets return 0 before the denominator is
    evaluated, which is what keeps the chain walls exact (the denominator
    may itself vanish there).
    """
    num = _bracket_product(num_args, p)
    if num == 0.0:
        return 0.0
    den = 1.0
    for a in den_args:
        den *= p.qnum(a)
    radicand = num / den
    if radicand <= 0.0:
        raise ArithmeticError(
            f"negative radicand {radicand} for bracket ratio "
            f"{num_args}/{den_args}; inadmissible pattern slipped through"
        )
    return math.sqrt(radicand)


def R_coeff(m1: int, m2: int, n: int, p: QParam) -> float:
    """Chain factor R(m_{n-1}) for so'_q(n), n >= 4.

    R(m1) = ([m1+m2+n-3][m1-m2+1] / [2m1+n-3][2m1+n-1])^{1/2} with
    m2 = m_{n-2}.  Vanishing numerator brackets (the chain walls) return 0.
    """
    if n < 4:
        raise ValueError("R_coeff applies to n >= 4; so'_q(3) uses d_coeff")
    return _ratio_sqrt(
        (m1 + m2 + n - 3, m1 - m2 + 1), (2 * m1 + n - 3, 2 * m1 + n - 1), p
    )


def so3_action(l, m, p: QParam) -> list[tuple[int, float]]:
    """Raising/lowering amplitudes of the second so'_q(3) generator.

    Returns [(delta_m, coefficient)] for the transitions m -> m + delta_m,
    with the lowering term carrying the minus sign.
    """
    out = []
    up = _sqrt_product((l - m, l + m + 1), p)
    if up != 0.0:
        out.append((1, d_coeff(m, p) * up))
    down = _sqrt_product((l + m, l - m + 1), p)
    if down != 0.0:
        out.append((-1, -d_coeff(m - 1, p) * down))
    return out


def chain_action(entries: tuple, k: int, p: QParam) -> list[tuple[tuple, complex]]:
    """Action of generator k of so'_q(n) on one chain (m_n, ..., m_2).

    Returns [(new_entries, coefficient)].  k = 2 is the diagonal i[m_2];
    k = 3 shifts m_2 inside the so'_q(3) block with top m_3; k >= 4 shifts
    m_{k-1} with outer label m_k and inner label m_{k-2}.
    """
    n = len(entries) + 1
    if not 2 <= k <= n:
        raise ValueError(f"generator index {k} out of range for so'_q({n})")
    if k == 2:
        return [(entries, 1j * p.qnum(entries[-1]))]
    if k == 3:
        l, m = entries[-2], entries[-1]
        out = []
        for dm, c in so3_action(l, m, p):
            new = entries[:-1] + (m + dm,)
            out.append((new, c))
        return out

    pos = n - k + 1  # index of m_{k-1} within (m_n, ..., m_2)
    mk = entries[pos - 1]
    mk1 = entries[pos]
    mk2 = entries[pos + 1]
    out = []
    up_outer = _sqrt_product((mk + mk1 + k - 2, mk - mk1), p)
    if up_outer != 0.0:
        c = up_outer * R_coeff(mk1, mk2, k, p)
        if c != 0.0:
            out.append((entries[:pos] + (mk1 + 1,) + entries[pos + 1:], c))
    down_outer = _sqrt_product((mk + mk1 + k - 3, mk - mk1 + 1), p)
    if down_outer != 0.0:
        c = down_outer * R_coeff(mk1 - 1, mk2, k, p)
        if c != 0.0:
            out.append((entries[:pos] + (mk1 - 1,) + entries[pos + 1:], -c))
    return out


def _build_from_chains(
    n: int, basis: list[ChainPattern], p: QParam
) -> list[GeneratorMatrix]:
    index = {c.entries: i for i, c in enumerate(basis)}
    dim = len(basis)
    gens = []
    for k in range(2, n + 1):
        rows, cols, vals = [], [], []
        for col, chain in enumerate(basis):
            for new_entries, coeff in chain_action(chain.entries, k, p):
                if coeff == 0:
                    continue
                rows.append(index[new_entries])
                cols.append(col)
                vals.append(coeff)
        gens.append(GeneratorMatrix(k, assemble(dim, rows, cols, vals)))
    return gens


def build_so3(l, p: QParam) -> list[GeneratorMatrix]:
    """Generator matrices of the so'_q(3) representation with label l.

    l may be a nonnegative integer or half-integer; the basis is ordered
    by ascending m, so the diagonal generator reads i*diag([-l], ..., [l]).
    """
    lf = Fraction(l)
    if lf < 0:
        raise ValueError(f"so'_q(3) label must be nonnegative, got {l}")
    basis = enumerate_chain(3, lf if lf.denominator == 2 else int(lf))
    return _build_from_chains(3, basis, p)


def build_class1(n: int, m_top: int, p: QParam) -> list[GeneratorMatrix]:
    """Generator matrices of the class-1 representation of so'_q(n).

    Matrices act on the enumerate_chain(n, m_top) basis; the generator
    indexed k only changes the label m_{k-1}.
    """
    basis = enumerate_chain(n, m_top)
    return _build_from_chains(n, basis, p)

"""Generator matrices for compact so'_q(n) representations.

so'_q(3) acts on |m>, m = -l..l, by a diagonal i[m] for the lowest
generator and a raising/lowering pair with d(m) ([l-m][l+m+1])^{1/2}
coefficients for the next one.  Class-1 representations of so'_q(n),
n > 3, act on GT chains: the generator indexed k shifts the label
m_{k-1} by one with coefficients built from the neighbouring labels
m_k and m_{k-2}.  All matrices are anti-Hermitian in the orthonormal
chain basis and have at most two nonzero entries per column.

The matrices are assembled from an integer array of chain labels, one
row per chain: brackets are looked up in a per-call table of
QParam.qnum values, and target chains are found by searchsorted, so no
Python runs per chain.  The labels may hold the chains of several top
labels at once; no generator changes the top label.  `assemble` makes
the canonical CSC arrays of each matrix with one sort of its
coordinates, with no scipy COO matrix in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .gtbasis import chain_labels
from .qarith import QParam


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse matrix of one generator on an indexed pattern basis."""

    i: int
    mat: sparse.csc_matrix

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(*sizes: int):
    """int32 when every dimension and entry count fits it, else int64."""
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


def _csc_order(dim: int, rows, cols) -> tuple:
    """(order, indices, indptr) of the canonical CSC form of dim x dim entries.

    Entry order[j] is the j-th in column-major order with rows ascending
    in each column, as scipy's COO -> CSC conversion stores it; the index
    arrays have the _index_dtype of (dim, entry count).  A negative, out of
    range or repeated (row, col) raises ValueError: a repeat would be
    summed by scipy, so the matrix would not be the entries given.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if rows.size:
        bad = np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))
        if bad.size:
            i = bad[0]
            raise ValueError(f"entry ({rows[i]}, {cols[i]}) lies outside the "
                             f"{dim} x {dim} matrix")
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    repeat = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    if repeat.size:
        i = repeat[0]
        raise ValueError(f"entry ({rows[i]}, {cols[i]}) is given twice")
    idx = _index_dtype(dim, rows.size)
    indptr = np.zeros(dim + 1, dtype=idx)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=dim))
    return order, rows.astype(idx), indptr


def assemble(dim: int, rows, cols, vals) -> sparse.csc_matrix:
    """The dim x dim csc matrix with entries vals at (rows, cols), in canonical form.

    The arrays are scipy's coo_matrix(...).tocsc() byte for byte, built
    from one sort (_csc_order) with no COO matrix; repeated coordinates are
    refused, not summed.
    """
    order, indices, indptr = _csc_order(dim, rows, cols)
    data = np.asarray(vals, dtype=np.complex128)[order]
    return sparse.csc_matrix((data, indices, indptr), shape=(dim, dim))


def d_coeff(m, p: QParam) -> float:
    """The so'_q(3) weight factor d(m) in singularity-free product form.

    d(m) = ([m][m+1] / [2m][2m+2])^{1/2} reduces, via [2x] = [x] (q^{x/2}+q^{-x/2}),
    to 1 / ((q^{m/2}+q^{-m/2})(q^{(m+1)/2}+q^{-(m+1)/2}))^{1/2}, which is
    finite everywhere, resolves the 0/0 at m = 0 and m = -1, and satisfies
    d(m) = d(-m-1).  A product beyond the float range raises ValueError.
    """
    mf = float(m)
    try:
        f1 = 2.0 * math.cosh(0.5 * p.h * mf)
        f2 = 2.0 * math.cosh(0.5 * p.h * (mf + 1.0))
    except OverflowError:
        f1 = f2 = math.inf
    if math.isinf(f1 * f2):
        raise _range_error(f"d({m})", p)
    return 1.0 / math.sqrt(f1 * f2)


def _range_error(what: str, p: QParam) -> ValueError:
    return ValueError(f"{what} is out of floating-point range at q={p.q}")


def _bracket_product(args, p: QParam) -> float:
    """Product of q-numbers of real arguments; exact-zero args short-circuit."""
    v = 1.0
    for a in args:
        if a == 0:
            return 0.0
        v *= p.qnum(a)
    return v


def _ratio_sqrt(num_args, den_args, p: QParam) -> float:
    """sqrt([a1][a2] / [b1][b2]) with the numerator wall short-circuit.

    Vanishing numerator brackets return 0 before the denominator is
    evaluated, which is what keeps the chain walls exact (the denominator
    may itself vanish there).  A nonzero numerator whose ratio under- or
    overflows (a zero or non-finite radicand) raises the range ValueError
    of QParam.qnum; a negative radicand is an ArithmeticError.
    """
    num = _bracket_product(num_args, p)
    if num == 0.0:
        return 0.0
    den = 1.0
    for a in den_args:
        den *= p.qnum(a)
    radicand = num / den
    if radicand == 0.0 or not math.isfinite(radicand):
        raise _range_error(f"bracket ratio {num_args}/{den_args}", p)
    if radicand < 0.0:
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


class _Table:
    """f(x) for every integer x in [lo, hi], looked up by integer arrays.

    Arguments past hi raise IndexError in numpy itself; arguments below lo
    would index from the end, so they are refused here.
    """

    def __init__(self, f, lo: int, hi: int):
        self.lo = lo
        self.values = np.array([f(x) for x in range(lo, hi + 1)], dtype=np.float64)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        i = x - self.lo
        if i.size and i.min() < 0:
            raise IndexError(f"argument {x.min()} below the table start {self.lo}")
        return self.values[i]


def class1_arrays(labels: np.ndarray, p: QParam, half: int = 0) -> list:
    """COO arrays (rows, cols, vals) of generators 2..n on an array of chains.

    labels holds one admissible chain (m_n, ..., m_2) per row, ascending;
    half = 1 marks the half-integer so'_q(3) labels, stored as m - 1/2.
    Generator 2 is the diagonal i[m_2].  Generator 3 raises m_2 inside the
    so'_q(3) block of top l = m_3 with d(m) ([l-m][l+m+1])^{1/2}, and
    generator k >= 4 raises m_{k-1} with ([m_k+m_{k-1}+k-2][m_k-m_{k-1}])^{1/2}
    R(m_{k-1}).  Each of these is E - E^T for its raising part E: the
    lowering coefficient of a chain is minus the raising one of its lower
    neighbour.  On admissible chains every raising bracket has a
    nonnegative argument, and only the upper wall [m_k - m_{k-1}] = [0]
    vanishes, so no term leaves the chain set.
    """
    width = labels.shape[1]
    n = width + 1
    m3, m2 = labels[:, -2], labels[:, -1]
    shift = Fraction(1, 2) if half else 0
    q = _Table(p.qnum, int(labels.min()), 2 * int(labels.max()) + n)
    lo2, hi2 = int(m2.min()), int(m2.max())
    qm = _Table(lambda x: p.qnum(x + shift), lo2, hi2) if half else q
    d = _Table(lambda x: d_coeff(x + shift, p), lo2, hi2)

    # mixed-radix keys ascend with the chains; raising column c adds
    # place[c], so target rows come from one searchsorted
    lo = labels.min(axis=0) - 1
    radix = [int(x) for x in labels.max(axis=0) - lo + 2]
    place = [math.prod(radix[c + 1:]) for c in range(width)]
    if place[0] * radix[0] >= 2 ** 63:
        raise ValueError(f"chain keys of {labels.shape} labels overflow int64")
    keys = (labels - lo) @ np.array(place, dtype=np.int64)

    def ladder(c, outer, factor):
        """E - E^T, E raising label c by outer^{1/2} factor; zeros not stored."""
        vals = np.sqrt(outer) * factor
        if not np.isfinite(vals).all():
            raise _range_error(f"generator {n - c + 1} of so'_q({n}) on {len(labels)} chains", p)
        src = np.flatnonzero(vals)
        dst = np.searchsorted(keys, keys[src] + place[c])
        vals = vals[src]
        return (np.concatenate((dst, src)), np.concatenate((src, dst)),
                np.concatenate((vals, -vals)))

    diag = qm(m2)
    nonzero = np.flatnonzero(diag)
    # bracket products may leave the float range: ladder and the R
    # radicand check refuse them instead of storing inf, nan or 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gens = [(nonzero, nonzero, 1j * diag[nonzero]),
                ladder(width - 1, q(m3 - m2) * q(m3 + m2 + 1 + half), d(m2))]
        for k in range(4, n + 1):
            c = n - k + 1  # column of m_{k-1}
            mk, mk1, mk2 = labels[:, c - 1], labels[:, c], labels[:, c + 1]
            num = q(mk1 + mk2 + k - 3) * q(mk1 - mk2 + 1)
            radicand = num / (q(2 * mk1 + k - 3) * q(2 * mk1 + k - 1))
            if np.any((radicand == 0) & (num != 0)):
                raise _range_error(f"R of so'_q({k}) on {len(labels)} chains", p)
            gens.append(ladder(c, q(mk + mk1 + k - 2) * q(mk - mk1), np.sqrt(radicand)))
    return gens


def _assemble_generators(labels: np.ndarray, p: QParam,
                         half: int = 0) -> list[GeneratorMatrix]:
    dim = len(labels)
    return [GeneratorMatrix(k, assemble(dim, *coo))
            for k, coo in enumerate(class1_arrays(labels, p, half), start=2)]


def build_so3(l, p: QParam) -> list[GeneratorMatrix]:
    """Generator matrices of the so'_q(3) representation with label l.

    l may be a nonnegative integer or half-integer; the basis is ordered
    by ascending m, so the diagonal generator reads i*diag([-l], ..., [l]).
    """
    lf = Fraction(l)
    if lf < 0 or lf.denominator > 2:
        raise ValueError(
            f"so'_q(3) label must be a nonnegative (half-)integer, got {l}")
    if lf.denominator == 1:
        return _assemble_generators(chain_labels(3, int(lf))[-1], p)
    top = int(lf - Fraction(1, 2))  # labels stored as m - 1/2
    labels = np.stack((np.full(2 * top + 2, top), np.arange(-top - 1, top + 1)), axis=1)
    return _assemble_generators(labels, p, half=1)


def build_class1(n: int, m_top, p: QParam) -> list[GeneratorMatrix]:
    """Generator matrices of the class-1 representation of so'_q(n).

    Matrices act on the chain_labels(n, m_top)[m_top] basis; the generator
    indexed k only changes the label m_{k-1}.  For n = 3 this is
    build_so3(m_top), half-integer labels included.
    """
    if n == 3:
        return build_so3(m_top, p)
    return _assemble_generators(chain_labels(n, m_top)[-1], p)

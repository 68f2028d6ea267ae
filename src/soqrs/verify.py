"""Empirical checks: defining relations, adjoint conditions, metrics, intertwiners.

The deformed Serre-type relations for adjacent generators X, Y read

    X Y^2 - a Y X Y + Y^2 X = -X,      X^2 Y - a X Y X + Y X^2 = -Y,

with a = q^{1/2} + q^{-1/2}, and distant generators commute.  On a
truncated degenerate-series space these hold exactly on interior columns
(far enough below the cutoff that no length-3 walk leaves the space), so
the residuals are formed on those columns only; every report records how
many columns it checked out of the dimension.

The adjoint conditions distinguish the compact involution (every
generator anti-Hermitian) from the noncompact one (the generator that
mixes the two chains is Hermitian, the rest anti-Hermitian).  Where they
fail in the standard basis, a positive block-scalar metric may restore
them; multiplicity one of the compact decomposition makes a block-scalar
ansatz exhaustive.  Intertwiners between equivalent parameters are
likewise block-scalar diagonal.

Every residual is formed on bare CSC arrays (indptr, indices, data,
shape) by the compiled kernels of scipy.sparse._sparsetools that
scipy's own operators call on CSC operands: csr_matmat for a product,
formed as B^T A^T; csr_plus_csr and csr_minus_csr for a sum; csr_tocsc
for a transpose.  The kernels, their operands and the order of the
operations are those of the sparse-matrix expressions, so every
residual is bit for bit the one scipy's operators give, without a
sparse-matrix object per intermediate.  A column prefix is a view of
the arrays, and a row prefix that keeps every stored entry is a new
shape.

Every reported number is read from the CSC arrays: the largest residual
entry by an argmax over the stored data, whose column comes from the
column pointers.  The metric and intertwiner solvers walk the space's
block-edge table (gtbasis.BlockEdges) breadth-first over int block ids,
read the edge amplitudes of a rep from its CSC arrays, and form their
residuals A^H C - C A and S T_A - T_B S by scaling stored entries, with
one kernel subtraction per residual for the union of the two patterns.
The entrywise complex products are written in real arithmetic, as
scipy's sparse kernels form them, so every reported residual equals the
one of the sparse products bit for bit.

Only the noncompact generator depends on lambda, and only through one
scalar per block edge: a rep built by degenrep records its Frame, its
family signs and its edge scalars.  verify keeps one record per Frame
object in a weak mapping, so a record lives exactly as long as its
frame.  The structural check of a rep against its frame has three
points: every array of the frame and of the rep is read-only; the rep's
space and compact generators are the frame's own objects; its
noncompact indices, indptr and data equal, bit for bit, what
degenrep._noncompact_arrays forms from the frame, the signs and the edge
scalars (one O(nnz) comparison).  On first use, and with the row code
above, the record forms the relation rows without the noncompact
generator per (interior column count, a), the compact anti-Hermitian
star rows, which compact generators are block-diagonal, and the squares
of I_r and I_{r+2} on each column prefix a check asks for.  It forms the
far commutators [I_j, I_{r+1}], |j - r - 1| > 1, once on the frame's
unit K L pattern (every edge scalar 1).  G_j of a far j neither reads
the top label nor changes the label below it, the two labels K (or L)
reads, so each entry of such a commutator is one G_j coefficient times
one K L value times the edge scalar, on either side: a far row that
vanishes on the unit pattern vanishes on every rep of the frame and is
read from the record, and one that does not is formed on the rep.

A rep that passes all three points forms only the 4 junction rows
cubic[r,r+1]a/b and cubic[r+1,r+2]a/b of check_relations.  The star
rows and block-diagonal flags are results of the compact generators
alone, so the first two points suffice for them: check_star then forms
only the Hermitian row, and solve_intertwiner skips a compact generator
when both reps hold the same frame's own one and the record finds it
block-diagonal, since S T - T S is then exactly 0 for the block-scalar
S.  Every report is the full path's bit for bit.  Everything else takes
the full path through the same row code: a dump, a conjugated, edited
or re-spaced copy, a bare generator list.  The check reads write flags
and bits, not history: an array edited and made read-only again after
its frame's record was formed goes unseen.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .compactrep import GeneratorMatrix, _index_dtype
from .degenrep import DegenerateRep, Frame, _noncompact_arrays
from .gtbasis import BlockEdges
from .qarith import QParam

FOUND = "found"
NONE = "none"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class RelationResidual:
    """One residual row of a check.

    worst is the space.pattern row of the worst column, the column itself
    when there is no space, or None when the residual stores no entry.
    """

    relation: str
    residual: float
    worst: tuple | int | None = None

    def to_dict(self) -> dict:
        worst = list(self.worst) if isinstance(self.worst, tuple) else self.worst
        return {"relation": self.relation, "residual": self.residual, "worst": worst}


@dataclass
class ResidualReport:
    """Residual rows of one check, over `columns` of the `dim` basis columns."""

    rows: list[RelationResidual]
    tol: float
    columns: int
    dim: int

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol

    def worst_row(self) -> RelationResidual | None:
        return max(self.rows, key=lambda r: r.residual, default=None)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "columns": self.columns,
            "dim": self.dim,
            "rows": [r.to_dict() for r in self.rows],
        }


def _coerce(rep, qp: QParam | None, need_qp: bool = True):
    """Accept a DegenerateRep or a bare compact generator list."""
    if isinstance(rep, DegenerateRep):
        return rep.generators, rep.spec.qp, rep.space, rep.spec.r + 1
    gens = list(rep)
    if not gens or not isinstance(gens[0], GeneratorMatrix):
        raise TypeError("expected a DegenerateRep or a list of GeneratorMatrix")
    if qp is None and need_qp:
        raise ValueError("a QParam is required when passing bare generators")
    return gens, qp, None, None


def _pruned(buf: np.ndarray, n: int) -> np.ndarray:
    """buf[:n], copied when it uses less than half of buf, as scipy prunes."""
    return buf[:n].copy() if n < buf.size // 2 else buf[:n]


class _Csc:
    """A CSC matrix as bare arrays, with the few operations the checks need.

    `A @ B`, `A + B`, `A - B` and `A.transpose()` each make one call of
    the compiled kernel that scipy's operator makes on CSC operands, with
    the same operands in the same order; `x * A` scales the data as scipy
    does.  Output buffers are pruned as scipy prunes them.  Column and row
    prefixes share the arrays.
    """

    __slots__ = ("indptr", "indices", "data", "shape")
    __array_ufunc__ = None  # a numpy scalar times _Csc defers to __rmul__

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape

    @classmethod
    def of(cls, mat: sparse.spmatrix) -> _Csc:
        mat = mat.tocsc()
        nnz = mat.nnz
        return cls(mat.indptr, mat.indices[:nnz], mat.data[:nnz], mat.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def cols(self, n: int) -> _Csc:
        """The first n columns."""
        end = self.indptr[n]
        return _Csc(self.indptr[:n + 1], self.indices[:end], self.data[:end],
                    (self.shape[0], n))

    def rows(self, n: int) -> _Csc:
        """The first n rows, where every stored entry lies in the first n rows."""
        return _Csc(self.indptr, self.indices, self.data, (n, self.shape[1]))

    def _index_arrays(self, dtype) -> tuple:
        return np.asarray(self.indptr, dtype=dtype), np.asarray(self.indices, dtype=dtype)

    def __matmul__(self, other: _Csc) -> _Csc:
        # the CSC arrays of A B are the CSR arrays of B^T A^T
        (m, k), n = self.shape, other.shape[1]
        if other.shape[0] != k:
            raise ValueError(f"inconsistent shapes {self.shape} and {other.shape}")
        idx = _index_dtype(m, k, n, self.nnz, other.nnz)
        maxnnz = _sparsetools.csr_matmat_maxnnz(n, m, *other._index_arrays(idx),
                                                *self._index_arrays(idx))
        return _kernel(_sparsetools.csr_matmat, (m, n), other, self, maxnnz,
                       _index_dtype(m, k, n, self.nnz, other.nnz, maxnnz))

    def _binop(self, other: _Csc, kernel) -> _Csc:
        if other.shape != self.shape:
            raise ValueError(f"inconsistent shapes {self.shape} and {other.shape}")
        maxnnz = self.nnz + other.nnz
        return _kernel(kernel, self.shape, self, other, maxnnz,
                       _index_dtype(*self.shape, maxnnz))

    def __add__(self, other: _Csc) -> _Csc:
        return self._binop(other, _sparsetools.csr_plus_csr)

    def __sub__(self, other: _Csc) -> _Csc:
        return self._binop(other, _sparsetools.csr_minus_csr)

    def __rmul__(self, x) -> _Csc:
        return _Csc(self.indptr, self.indices, self.data * x, self.shape)

    def transpose(self) -> _Csc:
        m, n = self.shape
        idx = _index_dtype(m, n, self.nnz)
        indptr, indices = np.empty(m + 1, idx), np.empty(self.nnz, idx)
        data = np.empty(self.nnz, self.data.dtype)
        _sparsetools.csr_tocsc(n, m, *self._index_arrays(idx), self.data, indptr, indices, data)
        return _Csc(indptr, indices, data, (n, m))

    def adjoint(self) -> _Csc:
        return _Csc(self.indptr, self.indices, self.data.conjugate(), self.shape).transpose()


def _kernel(kernel, shape, first: _Csc, second: _Csc, maxnnz: int, idx) -> _Csc:
    """The CSC matrix of `shape` that kernel(major, minor, first, second, out) writes.

    The output buffers hold maxnnz entries with idx indices and are pruned.
    """
    m, n = shape
    dtype = np.result_type(first.data, second.data)
    indptr, indices = np.empty(n + 1, idx), np.empty(maxnnz, idx)
    data = np.empty(maxnnz, dtype)
    kernel(n, m, *first._index_arrays(idx), first.data.astype(dtype, copy=False),
           *second._index_arrays(idx), second.data.astype(dtype, copy=False),
           indptr, indices, data)
    nnz = int(indptr[-1])
    return _Csc(indptr, _pruned(indices, nnz), _pruned(data, nnz), shape)


def _column_max(mat: _Csc, space):
    """Largest |entry| of a CSC mat and the pattern of its column.

    The first largest entry in storage order, which is the order tocoo
    lists them in; its column comes from the column pointers.  The value
    is the scalar abs of that entry, which may differ in the last bit from
    the array abs the argmax compares.  The pattern is the label row
    space.pattern(col); without a space the column index stands in.
    """
    if mat.nnz == 0:
        return 0.0, None
    k = int(np.argmax(np.abs(mat.data)))
    col = int(np.searchsorted(mat.indptr, k, side="right")) - 1
    worst = space.pattern(col) if space is not None else col
    return float(abs(mat.data[k])), worst


def _relation_terms(idxs: list) -> list:
    """(name, kind, i, j) of every relation row among the sorted generator indices.

    kind is "a" or "b" for the two cubic relations of adjacent i, j and
    "c" for the commutator of distant ones.
    """
    terms = []
    for i in idxs[:-1]:
        terms.append((f"cubic[{i},{i + 1}]a", "a", i, i + 1))
        terms.append((f"cubic[{i},{i + 1}]b", "b", i, i + 1))
    terms += [(f"commutator[{i},{j}]", "c", i, j)
              for ii, i in enumerate(idxs) for j in idxs[ii + 1:] if j - i > 1]
    return terms


class _Relations:
    """The relation rows of one set of CSC generator matrices on their first ncols columns.

    Each product is evaluated right to left on the columns of its
    rightmost factor.  The terms Y^2 X and X^2 Y keep the association
    (Y Y) X, with Y Y formed only on the columns that X reaches, so every
    reported entry is summed in the same order as from the full products.
    squares[i][n] keeps mats[i] @ mats[i] on its first n columns; the
    squares passed in are shared with other checks, the rest are this
    object's own.
    """

    def __init__(self, mats: dict, ncols: int, a: float, squares: dict | None = None):
        self.mats, self.ncols, self.a = mats, ncols, a
        self.dim = next(iter(mats.values())).shape[1]
        self.cols = {i: M if ncols == self.dim else M.cols(ncols) for i, M in mats.items()}
        self.squares = {i: {} for i in mats} | (squares or {})

    def square(self, i: int, n: int) -> _Csc:
        """mats[i] @ mats[i] on its first n columns, formed once per (i, n)."""
        memo = self.squares[i]
        if n not in memo:
            M = self.mats[i]
            memo[n] = M @ (M if n == self.dim else M.cols(n))
        return memo[n]

    def square_times(self, i: int, right: _Csc) -> _Csc:
        """(mats[i] @ mats[i]) @ right, squaring only the columns right reaches."""
        n = self.dim
        if self.ncols != self.dim:
            n = int(right.indices.max()) + 1 if right.nnz else 0
            right = right.rows(n)
        return self.square(i, n) @ right

    def residual(self, kind: str, i: int, j: int) -> _Csc:
        mats, cols, a, ncols = self.mats, self.cols, self.a, self.ncols
        X, Y, Xc, Yc = mats[i], mats[j], cols[i], cols[j]
        if kind == "a":
            return X @ self.square(j, ncols) - a * (Y @ (X @ Yc)) + self.square_times(j, Xc) + Xc
        if kind == "b":
            return self.square_times(i, Yc) - a * (X @ (Y @ Xc)) + Y @ self.square(i, ncols) + Yc
        return X @ Yc - Y @ Xc

    def row(self, name: str, kind: str, i: int, j: int, space) -> RelationResidual:
        return RelationResidual(name, *_column_max(self.residual(kind, i, j), space))


def _star_row(g: GeneratorMatrix, hermitian: bool, space) -> RelationResidual:
    """The residual of M* = M (hermitian) or M* = -M for generator g."""
    mat = _Csc.of(g.mat)
    adj = mat.adjoint()
    if hermitian:
        return RelationResidual(f"star[{g.i}] hermitian", *_column_max(adj - mat, space))
    return RelationResidual(f"star[{g.i}] anti-hermitian", *_column_max(adj + mat, space))


def _compact_arrays(fr: Frame) -> list:
    """The data, indices and indptr arrays of the frame's compact generators, in order."""
    return [a for g in fr.compact for a in (g.mat.data, g.mat.indices, g.mat.indptr)]


class _FrameRecord:
    """The results of one degenrep Frame that no edge scalar enters.

    `arrays` pins the frame's compact arrays as they were when the record
    was made.  The rest is formed on first use: `relations` per (interior
    column count, a) maps a row name to its row, for the rows without
    the noncompact generator and for each far commutator that vanishes
    on the unit pattern; `star` maps a compact generator to its
    anti-Hermitian row; `block_diagonal` says whether each compact
    generator stores entries only in diagonal blocks; `squares` keeps
    I_r @ I_r and I_{r+2} @ I_{r+2} per column prefix.  A record holds no
    reference to its frame.
    """

    __slots__ = ("arrays", "relations", "star", "block_diagonal", "squares")

    def __init__(self, fr: Frame):
        self.arrays = _compact_arrays(fr)
        self.relations = {}
        self.star = None
        self.block_diagonal = None
        r = fr.space.r
        self.squares = {r: {}, r + 2: {}}

    def relation_rows(self, fr: Frame, mats: dict, ncols: int, a: float, terms: list,
                      noncompact_i: int) -> dict:
        """The rows of check_relations that this record holds for (ncols, a), formed once.

        The far commutators are formed with the noncompact generator
        replaced by the unit pattern: the frame's kl on its indices and
        indptr, every edge scalar 1.
        """
        key = (ncols, a)
        if key not in self.relations:
            space = fr.space
            compact = _Relations(mats, ncols, a, self.squares)
            unit = _Csc(fr.indptr, fr.indices, fr.kl, (space.dim, space.dim))
            far = _Relations({**mats, noncompact_i: unit}, ncols, a)
            rows = {}
            for name, kind, i, j in terms:
                if noncompact_i not in (i, j):
                    rows[name] = compact.row(name, kind, i, j, space)
                elif kind == "c":
                    row = far.row(name, kind, i, j, space)
                    if row.worst is None:  # the difference stores no entry at all
                        rows[name] = row
            self.relations[key] = rows
        return self.relations[key]

    def block_diagonal_flags(self, fr: Frame) -> dict:
        """Per compact generator index, whether every stored entry lies in a diagonal block."""
        if self.block_diagonal is None:
            space = fr.space
            block = np.repeat(np.arange(len(space.blocks)), np.diff(space.offsets))
            flags = {}
            for g in fr.compact:
                M = _Csc.of(g.mat)
                flags[g.i] = bool(np.array_equal(block[M.indices], block[_columns(M)]))
            self.block_diagonal = flags
        return self.block_diagonal


_records: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two 1-d arrays hold the same dtype, length and bits."""
    if x is y:
        return True
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype.kind in "fc":  # by bits: -0.0 is not 0.0, and a NaN equals itself
        bits = f"u{x.dtype.itemsize // (2 if x.dtype.kind == 'c' else 1)}"
        x, y = np.ascontiguousarray(x).view(bits), np.ascontiguousarray(y).view(bits)
    return np.array_equal(x, y)


def _compact_record(rep) -> _FrameRecord | None:
    """The record of rep's frame if rep holds the frame's own compact generators, else None.

    The first two points of the structural check: every array of the
    frame and of the rep is read-only, and the rep's space and compact
    generators are the frame's own objects, holding the arrays the record
    pinned.  Enough for the results of the compact generators alone: the
    star rows and the block-diagonal flags.
    """
    fr = getattr(rep, "frame", None)
    if fr is None or rep.space is not fr.space or rep.edge_values is None:
        return None
    record = _records.get(fr)
    if record is None:
        record = _records[fr] = _FrameRecord(fr)
    k = rep.spec.r - 1
    gens, compact = rep.generators, _compact_arrays(fr)
    if (len(gens) != len(fr.compact) + 1 or gens[k].i != rep.spec.r + 1
            or any(g is not h for g, h in zip(gens[:k] + gens[k + 1:], fr.compact))
            or any(a is not b for a, b in zip(compact, record.arrays))):
        return None
    N = gens[k].mat
    arrays = [fr.indices, fr.indptr, fr.kl, fr.edge, fr.family, fr.sigma, fr.d,
              rep.edge_values, N.data, N.indices, N.indptr, *compact]
    if any(a.flags.writeable for a in arrays):
        return None
    return record


def _frame_record(rep) -> _FrameRecord | None:
    """The record of rep's frame if rep is exactly what its frame builds, else None.

    The whole structural check: _compact_record's two points, and a
    noncompact generator that is a CSC matrix whose indices, indptr and
    data equal, bit for bit, degenrep._noncompact_arrays of the frame,
    the rep's signs and its edge values.  One O(nnz) comparison; nothing
    is cached.
    """
    record = _compact_record(rep)
    if record is None:
        return None
    fr, N = rep.frame, rep.noncompact.mat
    if (N.format != "csc" or N.shape != (fr.space.dim,) * 2
            or rep.edge_values.shape != fr.family.shape):
        return None
    want = _noncompact_arrays(fr, rep.signs, rep.edge_values)
    if not all(_same_bits(x, y) for x, y in zip(want, (N.data, N.indices, N.indptr))):
        return None
    return record


def check_relations(rep, *, depth: int = 3, tol: float = 1e-9,
                    qp: QParam | None = None) -> ResidualReport:
    """Residuals of the defining relations, restricted to interior columns.

    For a compact representation there is no truncation and every column
    counts; for a degenerate representation only columns at least `depth`
    below the top ring enter the report, and the residuals are formed on
    those columns only (see _Relations).

    A rep that passes the structural check of its frame (see the module
    docstring) forms only the 4 junction rows cubic[r,r+1]a/b and
    cubic[r+1,r+2]a/b, and reads the other rows and the squares of I_r
    and I_{r+2} from the frame's record.  Any other input forms every row.
    """
    gens, p, space, noncompact_i = _coerce(rep, qp)
    mats = {g.i: _Csc.of(g.mat) for g in gens}
    dim = gens[0].mat.shape[1]
    ncols = dim if space is None else len(space.interior_indices(depth))
    terms = _relation_terms(sorted(mats))
    record = _frame_record(rep)
    if record is None:
        known, squares = {}, None
    else:
        known = record.relation_rows(rep.frame, mats, ncols, p.a, terms, noncompact_i)
        squares = record.squares
    forms = _Relations(mats, ncols, p.a, squares)
    rows = [known[name] if name in known else forms.row(name, kind, i, j, space)
            for name, kind, i, j in terms]
    return ResidualReport(rows, tol, ncols, dim)


def check_star(rep, tol: float = 1e-9, qp: QParam | None = None) -> ResidualReport:
    """Adjoint-condition residuals per generator.

    Compact generators must satisfy M* = -M; for a degenerate
    representation the noncompact generator must satisfy M* = M instead.
    A rep that holds its frame's own compact generators (the first two
    points of the structural check) forms only its Hermitian row and
    reads the compact rows from the frame's record, which forms them once.
    """
    gens, _, space, noncompact_i = _coerce(rep, qp, need_qp=False)
    record = _compact_record(rep)
    if record is not None and record.star is None:
        record.star = {g.i: _star_row(g, False, space) for g in rep.frame.compact}
    rows = [record.star[g.i] if record is not None and g.i != noncompact_i
            else _star_row(g, g.i == noncompact_i, space) for g in gens]
    dim = gens[0].mat.shape[1]
    return ResidualReport(rows, tol, dim, dim)


# ---------------------------------------------------------------------------
# block-scalar metric and intertwiners


@dataclass
class MetricSolution:
    """Outcome of solve_metric; `reason` says why the status is not `found`."""

    status: str
    weights: dict | None = None
    residual: float | None = None
    connected: bool = True
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "residual": self.residual,
            "connected": self.connected,
            "weights": None if self.weights is None else {
                f"{m},{mp}": v for (m, mp), v in sorted(self.weights.items())
            },
        }


@dataclass
class IntertwinerSolution:
    block_values: dict
    diagonal: np.ndarray
    residual: float


def _entries(mat: sparse.csc_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """mat[rows[k], cols[k]] for every k, read from the CSC arrays.

    Each column is scanned for its row over its stored entries, at most
    one per family in a noncompact generator, and the hits are read with
    one gather of the data.  An absent entry reads 0.0,
    and adding 0.0 reads a -0.0 part as 0.0, as a scalar lookup does.
    """
    if mat.nnz == 0:
        return np.zeros(len(rows), dtype=np.complex128)
    start, end = mat.indptr[cols], mat.indptr[cols + 1]
    slot = start[:, None] + np.arange(max((end - start).max(initial=0), 1))
    hit = (slot < end[:, None]) & (mat.indices[np.minimum(slot, mat.nnz - 1)] == rows[:, None])
    pos = slot[np.arange(len(rows)), hit.argmax(axis=1)]
    return np.where(hit.any(axis=1), mat.data[np.minimum(pos, mat.nnz - 1)], 0) + 0.0


def _moduli(fwd: np.ndarray, other: np.ndarray):
    """(|fwd|, |other|, scale, ztol) of the edge amplitudes.

    The moduli are those of Python's complex abs; scale is the largest of
    them (1.0 without edges) and ztol = 1e-13 max(scale, 1) the modulus
    at or below which an amplitude counts as zero.
    """
    abs_f, abs_o = np.hypot(fwd.real, fwd.imag), np.hypot(other.real, other.imag)
    scale = float(np.maximum(abs_f, abs_o).max()) if fwd.size else 1.0
    return abs_f, abs_o, scale, 1e-13 * max(scale, 1.0)


def _propagate(edges: BlockEdges, forward: list, backward: list, tol: float):
    """Block values from the base block along the usable edges, breadth first.

    forward[k] is the step value(dst) / value(src) along edge k and
    backward[k] the step back; None marks an edge with no constraint.
    Returns (value per block id, None where unreached; ids in discovery
    order; the first broken edge or None).  An edge breaks when it
    proposes the value 0 for a block, or, walked again, a value off by a
    relative mismatch over tol; it is reported as (edge, block, mismatch),
    with mismatch 1.0 for a proposed 0.
    """
    values = [None] * len(edges.adjacency)
    values[0] = complex(1.0)
    order = [0]
    broken = None
    for cur in order:
        for k, other, backwards in edges.adjacency[cur]:
            r = backward[k] if backwards else forward[k]
            if r is None:
                continue
            proposed = values[cur] * r
            if values[other] is None:
                values[other] = proposed
                order.append(other)
                if proposed == 0.0 and broken is None:
                    broken = (k, other, 1.0)
            else:
                scale = max(abs(values[other]), abs(proposed), 1e-300)
                mismatch = abs(values[other] - proposed) / scale
                if mismatch > tol and broken is None:
                    broken = (k, other, mismatch)
    return values, order, broken


def _times(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s * g entrywise, as (s.re g.re - s.im g.im) + i (s.re g.im + s.im g.re)."""
    out = np.empty(g.shape, dtype=np.complex128)
    out.real = s.real * g.real - s.imag * g.imag
    out.imag = s.real * g.imag + s.imag * g.real
    return out


def _max_abs(data: np.ndarray) -> float:
    return float(np.max(np.abs(data))) if data.size else 0.0


def _columns(mat: _Csc) -> np.ndarray:
    """The column of every stored entry."""
    return np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))


def solve_metric(rep: DegenerateRep, tol: float = 1e-8) -> MetricSolution:
    """Positive block weights c making the noncompact generator Hermitian.

    Solves c_dst * A[dst,src] = c_src * conj(A[src,dst]) across block
    edges, normalized to 1 on the base block, then verifies the full
    weighted adjoint residual.  Status is `found` for a consistent
    all-positive solution, `indefinite` when a consistent real solution
    needs sign changes, `none` when the recurrences are inconsistent or
    inherently non-real; `reason` names the edge, block or residual
    behind any status but `found`.
    """
    space = rep.space
    edges = space.block_edges
    A = rep.noncompact.mat
    n = edges.src.size
    amp = _entries(A, np.concatenate((edges.col_dst, edges.col_src)),
                   np.concatenate((edges.col_src, edges.col_dst)))
    fwd, back = amp[:n], amp[n:]
    abs_f, abs_b, scale, ztol = _moduli(fwd, back)
    # c_dst / c_src = conj(back) / fwd; an edge with one side zero admits
    # no invertible solution and steps to 0
    zero_f, zero_b = abs_f <= ztol, abs_b <= ztol
    one_sided, solved = zero_f ^ zero_b, ~(zero_f | zero_b)
    forward, backward = [None] * n, [None] * n
    for k in np.flatnonzero(one_sided).tolist():
        forward[k] = backward[k] = 0.0
    ratio = np.conj(back[solved]) / fwd[solved]
    for k, r, inv in zip(np.flatnonzero(solved).tolist(), ratio, 1.0 / ratio):
        forward[k], backward[k] = r, inv
    values, order, broken = _propagate(edges, forward, backward, tol)
    blocks = space.blocks
    connected = len(order) == len(blocks)

    def block_pair(k):
        return f"{blocks[edges.src[k]]}-{blocks[edges.dst[k]]}"

    if broken is not None:
        k, other, mismatch = broken
        # a one-sided edge may close a cycle, so check the edge, not the walk
        if one_sided[k]:
            reason = (f"one-sided edge {block_pair(k)} forces weight 0 on block "
                      f"{blocks[other]}: |A[dst,src]| = {abs_f[k]:.3e}, "
                      f"|A[src,dst]| = {abs_b[k]:.3e}, zero below {ztol:.3e}")
        else:
            reason = (f"inconsistent edge {block_pair(k)}: relative mismatch "
                      f"{mismatch:.3e} > {tol:g}")
        return MetricSolution(NONE, None, None, connected, reason)
    vals = np.array([v for v in values if v is not None])
    imag, size = np.max(np.abs(vals.imag)), np.max(np.abs(vals))
    if imag > tol * size:
        return MetricSolution(NONE, None, None, connected,
                              f"weights are not real: max |Im c| = {imag:.3e} "
                              f"against max |c| = {size:.3e}")
    if not connected:
        return MetricSolution(NONE, None, None, False,
                              f"disconnected: {len(order)} of {len(blocks)} blocks "
                              f"reached from {blocks[0]}")
    weights = {blocks[b]: float(values[b].real) for b in order}
    diag = space.block_diagonal(weights)
    # A^H C - C A entrywise: C scales A^H by columns and A by rows, and the
    # row of an entry of A is the column of its entry of A^H.  Both terms are
    # formed transposed, as scipy subtracts them in CSR: A's CSC arrays with
    # the data conjugated and scaled are those of (A^H C)^T, and (C A)^T is
    # one transpose of C A
    A = _Csc.of(A)
    w = diag[A.indices]
    adjoint_c_t = _Csc(A.indptr, A.indices, np.conj(A.data) * w, A.shape[::-1])
    c_a_t = _Csc(A.indptr, A.indices, w * A.data, A.shape).transpose()
    residual = _max_abs((adjoint_c_t - c_a_t).data)
    rel = residual / max(scale * max(abs(v) for v in weights.values()), 1e-300)
    if rel > tol:
        return MetricSolution(NONE, weights, residual, connected,
                              f"weighted adjoint residual {residual:.3e} is "
                              f"{rel:.3e} relative, over {tol:g}")
    if min(weights.values()) <= 0.0:
        b = next(b for b in blocks if weights[b] <= 0.0)
        return MetricSolution(INDEFINITE, weights, residual, connected,
                              f"first nonpositive weight: block {b}, c = {weights[b]:.6g}")
    return MetricSolution(FOUND, weights, residual, connected)


def solve_intertwiner(repA: DegenerateRep, repB: DegenerateRep,
                      tol: float = 1e-8) -> IntertwinerSolution | None:
    """Block-scalar diagonal S with S T_A(X) = T_B(X) S for all generators.

    Returns None when the linear conditions are inconsistent or require a
    non-invertible S.  The diagonal is normalized to 1 on the base block.
    A compact generator adds no residual and is skipped when both reps
    hold the same frame's own compact generators (the first two points of
    the structural check) and its record finds the generator
    block-diagonal.
    """
    sa, sb = repA.spec, repB.spec
    if (sa.r, sa.s, sa.epsilon, sa.cutoff, sa.qp) != (sb.r, sb.s, sb.epsilon, sb.cutoff, sb.qp):
        raise ValueError("intertwiner requires matching (r, s, epsilon, q, cutoff)")
    space = repA.space
    edges = space.block_edges
    a_fwd = _entries(repA.noncompact.mat, edges.col_dst, edges.col_src)
    b_fwd = _entries(repB.noncompact.mat, edges.col_dst, edges.col_src)
    abs_a, abs_b, scale, ztol = _moduli(a_fwd, b_fwd)
    # s_dst / s_src = b_fwd / a_fwd, divided as Python complex numbers
    zero_a, zero_b = abs_a <= ztol, abs_b <= ztol
    forward, backward = [], []
    for a, b, za, zb in zip(a_fwd.tolist(), b_fwd.tolist(), zero_a.tolist(), zero_b.tolist()):
        if za and zb:
            r = inv = None
        elif za or zb:
            r = inv = 0.0
        else:
            r = b / a
            inv = 1.0 / r
        forward.append(r)
        backward.append(inv)
    values, order, broken = _propagate(edges, forward, backward, tol)
    if broken is not None or len(order) < len(space.blocks):
        return None
    block_values = {space.blocks[b]: values[b] for b in order}
    diag = space.block_diagonal(block_values)
    # S T - T S is exactly 0 for a block-scalar S and a block-diagonal T
    record = _compact_record(repA)
    block_diagonal = {}
    if record is not None and _compact_record(repB) is record:
        block_diagonal = record.block_diagonal_flags(repA.frame)
    residual = 0.0
    for ga, gb in zip(repA.generators, repB.generators):
        if block_diagonal.get(ga.i, False):
            continue
        A, B = _Csc.of(ga.mat), _Csc.of(gb.mat)
        s_a = _Csc(A.indptr, A.indices, _times(diag[A.indices], A.data), A.shape)  # S T_A
        b_s = _Csc(B.indptr, B.indices, _times(diag[_columns(B)], B.data), B.shape)  # T_B S
        residual = max(residual, _max_abs((s_a - b_s).data))
    rel_scale = scale * max(abs(v) for v in block_values.values())
    if residual > tol * max(rel_scale, 1.0):
        return None
    return IntertwinerSolution(block_values, diag, residual)

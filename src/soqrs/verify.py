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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .compactrep import GeneratorMatrix
from .degenrep import DegenerateRep
from .gtbasis import ChainPattern, DoublePattern
from .qarith import QParam

FOUND = "found"
NONE = "none"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class RelationResidual:
    relation: str
    residual: float
    worst: object = None

    def to_dict(self) -> dict:
        worst = None
        if self.worst is not None:
            worst = getattr(self.worst, "as_list", lambda: self.worst)()
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


def _column_max(mat: sparse.spmatrix, space):
    """Largest |entry| of mat and the pattern of its column.

    Without a space the column index itself stands in for the pattern.
    """
    coo = mat.tocoo()
    if coo.nnz == 0:
        return 0.0, None
    k = int(np.argmax(np.abs(coo.data)))
    col = int(coo.col[k])
    worst = space.pattern(col) if space is not None else col
    return float(abs(coo.data[k])), worst


def check_relations(rep, *, depth: int = 3, tol: float = 1e-9,
                    qp: QParam | None = None) -> ResidualReport:
    """Residuals of the defining relations, restricted to interior columns.

    For a compact representation there is no truncation and every column
    counts; for a degenerate representation only columns at least `depth`
    below the top ring enter the report, and the residuals are formed on
    those columns only: each product is evaluated right to left on the
    interior columns of its rightmost factor.  The terms Y^2 X and X^2 Y
    keep the association (Y Y) X, with Y Y formed only on the columns
    that X reaches, so every reported entry is summed in the same order
    as from the full products.
    """
    gens, p, space, _ = _coerce(rep, qp)
    a = p.a
    mats = {g.i: g.mat.tocsc() for g in gens}
    dim = gens[0].mat.shape[1]
    ncols = dim if space is None else len(space.interior_indices(depth))
    cols = {i: M if ncols == dim else M[:, :ncols] for i, M in mats.items()}
    squares = {}

    def square(i: int, n: int):
        """mats[i] @ mats[i] on its first n columns, formed once per (i, n)."""
        if (i, n) not in squares:
            M = mats[i]
            squares[i, n] = M @ (M if n == dim else M[:, :n])
        return squares[i, n]

    def square_times(i: int, right):
        """(mats[i] @ mats[i]) @ right, squaring only the columns right reaches."""
        n = dim
        if ncols != dim:
            n = int(right.indices.max()) + 1 if right.nnz else 0
            right = right[:n, :]
        return square(i, n) @ right

    idxs = sorted(mats)
    rows = []
    for i in idxs[:-1]:
        X, Y, Xc, Yc = mats[i], mats[i + 1], cols[i], cols[i + 1]
        r1 = (X @ square(i + 1, ncols) - a * (Y @ (X @ Yc))
              + square_times(i + 1, Xc) + Xc)
        res, worst = _column_max(r1, space)
        rows.append(RelationResidual(f"cubic[{i},{i + 1}]a", res, worst))
        r2 = (square_times(i, Yc) - a * (X @ (Y @ Xc))
              + Y @ square(i, ncols) + Yc)
        res, worst = _column_max(r2, space)
        rows.append(RelationResidual(f"cubic[{i},{i + 1}]b", res, worst))
    for ii, i in enumerate(idxs):
        for j in idxs[ii + 1:]:
            if j - i <= 1:
                continue
            c = mats[i] @ cols[j] - mats[j] @ cols[i]
            res, worst = _column_max(c, space)
            rows.append(RelationResidual(f"commutator[{i},{j}]", res, worst))
    return ResidualReport(rows, tol, ncols, dim)


def check_star(rep, tol: float = 1e-9, qp: QParam | None = None) -> ResidualReport:
    """Adjoint-condition residuals per generator.

    Compact generators must satisfy M* = -M; for a degenerate
    representation the noncompact generator must satisfy M* = M instead.
    """
    gens, _, space, noncompact_i = _coerce(rep, qp, need_qp=False)
    rows = []
    for g in gens:
        adj = g.mat.conjugate().transpose().tocsc()
        if g.i == noncompact_i:
            res, worst = _column_max(adj - g.mat, space)
            rows.append(RelationResidual(f"star[{g.i}] hermitian", res, worst))
        else:
            res, worst = _column_max(adj + g.mat, space)
            rows.append(RelationResidual(f"star[{g.i}] anti-hermitian", res, worst))
    dim = gens[0].mat.shape[1]
    return ResidualReport(rows, tol, dim, dim)


# ---------------------------------------------------------------------------
# block-scalar metric and intertwiners


@dataclass
class MetricSolution:
    status: str
    weights: dict | None = None
    residual: float | None = None
    connected: bool = True

    def to_dict(self) -> dict:
        return {
            "status": self.status,
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


def _zero_chain_index(space, m: int, mp: int) -> int:
    """Index of the pattern of block (m, m') with all inner labels zero."""
    left = ChainPattern(space.r, (m,) + (0,) * (space.r - 2))
    right = ChainPattern(space.s, (mp,) + (0,) * (space.s - 2))
    return space.index_of(DoublePattern(left, right))


def _block_edges(rep: DegenerateRep):
    """Representative matrix entries for every block transition.

    Yields (src_block, dst_block, a_fwd, a_back): the noncompact entries
    between the all-zero inner patterns of the two blocks, in both
    directions.
    """
    A = rep.noncompact.mat
    space = rep.space
    blocks = set(space.blocks)
    seen = set()
    for (m, mp) in space.blocks:
        for dm, dmp in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            dst = (m + dm, mp + dmp)
            if dst not in blocks:
                continue
            key = ((m, mp), dst)
            if key in seen or (dst, (m, mp)) in seen:
                continue
            seen.add(key)
            i_src = _zero_chain_index(space, m, mp)
            i_dst = _zero_chain_index(space, *dst)
            yield (m, mp), dst, complex(A[i_dst, i_src]), complex(A[i_src, i_dst])


def _bfs_block_solution(space, edge_ratio, start_value=1.0):
    """Propagate block values from the base block along usable edges.

    edge_ratio(src, dst) returns the multiplicative step or None when the
    edge carries no constraint.  Returns (values, max relative mismatch on
    revisited edges, connected flag).
    """
    base = space.blocks[0]
    values = {base: complex(start_value)}
    queue = [base]
    mismatch = 0.0
    adjacency = {}
    for src, dst, a_fwd, a_back in edge_ratio["edges"]:
        adjacency.setdefault(src, []).append((dst, a_fwd, a_back, False))
        adjacency.setdefault(dst, []).append((src, a_fwd, a_back, True))
    ratio_fn = edge_ratio["ratio"]
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
    connected = len(values) == len(space.blocks)
    return values, mismatch, connected


def solve_metric(rep: DegenerateRep, tol: float = 1e-8) -> MetricSolution:
    """Positive block weights c making the noncompact generator Hermitian.

    Solves c_dst * A[dst,src] = c_src * conj(A[src,dst]) across block
    transitions, normalized to 1 on the base block, then verifies the full
    weighted adjoint residual.  Status is `found` for a consistent
    all-positive solution, `indefinite` when a consistent real solution
    needs sign changes, `none` when the recurrences are inconsistent or
    inherently non-real.
    """
    edges = list(_block_edges(rep))
    scale = max((max(abs(f), abs(b)) for _, _, f, b in edges), default=1.0)
    ztol = 1e-13 * max(scale, 1.0)

    def ratio(a_fwd, a_back, reversed_):
        # c_dst / c_src = conj(a_back) / a_fwd  (or its inverse when walking
        # the edge backwards)
        if abs(a_fwd) <= ztol and abs(a_back) <= ztol:
            return None
        if abs(a_fwd) <= ztol or abs(a_back) <= ztol:
            return 0.0  # one-sided edge: no invertible positive solution
        r = np.conj(a_back) / a_fwd
        return 1.0 / r if reversed_ else r

    values, mismatch, connected = _bfs_block_solution(
        rep.space, {"edges": edges, "ratio": ratio}
    )
    if any(v == 0.0 for v in values.values()) or mismatch > tol:
        return MetricSolution(NONE, None, None, connected)
    vals = np.array([values[b] for b in rep.space.blocks if b in values])
    if np.max(np.abs(vals.imag)) > tol * np.max(np.abs(vals)):
        return MetricSolution(NONE, None, None, connected)

    if not connected:
        return MetricSolution(NONE, None, None, False)
    weights = {b: float(v.real) for b, v in values.items()}
    diag = rep.space.block_diagonal(weights)

    A = rep.noncompact.mat
    C = sparse.diags(diag).tocsc()
    res_mat = (A.conjugate().transpose() @ C - C @ A).tocoo()
    residual = float(np.max(np.abs(res_mat.data))) if res_mat.nnz else 0.0
    rel = residual / max(scale * max(abs(w) for w in weights.values()), 1e-300)
    if rel > tol:
        return MetricSolution(NONE, weights, residual, connected)
    if min(weights.values()) <= 0.0:
        return MetricSolution(INDEFINITE, weights, residual, connected)
    return MetricSolution(FOUND, weights, residual, connected)


def solve_intertwiner(repA: DegenerateRep, repB: DegenerateRep,
                      tol: float = 1e-8) -> IntertwinerSolution | None:
    """Block-scalar diagonal S with S T_A(X) = T_B(X) S for all generators.

    Returns None when the linear conditions are inconsistent or require a
    non-invertible S.  The diagonal is normalized to 1 on the base block.
    """
    sa, sb = repA.spec, repB.spec
    if (sa.r, sa.s, sa.epsilon, sa.cutoff, sa.qp) != (sb.r, sb.s, sb.epsilon, sb.cutoff, sb.qp):
        raise ValueError("intertwiner requires matching (r, s, epsilon, q, cutoff)")
    A, B = repA.noncompact.mat, repB.noncompact.mat
    space = repA.space

    edges = []
    for src, dst, a_fwd, _ in _block_edges(repA):
        i_src = _zero_chain_index(space, *src)
        i_dst = _zero_chain_index(space, *dst)
        edges.append((src, dst, a_fwd, complex(B[i_dst, i_src])))
    scale = max(
        (max(abs(f), abs(b)) for _, _, f, b in edges), default=1.0
    )
    ztol = 1e-13 * max(scale, 1.0)

    def ratio(a_fwd, b_fwd, reversed_):
        # s_dst / s_src = b_fwd / a_fwd on the forward direction
        if abs(a_fwd) <= ztol and abs(b_fwd) <= ztol:
            return None
        if abs(a_fwd) <= ztol or abs(b_fwd) <= ztol:
            return 0.0
        r = b_fwd / a_fwd
        return 1.0 / r if reversed_ else r

    values, mismatch, connected = _bfs_block_solution(
        space, {"edges": edges, "ratio": ratio}
    )
    if any(v == 0.0 for v in values.values()) or mismatch > tol or not connected:
        return None

    diag = space.block_diagonal(values)
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


def conjugate_rep(rep: DegenerateRep, block_values: dict) -> DegenerateRep:
    """Conjugate every generator by the block-scalar diagonal D: A -> D A D^-1."""
    diag = rep.space.block_diagonal(block_values)
    D = sparse.diags(diag).tocsc()
    Dinv = sparse.diags(1.0 / diag).tocsc()
    gens = [GeneratorMatrix(g.i, (D @ g.mat @ Dinv).tocsc()) for g in rep.generators]
    return DegenerateRep(rep.spec, rep.space, gens, rep.basis_kind + "+conjugated")

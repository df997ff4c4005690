"""Global degree-of-freedom management, assembly, and solvers.

Unknowns are ordered with all interior-face blocks first (by face id) and
all cell blocks after (by element id), so static condensation is a
trailing-block Schur complement.  Boundary faces are eliminated (rows and
columns dropped), which keeps the assembled matrix symmetric positive
definite.

Element data stays in the stacks of ``mesh.batches`` (elements with equal
corner and face counts) from the local operators to the solution: the dof
map gives one (B, n_local) index array per stack, and the scatter, the
static condensation and its recovery run stack by stack.  A global entry
sums the contributions of at most the two elements next to a face, so
the assembled bytes do not depend on the order of the stacks.

The full assembled matrix is what ``solve`` factors, and the reference that
``--dump-matrix``, ``hho2d check`` and criterion 12 (condensation agreement) use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hho2d import hho_local as hl
from hho2d import polybasis as pb
from hho2d.mesh import _frozen, _rows, _stacked_lapack, _stored

K_MAX = 3  # the highest polynomial degree the solver and the CLI accept


class AssemblyError(Exception):
    """Inconsistent global system (kernel leak, bad degree, ...)."""


class SolverError(Exception):
    """Factorization failure or iterative non-convergence."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class DofMap:
    """Element-to-global dof layout: interior-face blocks, then cell blocks.

    ``index`` lists, element after element, the read-only global index of
    every local dof (cell block, then one block per face in loop order), -1
    where the dof is eliminated; element e's run is
    ``index[ptr[e]:ptr[e + 1]]``, the CSR form of ``ElementTable``.
    ``stacks`` pairs each stack of ``mesh.batches`` with its read-only
    (B, n_local) indices, as the mesh keeps its stack rows.
    """

    k: int
    n_face_dofs: int
    total: int
    ptr: np.ndarray
    index: np.ndarray
    stacks: tuple

    def indices(self, ids):
        """Global indices (B, n_local) of the stack ``ids``, elements with
        equal face counts; -1 where eliminated."""
        return _stored(self.stacks, ids, 1, lambda ids: self.index[_rows(self.ptr, ids)])


def build_dof_map(mesh, k):
    try:
        k = operator.index(k)
    except TypeError:
        k = None
    if k not in range(K_MAX + 1):
        degrees = ", ".join(map(str, range(K_MAX + 1)))
        raise AssemblyError(f"polynomial degree must be in {{{degrees}}}")
    interior = mesh.interior_face_ids()
    face_offset = np.full(mesh.n_faces, -1, dtype=int)
    face_offset[interior] = (k + 1) * np.arange(len(interior))
    n_face_dofs = (k + 1) * len(interior)
    nc = hl.cell_block_dim(k)
    els = mesh.elements
    off = face_offset[els.face_ids][:, None]
    faces = np.where(off >= 0, off + np.arange(k + 1), -1)
    cells = n_face_dofs + np.arange(mesh.n_elements * nc)
    # each element's cell block goes in front of its face blocks
    index = np.insert(faces.ravel(), np.repeat(els.face_ptr[:-1] * (k + 1), nc), cells)
    ptr = els.face_ptr * (k + 1) + nc * np.arange(mesh.n_elements + 1)
    stacks = tuple((s, _frozen(index[_rows(ptr, s)])) for s in mesh.batches)
    return DofMap(k=k, n_face_dofs=n_face_dofs, total=n_face_dofs + nc * mesh.n_elements,
                  ptr=_frozen(ptr), index=_frozen(index), stacks=stacks)


@dataclass
class GlobalHhoVector:
    """Flat coefficient vector plus the gather/scatter logic."""

    dofmap: DofMap
    data: np.ndarray

    def local_flat(self, ids):
        """Local flat vectors (B, n_local) of the stack ``ids``, elements with
        equal face counts; boundary-face blocks read zero."""
        idx = self.dofmap.indices(ids)
        keep = idx >= 0
        out = np.zeros(idx.shape)
        out[keep] = self.data[idx[keep]]
        return out

    def scatter_add(self, ids, local_flat):
        """Add the local vectors (B, n_local) of the stack ``ids``."""
        idx = self.dofmap.indices(ids)
        keep = idx >= 0
        np.add.at(self.data, idx[keep], np.asarray(local_flat)[keep])

    @classmethod
    def zeros(cls, dofmap):
        return cls(dofmap=dofmap, data=np.zeros(dofmap.total))


def build_local_operators(mesh, k):
    """One ``LocalOperators`` stack per batch of ``mesh.batches``, in order."""
    return [hl.local_operators(mesh, ids, k) for ids in mesh.batches]


@dataclass
class SparseSpdSystem:
    """Assembled symmetric positive definite system."""

    mesh: object
    k: int
    dofmap: DofMap
    matrix: sp.csr_matrix
    rhs: np.ndarray
    ops: list                # one LocalOperators stack per mesh batch


def assemble(mesh, k, f, ops=None):
    """Assemble stiffness and load for the homogeneous Dirichlet problem.

    The load tests the source against the piecewise cell value: the cell
    polynomial for k >= 1, the distance-weighted face average for k = 0.
    """
    dofmap = build_dof_map(mesh, k)
    if ops is None:
        ops = build_local_operators(mesh, k)
    rhs = GlobalHhoVector.zeros(dofmap)
    for op in ops:
        rhs.scatter_add(op.elem_id, _local_loads(mesh, k, f, op))
    matrix = _scatter_blocks(
        ((dofmap.indices(op.elem_id), op.stiff) for op in ops), dofmap.total
    )
    system = SparseSpdSystem(
        mesh=mesh, k=k, dofmap=dofmap, matrix=matrix, rhs=rhs.data, ops=ops
    )
    _check_diagonal(system)
    return system


def _scatter_blocks(blocks, n):
    """Sum ``(indices, local matrices)`` stacks, (B, m) and (B, m, m), into an
    n x n CSR matrix.

    Rows and columns whose index is -1 (eliminated dofs) are dropped, and so
    are zero values: a CSR built here stores no explicit zero.  The triplets
    keep the order of ``blocks``, so equal inputs sum to identical bytes, and
    their indices are int32 while n fits, as the CSR's own are.
    """
    if n == 0:
        return sp.csr_matrix((0, 0))
    itype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = [], [], []
    for idx, local in blocks:
        idx = idx.astype(itype)
        m = idx.shape[-1]
        r, c = np.repeat(idx, m, axis=-1), np.tile(idx, m)
        v = local.reshape(r.shape)
        keep = (r >= 0) & (c >= 0) & (v != 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    matrix.eliminate_zeros()  # entries whose contributions cancel exactly
    return matrix


def _local_loads(mesh, k, f, op):
    """Load vectors (B, n_local) of one operator stack, one source evaluation."""
    points, weights = pb.cell_quadratures(mesh, op.elem_id, 2 * k + 4)
    fw = weights * f(points.reshape(-1, 2)).reshape(weights.shape)
    if k == 0:
        return fw.sum(axis=1)[:, None] * op.avg_weights
    Vc = op.cell_basis.eval(points)
    loads = np.zeros(op.avg_weights.shape)
    loads[:, :hl.cell_block_dim(k)] = (fw[:, None, :] @ Vc)[:, 0]
    return loads


def _check_diagonal(system):
    diag = system.matrix.diagonal()
    bad = np.flatnonzero(diag <= 0)
    if len(bad):
        dof = int(bad[0])
        # the first element, by id, with a local dof there
        pos = np.flatnonzero(system.dofmap.index == dof)[0]
        elem = np.searchsorted(system.dofmap.ptr, pos, side="right") - 1
        raise AssemblyError(
            f"non-positive diagonal at dof {dof} (element {elem}): "
            "broken geometry or coercivity"
        )


RESIDUAL_TOL = 1e-12  # relative residual every solve must reach
SOLVE_METHODS = ("direct", "cg")


@dataclass
class SolveInfo:
    """Outcome of a solve: the relative residual |b - Ax|_2 / |b|_2, CG
    iterations, and the normwise backward error
    |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf) (Higham, ch. 7)."""

    method: str
    residual: float
    iterations: int = 0
    backward_error: float = 0.0

    def __str__(self):
        return (f"relative residual = {self.residual:.3e}, "
                f"backward error = {self.backward_error:.3e}")


def _solve_info(method, A, x, b, iterations=0):
    A = A.tocsr()
    r = b - A @ x
    # |A|_inf by rows: reduceat misreads an empty row, which SPD matrices lack
    norm_A = np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max()
    scale = norm_A * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    return SolveInfo(
        method=method,
        residual=float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300)),
        iterations=iterations,
        backward_error=float(np.linalg.norm(r, np.inf) / max(scale, 1e-300)),
    )


def _factor(A):
    """Sparse LU of an SPD matrix, minimum degree on A^T + A with diagonal
    pivots: SuperLU's default COLAMD ignores symmetry and fills 3-15x more.
    The CSR arrays of A are read as CSC (A^T) with no copy, so A must be
    symmetric byte for byte: A, N and S scatter ``_sym``'d blocks, a global
    entry summing at most two, and so does ``classics.cr_assemble``."""
    return spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def solve(system, method="direct"):
    """Solve to relative residual <= RESIDUAL_TOL by a sparse direct factor
    refined once, or by Jacobi-preconditioned CG with ``method="cg"``;
    ``SolverError`` on another method, a failed factor or a residual above."""
    if method not in SOLVE_METHODS:
        raise SolverError(f"unknown solve method {method!r}")
    A, b = system.matrix, system.rhs
    x = np.zeros(system.dofmap.total)
    if system.dofmap.total == 0:
        info = SolveInfo(method="empty", residual=0.0)
    elif np.linalg.norm(b) == 0.0:
        info = SolveInfo(method=method, residual=0.0)
    else:
        x, info = _cg_solve(A, b) if method == "cg" else _direct(A, b)
    return GlobalHhoVector(dofmap=system.dofmap, data=x), info


def _direct(A, b):
    """Sparse direct solve of A x = b refined once; ``SolverError`` when the
    factor fails or the relative residual stays above RESIDUAL_TOL."""
    x = np.zeros(len(b))
    failure = "direct solve failed"
    try:
        lu = _factor(A)
        x = lu.solve(b)
        # one step of iterative refinement: error measures compare x with
        # the interpolate, from which it differs by 1e-3 of |x| or less
        x += lu.solve(residual(A, x, b))
    except RuntimeError as exc:  # x stays zero: residual 1
        failure = f"direct factorization failed ({exc})"
    info = _solve_info("direct", A, x, b)
    if not info.residual <= RESIDUAL_TOL:
        raise SolverError(f"{failure}: {info}", residual=info.residual)
    return x, info


def residual(A, x, b):
    """b - A @ x, accumulated in extended precision and rounded once.

    Near a solution the residual is far smaller than ``b``, so a double
    precision product would return mostly roundoff.  ``np.longdouble`` is
    the 80-bit format on x86-64 Linux; where it is plain double this is an
    ordinary residual.  Only the values of A are converted, not its indices.
    """
    ext = np.longdouble
    A = A.tocsr()
    A_ext = sp.csr_matrix((A.data.astype(ext), A.indices, A.indptr), shape=A.shape)
    return np.asarray(b.astype(ext) - A_ext @ x.astype(ext), dtype=float)


def _cg_solve(A, b):
    n = A.shape[0]
    diag = A.diagonal()
    M = sp.diags(1.0 / diag)
    count = [0]

    def cb(_):
        count[0] += 1

    x, flag = spla.cg(A, b, rtol=RESIDUAL_TOL, atol=0, maxiter=10 * n, M=M, callback=cb)
    info = _solve_info("cg", A, x, b, iterations=count[0])
    if flag != 0 or not info.residual <= 10 * RESIDUAL_TOL:
        raise SolverError(
            f"conjugate gradients failed after {count[0]} iterations ({info})",
            residual=info.residual,
        )
    return x, info


# ---------------------------------------------------------------------------
# static condensation


@dataclass
class CondensedSystem:
    """Face-only Schur complement with per-element recovery data."""

    full: SparseSpdSystem
    matrix: sp.csr_matrix
    rhs: np.ndarray
    recovery: list            # (elem ids, L^-1, W, g) per stack: x_c = L^-T (g - W x_f)

    @property
    def n_reduced(self):
        return self.matrix.shape[0]

    def expand(self, face_solution):
        """Recover the full solution from the face-only one."""
        dofmap = self.full.dofmap
        data = np.zeros(dofmap.total)
        data[:dofmap.n_face_dofs] = face_solution
        vec = GlobalHhoVector(dofmap=dofmap, data=data)
        nc = hl.cell_block_dim(self.full.k)
        for ids, inv_L, W, g in self.recovery:
            xf = vec.local_flat(ids)[:, nc:, None]
            x_cell = np.swapaxes(inv_L, 1, 2) @ (g - W @ xf)
            data[dofmap.indices(ids)[:, :nc]] = x_cell[..., 0]
        return vec


def static_condense(system):
    """Eliminate cell blocks through local Schur complements (k >= 1): with
    A_cc = L L^T, W = L^-1 A_cf and g = L^-1 b_c, each element adds
    A_ff - W^T W and -W^T g to the face system."""
    if system.k < 1:
        raise AssemblyError("static condensation needs cell unknowns (k >= 1)")
    nc = hl.cell_block_dim(system.k)
    nf_dofs = system.dofmap.n_face_dofs

    blocks = []
    rhs = np.zeros(nf_dofs)
    recovery = []
    for op in system.ops:
        idx = system.dofmap.indices(op.elem_id)
        L = _stacked_lapack(np.linalg.cholesky, [op.stiff[:, :nc, :nc]], op.elem_id,
                            AssemblyError, "cell block not positive definite (coercivity violated)")
        inv_L = pb._tri_inv(L)
        W = inv_L @ op.stiff[:, :nc, nc:]
        g = inv_L @ system.rhs[idx[:, :nc], None]
        Wt = np.swapaxes(W, 1, 2)
        face_idx = idx[:, nc:]
        keep = face_idx >= 0
        blocks.append((face_idx, hl._sym(op.stiff[:, nc:, nc:] - Wt @ W)))
        np.add.at(rhs, face_idx[keep], -(Wt @ g)[..., 0][keep])
        recovery.append((op.elem_id, inv_L, W, g))
    rhs += system.rhs[:nf_dofs]  # face loads (zero for this scheme's RHS)

    return CondensedSystem(
        full=system,
        matrix=_scatter_blocks(blocks, nf_dofs),
        rhs=rhs,
        recovery=recovery,
    )


def solve_condensed(condensed):
    """``solve``'s direct path on the face system, then cell recovery."""
    if condensed.n_reduced == 0:
        return condensed.expand(np.zeros(0)), SolveInfo("empty", 0.0)
    xf, info = _direct(condensed.matrix, condensed.rhs)
    return condensed.expand(xf), info


# ---------------------------------------------------------------------------
# energy-norm Gram and dual norms


class NormGram:
    """Assembled and factored Gram of the discrete energy norm on the
    zero-boundary space of a system, for dual norms and the Poincare iteration.

    At k >= 1 each element's Gram couples a face only with itself and the
    cell.  The scatter stores no zero, so the Gram keeps that pattern, sparser
    than the stiffness's, and its factor fills 1.5-5x less.
    """

    def __init__(self, system):
        self.dofmap = system.dofmap
        self.matrix = _scatter_blocks(
            ((self.dofmap.indices(op.elem_id), op.norm_gram) for op in system.ops),
            self.dofmap.total,
        )
        self._lu = None
        if self.dofmap.total:
            try:
                self._lu = _factor(self.matrix)
            except RuntimeError as exc:
                raise AssemblyError(
                    "energy-norm Gram singular on the zero-boundary space"
                ) from exc

    def apply_inverse(self, data):
        return self._lu.solve(np.asarray(data, dtype=float))

    def riesz_dual_norm(self, moments):
        """sup of moments(v) / |v| over the zero-boundary space."""
        moments = np.asarray(moments, dtype=float)
        if self.dofmap.total == 0 or not np.any(moments):
            return 0.0
        x = self._lu.solve(moments)
        return float(np.sqrt(max(moments @ x, 0.0)))


# ---------------------------------------------------------------------------
# matrix dump


def dump_matrix(path, matrix):
    """Coordinate text dump: MatrixMarket-style header, 0-based indices."""
    coo = matrix.tocoo()
    with open(path, "w") as out:
        out.write("%%MatrixMarket matrix coordinate real general\n")
        out.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            out.write(f"{i} {j} {float(v)!r}\n")

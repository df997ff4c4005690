"""Element-local hybrid high-order operators.

On each element T, a discrete unknown is a pair (cell polynomial of degree
k-1, one face polynomial of degree k per face).  From it we build:

* a potential reconstruction of degree k+1, defined through the
  integration-by-parts identity

      int_T grad(w) . grad(phi) = -int_T v_T lap(phi)
                                  + sum_F int_F v_F (grad(phi) . n_TF)

  for all phi of degree k+1, closed by fixing the mean value of w (a
  weighted average of the face values for k = 0, the cell mean for k >= 1);
* the stabilization penalizing the mismatch between the unknowns and the
  interpolate of their own reconstruction (cell part scaled by h^-2, face
  parts by h^-1), kept only as its factor rows R, S = R^T R;
* the local stiffness (reconstruction energy plus stabilization) and the
  Gram matrix of the local energy norm
  |grad v_T|^2 + h^-1 sum_F |v_F - v_T|^2_F.

Every cell integral in these operators is of a polynomial: it is gathered
from the stack's table of monomial moments (``polybasis._cell_moments``),
and the face terms use the face nodes of that table.  The fan quadrature
is left to ``interpolate``, whose integrands are not polynomials.

Cell unknowns are absent for k = 0; where a cell value is needed it is
recovered on the fly as the distance-weighted face average.  A local
vector is flat: the cell block, then one block per face in loop order.
``local_operators``, ``interpolate`` and ``eta_bounds`` work on a stack of
elements with equal corner and face counts at once (a stack of
``mesh.stacks(k)``, at most ``mesh.STACK_FACE_DOFS`` face unknowns), and
keep the leading batch axis in what they return: one ``LocalOperators``
and one (B, n_local) array per stack; one element is the stack ``[e]``.
The bytes of an element's operators do not depend on where its group is
cut.  A stack that is not a 1-D array of element ids raises ``MeshError``.  A
failing stack raises the typed error of its first failing check,
in code order, naming the first element of the stack that fails it; that
element fails alone with the same text.

Elements of a stack with the same build inputs share one build.  The
inputs of an element are its row of ``_BuildInputs``, all relative to the
element: its face midpoints minus its centroid, its face tangents and
lengths, its face distances and normals, its diameter and its area.  The
build takes nothing else (it works in the element's own frame, centroid
at the origin, and the bases are placed at the centroids afterwards).
Elements whose rows are equal byte for byte form a class; the operators
are built once, on the class's first element, and gathered back to the
stack (``LocalOperators.classes``).  Since an element's bytes do not
depend on its stack, every element gets exactly the bytes of its own
build.  ``eta_bounds`` also runs once per class.  Translated copies of a
few shapes (Cartesian, nonconforming and agglomerated meshes) share most
builds; on a jittered mesh every element is its own class and the stack
is built as it is.  Elements equal only up to scaling do not share: their
bytes would differ.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from hho2d import polybasis as pb
from hho2d.mesh import _first_failure, _raise_first_failure, _stacked_lapack


class HhoError(Exception):
    """Broken local geometry or operator construction failure."""


class CoercivityViolationError(HhoError):
    """Local stiffness/norm pencil is not a valid coercivity pencil."""


def cell_block_dim(k):
    return k * (k + 1) // 2


@dataclass
class LocalOperators:
    """Dense element matrices shared by assembly and verification.

    Built for a stack of B elements: ``elem_id`` is a (B,) array, every
    array field and both bases have a leading batch axis, and ``ops[b]`` is
    the sub-stack of an index array or a slice b, without a class map; an
    integer b gives the stack of one of element b.  ``cell_mass`` is the L2
    mass of the cell basis that the build forms from the moments;
    ``verify.l2_mass_matrix`` scatters it.
    """

    elem_id: np.ndarray
    k: int
    recon: np.ndarray        # reconstruction coefficients map, (dim P^{k+1}, n)
    stab_factor: np.ndarray  # R, the stabilization kept only as its factor: S = R.T @ R
    stiff: np.ndarray        # local bilinear form, (n, n)
    norm_gram: np.ndarray    # local energy-norm Gram, (n, n)
    avg_weights: np.ndarray  # row giving the element-mean cell value
    cell_mass: np.ndarray | None  # cell basis mass, (nc, nc); None at k = 0
    recon_basis: pb.CellBasis
    cell_basis: pb.CellBasis | None
    # class map of a stack: classes[b] is the position of the first element
    # whose build inputs equal element b's bitwise; None when all differ
    classes: np.ndarray | None = None

    def __getitem__(self, b):
        b = pb._sub_stack(b)
        parts = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "classes"}
        return LocalOperators(**{n: v if n == "k" or v is None else v[b] for n, v in parts.items()})

    @property
    def n_local(self):
        return self.stiff.shape[-1]

    def constant_vector(self):
        """Local interpolate of the constant function 1 (shared kernel)."""
        z = np.zeros(self.avg_weights.shape)
        nc = cell_block_dim(self.k)
        z[..., nc::self.k + 1] = 1.0
        if self.k >= 1:
            # the constant is T[0, 0]^-1 times the first basis function: the
            # transform T is lower triangular
            transform = self.cell_basis.transform
            z[..., 0] = 1.0 if transform is None else 1.0 / transform[..., 0, 0]
        return z


def _degree(k):
    """The polynomial degree ``k`` as an int; ``HhoError`` for a negative or
    non-integer degree."""
    return pb._nonnegative(k, "polynomial degree", HhoError)


def interpolate(mesh, ids, k, v, order=None):
    """Project ``v`` onto the local unknown spaces (cell and face blocks) of
    the stack ``ids``, elements that share a corner count and a face count:
    (B, n_local), in the order of ``ids``.
    """
    k = _degree(k)
    order = order if order is not None else 2 * k + 4
    faces = pb.l2_project_face(mesh, mesh.elements.face_ids[mesh.face_rows(ids)], k, v, order)
    cell = pb.l2_project_cell(mesh, ids, k - 1, v, order) if k else np.zeros((len(ids), 0))
    return np.concatenate([cell, faces.reshape(len(ids), -1)], axis=1)


def local_operators(mesh, ids, k):
    """Build reconstruction, stabilization factor, stiffness, and norm Gram.

    ``ids`` is a stack of elements that share a corner count and a face
    count; one ``LocalOperators`` stack is returned, in the same order.
    Every quantity is computed for the whole stack at once, over a leading
    batch axis.  A singular element raises a typed error naming its own id.
    """
    return _build_classes(mesh, np.asarray(ids), _degree(k))


class _BuildInputs(NamedTuple):
    """Every per-element array the local build reads, for a stack of B
    elements with nf faces each, all relative to the element.  ``_build``
    takes nothing else, and ``_classes`` compares these rows."""

    rel: np.ndarray       # face midpoints minus the centroid, (B, nf, 2)
    tangent: np.ndarray   # face tangents, (B, nf, 2)
    length: np.ndarray    # face lengths, (B, nf)
    dist: np.ndarray      # centroid-to-face distances, (B, nf)
    normal: np.ndarray    # outward face normals, (B, nf, 2)
    diameter: np.ndarray  # (B,)
    area: np.ndarray      # (B,)

    def take(self, idx):
        return _BuildInputs(*(a[idx] for a in self))


def _build_inputs(mesh, ids):
    """The ``_BuildInputs`` of the stack ``ids``."""
    els = mesh.elements
    rows = mesh.face_rows(ids)
    return _BuildInputs(*pb._face_frames(mesh, ids), els.face_dists[rows],
                       np.take(els.face_normals, rows, axis=0), els.diameter[ids],
                       els.area[ids])


def _classes(inputs):
    """Class map of a stack (see ``LocalOperators.classes``), or None.

    The rows of ``inputs`` are compared byte for byte, after a cheap test
    on the areas: all distinct, no two rows are equal.
    """
    nb = len(inputs.area)
    if len(np.unique(inputs.area)) == nb:
        return None
    table = np.concatenate([a.reshape(nb, -1) for a in inputs], axis=1)
    # sort the rows as opaque bytes: equal rows become neighbours, the
    # first of each run its smallest position
    order = np.argsort(table.view(np.dtype((np.void, table.shape[1] * 8)))[:, 0], kind="stable")
    bits = table.view(np.uint64)[order]
    start = np.ones(nb, dtype=bool)
    start[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    if start.all():
        return None
    classes = np.empty(nb, dtype=int)
    classes[order] = order[start][np.cumsum(start) - 1]
    return classes


def _class_index(classes):
    """(first, inverse) of a class map: the ascending positions of the
    classes' first elements, and the class of every element."""
    first = np.flatnonzero(classes == np.arange(len(classes)))
    return first, np.searchsorted(first, classes)


def _build_classes(mesh, ids, k):
    """``_build`` on the first element of each class of the stack ``ids``,
    gathered back to the stack, with the bases placed at the centroids."""
    inputs = _build_inputs(mesh, ids)
    classes = _classes(inputs)
    if classes is None:
        ops = _build(inputs, ids, k)
    else:
        first, inverse = _class_index(classes)
        ops = _build(inputs.take(first), ids[first], k)[inverse]
    centroid = mesh.elements.centroid[ids]

    def place(b):
        return None if b is None else pb.CellBasis(centroid, b.scale, b.degree, b.transform)

    return replace(ops, elem_id=ids, recon_basis=place(ops.recon_basis),
                   cell_basis=place(ops.cell_basis), classes=classes)


def _build(inputs, ids, k):
    """The operators of the stack ``ids`` from its ``_BuildInputs``, in each
    element's own frame: the bases are centered at the origin."""
    nb, nf = inputs.length.shape
    nc = cell_block_dim(k)
    kf = k + 1
    n_loc = nc + nf * kf
    hT = inputs.diameter[:, None, None]
    area = inputs.area[:, None]
    origin = np.zeros((nb, 2))

    # every cell integral is of a polynomial of degree <= 2k+2: a gather
    # from the moments of the scaled monomials, one table per stack; Z holds
    # those monomials at the nodes of the face rule of order 2k+2
    mu, Z = pb._moments(inputs.rel, inputs.tangent, inputs.length, inputs.dist,
                        inputs.diameter, 2 * k + 2)
    rec = pb._cell_bases(origin, inputs.diameter, k + 1, mu, ids)
    dr = rec.dim
    G = _sym(pb._moment_gram(mu, "grad", rec, rec))
    m_rec = pb._moment_integrals(mu, rec)

    if k >= 1:
        cellb = pb._cell_bases(origin, inputs.diameter, k - 1, mu, ids)
        M_cell = _sym(pb._moment_gram(mu, "mass", cellb, cellb))
        G_cell = _sym(pb._moment_gram(mu, "grad", cellb, cellb))
        m_cell = pb._moment_integrals(mu, cellb)
    else:
        cellb = M_cell = None

    # face rules: the same reference nodes s on every face, so the face
    # basis values are shared and face masses are |F| times a reference
    s, sw = pb.face_rule(2 * k + 2)
    nq = len(s)
    Vf = s[:, None] ** np.arange(kf)
    lengths = inputs.length
    fw = sw * 0.5 * lengths[..., None]  # (B, nf, m)
    Vr_f = rec.from_monomials(Z).reshape(nb, nf, nq, dr)
    Dr_f = rec.grad_from_monomials(Z).reshape(nb, nf, nq, dr, 2)
    n = inputs.normal[:, :, None, None, :]
    flux = Dr_f[..., 0] * n[..., 0] + Dr_f[..., 1] * n[..., 1]

    # right-hand side of the reconstruction system, one column per local dof
    B = np.zeros((nb, dr, n_loc))
    if k >= 1:
        B[:, :, :nc] = -pb._moment_gram(mu, "lap", rec, cellb)
    B[:, :, nc:] = (
        _wgram(flux, fw, Vf).transpose(0, 2, 1, 3).reshape(nb, dr, nf * kf)
    )

    # the element-average weight row: the mean of the reconstruction is
    # fixed to avg times the local vector
    avg = np.zeros((nb, n_loc))
    if k == 0:
        avg[:, nc:] = 0.5 * inputs.dist * lengths / area
    else:
        avg[:, :nc] = m_cell / area

    # G P = B with the mean-value condition m^T P = |T| avg.  B's columns
    # vanish on constants, so the multiplier of the saddle form is zero and
    # P also solves the SPD system (G + a a^T) P = B + a avg, a = m/|T|; the
    # 1/|T| keeps the constant direction O(1), where m m^T ~ h^4
    a = m_rec / area
    L = _stacked_lapack(np.linalg.cholesky, [G + a[:, :, None] * a[:, None, :]], ids,
                        HhoError, "singular reconstruction system")
    inv_L = pb._tri_inv(L)
    P = _mT(inv_L) @ (inv_L @ (B + a[:, :, None] * avg[:, None, :]))

    # stabilization: difference to the interpolate of the reconstruction,
    # kept only in factored form S = R^T R so energies of near-kernel
    # vectors are evaluated without catastrophic cancellation.  With M = L L^T,
    # the rows L^T (I - M^-1 X P) are L^T - L^-1 X P
    factor_rows = []
    if k >= 1:
        L_cell = _stacked_lapack(np.linalg.cholesky, [M_cell], ids, HhoError,
                                 "singular cell mass matrix")
        D = -pb._tri_inv(L_cell) @ pb._moment_gram(mu, "mass", cellb, rec) @ P
        D[:, :, :nc] += _mT(L_cell)
        factor_rows.append(D / hT)
    # face masses are |F| M0 = (sqrt|F| L0)(sqrt|F| L0)^T
    L0, inv_L0, _ = pb._face_mass_factors(k)
    sq = np.sqrt(lengths)[..., None, None]
    D = -(inv_L0 @ _wgram(Vf, fw, Vr_f) @ P[:, None]) / sq
    D = D.reshape(nb, nf * kf, n_loc)
    f0 = kf * np.arange(nf)[:, None, None]
    i = np.arange(kf)
    D[:, f0 + i[:, None], nc + f0 + i] += sq * L0.T
    factor_rows.append(D / np.sqrt(hT))
    R = np.concatenate(factor_rows, axis=1)
    A = _sym(_mT(P) @ G @ P + _sym(_mT(R) @ R))

    # energy-norm Gram: cell gradient plus scaled face jumps
    J = np.zeros((nb, nf, nq, n_loc))
    J[..., nc:] = np.einsum("fg,qj->fqgj", np.eye(nf), Vf).reshape(nf, nq, nf * kf)
    if k >= 1:
        J[..., :nc] -= cellb.from_monomials(Z).reshape(nb, nf, nq, nc)
    else:
        J -= avg[:, None, None, :]
    J = J.reshape(nb, nf * nq, n_loc)
    N = _wgram(J, fw.reshape(nb, nf * nq), J) / hT
    if k >= 1:
        N[:, :nc, :nc] += G_cell
    N = _sym(N)

    return LocalOperators(
        elem_id=ids, k=k, recon=P, stab_factor=R, stiff=A, norm_gram=N,
        avg_weights=avg, cell_mass=M_cell, recon_basis=rec, cell_basis=cellb,
    )


def _mT(X):
    return np.swapaxes(X, -1, -2)


def _sym(X):
    return 0.5 * (X + _mT(X))


def _wgram(X, w, Y):
    """X^T diag(w) Y over the quadrature axis (second to last of X and Y)."""
    return _mT(X * w[..., None]) @ Y


def elliptic_project(mesh, ids, k, v, ops=None, order=None):
    """Reconstruction of the interpolate of ``v``: H1-type local projection
    onto polynomials of degree k+1 with fixed mean.  Returns its
    coefficients on the stack ``ids``, (B, dim P^{k+1}), and the
    reconstruction basis."""
    if ops is None:
        ops = local_operators(mesh, ids, k)
    interp = interpolate(mesh, ids, k, v, order=order)
    return np.einsum("...ij,...j->...i", ops.recon, interp), ops.recon_basis


KERNEL_TOL = 1e-8  # |A z| <= tol |A| and |N z| <= tol |N|: z spans the kernel


def eta_bounds(ops):
    """Extreme generalized eigenvalues of (stiffness, norm Gram) off-kernel.

    Both forms share the one-dimensional kernel spanned by the interpolate
    of constants; the pencil restricted to its complement measures how far
    the local form is from the energy norm.  ``ops`` is a ``LocalOperators``
    stack, giving [lam_min, lam_max] per element, (B, 2); the per-element
    equivalence constant is max(1/lam_min, lam_max).
    """
    A, N, z = ops.stiff, ops.norm_gram, ops.constant_vector()
    # once per class, gathered back; a stack whose pencil differs bitwise
    # from its class's first element (edited after its build) is measured
    # whole, with no gather
    c = ops.classes
    if c is None or any(not np.array_equal(X.view(np.uint64), X[c].view(np.uint64))
                        for X in (A, N, z)):
        return _eta_bounds(ops.elem_id, A, N, z)
    first, inverse = _class_index(c)
    return _eta_bounds(ops.elem_id[first], A[first], N[first], z[first])[inverse]


def _eta_bounds(ids, A, N, z):
    """``eta_bounds`` of the stack of elements ``ids`` from its stiffnesses
    ``A``, norm Grams ``N`` and constant vectors ``z``.  The first failing
    check names its first failing element."""
    z = z / np.linalg.norm(z, axis=-1, keepdims=True)
    off_kernel = np.zeros(len(ids), dtype=bool)
    for X in (A, N):
        # X is symmetric: its spectral norm is its largest |eigenvalue|, and
        # at least its largest |diagonal entry|, which clears most elements
        defect = np.linalg.norm(X @ z[..., None], axis=(-2, -1))
        diag = np.abs(np.diagonal(X, axis1=-2, axis2=-1)).max(axis=-1)
        left = np.flatnonzero(defect > KERNEL_TOL * diag)
        if len(left):
            off_kernel[left] |= defect[left] > KERNEL_TOL * np.abs(
                np.linalg.eigvalsh(X[left])).max(axis=-1)
    _raise_first_failure({"constants are not in the shared kernel": off_kernel}, ids,
                         CoercivityViolationError)
    # Householder reflection mapping z to -+e_0: its other columns are an
    # orthonormal basis of the complement of z
    u = z.copy()
    u[..., 0] += np.where(z[..., 0] >= 0, 1.0, -1.0)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    Q = np.eye(z.shape[-1])[:, 1:] - 2 * u[..., :, None] * u[..., None, 1:]
    L = _stacked_lapack(np.linalg.cholesky, [_mT(Q) @ N @ Q], ids, CoercivityViolationError,
                        "norm Gram singular off the kernel")
    # eigenvalues of L^-1 Aq L^-T are those of the pencil (Aq, Nq)
    W = pb._tri_inv(L) @ _mT(Q)
    lam = np.linalg.eigvalsh(_sym(W @ A @ _mT(W)))
    failed = _first_failure(lam[:, 0] <= 0)
    if failed is not None:
        b = failed[0]
        raise CoercivityViolationError(
            f"element {ids[b]}: non-coercive local form (lam={lam[b, 0]:.3e})")
    return lam[:, [0, -1]]


def eta_of(ops):
    """Equivalence constants max(1/lam_min, lam_max) of a stack, (B,) (see
    ``eta_bounds``)."""
    lam = eta_bounds(ops)
    return np.maximum(1.0 / lam[:, 0], lam[:, 1])

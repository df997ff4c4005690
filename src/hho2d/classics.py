"""Classical simplicial companions: the Crouzeix-Raviart scheme on
conforming triangle meshes, the lowest-order Raviart-Thomas-Nedelec local
interpolation, and the flux-times-face-value cancellation identity used as
a cross-check for both.

Everything is array code over the mesh tables.  On a conforming
triangulation every element has three corners and three faces, face i
running from corner i to corner i + 1, so the face rows reshape to
(n_elements, 3).  Cell integrals use the stacked fan quadrature over
``mesh.batches``, face integrals the stacked Gauss rules.  Fluxes are
exchanged as one array per element, in face-loop order.  Nothing here
uses ``hho_local``: the Crouzeix-Raviart matrix is an independent check
of the k = 0 HHO assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hho2d import polybasis as pb
from hho2d.assembly import _factor
from hho2d.mesh import MeshError, _raise_first_failure


@dataclass
class CrSystem:
    """Crouzeix-Raviart discretization: one unknown per interior face."""

    mesh: object
    matrix: sp.csr_matrix       # stiffness on interior-face unknowns
    rhs: np.ndarray
    face_index: np.ndarray      # face id -> unknown index, -1 on boundary

    def solve(self):
        """Face values for all faces (boundary ones pinned to zero)."""
        values = np.zeros(self.mesh.n_faces)
        if self.matrix.shape[0]:
            values[self.face_index >= 0] = _factor(self.matrix).solve(self.rhs)
        return values


def _triangle_faces(mesh):
    """Face ids (n_elements, 3) of a conforming triangulation."""
    els = mesh.elements
    _raise_first_failure({"not a triangle": np.diff(els.corner_ptr) != 3,
                          "hanging node on a side": np.diff(els.face_ptr) != 3})
    return els.face_ids.reshape(-1, 3)


def cr_basis_gradients(mesh, elem_id):
    """Gradients of the three face-average basis functions 1 - 2*hat_opp.

    One element id gives (3, 2); a sequence of triangle ids gives (B, 3, 2).
    """
    els = mesh.elements
    ids = np.atleast_1d(elem_id)
    pts = mesh.vertices[els.corners[els.corner_rows(ids)]]
    A = np.concatenate([np.ones(pts.shape[:-1] + (1,)), pts], axis=-1)
    hat_coeffs = np.linalg.solve(A, np.eye(3))  # column j: barycentric of corner j
    # face i runs from corner i to corner i + 1: corner i + 2 is opposite
    grads = -2.0 * np.swapaxes(hat_coeffs[:, 1:, [2, 0, 1]], 1, 2)
    return grads if np.ndim(elem_id) else grads[0]


def cr_assemble(mesh, f):
    """Assemble the broken-gradient stiffness and load for face averages."""
    fids = _triangle_faces(mesh)
    interior = mesh.interior_face_ids()
    face_index = np.full(mesh.n_faces, -1, dtype=int)
    face_index[interior] = np.arange(len(interior))
    n = len(interior)

    grads = cr_basis_gradients(mesh, np.arange(mesh.n_elements))
    K = mesh.elements.area[:, None, None] * grads @ np.swapaxes(grads, 1, 2)
    idx = face_index[fids]
    rows = np.broadcast_to(idx[:, :, None], K.shape)
    cols = np.broadcast_to(idx[:, None, :], K.shape)
    keep = (rows >= 0) & (cols >= 0)
    matrix = sp.coo_matrix((K[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()

    loads = np.empty((mesh.n_elements, 3))
    mids = mesh.faces.midpoint[fids]
    for ids in mesh.batches:
        points, weights = pb.cell_quadratures(mesh, ids, 6)
        fw = weights * f(points.reshape(-1, 2)).reshape(weights.shape)
        # basis value at x: 1 - 2*hat_opp(x) = affine through the gradients
        rel = points[:, None] - mids[ids][:, :, None]
        phi = 1.0 + (rel @ grads[ids][..., None])[..., 0]
        loads[ids] = np.einsum("bip,bp->bi", phi, fw)
    keep = idx >= 0
    rhs = np.bincount(idx[keep], loads[keep], minlength=n)
    return CrSystem(mesh=mesh, matrix=matrix, rhs=rhs, face_index=face_index)


def cr_energy_error(mesh, face_values, grad_u):
    """Broken-gradient error of a Crouzeix-Raviart field vs an exact slope."""
    fids = _triangle_faces(mesh)
    grads = cr_basis_gradients(mesh, np.arange(mesh.n_elements))
    gh = np.einsum("ei,eid->ed", face_values[fids], grads)
    total = 0.0
    for ids in mesh.batches:
        points, weights = pb.cell_quadratures(mesh, ids, 8)
        diff = grad_u(points.reshape(-1, 2)).reshape(points.shape) - gh[ids][:, None]
        total += np.einsum("bpd,bp,bpd->", diff, weights, diff)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# lowest-order Raviart-Thomas-Nedelec fields


@dataclass
class RtnField:
    """Per-triangle fields a + q (x - anchor): constant divergence and
    constant normal trace on every face."""

    mesh: object
    a: np.ndarray        # (n_elements, 2)
    q: np.ndarray        # (n_elements,)
    anchor: np.ndarray   # (n_elements, 2)

    def eval(self, elem_id, points):
        rel = np.atleast_2d(points) - self.anchor[elem_id]
        return self.a[elem_id] + self.q[elem_id] * rel

    def divergence(self):
        return 2.0 * self.q

    def normal_fluxes(self):
        """Per-element arrays of the constant flux through each face."""
        els = self.mesh.elements
        elem = np.repeat(np.arange(len(els)), np.diff(els.face_ptr))
        rel = els.face_midpoints - self.anchor[elem]
        normals = els.face_normals
        flux = (np.einsum("fd,fd->f", normals, self.a[elem])
                + self.q[elem] * np.einsum("fd,fd->f", rel, normals))
        return np.split(flux, els.face_ptr[1:-1])


def rtn_interpolate(mesh, tau):
    """Match the exact face flux integrals of ``tau`` on every triangle."""
    fids = _triangle_faces(mesh)
    els = mesh.elements
    normals = els.face_normals.reshape(-1, 3, 2)
    lengths = els.face_lengths.reshape(-1, 3, 1)
    points, weights = pb.face_quadratures(mesh, fids, 8)
    values = tau(points.reshape(-1, 2)).reshape(points.shape)
    b = np.einsum("eiq,eiqd,eid->ei", weights, values, normals)
    A = lengths * np.concatenate([normals, els.face_dists.reshape(-1, 3, 1)], axis=-1)
    try:
        sol = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        # name the first triangle that fails alone
        for e in range(len(A)):
            try:
                np.linalg.solve(A[e], b[e])
            except np.linalg.LinAlgError:
                raise MeshError(f"element {e}: degenerate triangle") from exc
        raise
    return RtnField(mesh=mesh, a=sol[:, :2], q=sol[:, 2], anchor=els.centroid)


# ---------------------------------------------------------------------------
# flux cancellation identity


def magic_residual(mesh, normal_fluxes, face_values):
    """Sum over elements and faces of |F| * flux * face value.

    ``normal_fluxes``: per-element arrays of constant outward fluxes, in
    face-loop order.  ``face_values``: one constant per mesh face, required
    to vanish on boundary faces.  The sum cancels whenever the fluxes come
    from a field with continuous normal components.
    """
    face_values = np.asarray(face_values, dtype=float)
    boundary = mesh.boundary_face_ids()
    bad = boundary[face_values[boundary] != 0.0]
    if len(bad):
        raise ValueError(f"face {bad[0]}: boundary value must be zero")
    return _face_sum(mesh, np.concatenate(normal_fluxes), face_values)


def magic_scale(mesh, normal_fluxes, face_values):
    """Cancellation-free magnitude of the same sum (for relative checks)."""
    flux = np.abs(np.concatenate(normal_fluxes))
    return _face_sum(mesh, flux, np.abs(np.asarray(face_values, dtype=float)))


def _face_sum(mesh, flux, face_values):
    """Sum of |F| * flux * face value over the flat face rows."""
    els = mesh.elements
    return float(np.sum(els.face_lengths * flux * face_values[els.face_ids]))


def gradient_fluxes(mesh, grad):
    """Face-average normal fluxes of an analytic gradient field."""
    els = mesh.elements
    points, weights = pb.face_quadratures(mesh, els.face_ids, 10)
    values = grad(points.reshape(-1, 2)).reshape(points.shape)
    flux = np.einsum("fq,fqd,fd->f", weights, values, els.face_normals) / els.face_lengths
    return np.split(flux, els.face_ptr[1:-1])

"""Polynomial bases, quadrature, and L2 projections on polygonal cells.

Cell bases are scaled monomials ((x - center)/diameter)^a centered at the
element centroid; for degrees >= 4 they are L2-orthonormalized through a
triangular change of basis to keep mass matrices well conditioned.  Face
bases are 1D monomials in the arc-length coordinate s in [-1, 1], oriented
by the global face record so that both neighbors of a face see identical
coefficients.

Cell integrals of polynomials come from one table of monomial moments
int_T z^a per stack of elements, computed on the faces through Euler's
identity for homogeneous functions (Chin, Lasserre and Sukumar, Comput.
Mech. 2015); mass, gradient and Laplacian Grams of the bases, and the
degree >= 4 orthonormalization, are gathers from it.  Its face nodes are
mapped relative to the element centroid, so the table reads only
element-relative inputs, and translated copies of an element whose inputs
round alike get the same bytes.  Integrands that are not polynomials
(loads, interpolation, errors) use the cell quadrature: it fans the
(star-shaped) polygon into triangles from its centroid and applies a
positive-weight conical product rule on each.  Face quadrature is plain
Gauss-Legendre along the segment.  Point maps and power tables are filled
one coordinate plane at a time.

The builders (``cell_quadratures``, ``face_quadratures``, ``cell_bases``)
and the L2 projections work on a stack of elements or faces at once, with
leading batch axes; one element is a stack of one, ``[e]``.  A singular
mass matrix names the first element of the stack whose matrix fails.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from hho2d.mesh import _ids, _index, _stacked_lapack

# degree at which cell bases switch to the orthonormalized form
ORTHONORMALIZE_FROM = 4


class BasisError(Exception):
    """Degenerate geometry or unusable basis/quadrature request."""


def _nonnegative(value, what, error=BasisError):
    """``value`` as a non-negative int, read by ``mesh._index``: a float, a
    string or a negative value raises ``error``."""
    value = _index(value, what, error)
    if value < 0:
        raise error(f"{what} must be >= 0")
    return value


@lru_cache(maxsize=None)
def _gauss_legendre(m):
    """m-point Gauss-Legendre nodes and weights on [-1, 1] (read-only)."""
    s, w = roots_legendre(m)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


@lru_cache(maxsize=None)
def _triangle_rule(degree):
    """Conical product rule on the reference triangle (0,0)-(1,0)-(0,1).

    Gauss-Jacobi in the collapsed direction absorbs the Duffy Jacobian, so
    m = ceil((degree+1)/2) points per direction integrate total degree
    ``degree`` exactly with strictly positive weights.
    """
    m = (degree + 2) // 2
    xj, wj = roots_jacobi(m, 1.0, 0.0)  # weight (1 - x) on [-1, 1]
    xl, wl = _gauss_legendre(m)
    xi, wxi = (xj + 1.0) / 2.0, wj / 4.0
    eta, weta = (xl + 1.0) / 2.0, wl / 2.0
    pts = np.array([(u, e * (1.0 - u)) for u in xi for e in eta])
    w = np.array([wu * we for wu in wxi for we in weta])
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def face_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1] exact up to ``order``."""
    return _gauss_legendre((_nonnegative(order, "quadrature order") + 2) // 2)


def cell_quadratures(mesh, elem_ids, order):
    """Stacked rules on elements that share a corner count.

    Returns points (B, p*m, 2) and weights (B, p*m): the reference rule of
    ``order`` mapped onto each of the p centroid triangles, in corner order.
    """
    order = _nonnegative(order, "quadrature order")
    els = mesh.elements
    corners = mesh.vertices[els.corners[mesh.corner_rows(elem_ids)]]
    c = els.centroid[elem_ids]
    a = corners - c[:, None]                        # (B, p, 2)
    b = a[:, (np.arange(a.shape[1]) + 1) % a.shape[1]]
    det = np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    ref_pts, ref_w = _triangle_rule(order)
    # one pass per coordinate over (B, p, m) planes
    points = np.empty(det.shape + ref_w.shape + (2,))
    for d in range(2):
        points[..., d] = c[:, None, None, d] + (
            ref_pts[:, 0] * a[..., d, None] + ref_pts[:, 1] * b[..., d, None])
    weights = ref_w * det[..., None]
    points = points.reshape(len(a), -1, 2)
    weights = weights.reshape(len(a), -1)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def face_quadratures(mesh, face_ids, order):
    """Stacked Gauss-Legendre rules on faces, exact up to ``order``.

    ``face_ids`` may have any shape S; returns points S + (m, 2) and
    weights S + (m,).  ``MeshError`` names the first id that is not an
    integer face id of ``mesh``.
    """
    s, w = face_rule(order)
    ids = _ids(face_ids, mesh.n_faces, "face")
    mid = mesh.faces.midpoint[ids]
    tangent = mesh.faces.tangent[ids]
    length = mesh.faces.length[ids][..., None]
    half = 0.5 * length
    points = np.empty(length.shape[:-1] + s.shape + (2,))
    for d in range(2):
        points[..., d] = mid[..., d, None] + half * (s * tangent[..., d, None])
    weights = w * 0.5 * length
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


# ---------------------------------------------------------------------------
# bases


def monomial_exponents(degree):
    """Graded-lexicographic exponents (a, b) with a + b <= degree."""
    return [(d - b, b) for d in range(degree + 1) for b in range(d + 1)]


def _sub_stack(b):
    """The index of a sub-stack: an index array or a slice as it is, an
    integer as the stack of one ``[b]``."""
    return [b] if isinstance(b, (int, np.integer)) else b


class CellBasis:
    """Scaled monomial basis of total degree <= ``degree`` on a stack of B
    elements: ``center`` is (B, 2), ``scale`` (B,) and ``transform``
    (B, dim, dim); points (B, P, 2) give values (B, P, dim).  ``basis[b]``
    is the sub-stack of an index array or a slice b, or for an integer b
    the stack of one of element b.
    """

    def __init__(self, center, scale, degree, transform=None):
        if degree < 0:
            raise BasisError("cell basis degree must be >= 0")
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.degree = degree
        self.exponents = np.array(monomial_exponents(degree))
        self.dim = len(self.exponents)
        # lower-triangular inverse Cholesky factor of the raw mass matrix,
        # or None for the plain monomial basis
        self.transform = transform

    def __getitem__(self, b):
        b = _sub_stack(b)
        transform = None if self.transform is None else self.transform[b]
        return CellBasis(self.center[b], self.scale[b], self.degree, transform)

    def _raw(self, points):
        pts = np.asarray(points, dtype=float)
        z = [(pts[..., d] - self.center[:, d, None]) / self.scale[:, None] for d in range(2)]
        return _monomials(z, self.degree)

    def _apply(self, V):
        return V if self.transform is None else V @ np.swapaxes(self.transform, -1, -2)

    def eval(self, points):
        return self.from_monomials(self._raw(points))

    def grad(self, points):
        return self.grad_from_monomials(self._raw(points))

    def from_monomials(self, Z):
        """Values from a table Z (..., P, n) of the raw monomials z^a, in
        ``monomial_exponents`` order up to any degree >= ``degree``."""
        return self._apply(Z[..., :self.dim])

    def grad_from_monomials(self, Z):
        """Gradients (..., P, dim, 2) from a monomial table (see
        ``from_monomials``): d/dx z^(a, b) = a z^(a-1, b) / scale."""
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        gx = a * Z[..., _mono_index(np.maximum(a - 1, 0), b)] / self.scale[:, None, None]
        gy = b * Z[..., _mono_index(a, np.maximum(b - 1, 0))] / self.scale[:, None, None]
        return np.stack([self._apply(gx), self._apply(gy)], axis=-1)


def _monomials(z, degree):
    """Raw monomials z^a, |a| <= ``degree``, in ``monomial_exponents`` order,
    of the coordinate planes z = (z_x, z_y) of one shape S: S + (n_mono,).
    The power tables are filled one plane at a time."""
    e = np.array(monomial_exponents(degree))
    powers = []
    for zd in z:
        pw = np.empty(zd.shape + (degree + 1,))
        pw[..., 0] = 1.0
        for i in range(1, degree + 1):
            pw[..., i] = pw[..., i - 1] * zd
        powers.append(pw)
    return powers[0][..., e[:, 0]] * powers[1][..., e[:, 1]]


def _mono_index(a, b):
    """Position of the exponents (a, b) in ``monomial_exponents`` order."""
    d = a + b
    return d * (d + 1) // 2 + b


def cell_bases(mesh, elem_ids, degree):
    """Stacked bases on elements that share a corner count (see CellBasis)."""
    degree = _nonnegative(degree, "cell basis degree")
    mesh.corner_rows(elem_ids)  # the checked path of a stack: MeshError
    els = mesh.elements
    orthonormal = degree >= ORTHONORMALIZE_FROM
    mu = _cell_moments(mesh, elem_ids, 2 * degree)[0] if orthonormal else None
    return _cell_bases(els.centroid[elem_ids], els.diameter[elem_ids], degree, mu, elem_ids)


def _cell_bases(center, scale, degree, mu, elem_ids):
    """``cell_bases`` at the centers and scales of the elements ``elem_ids``,
    given their moments ``mu`` up to degree 2 * ``degree`` at least (unused,
    and may be None, below degree 4)."""
    basis = CellBasis(center, scale, degree)
    if degree >= ORTHONORMALIZE_FROM:
        L = _stacked_lapack(np.linalg.cholesky, [_moment_gram(mu, "mass", basis, basis)],
                            elem_ids, BasisError, f"singular mass matrix at degree {degree}")
        basis = CellBasis(center, scale, degree, transform=_tri_inv(L))
    return basis


def _tri_inv(L):
    """Inverses of a stack (..., n, n) of lower-triangular matrices.

    Forward substitution over the rows of L X = I: row i of X is
    (e_i - L[i, :i] X[:i]) / L[i, i], and X[:i] is zero right of column i.
    """
    n = L.shape[-1]
    X = np.zeros(L.shape)
    for i in range(n):
        X[..., i, :i] = -(L[..., i:i + 1, :i] @ X[..., :i, :i])[..., 0, :]
        X[..., i, i] = 1.0
        X[..., i, :i + 1] /= L[..., i, i, None]
    return X


def face_mass(length, degree):
    """Mass matrix of s^0 .. s^degree on faces of the given length(s).

    ``length`` may have any shape S; the result has shape S + (d, d).
    """
    # int_F s^(p+q) dl = (|F|/2) * 2/(p+q+1) for even p+q, else 0
    pq = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    length = np.asarray(length, dtype=float)[..., None, None]
    return np.where(pq % 2 == 0, length / (pq + 1.0), 0.0)


@lru_cache(maxsize=None)
def _face_mass_factors(degree):
    """Read-only Cholesky factor L0 of the unit-length face mass M0, its
    inverse and M0^-1.  A face of length |F| has the mass |F| M0, so its
    factor is sqrt(|F|) L0."""
    L0 = np.linalg.cholesky(face_mass(1.0, degree))
    inv_L0 = _tri_inv(L0)
    inv_M0 = inv_L0.T @ inv_L0
    for X in (L0, inv_L0, inv_M0):
        X.setflags(write=False)
    return L0, inv_L0, inv_M0


# ---------------------------------------------------------------------------
# Grams and projections


def _cell_moments(mesh, elem_ids, degree):
    """Moments mu_a = int_T z^a of the scaled monomials, |a| <= ``degree``.

    z = (x - x_T)/h_T is homogeneous about the centroid x_T, so the
    divergence theorem applied to (x - x_T) z^a gives (Euler's identity)

        int_T z^a = 1/(2 + |a|) sum_F d_F int_F z^a,

    d_F the centroid-to-face distance; the Gauss rule of order ``degree``
    integrates each face term exactly.  Its nodes are mapped relative to
    the centroid, z = ((m_F - x_T) + (|F|/2) s t_F)/h_T, so the moments read
    only the element-relative inputs of ``_face_frames``, the face distances
    and h_T (see ``_moments``).  Elements share a face count.
    """
    els = mesh.elements
    dist = els.face_dists[mesh.face_rows(elem_ids)]
    return _moments(*_face_frames(mesh, elem_ids), dist, els.diameter[elem_ids], degree)


def _moments(rel, tangent, length, dist, diameter, degree):
    """``_cell_moments`` of B elements from their face midpoints relative
    to the centroid and face tangents (B, nf, 2), face lengths and
    distances (B, nf) and diameters (B,).  Returns the moments (B, n_mono),
    in ``monomial_exponents(degree)`` order, and the monomial table Z
    (B, nf * m, n_mono) at the m nodes of every face, faces in loop order,
    for the bases' ``from_monomials``.
    """
    nb = len(rel)
    s, w = face_rule(degree)
    half = 0.5 * length[..., None]
    weights = (w * half * dist[..., None]).reshape(nb, 1, -1)
    hT = diameter[:, None, None]
    z = [((rel[..., d, None] + half * (s * tangent[..., d, None])) / hT).reshape(nb, -1)
         for d in range(2)]
    Z = _monomials(z, degree)
    mu = (weights @ Z)[:, 0] / (2.0 + np.array(monomial_exponents(degree)).sum(axis=1))
    return mu, Z


def _face_frames(mesh, elem_ids):
    """Face midpoints relative to the centroid, face tangents (both
    (B, nf, 2)) and face lengths (B, nf) of a stack sharing a face count."""
    els, faces = mesh.elements, mesh.faces
    face_ids = els.face_ids[mesh.face_rows(elem_ids)]
    # np.take gathers rows of pairs several times faster than fancy indexing
    rel = np.take(faces.midpoint, face_ids, axis=0) - els.centroid[elem_ids][:, None]
    return rel, np.take(faces.tangent, face_ids, axis=0), faces.length[face_ids]


@lru_cache(maxsize=None)
def _gram_map(kind, left_degree, right_degree, n_moments):
    """Read-only (n_moments, nl * nr) matrix taking the moments to the flat
    Gram of the raw monomials z^a (left) and z^b (right), up to h^-2:

        "mass"  int z^a z^b
        "grad"  int grad z^a . grad z^b = a_x b_x z^(a+b-2e_x) + a_y b_y z^(a+b-2e_y)
        "lap"   int lap(z^a) z^b = a_x (a_x - 1) z^(a+b-2e_x) + a_y (a_y - 1) z^(a+b-2e_y)
    """
    ea = np.array(monomial_exponents(left_degree))[:, None, :]
    eb = np.array(monomial_exponents(right_degree))[None, :, :]
    shape = (ea.shape[0], eb.shape[1])
    if kind == "mass":
        terms = [(np.ones(shape), (0, 0))]
    else:
        c = ea * eb if kind == "grad" else np.broadcast_to(ea * (ea - 1), shape + (2,))
        terms = [(c[..., 0], (2, 0)), (c[..., 1], (0, 2))]
    W = np.zeros((n_moments, shape[0] * shape[1]))
    cols = np.arange(W.shape[1])
    for c, shift in terms:
        # a negative exponent comes with c = 0; clip it to a valid row
        e = np.maximum(ea + eb - shift, 0)
        np.add.at(W, (_mono_index(e[..., 0], e[..., 1]).ravel(), cols), c.ravel())
    W.setflags(write=False)
    return W


def _moment_gram(mu, kind, left, right):
    """Gram of two bases on the elements of ``mu`` (see ``_gram_map``), with
    both transforms applied: (B, left.dim, right.dim)."""
    W = _gram_map(kind, left.degree, right.degree, mu.shape[-1])
    # a lone row would go to BLAS gemv, which rounds unlike the gemm of a
    # larger stack: pad it, so an element's bytes do not depend on its stack
    rows = mu if len(mu) > 1 else np.concatenate([mu, mu])
    gram = (rows @ W)[:len(mu)].reshape(len(mu), left.dim, right.dim)
    if kind != "mass":
        gram /= left.scale[:, None, None] ** 2
    if left.transform is not None:
        gram = left.transform @ gram
    if right.transform is not None:
        gram = gram @ np.swapaxes(right.transform, -1, -2)
    return gram


def _moment_integrals(mu, basis):
    """int_T phi_i of every basis function, (B, dim)."""
    return _moment_gram(mu, "mass", basis, CellBasis(basis.center, basis.scale, 0))[..., 0]


def default_cell_order(degree):
    """Projection quadrature default: 2*degree plus a smoothness margin."""
    return 2 * degree + degree + 2


def l2_project_cell(mesh, elem_ids, degree, v, order=None):
    """Coefficients (B, dim) of the L2 projection of ``v`` onto the cell
    bases of the stack ``elem_ids``, elements that share a corner count."""
    basis = cell_bases(mesh, elem_ids, degree)
    order = default_cell_order(degree) if order is None else order
    points, weights = cell_quadratures(mesh, elem_ids, order)
    V = basis.eval(points)
    L = _stacked_lapack(np.linalg.cholesky, [np.swapaxes(V * weights[..., None], -1, -2) @ V],
                        elem_ids, BasisError, f"singular mass matrix at degree {degree}")
    inv_L = _tri_inv(L)
    vw = weights * v(points.reshape(-1, 2)).reshape(weights.shape)
    y = inv_L @ np.einsum("bp,bpi->bi", vw, V)[..., None]
    return (np.swapaxes(inv_L, -1, -2) @ y)[..., 0]


def l2_project_face(mesh, face_ids, degree, v, order=None):
    """Coefficients of the L2 projection of ``v`` onto the face basis.

    ``face_ids`` may have any shape S; the result has shape S + (degree+1,).
    Every face rule maps the same reference nodes s, so the basis values
    are shared and the mass matrix is |F| M0 (see ``_face_mass_factors``).
    """
    degree = _nonnegative(degree, "face basis degree")
    order = default_cell_order(degree) if order is None else order
    s, _ = face_rule(order)
    points, weights = face_quadratures(mesh, face_ids, order)
    vw = weights * v(points.reshape(-1, 2)).reshape(weights.shape)
    rhs = vw @ s[:, None] ** np.arange(degree + 1)
    inv_M0 = _face_mass_factors(degree)[2]
    return rhs @ inv_M0 / mesh.faces.length[face_ids][..., None]

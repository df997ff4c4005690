import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import poly, random_polygon_corpus

from hho2d import hho_local as hl
from hho2d import polybasis as pb
from hho2d.mesh import MeshError, PolyMesh, generate, refine_nonconforming
from hho2d.verify import build_family, nonconforming_mesh


@pytest.fixture
def unit_square():
    return PolyMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])


def random_polygons(seed=7):
    """Small corpus: triangles, squares, and pentagon-faced split cells."""
    rng = np.random.default_rng(seed)
    meshes = []
    for _ in range(4):
        # triangle with a guaranteed-decent angle
        a = rng.uniform(-1, 1, 2)
        b = a + rng.uniform(0.5, 1.5) * _unit(rng)
        mid = 0.5 * (a + b)
        normal = _perp(b - a)
        c = mid + rng.uniform(0.4, 1.2) * normal
        meshes.append((PolyMesh([a, b, c], [[0, 1, 2]]), 0))
    for _ in range(3):
        s, th = rng.uniform(0.3, 2.0), rng.uniform(0, np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        sq = (np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * s) @ R.T + rng.uniform(-2, 2, 2)
        meshes.append((PolyMesh(sq, [[0, 1, 2, 3]]), 0))
    for _ in range(3):
        t = rng.uniform(0.25, 0.75)
        verts = [(0, 0), (1, 0), (2, 0), (2, t), (1, t), (2, 1), (1, 1), (0, 1)]
        loops = [[0, 1, 6, 7], [1, 2, 3, 4], [4, 3, 5, 6]]
        meshes.append((PolyMesh(verts, loops), 0))  # element 0 has 5 faces
    return meshes


def _unit(rng):
    th = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(th), np.sin(th)])


def _perp(v):
    return np.array([-v[1], v[0]]) / np.linalg.norm(v)


def test_cell_quadrature_measures(unit_square):
    _, (weights,) = pb.cell_quadratures(unit_square, [0], 0)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert (weights > 0).all()


def test_cell_quadrature_monomial(unit_square):
    (points,), (weights,) = pb.cell_quadratures(unit_square, [0], 3)
    assert weights @ (points[:, 0] ** 2 * points[:, 1]) == pytest.approx(1 / 6, rel=1e-14)


@pytest.mark.parametrize("order", [0, 2, 5, 8, 12])
def test_cell_quadrature_exactness(order):
    tri = PolyMesh([(0.1, -0.2), (1.3, 0.4), (0.2, 1.1)], [[0, 1, 2]])
    (points,), (weights,) = pb.cell_quadratures(tri, [0], order)
    (dense_points,), (dense_weights,) = pb.cell_quadratures(tri, [0], order + 6)
    rng = np.random.default_rng(order)
    coef = rng.standard_normal((order + 1, order + 1))
    coef = np.tril(coef[::-1])[::-1]  # keep total degree <= order

    def poly(p):
        return np.polynomial.polynomial.polyval2d(p[:, 0], p[:, 1], coef)

    assert weights @ poly(points) == pytest.approx(dense_weights @ poly(dense_points), rel=1e-13)
    assert (weights > 0).all()


def abs_fan_weights(mesh, ids, order):
    """Fan rule weights (B, p*m) from unsigned fan determinants."""
    corners = mesh.vertices[mesh.elements.corners[mesh.corner_rows(ids)]]
    a = corners - mesh.elements.centroid[ids][:, None]
    b = np.roll(a, -1, axis=1)
    det = np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    return (pb._triangle_rule(order)[1] * det[..., None]).reshape(len(ids), -1)


@pytest.mark.parametrize("tag", ["cartesian", "triangular", "nonconforming", "agglomerated",
                                 "rectangles"])
def test_stored_fans_give_the_checked_rules(tag):
    # a stack of mesh.batches maps the fan the mesh keeps; a copy, a slice
    # or a list of it builds the fan on the checked path, to the same bytes
    mesh = build_family(tag, [8]).meshes[0]
    for ids in mesh.batches:
        area = mesh.elements.area[ids]
        for order in (0, 4, 6, 8, 10, 12):
            points, weights = pb.cell_quadratures(mesh, ids, order)
            for other in (ids.copy(), ids[:], list(ids)):
                got = pb.cell_quadratures(mesh, other, order)
                assert got[0].tobytes() == points.tobytes()
                assert got[1].tobytes() == weights.tobytes()
            # the signed determinants of every accepted element are positive
            assert weights.tobytes() == abs_fan_weights(mesh, ids, order).tobytes()
            assert (np.abs(weights.sum(axis=1) - area) <= 1e-13 * area).all()
        bad = ids.copy()
        bad[-1] = mesh.n_elements
        with pytest.raises(MeshError, match=f"^element {mesh.n_elements} out of range$"):
            pb.cell_quadratures(mesh, bad, 2)


def test_split_side_does_not_change_cell_integral():
    base = generate("cartesian", 2)
    split = refine_nonconforming(base, [0])
    pent = next(el for el in split.elements if el.n_faces == 5)
    same = next(
        el for el in base.elements if np.allclose(el.centroid, pent.centroid)
    )
    f = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    (p1,), (w1,) = pb.cell_quadratures(split, [pent.id], 9)
    (p2,), (w2,) = pb.cell_quadratures(base, [same.id], 9)
    v1, v2 = w1 @ f(p1), w2 @ f(p2)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_face_quadrature(unit_square):
    fid = next(f for f, mid in enumerate(unit_square.faces.midpoint) if np.allclose(mid, [0.5, 0]))
    points, weights = pb.face_quadratures(unit_square, fid, 5)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert weights @ points[:, 0] ** 4 == pytest.approx(1 / 5, rel=1e-14)


def grams(mesh, e, degree):
    """Mass and stiffness matrices of element e's cell basis at ``degree``."""
    mu, _ = pb._cell_moments(mesh, [e], 2 * degree)
    basis = pb.cell_bases(mesh, [e], degree)
    return (pb._moment_gram(mu, kind, basis, basis)[0] for kind in ("mass", "grad"))


def test_grams_lowest_order(unit_square):
    M, G = grams(unit_square, 0, 0)
    assert M == pytest.approx(np.array([[1.0]]))
    assert G == pytest.approx(np.array([[0.0]]))


def test_grams_affine_hand_integration(unit_square):
    # oracle: with basis {1, (x-1/2)/h, (y-1/2)/h}, h = sqrt(2), the
    # stiffness is |T|/h^2 on each gradient direction
    M, G = grams(unit_square, 0, 1)
    assert G == pytest.approx(np.diag([0.0, 0.5, 0.5]), abs=1e-15)
    assert np.abs(G @ np.array([1.0, 0.0, 0.0])).max() == 0.0
    assert np.linalg.eigvalsh(M).min() > 0


def ref_laplacian(basis, points):
    """Laplacians of the stacked basis functions at points (B, P, 2)."""
    scale = basis.scale[:, None, None]
    z = (np.asarray(points, dtype=float) - basis.center[:, None, :]) / scale
    x, y = z[..., :1], z[..., 1:]
    a, b = basis.exponents[:, 0], basis.exponents[:, 1]
    lap = (a * (a - 1) * x ** np.maximum(a - 2, 0) * y**b
           + b * (b - 1) * x**a * y ** np.maximum(b - 2, 0))
    return basis._apply(lap / scale**2)


def fan_moments(mesh, ids, degree):
    """int_T z^a, |a| <= degree, on the fan quadrature."""
    points, weights = pb.cell_quadratures(mesh, ids, degree)
    els = mesh.elements
    monos = pb.CellBasis(els.centroid[ids], els.diameter[ids], degree)
    return np.einsum("bp,bpi->bi", weights, monos.eval(points))


def assert_moments_match_fan(mesh):
    # |z| <= 1 on T, so the area bounds every moment
    for ids in mesh.batches:
        area = mesh.elements.area[ids][:, None]
        for k in range(4):
            mu, _ = pb._cell_moments(mesh, ids, 2 * k + 2)
            assert np.all(np.abs(mu - fan_moments(mesh, ids, 2 * k + 2)) <= 1e-13 * area)


def test_moments_match_the_fan_quadrature():
    for mesh, _ in random_polygon_corpus():
        assert_moments_match_fan(mesh)
    assert_moments_match_fan(nonconforming_mesh(4))


@st.composite
def star_polygons(draw):
    """A polygon star-shaped w.r.t. its centroid, placed at random, with
    hanging vertices: corners in the middle of straight sides."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    angle = 2 * np.pi * np.cumsum(gaps) / gaps.sum() + draw(st.floats(0, 2 * np.pi))
    radius = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    corners = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    loop = []
    for i in range(n):
        loop.append(corners[i])
        for t in sorted(draw(st.lists(st.floats(0.1, 0.9), max_size=2, unique=True))):
            loop.append((1 - t) * corners[i] + t * corners[(i + 1) % n])
    scale = draw(st.floats(1e-2, 1e2))
    shift = np.array(draw(st.tuples(st.floats(-1e2, 1e2), st.floats(-1e2, 1e2))))
    try:
        return PolyMesh(scale * np.array(loop) + shift, [list(range(len(loop)))])
    except MeshError:
        assume(False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_moments_match_the_fan_quadrature_on_star_polygons(mesh):
    assert_moments_match_fan(mesh)


def test_moment_grams_match_the_fan_quadrature():
    mesh = refine_nonconforming(generate("cartesian", 3), [0, 4])
    for ids in mesh.batches:
        mu, _ = pb._cell_moments(mesh, ids, 10)
        points, weights = pb.cell_quadratures(mesh, ids, 10)
        # plain and orthonormalized bases, on either side
        for dl, dr in ((0, 2), (3, 3), (4, 2), (5, 4)):
            center, scale = mesh.elements.centroid[ids], mesh.elements.diameter[ids]
            left = pb._cell_bases(center, scale, dl, mu, ids)
            right = pb._cell_bases(center, scale, dr, mu, ids)
            V, W = left.eval(points) * weights[..., None], right.eval(points)
            D, E = left.grad(points) * weights[..., None, None], right.grad(points)
            L = ref_laplacian(left, points) * weights[..., None]
            refs = {
                "mass": np.swapaxes(V, 1, 2) @ W,
                "grad": np.einsum("bpid,bpjd->bij", D, E),
                "lap": np.swapaxes(L, 1, 2) @ W,
            }
            for kind, ref in refs.items():
                gram = pb._moment_gram(mu, kind, left, right)
                assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max(), (kind, dl, dr)
            ints = np.einsum("bp,bpi->bi", weights, left.eval(points))
            assert np.abs(pb._moment_integrals(mu, left) - ints).max() <= 1e-12 * np.abs(ints).max()


@pytest.mark.parametrize("batch", [1, 50])
def test_tri_inv_matches_the_inverse(batch):
    rng = np.random.default_rng(batch)
    for n in range(1, 17):
        A = rng.standard_normal((batch, n, n))
        L = np.linalg.cholesky(A @ np.swapaxes(A, 1, 2) + n * np.eye(n))
        want = np.linalg.inv(L)
        got = pb._tri_inv(L)
        assert got.shape == L.shape
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale), n
        assert np.all(np.triu(got, 1) == 0.0)
        assert pb._tri_inv(L[0]).tobytes() == got[0].tobytes()


def test_projection_reproduces_polynomials():
    for mesh, e in random_polygons():
        for deg in (0, 1, 2, 3):
            basis = pb.cell_bases(mesh, [e], deg)[0]
            rng = np.random.default_rng(deg)
            c = rng.standard_normal(basis.dim)
            (got,) = pb.l2_project_cell(mesh, [e], deg, poly(basis, c))
            assert np.linalg.norm(got - c) <= 1e-12 * max(1, np.linalg.norm(c))


def test_projection_idempotent(unit_square):
    v = lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 5
    basis = pb.cell_bases(unit_square, [0], 2)[0]
    (c1,) = pb.l2_project_cell(unit_square, [0], 2, v)
    (c2,) = pb.l2_project_cell(unit_square, [0], 2, poly(basis, c1))
    assert np.linalg.norm(c2 - c1) <= 1e-12 * np.linalg.norm(c1)


def test_projection_mean_value(unit_square):
    (c,) = pb.l2_project_cell(unit_square, [0], 0, lambda p: p[:, 0])
    assert c[0] == pytest.approx(0.5, rel=1e-14)


def test_face_projection_cases(unit_square):
    bottom = next(
        f for f, mid in enumerate(unit_square.faces.midpoint) if np.allclose(mid, [0.5, 0])
    )
    # k=0 of an affine function is its midpoint value
    c = pb.l2_project_face(unit_square, bottom, 0, lambda p: 3 * p[:, 0] - 1)
    assert c[0] == pytest.approx(0.5, rel=1e-13)
    c = pb.l2_project_face(unit_square, bottom, 0, lambda p: p[:, 0] ** 2)
    assert c[0] == pytest.approx(1 / 3, rel=1e-13)
    # exact reproduction in P^k(F)
    s = lambda p: (p[:, 0] - 0.5) * 2.0  # arc-length coordinate of the bottom face
    coeff = np.array([0.3, -1.2, 0.7, 2.0])
    got = pb.l2_project_face(unit_square, bottom, 3, lambda p: s(p)[:, None] ** np.arange(4) @ coeff)
    assert got == pytest.approx(coeff, rel=1e-12)


def test_projection_order_zero_is_taken_as_given():
    # orders 0 and 1 select the same one-point rules
    mesh = generate("cartesian", 2)
    v = lambda p: p[:, 0] ** 2
    for project in (pb.l2_project_cell, pb.l2_project_face):
        zero, one = (project(mesh, [0], 0, v, order=order) for order in (0, 1))
        assert zero.tobytes() == one.tobytes()


def test_gradient_stability_of_projection():
    # for v in P^(l+1), the projection's gradient never beats the gradient
    for mesh, e in random_polygons(seed=11):
        for deg in (0, 1, 2):
            rich = pb.cell_bases(mesh, [e], deg + 1)[0]
            rng = np.random.default_rng(deg + 1)
            c = rng.standard_normal(rich.dim)
            coarse = pb.cell_bases(mesh, [e], deg)[0]
            (cp,) = pb.l2_project_cell(mesh, [e], deg, poly(rich, c))
            points, (weights,) = pb.cell_quadratures(mesh, [e], 2 * deg + 2)
            gp = np.einsum("pid,i->pd", coarse.grad(points)[0], cp)
            gv = np.einsum("pid,i->pd", rich.grad(points)[0], c)
            np_proj = np.einsum("pd,p,pd->", gp, weights, gp)
            np_full = np.einsum("pd,p,pd->", gv, weights, gv)
            assert np.sqrt(np_proj) <= np.sqrt(np_full) * (1 + 1e-10)


def test_trace_constant_bounded_across_refinement():
    consts = []
    for n in (2, 4, 8, 16):
        mesh = generate("cartesian", n)
        worst = 0.0
        for el in mesh.elements:
            basis = pb.cell_bases(mesh, [el.id], 3)[0]
            points, (weights,) = pb.cell_quadratures(mesh, [el.id], 8)
            (V,) = basis.eval(points)
            (D,) = basis.grad(points)
            l2 = np.sqrt(np.einsum("pi,p,pi->i", V, weights, V))
            h1 = np.sqrt(np.einsum("pid,p,pid->i", D, weights, D))
            bnd = np.zeros(basis.dim)
            for fid in el.face_ids:
                fp, fw = pb.face_quadratures(mesh, fid, 8)
                (Vf,) = basis.eval(fp[None])
                bnd += np.einsum("pi,p,pi->i", Vf, fw, Vf)
            ratio = np.sqrt(el.diameter * bnd) / (l2 + el.diameter * h1)
            worst = max(worst, ratio.max())
        consts.append(worst)
    assert max(consts) <= 2.0 * consts[0]


def test_orthonormalization_threshold(unit_square):
    assert pb.cell_bases(unit_square, [0], 3).transform is None
    rich = pb.cell_bases(unit_square, [0], 4)[0]
    assert rich.transform is not None
    M, _ = grams(unit_square, 0, 4)
    assert M == pytest.approx(np.eye(rich.dim), abs=1e-12)


def test_orthonormalizing_transform_matches_triangular_solve():
    # one stacked solve against scipy's triangular solve, element by element
    import scipy.linalg

    mesh = refine_nonconforming(generate("cartesian", 4), [0, 5, 10])
    worst = 0.0
    for ids in mesh.batches:
        for degree in (4, 5):
            basis = pb.cell_bases(mesh, ids, degree)
            points, weights = pb.cell_quadratures(mesh, ids, 2 * degree)
            raw = pb.CellBasis(basis.center, basis.scale, degree).eval(points)
            for b in range(len(ids)):
                L = np.linalg.cholesky(raw[b].T * weights[b] @ raw[b])
                ref = scipy.linalg.solve_triangular(L, np.eye(basis.dim), lower=True)
                err = np.abs(basis.transform[b] - ref).max() / np.abs(ref).max()
                worst = max(worst, err)
    assert worst <= 1e-12


def test_quadrature_errors():
    mesh = generate("cartesian", 1)
    with pytest.raises(pb.BasisError):
        pb.cell_quadratures(mesh, [0], -1)
    with pytest.raises(pb.BasisError):
        pb.CellBasis([[0, 0]], [1.0], -2)


U = lambda p: p[:, 0] + 2.0 * p[:, 1]

BAD_ORDERS = {
    "interpolate k=0": lambda m, order: hl.interpolate(m, m.batches[0], 0, U, order=order),
    "interpolate k=1": lambda m, order: hl.interpolate(m, m.batches[0], 1, U, order=order),
    "face_rule": lambda m, order: pb.face_rule(order),
    "face_quadratures": lambda m, order: pb.face_quadratures(m, [0], order),
    "cell_quadratures": lambda m, order: pb.cell_quadratures(m, [0], order),
}


@pytest.mark.parametrize("call", list(BAD_ORDERS))
@pytest.mark.parametrize("order, text", [(-1, "quadrature order must be >= 0"),
                                         (1.5, "quadrature order must be an integer, got 1.5")])
def test_a_bad_quadrature_order_is_refused(call, order, text):
    # the face path used to turn a negative order into a one-point rule
    with pytest.raises(pb.BasisError, match=re.escape(text)):
        BAD_ORDERS[call](generate("cartesian", 2), order)


BAD_DEGREES = {
    "cell_bases": (lambda m, d: pb.cell_bases(m, m.batches[0], d), "cell basis degree"),
    "l2_project_cell": (lambda m, d: pb.l2_project_cell(m, m.batches[0], d, U), "cell basis degree"),
    "l2_project_face": (lambda m, d: pb.l2_project_face(m, [0], d, U), "face basis degree"),
}


@pytest.mark.parametrize("call", list(BAD_DEGREES))
@pytest.mark.parametrize("degree, suffix", [(1.5, "must be an integer, got 1.5"),
                                            (-1, "must be >= 0")])
def test_a_bad_basis_degree_is_refused(call, degree, suffix):
    # a face degree of 1.5 gave three coefficients, -1 a (1, 0) array, and a
    # cell degree of 1.5 an untyped TypeError
    run, what = BAD_DEGREES[call]
    with pytest.raises(pb.BasisError, match=re.escape(f"{what} {suffix}")):
        run(generate("cartesian", 2), degree)


FACE_CALLS = {
    "face_quadratures": lambda m, ids: pb.face_quadratures(m, ids, 2),
    "l2_project_face": lambda m, ids: pb.l2_project_face(m, ids, 1, U),
}


@pytest.mark.parametrize("call", list(FACE_CALLS))
@pytest.mark.parametrize("ids, text", [
    ([0, -1], "face -1 out of range"),
    ([[0, 1], [2, 10**6]], "face 1000000 out of range"),
    ([0.7], "face 0.7 is not an integer id (float64)"),
    ([True], "face True is not an integer id (bool)"),
    ([np.nan], "face nan is not an integer id (float64)"),
])
def test_a_bad_face_id_is_refused(call, ids, text):
    # -1 read the last face, 0.7 face 0 and True face 1
    mesh = generate("cartesian", 2)
    with pytest.raises(MeshError, match=re.escape(text)):
        FACE_CALLS[call](mesh, ids)

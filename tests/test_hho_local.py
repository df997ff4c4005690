import copy
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import poly, stab_gram
from test_polybasis import ref_laplacian, star_polygons

from hho2d import assembly as asm
from hho2d import classics as cl
from hho2d import hho_local as hl
from hho2d import polybasis as pb
from hho2d import verify as vf
from hho2d import mesh as hm
from hho2d.mesh import MeshError, PolyMesh, generate
from hho2d.verify import agglomerated_mesh, nonconforming_mesh, rectangle_mesh


@pytest.fixture
def unit_square():
    return PolyMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])


@pytest.fixture
def unit_triangle():
    return PolyMesh([(0, 0), (1, 0), (0, 1)], [[0, 1, 2]])


def pentagon_mesh(t=0.5):
    """Element 0 is a square whose right side is split at height t."""
    verts = [(0, 0), (1, 0), (2, 0), (2, t), (1, t), (2, 1), (1, 1), (0, 1)]
    loops = [[0, 1, 6, 7], [1, 2, 3, 4], [4, 3, 5, 6]]
    return PolyMesh(verts, loops)


def test_interpolate_constant(unit_square):
    flat = hl.interpolate(unit_square, [0], 1, lambda p: np.full(len(p), 4.2))
    ops = hl.local_operators(unit_square, [0], 1)
    z = ops.constant_vector()
    assert flat == pytest.approx(4.2 * z, rel=1e-13)


def test_interpolate_k0_affine(unit_square):
    (vec,) = hl.interpolate(unit_square, [0], 0, lambda p: p[:, 0])
    # face loop order: bottom, right, top, left
    assert vec == pytest.approx([0.5, 1.0, 0.5, 0.0], abs=1e-14)
    ops = hl.local_operators(unit_square, [0], 0)
    assert ops.avg_weights[0] @ vec == pytest.approx(0.5, rel=1e-14)


def test_reconstruction_k0_recovers_affine(unit_square):
    ops = hl.local_operators(unit_square, [0], 0)
    coeff = ops.recon[0] @ np.array([0.5, 1.0, 0.5, 0.0])
    pts = np.random.default_rng(1).uniform(0, 1, (7, 2))
    assert poly(ops.recon_basis, coeff)(pts) == pytest.approx(pts[:, 0], abs=1e-13)


def test_reconstruction_of_constants(unit_square):
    ops = hl.local_operators(unit_square, [0], 0)
    coeff = ops.recon[0] @ np.full(4, 2.5)
    pts = np.random.default_rng(2).uniform(0, 1, (5, 2))
    assert poly(ops.recon_basis, coeff)(pts) == pytest.approx(np.full(5, 2.5))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_polynomial_consistency_random_cells(k):
    meshes = [
        PolyMesh([(0.2, -0.1), (1.1, 0.3), (0.4, 0.9)], [[0, 1, 2]]),
        PolyMesh([(0, 0), (2, 0.2), (1.9, 1.7), (-0.1, 1.4)], [[0, 1, 2, 3]]),
        pentagon_mesh(0.37),
    ]
    rng = np.random.default_rng(k)
    for mesh in meshes:
        ops = hl.local_operators(mesh, [0], k)
        c = rng.standard_normal(ops.recon_basis.dim)
        got = ops.recon[0] @ hl.interpolate(mesh, [0], k, poly(ops.recon_basis, c))[0]
        assert np.linalg.norm(got - c) <= 1e-10 * np.linalg.norm(c)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(star_polygons(), st.floats(0.0, 3.0))
def test_stretched_polygons_keep_polynomial_consistency(mesh, log_stretch):
    # an x-stretch up to 1e3 of a random star polygon: the reconstruction of
    # an interpolated P^{k+1} function is that function, and the function
    # costs no stabilization energy
    try:
        mesh = PolyMesh(mesh.vertices * [10.0**log_stretch, 1.0],
                        [mesh.elements.corners.tolist()])
    except MeshError:
        assume(False)
    for k in range(4):
        ops = hl.local_operators(mesh, [0], k)
        c = np.random.default_rng(k).standard_normal(ops.recon_basis.dim)
        v = poly(ops.recon_basis, c)
        (x,) = hl.interpolate(mesh, [0], k, v)
        points = pb.cell_quadratures(mesh, [0], 2 * k + 2)[0][0]
        got = poly(ops.recon_basis, ops.recon[0] @ x)(points)
        want = v(points)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), k
        assert np.sum((ops.stab_factor[0] @ x) ** 2) <= 1e-12 * (x @ ops.stiff[0] @ x), k


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_a_stack_of_star_polygons_builds_each_copy_alone(polygon):
    # three copies at scales 1, 10 and 1e-1, 40 diameters apart: none
    # touches another or splits a side of another, so they form one stack,
    # whose rows are each copy's one-element build byte for byte
    verts, n = polygon.vertices, polygon.n_faces
    c, h = polygon.elements.centroid[0], polygon.elements.diameter[0]
    copies = [s * (verts - c) + c + [40.0 * h * i, 0.0] for i, s in enumerate((1.0, 10.0, 1e-1))]
    try:
        mesh = PolyMesh(np.concatenate(copies), [list(range(i * n, (i + 1) * n)) for i in range(3)])
        alone = [PolyMesh(v, [list(range(n))]) for v in copies]
    except MeshError:
        assume(False)
    assert all([len(ids) for ids in mesh.stacks(k)] == [3] for k in range(4))
    assert mesh.n_faces == 3 * n
    v = lambda p: np.sin(p[:, 0]) * np.cos(2.0 * p[:, 1])
    fields = ("recon", "stab_factor", "stiff", "norm_gram", "avg_weights")
    for k in range(4):
        (ids,) = mesh.stacks(k)
        stack, rows = hl.local_operators(mesh, ids, k), hl.interpolate(mesh, ids, k, v)
        for b, one in enumerate(alone):
            ops = hl.local_operators(one, [0], k)
            for name in fields + (("cell_mass",) if k else ()):
                assert same_bytes(getattr(stack[b], name), getattr(ops, name)), (k, b, name)
            assert same_bytes(rows[b], hl.interpolate(one, [0], k, v)[0]), (k, b)
        if k:
            # the stored cell mass is the mass of the cell basis
            points, weights = pb.cell_quadratures(mesh, ids, 2 * k)
            V = stack.cell_basis.eval(points)
            mass = np.swapaxes(V * weights[..., None], 1, 2) @ V
            assert np.abs(stack.cell_mass - mass).max() <= 1e-13 * np.abs(mass).max(), k


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_local_forms_are_symmetric_and_the_norm_gram_splits_faces(mesh):
    # at k >= 1 the energy norm couples a face with itself and the cell only,
    # so the assembled Gram keeps no face-face entry between the faces of an
    # element
    for k in range(4):
        ops = hl.local_operators(mesh, [0], k)
        nc, nf = hl.cell_block_dim(k), mesh.n_faces  # one element owns every face
        for name in ("stiff", "norm_gram"):
            (local,) = getattr(ops, name)
            assert local.tobytes() == np.ascontiguousarray(local.T).tobytes(), (k, name)
        if k == 0:
            continue
        faces = ops.norm_gram[0, nc:, nc:].reshape(nf, k + 1, nf, k + 1)
        off = ~np.eye(nf, dtype=bool)
        assert (faces.transpose(0, 2, 1, 3)[off] == 0.0).all(), k


@pytest.mark.parametrize("k", [0, 1, 2])
def test_st2_polynomial_consistency_of_stabilization(k):
    mesh = pentagon_mesh(0.61)
    for e in range(mesh.n_elements):
        ops = hl.local_operators(mesh, [e], k)
        rng = np.random.default_rng(10 * e + k)
        c = rng.standard_normal(ops.recon_basis.dim)
        (flat,) = hl.interpolate(mesh, [e], k, poly(ops.recon_basis, c))
        (S,) = stab_gram(ops)
        assert np.linalg.norm(S @ flat) <= 1e-10 * np.linalg.norm(S, 2) * np.linalg.norm(flat)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reconstruction_satisfies_its_variational_contract(k):
    # direct check of the defining identity and the mean closure for
    # arbitrary (non-interpolated) local vectors against quadrature oracles
    mesh = pentagon_mesh(0.43)
    el = mesh.elements[0]
    ops = hl.local_operators(mesh, [0], k)
    rec = ops.recon_basis
    points, (weights,) = pb.cell_quadratures(mesh, [0], 2 * (k + 1) + 2)
    rng = np.random.default_rng(k)
    vec = rng.standard_normal(ops.n_local)
    w = ops.recon[0] @ vec
    nc = hl.cell_block_dim(k)

    for j in range(rec.dim):
        ej = np.zeros(rec.dim)
        ej[j] = 1.0
        gw = np.einsum("pid,i->pd", rec.grad(points)[0], w)
        gphi = np.einsum("pid,i->pd", rec.grad(points)[0], ej)
        lhs = np.einsum("pd,p,pd->", gw, weights, gphi)
        rhs = 0.0
        if k >= 1:
            lap = ref_laplacian(rec, points)[0] @ ej
            vT = ops.cell_basis.eval(points)[0] @ vec[:nc]
            rhs -= weights @ (vT * lap)
        for i, fid in enumerate(el.face_ids):
            fp, fw = pb.face_quadratures(mesh, int(fid), 2 * k + 4)
            vF_coeffs = vec[nc + i * (k + 1):nc + (i + 1) * (k + 1)]
            vF = ref_face_basis(mesh, int(fid), k, fp) @ vF_coeffs
            flux = rec.grad(fp[None])[0] @ el.face_normals[i] @ ej
            rhs += fw @ (vF * flux)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))

    # mean closure: cell mean for k >= 1, weighted face average for k = 0
    mean_w = weights @ (rec.eval(points)[0] @ w)
    if k >= 1:
        expected = weights @ (ops.cell_basis.eval(points)[0] @ vec[:nc])
    else:
        expected = el.area * (ops.avg_weights[0] @ vec)
    assert mean_w == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_stabilization_vanishes_on_triangles(unit_triangle):
    (S,) = stab_gram(hl.local_operators(unit_triangle, [0], 0))
    assert np.linalg.norm(S) <= 1e-15


def test_stabilization_rank_square(unit_square):
    # oracle: 4 face dofs, affine reconstructions form a 3-dim space
    (S,) = stab_gram(hl.local_operators(unit_square, [0], 0))
    assert np.linalg.norm(S) > 1e-3
    assert np.linalg.matrix_rank(S, tol=1e-12) == 1


@pytest.mark.parametrize("k", [0, 1, 2])
def test_stabilization_kernel_dimension(k):
    # kernel of S is exactly the interpolates of degree-(k+1) polynomials
    for mesh in (generate("cartesian", 1), pentagon_mesh(0.5)):
        ops = hl.local_operators(mesh, [0], k)
        expected = ops.n_local - ops.recon_basis.dim
        assert np.linalg.matrix_rank(stab_gram(ops)[0], tol=1e-10) == expected


def test_local_forms_kernel_and_psd(unit_square):
    for k in (0, 1, 2):
        ops = hl.local_operators(unit_square, [0], k)
        (z,), (stiff,), (gram,) = ops.constant_vector(), ops.stiff, ops.norm_gram
        assert np.linalg.norm(stiff @ z) <= 1e-12 * np.linalg.norm(stiff, 2)
        assert np.linalg.norm(gram @ z) <= 1e-12 * np.linalg.norm(gram, 2)
        assert z @ stiff @ z == pytest.approx(0.0, abs=1e-13)
        rng = np.random.default_rng(k)
        for _ in range(10):
            v = rng.standard_normal(ops.n_local)
            assert v @ stiff @ v >= -1e-13 * v @ v
        assert np.abs(stiff - stiff.T).max() <= 1e-13 * np.abs(stiff).max()


def test_constants_in_stiffness_kernel_with_transformed_cell_basis():
    # cell degree k - 1 >= 4 goes through the orthonormalizing transform
    ops = hl.local_operators(generate("cartesian", 2), [0, 1, 2, 3], 5)
    assert ops.cell_basis.transform is not None
    z = ops.constant_vector()
    for stiff, zb in zip(ops.stiff, z):
        assert np.linalg.norm(stiff @ zb) <= 1e-12 * np.linalg.norm(stiff, 2)


def test_eta_bounds_triangle_and_sampling(unit_triangle):
    ops = hl.local_operators(unit_triangle, [0], 0)
    ((lo, hi),) = hl.eta_bounds(ops)
    assert 0 < lo <= hi < np.inf
    # sampling oracle: Rayleigh quotients never escape [lo, hi]
    (z,) = ops.constant_vector()
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.standard_normal(ops.n_local)
        v -= (v @ z) / (z @ z) * z
        q = (v @ ops.stiff[0] @ v) / (v @ ops.norm_gram[0] @ v)
        assert lo - 1e-10 <= q <= hi + 1e-10


def test_eta_scale_invariance():
    small = PolyMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
    big = PolyMesh([(3, 1), (5, 1), (5, 3), (3, 3)], [[0, 1, 2, 3]])
    for k in (0, 1, 2):
        b1 = hl.eta_bounds(hl.local_operators(small, [0], k))
        b2 = hl.eta_bounds(hl.local_operators(big, [0], k))
        assert b1 == pytest.approx(b2, rel=1e-10)


# max eta over the mesh at k = 0..3, from the SVD-based kernel check
ETA_MAX = {
    "nonconf4": [3.0154480726901167, 8.591380906051063, 17.219593636234446, 28.648509618942747],
    "tri4": [6.64916512532633, 15.461676705456998, 28.048248028204707, 45.336673338556615],
}


@pytest.mark.parametrize("name", sorted(ETA_MAX))
def test_eta_kernel_check_by_symmetric_eigenvalues(name):
    mesh = nonconforming_mesh(4) if name == "nonconf4" else generate("triangular", 4)
    for k, want in enumerate(ETA_MAX[name]):
        stacks = asm.build_local_operators(mesh, k)
        assert max(hl.eta_of(s).max() for s in stacks) == pytest.approx(want, rel=1e-13)
        for s in stacks:
            for X in (s.stiff, s.norm_gram):
                two = np.linalg.norm(X, 2, axis=(-2, -1))
                eig = np.abs(np.linalg.eigvalsh(X)).max(axis=-1)
                assert np.abs(eig - two).max() <= 1e-13 * two.max()


@pytest.mark.parametrize("field", ["stiff", "norm_gram"])
def test_eta_kernel_check_threshold(field):
    # a rank-one push along the constants, just below and just above the
    # kernel tolerance, in element 5 of a stack of 16
    (stack,) = asm.build_local_operators(generate("cartesian", 4), 1)
    X = getattr(stack, field)
    z = stack.constant_vector()[5]
    z /= np.linalg.norm(z)
    scale = np.linalg.norm(X[5], 2)
    for factor, raises in ((0.5, False), (2.0, True)):
        pushed = X.copy()
        pushed[5] += factor * hl.KERNEL_TOL * scale * np.outer(z, z)
        broken = dataclasses.replace(stack, **{field: pushed})
        if raises:
            with pytest.raises(hl.CoercivityViolationError,
                               match=r"^element 5: constants are not in the shared kernel"):
                hl.eta_bounds(broken)
        else:
            assert hl.eta_bounds(broken) == pytest.approx(hl.eta_bounds(stack), rel=1e-6)


def test_eta_uniform_across_family():
    for k in (0, 1):
        etas = []
        for n in (2, 4, 8):
            mesh = generate("cartesian", n)
            etas.append(
                max(hl.eta_of(hl.local_operators(mesh, [e], k))[0] for e in range(mesh.n_elements))
            )
        assert max(etas) <= 2.0 * etas[0]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_elliptic_projector_identity_on_polynomials(k, unit_square):
    ops = hl.local_operators(unit_square, [0], k)
    rng = np.random.default_rng(k + 5)
    c = rng.standard_normal(ops.recon_basis.dim)
    (got,), _ = hl.elliptic_project(unit_square, [0], k, poly(ops.recon_basis, c), ops=ops)
    assert np.linalg.norm(got - c) <= 1e-10 * np.linalg.norm(c)


def test_elliptic_projector_mean_condition(unit_square):
    u = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    for k in (1, 2):
        (coeff,), basis = hl.elliptic_project(unit_square, [0], k, u, order=12)
        (points,), (weights,) = pb.cell_quadratures(unit_square, [0], 12)
        mean_proj = weights @ poly(basis, coeff)(points)
        mean_u = weights @ u(points)
        assert mean_proj == pytest.approx(mean_u, rel=1e-9)
    # a stack gives each element's projection, byte for byte
    mesh = generate("cartesian", 2)
    ids = np.arange(mesh.n_elements)
    for k in range(4):
        stack, basis = hl.elliptic_project(mesh, ids, k, u, order=12)
        assert stack.shape == (len(ids), basis.dim)
        for e in ids:
            one = hl.elliptic_project(mesh, [e], k, u, order=12)[0]
            assert stack[e].tobytes() == one[0].tobytes()


def _two_corner_counts():
    """A quad (element 0) and two triangles."""
    verts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    return PolyMesh(verts, [[0, 1, 4, 3], [1, 2, 5], [1, 5, 4]])


# every public kernel that takes a stack of element ids
ELEMENT_KERNELS = {
    "corner_rows": lambda m, ids: m.corner_rows(ids),
    "face_rows": lambda m, ids: m.face_rows(ids),
    "indices": lambda m, ids: asm.build_dof_map(m, 1).indices(ids),
    "local_flat": lambda m, ids: asm.GlobalHhoVector.zeros(asm.build_dof_map(m, 1)).local_flat(ids),
    "cell_quadratures": lambda m, ids: pb.cell_quadratures(m, ids, 2),
    "cell_bases": lambda m, ids: pb.cell_bases(m, ids, 1),
    "l2_project_cell": lambda m, ids: pb.l2_project_cell(m, ids, 1, lambda p: p[:, 0]),
    "local_operators": lambda m, ids: hl.local_operators(m, ids, 1),
    "interpolate": lambda m, ids: hl.interpolate(m, ids, 1, lambda p: p[:, 0]),
    "elliptic_project": lambda m, ids: hl.elliptic_project(m, ids, 1, lambda p: p[:, 0]),
    "cr_basis_gradients": cl.cr_basis_gradients,
}


@pytest.mark.parametrize("call", list(ELEMENT_KERNELS))
@pytest.mark.parametrize("ids, shape", [(3, "()"), (np.int64(3), "()"),
                                        ([[0, 1], [2, 3]], "(2, 2)")],
                         ids=["int", "numpy int", "2-D"])
def test_a_kernel_refuses_ids_that_are_no_stack(call, ids, shape):
    # one element is the stack [e]: a scalar id or a 2-D array is no stack
    with pytest.raises(MeshError) as exc:
        ELEMENT_KERNELS[call](generate("cartesian", 2), ids)
    assert str(exc.value) == f"element ids must be a 1-D stack, got shape {shape}"


@pytest.mark.parametrize("call", ["local_operators", "interpolate", "indices", "cell_quadratures",
                                  "cell_bases", "l2_project_cell"])
@pytest.mark.parametrize("stack", ["mixed", "mixed reversed", "past the end", "negative",
                                   "empty", "fraction", "float", "bool"])
def test_a_bad_stack_names_its_first_bad_element(call, stack):
    # the cell rules and bases read the corners only: there elements 0 and 1
    # have 4 and 3 corners; in nonconforming_mesh(4) elements 0 and 4 have 4
    # and 6 faces
    if call in ("cell_quadratures", "cell_bases", "l2_project_cell"):
        mesh, other = _two_corner_counts(), 1
    else:
        mesh, other = nonconforming_mesh(4), 4
    ids, culprit = {
        "mixed": ([0, other], other),
        "mixed reversed": ([other, 0], 0),
        "past the end": ([0, mesh.n_elements], mesh.n_elements),
        "negative": ([0, -1], -1),
        "empty": ([], None),
        # ids are never cast: a fraction or a bool is no element id
        "fraction": ([0.5, 1], 0.5),
        "float": ([1.7], 1.7),
        "bool": (np.array([True, False]), True),
    }[stack]
    message = "^empty element stack$" if culprit is None else rf"^element {culprit} "
    with pytest.raises(MeshError, match=message):
        ELEMENT_KERNELS[call](mesh, ids)


def _eta_elements():
    """Single elements: the unit square, the square with a corner cut off,
    with a side split into collinear faces or split near a corner, and
    regular polygons."""
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    out = {"square": square}
    for e in range(1, 9):
        t = 10.0**-e
        out[f"corner cut 1e-{e}"] = [(0, 0), (1, 0), (1, 1 - t), (1 - t, 1), (0, 1)]
    for m in (2, 4, 8, 16, 32, 64):
        out[f"{m} collinear faces"] = [(i / m, 0) for i in range(m)] + square[1:]
    for e in range(1, 10):
        out[f"side split at 1e-{e}"] = [(0, 0), (10.0**-e, 0)] + square[1:]
    for n in (3, 4, 5, 6, 8, 16, 32, 64, 128):
        a = 2 * np.pi * np.arange(n) / n
        out[f"{n}-gon"] = np.column_stack([np.cos(a), np.sin(a)])
    return out


ETA_ELEMENTS = _eta_elements()
# the largest eta of these families at k = 0..3, measured (unit square
# 2.83, 8.49, 17.15, 28.59), times a margin of 1.25
ETA_BOUND = 1.25 * np.array([3.46, 9.07, 17.44, 28.91])


@pytest.mark.parametrize("name", list(ETA_ELEMENTS))
def test_eta_does_not_grow_with_small_or_many_faces(name):
    # the stabilization scales every face term by h_T, not h_F, so eta stays
    # bounded on small faces and on many faces (Droniou and Yemm 2022)
    verts = ETA_ELEMENTS[name]
    mesh = PolyMesh(verts, [list(range(len(verts)))])
    eta = [hl.eta_of(hl.local_operators(mesh, [0], k))[0] for k in range(4)]
    assert np.all(np.array(eta) <= ETA_BOUND), eta


def test_gradient_identity_lowest_order(unit_square):
    # reconstruction of the interpolate of an affine function keeps its slope
    ops = hl.local_operators(unit_square, [0], 0)
    v = lambda p: 2.0 * p[:, 0] - 3.0 * p[:, 1] + 0.25
    coeff = ops.recon[0] @ hl.interpolate(unit_square, [0], 0, v)[0]
    pts = np.random.default_rng(8).uniform(0, 1, (6, 2))
    grads = np.einsum("pid,i->pd", ops.recon_basis.grad(pts[None])[0], coeff)
    assert grads == pytest.approx(np.tile([2.0, -3.0], (6, 1)), abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_t1_orthogonality(k, unit_square):
    # gradient of (u - elliptic projection) is orthogonal to cell gradients
    ops = hl.local_operators(unit_square, [0], k)
    rich = pb.cell_bases(unit_square, [0], k + 3)[0]
    rng = np.random.default_rng(k)
    cu = rng.standard_normal(rich.dim)
    (proj,), basis = hl.elliptic_project(unit_square, [0], k, poly(rich, cu), ops=ops,
                                         order=2 * k + 8)
    points, (weights,) = pb.cell_quadratures(unit_square, [0], 2 * k + 8)
    gu = np.einsum("pid,i->pd", rich.grad(points)[0], cu)
    gp = np.einsum("pid,i->pd", basis.grad(points)[0], proj)
    cell = pb.cell_bases(unit_square, [0], k - 1)[0]
    gtest = cell.grad(points)[0]
    resid = np.einsum("pd,p,pid->i", gu - gp, weights, gtest)
    scale = np.sqrt(np.einsum("pd,p,pd->", gu, weights, gu))
    assert np.abs(resid).max() <= 1e-12 * max(scale, 1.0)


def test_eta_bounds_reports_broken_pencils(unit_square):
    ops = hl.local_operators(unit_square, [0], 1)
    # constants leave the kernel
    broken = dataclasses.replace(ops, stiff=ops.stiff + np.eye(ops.n_local))
    with pytest.raises(hl.CoercivityViolationError):
        hl.eta_bounds(broken)


# Per-element loops that the element-stack code replaced, kept as references.


def per_element(mesh, k, stacks):
    """Members of the stacks (operators or arrays) of ``mesh.stacks(k)``, in
    element-id order."""
    out = [None] * mesh.n_elements
    for ids, stack in zip(mesh.stacks(k), stacks):
        for b, e in enumerate(ids):
            out[e] = stack[b]
    return out


def ref_scatter_blocks(blocks, n, drop_zeros=True):
    """One element at a time; like ``_scatter_blocks`` it stores no explicit
    zero unless ``drop_zeros`` is False."""
    rows, cols, vals = [], [], []
    for idx, local in blocks:
        keep = np.flatnonzero(idx >= 0)
        gi = idx[keep]
        r, c = np.repeat(gi, len(gi)), np.tile(gi, len(gi))
        v = local[np.ix_(keep, keep)].ravel()
        nz = v != 0 if drop_zeros else slice(None)
        rows.append(r[nz])
        cols.append(c[nz])
        vals.append(v[nz])
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    if drop_zeros:
        matrix.eliminate_zeros()
    return matrix


def ref_condense_expand(system, ops, table, face_solution):
    """static_condense, then CondensedSystem.expand, one element at a time."""
    nc = hl.cell_block_dim(system.k)
    nf_dofs = system.dofmap.n_face_dofs
    blocks, recovery = [], []
    rhs = np.zeros(nf_dofs)
    for op, idx in zip(ops, table):
        (stiff,) = op.stiff
        Acc, Acf, Aff = stiff[:nc, :nc], stiff[:nc, nc:], stiff[nc:, nc:]
        inv_L = pb._tri_inv(np.linalg.cholesky(Acc))
        W = inv_L @ Acf
        g = inv_L @ system.rhs[idx[:nc]]
        face_idx = idx[nc:]
        keep = face_idx >= 0
        blocks.append((face_idx, Aff - W.T @ W))
        np.add.at(rhs, face_idx[keep], -(W.T @ g)[keep])
        recovery.append((inv_L, W, g))
    rhs += system.rhs[:nf_dofs]
    vec = asm.GlobalHhoVector.zeros(system.dofmap)
    vec.data[:nf_dofs] = face_solution
    for e, (idx, (inv_L, W, g)) in enumerate(zip(table, recovery)):
        xf = vec.local_flat([e])[0, nc:]
        vec.data[idx[:nc]] = inv_L.T @ (g - W @ xf)
    return ref_scatter_blocks(blocks, nf_dofs), rhs, vec.data


def ref_energy_error(ops, solution, interp):
    err2 = 0.0
    for op, iu in zip(ops, interp):
        e = iu - solution.local_flat(op.elem_id)[0]
        err2 += e @ op.norm_gram[0] @ e
    return float(np.sqrt(max(err2, 0.0)))


def ref_stab_energy(ops, interp):
    total = 0.0
    for op, iu in zip(ops, interp):
        r = op.stab_factor[0] @ iu
        total += r @ r
    return float(np.sqrt(total))


def ref_interpolate_global(system, table, interp):
    data = np.zeros(system.dofmap.total)
    for idx, iu in zip(table, interp):
        keep = idx >= 0
        data[idx[keep]] = iu[keep]
    return data


def ref_face_basis(mesh, face_id, degree, points):
    """Monomials s^q (P, degree + 1) at 2D points of a face, s in [-1, 1]
    the arc-length coordinate from its midpoint along its tangent."""
    faces = mesh.faces
    rel = np.atleast_2d(points) - faces.midpoint[face_id]
    s = rel @ faces.tangent[face_id] * (2.0 / faces.length[face_id])
    return s[:, None] ** np.arange(degree + 1)


def ref_cell_basis(mesh, ids, degree):
    """cell_bases, orthonormalized on the fan quadrature."""
    els = mesh.elements
    basis = pb.CellBasis(els.centroid[ids], els.diameter[ids], degree)
    if degree < pb.ORTHONORMALIZE_FROM:
        return basis
    points, weights = pb.cell_quadratures(mesh, ids, 2 * degree)
    V = basis.eval(points)
    L = np.linalg.cholesky(np.swapaxes(V * weights[..., None], 1, 2) @ V)
    return pb.CellBasis(basis.center, basis.scale, degree, np.linalg.inv(L))


def ref_build(mesh, ids, k):
    """recon, stab, stiff and norm_gram of a stack, with every cell integral
    on the fan quadrature instead of the boundary moments."""
    els = mesh.elements
    rows = mesh.face_rows(ids)
    nb, nf = rows.shape
    nc, kf = hl.cell_block_dim(k), k + 1
    n_loc = nc + nf * kf
    hT = els.diameter[ids][:, None, None]

    def wgram(X, w, Y):
        return np.swapaxes(X * w[..., None], -1, -2) @ Y

    def ggram(D, w):
        return wgram(D[..., 0], w, D[..., 0]) + wgram(D[..., 1], w, D[..., 1])

    rec = ref_cell_basis(mesh, ids, k + 1)
    dr = rec.dim
    pts, w = pb.cell_quadratures(mesh, ids, 2 * k + 2)
    G = ggram(rec.grad(pts), w)
    s, _ = pb.face_rule(2 * k + 2)
    fpts, fw = pb.face_quadratures(mesh, els.face_ids[rows], 2 * k + 2)
    nq = len(s)
    fpts = fpts.reshape(nb, nf * nq, 2)
    Vf = s[:, None] ** np.arange(kf)
    n = els.face_normals[rows][:, :, None, None, :]
    Dr_f = rec.grad(fpts).reshape(nb, nf, nq, dr, 2)
    flux = Dr_f[..., 0] * n[..., 0] + Dr_f[..., 1] * n[..., 1]
    B = np.zeros((nb, dr, n_loc))
    B[:, :, nc:] = wgram(flux, fw, Vf).transpose(0, 2, 1, 3).reshape(nb, dr, nf * kf)
    r = np.zeros((nb, n_loc))
    if k == 0:
        r[:, nc:] = 0.5 * els.face_dists[rows] * els.face_lengths[rows]
    else:
        cellb = ref_cell_basis(mesh, ids, k - 1)
        Vc = cellb.eval(pts)
        B[:, :, :nc] = -wgram(ref_laplacian(rec, pts), w, Vc)
        r[:, :nc] = np.einsum("bp,bpi->bi", w, Vc)
    K = np.zeros((nb, dr + 1, dr + 1))
    K[:, :dr, :dr] = G
    K[:, :dr, dr] = K[:, dr, :dr] = np.einsum("bp,bpi->bi", w, rec.eval(pts))
    P = np.linalg.solve(K, np.concatenate([B, r[:, None]], axis=1))[:, :dr]

    # stabilization: face parts scaled by h^-1, the cell part by h^-2
    M_f = pb.face_mass(els.face_lengths[rows], k)
    Pi_f = np.linalg.solve(M_f, wgram(Vf, fw, rec.eval(fpts).reshape(nb, nf, nq, dr)))
    D = (-Pi_f @ P[:, None]).reshape(nb, nf * kf, n_loc)
    D[:, :, nc:] += np.eye(nf * kf)
    D = D.reshape(nb, nf, kf, n_loc)
    S = np.einsum("bfil,bfij,bfjm->blm", D, M_f, D) / hT
    if k >= 1:
        M_cell = wgram(Vc, w, Vc)
        D = -np.linalg.solve(M_cell, wgram(Vc, w, rec.eval(pts))) @ P
        D[:, :, :nc] += np.eye(nc)
        S += np.swapaxes(D, 1, 2) @ M_cell @ D / hT**2

    # energy-norm Gram: cell gradient plus scaled face jumps
    J = np.zeros((nb, nf, nq, n_loc))
    J[..., nc:] = np.einsum("fg,qj->fqgj", np.eye(nf), Vf).reshape(nf, nq, nf * kf)
    if k >= 1:
        J[..., :nc] -= cellb.eval(fpts).reshape(nb, nf, nq, nc)
    else:
        J -= (r / els.area[ids][:, None])[:, None, None, :]
    J = J.reshape(nb, nf * nq, n_loc)
    N = wgram(J, fw.reshape(nb, -1), J) / hT
    if k >= 1:
        N[:, :nc, :nc] += ggram(cellb.grad(pts), w)
    A = np.swapaxes(P, 1, 2) @ G @ P + S
    return {"recon": P, "stab": S, "stiff": A, "norm_gram": N}


def same_bytes(a, b):
    if sp.issparse(a):
        return all(same_bytes(getattr(a, n), getattr(b, n)) for n in ("indptr", "indices", "data"))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_batched_build_matches_one_element_at_a_time(k, monkeypatch):
    # mixed (corners, faces) groups, and a 36-quad group cut into 9 stacks
    monkeypatch.setattr(hm, "STACK_FACE_DOFS", 16 * (k + 1))
    meshes = [nonconforming_mesh(4), agglomerated_mesh(8), rectangle_mesh(4),
              generate("cartesian", 6)]
    assert len(meshes[-1].stacks(k)) == 9
    fields = ("recon", "stab", "stab_factor", "stiff", "norm_gram", "avg_weights")
    fields += ("cell_mass",) if k else ()
    get = lambda op, name: stab_gram(op) if name == "stab" else getattr(op, name)
    u = lambda p: np.sin(3 * p[:, 0]) * np.exp(p[:, 1])
    f = lambda p: np.cos(2 * p[:, 0]) + p[:, 1]

    def close(got, want, floor=0.0):
        assert np.shape(got) == np.shape(want)
        return np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), floor)

    shared = False
    for mesh in meshes:
        batched = asm.build_local_operators(mesh, k)
        assert [op.elem_id.tolist() for op in batched] == [b.tolist() for b in mesh.stacks(k)]
        # eta runs once per class on these stacks
        shared |= any(op.classes is not None for op in batched)
        views = per_element(mesh, k, batched)
        for e, op in enumerate(views):
            ref = hl.local_operators(mesh, [e], k)
            assert op.elem_id.tolist() == [e]
            for name in fields:
                assert same_bytes(get(op, name), get(ref, name)), (e, name)
        els = mesh.elements
        for ids, stack in zip(mesh.stacks(k), batched):
            # the cell integrals against the fan quadrature
            ref = ref_build(mesh, ids, k)
            for name, want in ref.items():
                assert close(get(stack, name), want), (ids, name)
            face_ids = els.face_ids[mesh.face_rows(ids)]
            stacks = (
                (hl.interpolate(mesh, ids, k, u),
                 [hl.interpolate(mesh, [e], k, u)[0] for e in ids]),
                (pb.l2_project_cell(mesh, ids, k, u),
                 [pb.l2_project_cell(mesh, [e], k, u)[0] for e in ids]),
                (pb.l2_project_face(mesh, face_ids, k, u),
                 [[pb.l2_project_face(mesh, f, k, u) for f in row] for row in face_ids]),
            )
            for got, want in stacks:
                assert close(got, np.array(want)), ids
            eta = [hl.eta_bounds(hl.local_operators(mesh, [e], k))[0] for e in ids]
            assert same_bytes(hl.eta_bounds(stack), np.array(eta)), ids

        # the stack-by-stack system against the per-element references
        system = asm.assemble(mesh, k, f, ops=batched)
        dm = system.dofmap
        table = [dm.indices([e])[0] for e in range(mesh.n_elements)]
        gram = asm.NormGram(system)
        for matrix, name in ((system.matrix, "stiff"), (gram.matrix, "norm_gram")):
            locals_ = [getattr(op, name)[0] for op in views]
            assert same_bytes(matrix, ref_scatter_blocks(zip(table, locals_), dm.total))
            # dropping zeros drops no nonzero value
            kept = ref_scatter_blocks(zip(table, locals_), dm.total, drop_zeros=False)
            assert np.array_equal(matrix.toarray(), kept.toarray()), name
        rhs = asm.GlobalHhoVector.zeros(dm)
        loads = [asm._local_loads(mesh, k, f, op) for op in batched]
        for e, load in enumerate(per_element(mesh, k, loads)):
            rhs.scatter_add([e], load[None])
        assert same_bytes(system.rhs, rhs.data)
        interp = vf.local_interpolates(mesh, k, u)
        rows = per_element(mesh, k, interp)
        assert same_bytes(
            vf.interpolate_global(system, interp).data,
            ref_interpolate_global(system, table, rows))
        solution, _ = asm.solve(system)
        assert close(vf.energy_error(batched, solution, interp),
                     ref_energy_error(views, solution, rows))
        assert close(vf.stab_energy(batched, interp), ref_stab_energy(views, rows))
        if k >= 1:
            condensed = asm.static_condense(system)
            xf = np.random.default_rng(k).standard_normal(condensed.n_reduced)
            matrix, crhs, data = ref_condense_expand(system, views, table, xf)
            assert same_bytes(condensed.matrix, matrix)
            assert same_bytes(condensed.rhs, crhs)
            assert same_bytes(condensed.expand(xf).data, data)
    assert shared


def counting_build(monkeypatch):
    """Record the ids and the result of every ``hl._build`` call."""
    calls = []
    build = hl._build

    def counted(inputs, ids, k):
        calls.append((ids, build(inputs, ids, k)))
        return calls[-1][1]

    monkeypatch.setattr(hl, "_build", counted)
    return calls


def test_equal_elements_are_built_once(monkeypatch):
    mesh = generate("cartesian", 16)
    calls = counting_build(monkeypatch)
    (stack,) = asm.build_local_operators(mesh, 1)
    built = sum(len(ids) for ids, _ in calls)
    assert stack.classes is not None
    assert built == len(np.unique(stack.classes)) < mesh.n_elements // 16
    # a member of a class reads its own centroid, and a sub-stack has no map
    view = stack[5]
    assert same_bytes(view.cell_basis.center, mesh.elements.centroid[[5]])
    assert stack[2:9].classes is None and view.classes is None


def test_distinct_elements_take_the_stack_path(monkeypatch):
    grid = generate("cartesian", 8)
    verts = grid.vertices.copy()
    inner = np.all((verts > 0) & (verts < 1), axis=1)
    verts[inner] += 0.3 / 8 * (np.random.default_rng(3).random((inner.sum(), 2)) - 0.5)
    mesh = PolyMesh(verts, grid.elements.corners.reshape(-1, 4).tolist())
    calls = counting_build(monkeypatch)
    stacks = asm.build_local_operators(mesh, 2)
    # every element is its own class: _build sees the stacks, and its
    # arrays are returned as they are, with no gather
    assert [ids.tolist() for ids, _ in calls] == [ids.tolist() for ids in mesh.stacks(2)]
    for op, (ids, out) in zip(stacks, calls):
        assert op.classes is None
        assert all(getattr(op, name) is getattr(out, name)
                   for name in ("recon", "stab_factor", "stiff", "norm_gram"))
        assert same_bytes(op.cell_basis.center, mesh.elements.centroid[ids])


def test_singular_element_inside_a_batch_is_named():
    mesh = generate("cartesian", 4)
    # collapse element 5 onto the bottom side: every fan triangle is flat,
    # and so is every centroid-to-face pyramid of the boundary moments
    els = mesh.elements
    corners, centroid = els.corners.copy(), els.centroid.copy()
    corners[els.corner_ptr[5]:els.corner_ptr[6]] = [0, 1, 2, 3]
    centroid[5] = [0.375, 0.0]
    dists = els.face_dists.copy()
    dists[els.face_ptr[5]:els.face_ptr[6]] = 0.0
    broken = copy.copy(mesh)
    broken.elements = dataclasses.replace(
        els, corners=corners, centroid=centroid, face_dists=dists)
    for k, error in ((1, hl.HhoError), (3, pb.BasisError)):
        with pytest.raises(error, match=r"^element 5: singular"):
            hl.local_operators(broken, range(mesh.n_elements), k)
        with pytest.raises(error, match=r"^element 5: singular"):
            asm.build_local_operators(broken, k)
    for k in (1, 2, 3):
        with pytest.raises(pb.BasisError, match=r"^element 5: singular"):
            hl.interpolate(broken, range(mesh.n_elements), k, lambda p: p[:, 0])
    # the polybasis builders name the element too, outside any operator build
    ids = range(mesh.n_elements)
    with pytest.raises(pb.BasisError, match=r"^element 5: singular mass matrix at degree 4$"):
        pb.cell_bases(broken, ids, 4)
    with pytest.raises(pb.BasisError, match=r"^element 5: singular mass matrix at degree 2$"):
        pb.l2_project_cell(broken, ids, 2, lambda p: p[:, 0], order=8)
    # a pencil whose kernel misses the constants, inside an eta stack
    (stack,) = asm.build_local_operators(mesh, 1)
    assert len(stack.elem_id) == mesh.n_elements
    stiff = stack.stiff.copy()
    stiff[9] += np.eye(stack.n_local)
    with pytest.raises(hl.CoercivityViolationError, match=r"^element 9: constants"):
        hl.eta_bounds(dataclasses.replace(stack, stiff=stiff))
    # a zeroed cell block inside a stack, at static condensation, and a
    # negated one: nonsingular but indefinite, so an inverse would accept it
    for k in (1, 2, 3):
        for scale in (0.0, -1.0):
            system = asm.assemble(mesh, k, lambda p: np.ones(len(p)))
            nc = hl.cell_block_dim(k)
            stiff = system.ops[0].stiff.copy()
            stiff[9, :nc, :nc] *= scale
            system.ops[0] = dataclasses.replace(system.ops[0], stiff=stiff)
            with pytest.raises(asm.AssemblyError,
                               match=r"^element 9: cell block not positive definite"):
                asm.static_condense(system)


def test_eta_names_the_first_element_of_the_first_failing_check():
    # element 3 is non-coercive and element 9 leaves the kernel: the kernel
    # check runs first, so it names element 9, though element 3 comes first
    (stack,) = asm.build_local_operators(generate("cartesian", 4), 1)
    stiff = stack.stiff.copy()
    stiff[3] *= -1.0
    non_coercive = dataclasses.replace(stack, stiff=stiff.copy())
    stiff[9] += np.eye(stack.n_local)
    broken = dataclasses.replace(stack, stiff=stiff)
    with pytest.raises(hl.CoercivityViolationError,
                       match=r"^element 9: constants are not in the shared kernel$"):
        hl.eta_bounds(broken)
    # a named element fails alone with the same text, its own lam included
    for ops, e in ((broken, 9), (non_coercive, 3)):
        with pytest.raises(hl.CoercivityViolationError) as stacked:
            hl.eta_bounds(ops)
        with pytest.raises(hl.CoercivityViolationError) as alone:
            hl.eta_bounds(ops[e])
        assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "element 3: non-coercive local form (lam=-8.485e+00)"


@pytest.mark.parametrize("k, detail", [
    (1.5, "polynomial degree must be an integer, got 1.5"),
    ("1", "polynomial degree must be an integer, got '1'"),
    (-1, "polynomial degree must be >= 0"),
])
@pytest.mark.parametrize("build", ["local_operators", "interpolate"])
def test_a_bad_degree_is_an_hho_error(k, detail, build):
    mesh = generate("cartesian", 2)
    args = (lambda p: p[:, 0],) if build == "interpolate" else ()
    with pytest.raises(hl.HhoError) as exc:
        getattr(hl, build)(mesh, [0, 1], k, *args)
    assert str(exc.value) == detail

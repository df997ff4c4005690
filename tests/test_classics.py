import numpy as np
import pytest
import scipy.sparse as sp

from hho2d import classics as cl
from hho2d import hho_local as hl
from hho2d import polybasis as pb
from hho2d.mesh import MeshError, PolyMesh, generate, refine_nonconforming


def sine_case():
    u = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    grad = lambda p: np.pi * np.column_stack(
        [
            np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ]
    )
    f = lambda p: 2 * np.pi**2 * u(p)
    return u, grad, f


def test_cr_zero_load():
    mesh = generate("triangular", 2)
    system = cl.cr_assemble(mesh, lambda p: np.zeros(len(p)))
    assert np.abs(system.solve()).max() == 0.0


def test_cr_stiffness_spd():
    import scipy.linalg

    system = cl.cr_assemble(generate("triangular", 3), lambda p: np.zeros(len(p)))
    scipy.linalg.cholesky(system.matrix.toarray())


def test_cr_rejects_bad_meshes():
    with pytest.raises(MeshError, match="triangle"):
        cl.cr_assemble(generate("cartesian", 2), lambda p: np.zeros(len(p)))
    hanging = refine_nonconforming(generate("triangular", 1), [0])
    with pytest.raises(MeshError, match="hanging"):
        cl.cr_assemble(hanging, lambda p: np.zeros(len(p)))


def test_cr_basis_is_dual_to_face_averages():
    mesh = generate("triangular", 2)
    for el in mesh.elements:
        grads = cl.cr_basis_gradients(mesh, el.id)
        for i, fid in enumerate(el.face_ids):
            for j, fjd in enumerate(el.face_ids):
                points, weights = pb.face_quadratures(mesh, int(fjd), 4)
                mid = mesh.faces.midpoint[fid]
                phi = 1.0 + (points - mid) @ grads[i]
                avg = weights @ phi / mesh.faces.length[fjd]
                assert avg == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_cr_matrix_matches_hho_k0(n):
    mesh = generate("triangular", n)
    system = cl.cr_assemble(mesh, lambda p: np.zeros(len(p)))
    idx = system.face_index
    m = system.matrix.shape[0]
    rows, cols, vals = [], [], []
    for el in mesh.elements:
        A = hl.local_operators(mesh, el.id, 0).stiff
        gi = idx[el.face_ids]
        for i in range(3):
            for j in range(3):
                if gi[i] >= 0 and gi[j] >= 0:
                    rows.append(gi[i])
                    cols.append(gi[j])
                    vals.append(A[i, j])
    hho = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
    rel = sp.linalg.norm(hho - system.matrix) / sp.linalg.norm(system.matrix)
    assert rel <= 1e-12


def jittered_triangulation(n, seed=4):
    """triangular:n with every interior vertex moved by up to h/5."""
    mesh = generate("triangular", n)
    verts = mesh.vertices.copy()
    inner = (verts > 0).all(axis=1) & (verts < 1).all(axis=1)
    rng = np.random.default_rng(seed)
    verts[inner] += rng.uniform(-0.2, 0.2, (inner.sum(), 2)) / n
    return PolyMesh(verts, mesh.elements.corners.reshape(-1, 3))


@pytest.mark.parametrize("mesh", [generate("triangular", 4), jittered_triangulation(4)])
def test_cr_load_of_affine_source(mesh):
    # oracle: the edge-midpoint rule is exact for degree 2, and a CR basis
    # function is 1 at its own face midpoint and 0 at the two others, so
    # rhs[F] = f(mid_F) * sum over the triangles T of F of |T| / 3
    f = lambda p: 1.5 - 2.0 * p[:, 0] + 0.7 * p[:, 1]
    system = cl.cr_assemble(mesh, f)
    interior = mesh.interior_face_ids()
    area = mesh.elements.area[mesh.faces.elems[interior]].sum(axis=1)
    expected = f(mesh.faces.midpoint[interior]) * area / 3.0
    assert (system.face_index[interior] == np.arange(len(interior))).all()
    assert np.abs(system.rhs - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("mesh", [generate("triangular", 4), jittered_triangulation(4)])
def test_cr_energy_error_of_affine_interpolate(mesh):
    # an affine u is reproduced by its face-midpoint values
    u = lambda p: 0.3 + 1.1 * p[:, 0] - 0.6 * p[:, 1]
    grad = lambda p: np.tile([1.1, -0.6], (len(p), 1))
    values = u(mesh.faces.midpoint)
    assert cl.cr_energy_error(mesh, values, grad) <= 1e-13


def test_cr_energy_convergence():
    u, grad, f = sine_case()
    errors, hs = [], []
    for n in (4, 8, 16):
        mesh = generate("triangular", n)
        system = cl.cr_assemble(mesh, f)
        vals = system.solve()
        errors.append(cl.cr_energy_error(mesh, vals, grad))
        hs.append(mesh.h)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)


def test_rtn_constant_field():
    mesh = generate("triangular", 2)
    field = cl.rtn_interpolate(mesh, lambda p: np.tile([2.0, -1.0], (len(p), 1)))
    assert np.abs(field.q).max() == 0.0
    assert field.a == pytest.approx(np.tile([2.0, -1.0], (mesh.n_elements, 1)))


def test_rtn_linear_field_hand_solved():
    # oracle: tau = x solves a = anchor, q = 1 in the 3x3 flux system
    mesh = generate("triangular", 1)
    field = cl.rtn_interpolate(mesh, lambda p: p)
    centroids = np.array([el.centroid for el in mesh.elements])
    assert field.a == pytest.approx(centroids, abs=1e-13)
    assert field.q == pytest.approx(np.ones(2), abs=1e-13)
    assert field.divergence() == pytest.approx(np.full(2, 2.0), abs=1e-13)


def test_rtn_flux_continuity_and_commutation():
    mesh = generate("triangular", 3)
    tau = lambda p: np.column_stack([np.exp(p[:, 0]), p[:, 0] * p[:, 1]])
    div = lambda p: np.exp(p[:, 0]) + p[:, 0]
    field = cl.rtn_interpolate(mesh, tau)
    fluxes = field.normal_fluxes()
    by_face = {}
    for el in mesh.elements:
        for i, fid in enumerate(el.face_ids):
            by_face.setdefault(int(fid), []).append(fluxes[el.id][i])
    for fid, pair in by_face.items():
        if len(pair) == 2:
            assert pair[0] + pair[1] == pytest.approx(0.0, abs=1e-12)
    for el in mesh.elements:
        (points,), (weights,) = pb.cell_quadratures(mesh, [el.id], 8)
        mean_div = weights @ div(points) / el.area
        assert field.divergence()[el.id] == pytest.approx(mean_div, abs=1e-12)


def test_magic_formula_rtn_fluxes():
    mesh = generate("triangular", 4)
    tau = lambda p: np.column_stack(
        [np.sin(p[:, 1]) + p[:, 0] ** 2, np.cos(p[:, 0]) + p[:, 1] ** 3]
    )
    fluxes = cl.rtn_interpolate(mesh, tau).normal_fluxes()
    rng = np.random.default_rng(0)
    vals = np.zeros(mesh.n_faces)
    interior = mesh.interior_face_ids()
    vals[interior] = rng.standard_normal(len(interior))
    residual = cl.magic_residual(mesh, fluxes, vals)
    scale = cl.magic_scale(mesh, fluxes, vals)
    assert abs(residual) <= 1e-12 * scale


def test_magic_formula_globally_affine_gradient():
    # a global affine is continuous piecewise-affine with constant (hence
    # normal-trace-continuous) gradient
    mesh = generate("triangular", 2)
    slope = np.array([2.0, -1.0])
    fluxes = [el.face_normals @ slope for el in mesh.elements]
    rng = np.random.default_rng(1)
    vals = np.zeros(mesh.n_faces)
    interior = mesh.interior_face_ids()
    vals[interior] = rng.standard_normal(len(interior))
    residual = cl.magic_residual(mesh, fluxes, vals)
    assert abs(residual) <= 1e-13 * (1 + cl.magic_scale(mesh, fluxes, vals))


def test_magic_formula_detects_nonconforming_hat_gradient():
    # the broken gradient of a P1 vertex hat has jumping normal traces, so
    # it is *not* a valid flux field and the sum must see the jumps
    mesh = generate("triangular", 1)
    hat_values = np.array([1.0, 0.0, 0.0, 0.0])  # vertex 0 = (0, 0)
    fluxes = []
    for el in mesh.elements:
        pts = mesh.vertices[el.vertex_loop]
        A = np.column_stack([np.ones(3), pts])
        coeff = np.linalg.solve(A, hat_values[el.vertex_loop])
        fluxes.append(el.face_normals @ coeff[1:])
    vals = np.zeros(mesh.n_faces)
    diag = mesh.interior_face_ids()[0]
    vals[diag] = 1.0
    residual = cl.magic_residual(mesh, fluxes, vals)
    # hand computation: both triangles push flux 1/sqrt(2) through the
    # diagonal of length sqrt(2)
    assert residual == pytest.approx(2.0, rel=1e-13)


def test_magic_formula_polygonal_gradient_fluxes():
    mesh = refine_nonconforming(generate("cartesian", 2), [0, 3])
    u, grad, f = sine_case()
    fluxes = cl.gradient_fluxes(mesh, grad)
    rng = np.random.default_rng(2)
    vals = np.zeros(mesh.n_faces)
    interior = mesh.interior_face_ids()
    vals[interior] = rng.standard_normal(len(interior))
    residual = cl.magic_residual(mesh, fluxes, vals)
    scale = cl.magic_scale(mesh, fluxes, vals)
    assert abs(residual) <= 1e-12 * scale


def test_magic_formula_negative_control():
    mesh = generate("triangular", 2)
    tau = lambda p: np.column_stack([p[:, 0] + 1.0, p[:, 1] ** 2])
    fluxes = cl.rtn_interpolate(mesh, tau).normal_fluxes()
    rng = np.random.default_rng(3)
    vals = np.zeros(mesh.n_faces)
    interior = mesh.interior_face_ids()
    vals[interior] = rng.standard_normal(len(interior))
    el = next(
        el for el in mesh.elements
        if any(mesh.faces.elems[f, 1] >= 0 for f in el.face_ids)
    )
    iloc = next(i for i, f in enumerate(el.face_ids) if mesh.faces.elems[f, 1] >= 0)
    fid = int(el.face_ids[iloc])
    bad = [f.copy() for f in fluxes]
    bad[el.id][iloc] *= -1.0
    residual = cl.magic_residual(mesh, bad, vals)
    # direct-evaluation oracle: flipping one flux leaves twice its term
    expected = -2.0 * mesh.faces.length[fid] * fluxes[el.id][iloc] * vals[fid]
    assert residual == pytest.approx(expected, rel=1e-12)
    assert residual != 0.0


def test_magic_residual_rejects_nonzero_boundary():
    mesh = generate("triangular", 1)
    fluxes = [np.zeros(el.n_faces) for el in mesh.elements]
    vals = np.ones(mesh.n_faces)
    with pytest.raises(ValueError, match="boundary"):
        cl.magic_residual(mesh, fluxes, vals)

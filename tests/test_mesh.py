import numpy as np
import pytest

from hho2d.mesh import (
    MeshError,
    MeshFamily,
    PolyMesh,
    agglomerate,
    dump_mesh,
    generate,
    load_mesh,
    refine_nonconforming,
    regularity_report,
)

UNIT_SQUARE_DOC = """\
POLYMESH2D 1
VERTICES 4
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
ELEMENTS 1
4 0 1 2 3
"""


def hanging_node_mesh():
    """Unit square next to two stacked half squares of [1,2]x[0,1]."""
    verts = [(0, 0), (1, 0), (2, 0), (2, 0.5), (1, 0.5), (2, 1), (1, 1), (0, 1)]
    loops = [[0, 1, 6, 7], [1, 2, 3, 4], [4, 3, 5, 6]]
    return PolyMesh(verts, loops)


def test_load_single_square():
    mesh = load_mesh(UNIT_SQUARE_DOC)
    assert mesh.n_elements == 1
    assert mesh.n_faces == 4
    assert all(f.boundary for f in mesh.faces)


def test_load_2x2_counts():
    mesh = generate("cartesian", 2)
    assert mesh.n_elements == 4
    assert mesh.n_faces == 12
    assert len(mesh.interior_face_ids()) == 4
    assert len(mesh.boundary_face_ids()) == 8


def test_hanging_node_splits_coarse_side():
    mesh = hanging_node_mesh()
    left = mesh.elements[0]
    assert left.n_faces == 5
    assert len(left.vertex_loop) == 4
    assert mesh.n_faces == 10


def test_generator_trivia():
    assert generate("cartesian", 1).n_elements == 1
    tri = generate("triangular", 1)
    assert tri.n_elements == 2
    assert tri.n_faces == 5
    assert len(tri.interior_face_ids()) == 1
    assert generate("cartesian", 4).h == pytest.approx(np.sqrt(2) / 4, rel=1e-15)


def test_refine_marks_one_element():
    mesh = generate("cartesian", 2)
    ref = refine_nonconforming(mesh, [0])
    assert ref.n_elements == 7
    # the two edge-neighbors of the refined cell get one side split
    assert sorted(el.n_faces for el in ref.elements) == [4, 4, 4, 4, 4, 5, 5]


def test_refine_empty_mark_is_identity():
    mesh = generate("cartesian", 2)
    ref = refine_nonconforming(mesh, [])
    assert ref.n_elements == mesh.n_elements
    assert ref.n_faces == mesh.n_faces
    keys = lambda m: sorted((f.v0, f.v1) for f in m.faces)
    assert keys(ref) == keys(mesh)


def test_refine_all_matches_uniform_refinement():
    ref = refine_nonconforming(generate("cartesian", 2), range(4))
    uni = generate("cartesian", 4)
    assert ref.n_elements == uni.n_elements
    assert ref.n_faces == uni.n_faces
    assert len(ref.boundary_face_ids()) == len(uni.boundary_face_ids())


def test_refine_preserves_similarity():
    mesh = generate("cartesian", 2)
    ref = refine_nonconforming(mesh, [3])
    children = [el for el in ref.elements if el.diameter < 0.9 * mesh.h]
    assert len(children) == 4
    for el in children:
        assert el.diameter == pytest.approx(mesh.h / 2, rel=0, abs=0)


def test_refine_shape_support():
    mesh = hanging_node_mesh()
    ref = refine_nonconforming(mesh, [1])  # quad next to the pentagon: fine
    assert ref.n_elements == 6
    pent_verts = [(0, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
    pent = PolyMesh(pent_verts, [[0, 1, 2, 3, 4]])
    with pytest.raises(MeshError, match="refined"):
        refine_nonconforming(pent, [0])


def test_agglomerate_uniform():
    coarse = agglomerate(generate("cartesian", 4), 2)
    assert coarse.n_elements == 4
    assert coarse.total_area == 1.0


def test_agglomerate_mixed_blocks():
    fine = generate("cartesian", 4)
    blocks = [(0, 0, 2, 2)] + [
        (i, j, 1, 1) for j in range(4) for i in range(4) if not (i < 2 and j < 2)
    ]
    coarse = agglomerate(fine, blocks)
    assert coarse.n_elements == 13
    assert coarse.total_area == 1.0
    big = max(coarse.elements, key=lambda el: el.area)
    # right and top sides face 1x1 neighbors and split at their corners
    assert big.n_faces == 6


def test_agglomerate_rejects_bad_blocks():
    fine = generate("cartesian", 4)
    with pytest.raises(MeshError):
        agglomerate(fine, 3)
    with pytest.raises(MeshError):
        agglomerate(fine, [(0, 0, 2, 2)])
    with pytest.raises(MeshError):
        agglomerate(generate("triangular", 2), 2)


@pytest.mark.parametrize(
    "mesh",
    [
        generate("cartesian", 3),
        generate("triangular", 2),
        hanging_node_mesh(),
        refine_nonconforming(generate("cartesian", 2), [1, 2]),
        agglomerate(
            generate("cartesian", 4),
            [(0, 0, 2, 2)]
            + [(i, j, 1, 1) for j in range(4) for i in range(4) if not (i < 2 and j < 2)],
        ),
    ],
    ids=["cart3", "tri2", "hanging", "refined", "agglo"],
)
def test_geometric_identities(mesh):
    for el in mesh.elements:
        closure = el.face_normals.T @ el.face_lengths
        assert np.linalg.norm(closure) <= 1e-12 * el.diameter * el.n_faces
        pyramid = 0.5 * np.dot(el.face_dists, el.face_lengths)
        assert abs(pyramid - el.area) <= 1e-12 * el.area * el.n_faces
        assert np.all(el.face_dists > 0)
        assert el.face_lengths.max() <= el.diameter * (1 + 1e-12)


def test_serialization_roundtrip_bit_exact():
    mesh = hanging_node_mesh()
    doc = dump_mesh(mesh)
    again = load_mesh(doc)
    assert dump_mesh(again) == doc
    assert again.n_faces == mesh.n_faces
    assert [(f.v0, f.v1, f.elems) for f in again.faces] == [
        (f.v0, f.v1, f.elems) for f in mesh.faces
    ]


def test_load_rejects_malformed_documents():
    with pytest.raises(MeshError):
        load_mesh("POLYMESH2D 2\n")
    with pytest.raises(MeshError):
        load_mesh("POLYMESH2D 1\nVERTICES 1\n0.0 0.0\nELEMENTS 1\n3 0 0 0\n")
    with pytest.raises(MeshError, match="bad coordinate"):
        load_mesh("POLYMESH2D 1\nVERTICES 1\n0.0 x\nELEMENTS 1\n3 0 0 0\n")
    bowtie = (
        "POLYMESH2D 1\nVERTICES 4\n0.0 0.0\n1.0 1.0\n1.0 0.0\n0.0 1.0\n"
        "ELEMENTS 1\n4 0 1 2 3\n"
    )
    with pytest.raises(MeshError):
        load_mesh(bowtie)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_rejects_non_finite_coordinate(token):
    # NaN slips past every "<= 0" area or length check, so it is refused
    # before any geometry is derived
    doc = UNIT_SQUARE_DOC.replace("1.0 1.0", f"1.0 {token}")
    with pytest.raises(MeshError, match="vertex 2: non-finite"):
        load_mesh(doc)
    with pytest.raises(MeshError, match="non-finite"):
        PolyMesh([(0, 0), (1, 0), (float(token), 1), (0, 1)], [[0, 1, 2, 3]])


def test_rejects_non_star_shaped():
    # deep L-shaped hexagon: centroid lies past the reentrant side's line
    verts = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    with pytest.raises(MeshError, match="star-shaped"):
        PolyMesh(verts, [[0, 1, 2, 3, 4, 5]])


def test_rejects_duplicate_vertex_as_zero_length_face():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (1, 0)]  # vertex 4 duplicates 1
    with pytest.raises(MeshError, match="zero-length"):
        PolyMesh(verts, [[0, 4, 2, 3]])


def test_regularity_report():
    square = PolyMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3]])
    rep = regularity_report(square)
    assert rep["h_over_rho"][0] == pytest.approx(np.sqrt(2), rel=1e-14)

    tri = PolyMesh([(0, 0), (1, 0), (0, 1)], [[0, 1, 2]])
    rep = regularity_report(tri)
    # oracle: point-line distance from centroid (1/3, 1/3) to x + y = 1
    expected = abs(1 / 3 + 1 / 3 - 1) / np.sqrt(2)
    assert rep["min_dist_ratio"] == pytest.approx(expected / np.sqrt(2), rel=1e-13)

    hists = [
        tuple(sorted(regularity_report(generate("cartesian", n))["face_count_hist"]))
        for n in (2, 4, 8)
    ]
    assert hists[0] == hists[1] == hists[2] == (4,)


def test_mesh_family_validation():
    fam = MeshFamily("cartesian", [generate("cartesian", n) for n in (2, 4, 8)])
    assert len(fam) == 3
    with pytest.raises(MeshError):
        MeshFamily("bad", [generate("cartesian", 4), generate("cartesian", 2)])


def test_vertices_are_read_only():
    mesh = generate("cartesian", 2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 42.0

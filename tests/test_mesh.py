import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hho2d import mesh as hm
from hho2d.verify import build_family
from hho2d.mesh import (
    GEOM_RTOL,
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
    assert (mesh.faces.elems[:, 1] < 0).all()


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
    keys = lambda m: sorted(zip(m.faces.v0.tolist(), m.faces.v1.tolist()))
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
    for name in ("v0", "v1", "elems"):
        assert getattr(again.faces, name).tolist() == getattr(mesh.faces, name).tolist()


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


def test_geometry_is_translation_invariant():
    # the shoelace sums of absolute coordinates cancel like eps |x|^2: at
    # offset 200 this quad failed its pyramid check
    grid = generate("cartesian", 1)
    verts = grid.vertices + 0.2 * (np.random.default_rng(1).random((4, 2)) - 0.5)
    loops = [grid.elements.corners.tolist()]
    ref = PolyMesh(verts, loops).elements
    # from 1e5 on, face distances of absolute midpoints and centroids failed
    # it, and from 1e8 on the loop area of absolute coordinates read zero;
    # past 1e4 the bound allows for the rounding of the offset
    for offset in (0.0, 200.0, -1e4, 1e3, 1e4, 1e5, 1e6, 1e8, 1e10, 1e12):
        els = PolyMesh(verts + offset, loops).elements
        tol = 1e-12 if abs(offset) <= 1e4 else 1e-12 + 64 * np.finfo(float).eps * offset
        assert np.abs(els.area - ref.area).max() <= tol, offset
        assert np.abs(els.centroid - offset - ref.centroid).max() <= tol, offset
        assert np.abs(els.face_dists - ref.face_dists).max() <= tol, offset


@pytest.mark.parametrize("scale", [1e110, 1e120, 1e150, 1e160, 1e300])
def test_overflowing_geometry_is_refused(scale):
    # the centroid moments overflow from about 1e110 on, the loop area from
    # 1e160 on; neither may build an inf centroid or nan face distances
    grid = generate("cartesian", 1)
    verts = grid.vertices + 0.2 * (np.random.default_rng(1).random((4, 2)) - 0.5)
    loops = [grid.elements.corners.tolist()]
    assert np.isfinite(PolyMesh(verts * 1e100, loops).elements.face_dists).all()
    with pytest.raises(MeshError, match=r"^element 0: non-finite geometry$"):
        PolyMesh(verts * scale, loops)


def test_rejects_non_star_shaped():
    # deep L-shaped hexagon: centroid lies past the reentrant side's line
    verts = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    with pytest.raises(MeshError, match="star-shaped"):
        PolyMesh(verts, [[0, 1, 2, 3, 4, 5]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [10.0**e for e in range(-120, 121, 20)])
def test_crossing_sides_are_found_at_any_scale(scale):
    # the product of two orientations underflows below about 1e-77 and
    # overflows above 1e77; their signs do neither
    verts = scale * np.array([(0, 0), (4, 0), (4, 3), (1, -1), (0, 3)], dtype=float)
    with pytest.raises(MeshError, match=r"^element 0: non-simple polygon$"):
        PolyMesh(verts, [[0, 1, 2, 3, 4]])


def test_rejects_duplicate_vertex_as_zero_length_face():
    # vertex 4 duplicates 1; each is a corner of one of the two squares
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (1, 0), (2, 0), (2, 1)]
    with pytest.raises(
        MeshError, match=r"^element 0: zero-length face 1-4 after splitting$"
    ):
        PolyMesh(verts, [[0, 4, 2, 3], [1, 5, 6, 2]])


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


# ---------------------------------------------------------------------------
# element stacks


def _shape(mesh, e):
    return len(mesh.elements[e].vertex_loop), mesh.elements[e].n_faces


@pytest.mark.parametrize("budget", [3, 16, hm.STACK_FACES])
@pytest.mark.parametrize(
    "build",
    [
        lambda: generate("cartesian", 6),
        lambda: generate("triangular", 5),
        lambda: refine_nonconforming(generate("cartesian", 4), [1, 2, 7, 12]),
        lambda: agglomerate(
            generate("cartesian", 4),
            [(0, 0, 2, 2)]
            + [(i, j, 1, 1) for j in range(4) for i in range(4) if not (i < 2 and j < 2)],
        ),
    ],
    ids=["cart6", "tri5", "refined", "agglo"],
)
def test_batches_partition_by_shape_within_the_face_budget(build, budget, monkeypatch):
    monkeypatch.setattr(hm, "STACK_FACES", budget)
    mesh = build()
    stacks = [b.tolist() for b in mesh.batches]
    # every element exactly once
    assert sorted(sum(stacks, [])) == list(range(mesh.n_elements))
    shapes = []
    for ids in stacks:
        shape = {_shape(mesh, e) for e in ids}
        assert len(shape) == 1  # one (corners, faces) shape per stack
        (shape,) = shape
        assert len(ids) == 1 or len(ids) * shape[1] <= budget
        assert ids == sorted(ids)
        shapes.append(shape)
    # groups are contiguous runs of stacks, in order of first appearance,
    # and every stack but the last of its group is full
    first = list(dict.fromkeys(_shape(mesh, e) for e in range(mesh.n_elements)))
    assert list(dict.fromkeys(shapes)) == first
    for i, shape in enumerate(shapes[:-1]):
        if shapes[i + 1] == shape:
            assert len(stacks[i]) == max(1, budget // shape[1])
            assert stacks[i][-1] < stacks[i + 1][0]
        else:
            assert shape not in shapes[i + 1:]


def test_uniform_mesh_needs_few_stacks():
    # 1024 quads under the default budget
    assert len(generate("cartesian", 32).batches) <= 4
    assert all(b.flags.writeable is False for b in generate("cartesian", 4).batches)


# ---------------------------------------------------------------------------
# construction errors


def _with_second_element(extra_verts, loop):
    """A unit square (element 0), then one more element from ``loop``."""
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), *extra_verts]
    return verts, [[0, 1, 2, 3], loop]


# the tip of a flat triangle's longest side, nudged 0.9 tol along and off it
_NUDGE = 0.9 * GEOM_RTOL * 2.0

CONSTRUCTION_ERRORS = {
    "loop has fewer than 3 vertices": (
        _with_second_element([(2, 0)], [1, 4]), 1),
    "vertex id out of range": (
        _with_second_element([(2, 0)], [1, 4, 99]), 1),
    "repeated vertex in loop": (
        _with_second_element([(2, 0), (2, 1)], [1, 4, 4, 5]), 1),
    "degenerate \\(zero-area\\) loop": (
        _with_second_element([(2, 0), (3, 0)], [1, 4, 5]), 1),
    "non-simple polygon": (
        _with_second_element([(3, 2), (3, 0), (1, 1)], [1, 4, 5, 6]), 1),
    # three elements emit the face between vertices 0 and 1
    "more than two adjacent elements": (
        ([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, -1), (0.5, -0.5)],
         [[0, 1, 2, 3], [0, 4, 1], [0, 5, 1]]), (0, 1)),
    # the top corners of a triangle below the side 4-5, whose length is the
    # diameter, sit just outside both its ends: the middle piece is longer
    # than the diameter
    "face longer than diameter": (
        ([(0, 0), (1, 0), (1, 1), (0, 1), (3, 0), (5, 0), (4, 0.6),
          (3 - _NUDGE, -_NUDGE), (5 + _NUDGE, -_NUDGE), (4, -1)],
         [[0, 1, 2, 3], [4, 5, 6], [7, 9, 8]]), 1),
}


# two corner groups, each loop failing a different check: the id checks
# come first, then a zero-area loop, then a crossing, in any element
_TWO_GROUPS = [(0, 0), (4, 0), (4, 3), (1, -1), (0, 3), (5, 0), (6, 0), (7, 0), (5, 1)]
_CROSSING = [0, 1, 2, 3, 4]
CROSS_GROUP_ERRORS = {
    "zero-area after a crossing": (
        "degenerate \\(zero-area\\) loop", ((_TWO_GROUPS, [_CROSSING, [5, 6, 7]]), 1)),
    "repeated id after a zero-area loop": (
        "repeated vertex in loop", ((_TWO_GROUPS, [[5, 6, 7], [5, 6, 8, 8]]), 1)),
    "bad id after a crossing": (
        "vertex id out of range", ((_TWO_GROUPS, [_CROSSING, [5, 6, 8, 99]]), 1)),
}


@pytest.mark.parametrize("message, case", [
    *(pytest.param(message, case, id=message) for message, case in CONSTRUCTION_ERRORS.items()),
    *(pytest.param(*item, id=name) for name, item in CROSS_GROUP_ERRORS.items()),
])
def test_construction_error_names_the_offender(message, case):
    (verts, loops), culprit = case
    with pytest.raises(MeshError) as info:
        PolyMesh(verts, loops)
    # integer scalars print as np.int64(i) under some numpy versions
    text = re.sub(r"np\.int64\((-?\d+)\)", r"\1", str(info.value))
    if isinstance(culprit, tuple):
        assert re.fullmatch(rf"face \({culprit[0]}, {culprit[1]}\): {message}", text)
    else:
        assert re.fullmatch(rf"element {culprit}: {message}", text)


@pytest.mark.parametrize("tag", ["cartesian", "triangular", "nonconforming", "agglomerated",
                                 "rectangles"])
def test_clockwise_loops_build_the_counter_clockwise_tables(tag):
    mesh = build_family(tag, [8]).meshes[0]
    els = mesh.elements
    loops = [lp.tolist() for lp in np.split(els.corners, els.corner_ptr[1:-1])]
    flip = np.random.default_rng(len(tag)).random(len(loops)) < 0.5
    assert flip.any() and not flip.all()
    mixed = [lp[::-1] if f else lp for lp, f in zip(loops, flip)]
    assert _outcome(lambda: PolyMesh(mesh.vertices, mixed)) == _outcome(lambda: mesh)


# ---------------------------------------------------------------------------
# the bucketed hanging-vertex search against a brute-force scan


def scan_faces(verts, loops):
    """Face topology by testing every vertex against every element side.

    The quadratic reference for ``PolyMesh``: returns the face keys in id
    order, the adjacent elements of each face, and each element's face ids
    and signs.  Only the vertices that are some element's corner are tested.
    """
    idx = np.arange(len(verts))
    corner = np.zeros(len(verts), dtype=bool)
    corner[np.concatenate(loops)] = True
    face_key = {}          # (min vid, max vid) -> face index
    face_adj = []          # face index -> adjacent element ids
    elem_chains = []       # per element: list of (va, vb) in traversal order
    for e, loop in enumerate(loops):
        poly = verts[loop]
        diff = poly[:, None, :] - poly[None, :, :]
        tol = GEOM_RTOL * float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))
        chain_all = []
        for s in range(len(loop)):
            va, vb = loop[s], loop[(s + 1) % len(loop)]
            a, b = verts[va], verts[vb]
            d = b - a
            L2 = d @ d
            L = np.sqrt(L2)
            t = (verts - a) @ d / L2
            off = verts - (a + t[:, None] * d)
            on = corner & (np.einsum("ij,ij->i", off, off) <= tol * tol) & (
                t * L > -tol
            ) & (t * L < L + tol)
            on[va] = on[vb] = False
            mids = idx[on]
            chain = [va, *mids[np.argsort(t[mids])], vb]
            chain_all.extend(zip(chain, chain[1:]))
        elem_chains.append(chain_all)
        for u, v in chain_all:
            key = (int(min(u, v)), int(max(u, v)))
            if key not in face_key:
                face_key[key] = len(face_adj)
                face_adj.append([])
            face_adj[face_key[key]].append(e)
    keys = list(face_key)
    elems = [
        ([face_key[(int(min(u, v)), int(max(u, v)))] for u, v in chain],
         [1 if u < v else -1 for u, v in chain])
        for chain in elem_chains
    ]
    return keys, [tuple(adj) for adj in face_adj], elems


def assert_faces_match_scan(mesh):
    keys, adj, elems = scan_faces(
        mesh.vertices, [el.vertex_loop for el in mesh.elements]
    )
    faces = mesh.faces
    assert list(zip(faces.v0.tolist(), faces.v1.tolist())) == keys
    assert [tuple(e for e in row if e >= 0) for row in faces.elems.tolist()] == adj
    assert [
        (el.face_ids.tolist(), el.face_signs.tolist()) for el in mesh.elements
    ] == elems


SEARCH = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def split_quad_meshes(draw):
    """Lattice quads after seeded rounds of 1-to-4 splits: hanging vertices
    lie exactly on the sides of unsplit neighbours."""
    n = draw(st.integers(1, 4))
    rounds = draw(st.integers(0, 3))
    size = 1 << rounds
    quads = [(i * size, j * size, size) for j in range(n) for i in range(n)]
    for _ in range(rounds):
        marked = draw(st.sets(st.integers(0, len(quads) - 1)))
        quads = [
            child
            for q, (x, y, s) in enumerate(quads)
            for child in (
                [(x, y, s // 2), (x + s // 2, y, s // 2),
                 (x, y + s // 2, s // 2), (x + s // 2, y + s // 2, s // 2)]
                if q in marked else [(x, y, s)]
            )
        ]
    vid = {}
    loops = [
        [vid.setdefault(p, len(vid))
         for p in ((x, y), (x + s, y), (x + s, y + s), (x, y + s))]
        for x, y, s in quads
    ]
    return PolyMesh([(x / (n * size), y / (n * size)) for x, y in vid], loops)


@st.composite
def block_meshes(draw):
    """Random tilings of an n x n grid by rectangular blocks."""
    n = draw(st.integers(2, 6))
    covered = np.zeros((n, n), dtype=bool)
    blocks = []
    for j in range(n):
        for i in range(n):
            if covered[j, i]:
                continue
            w = 1
            while i + w < n and not covered[j, i + w]:
                w += 1
            w = draw(st.integers(1, w))
            h = 1
            while j + h < n and not covered[j + h, i:i + w].any():
                h += 1
            h = draw(st.integers(1, h))
            covered[j:j + h, i:i + w] = True
            blocks.append((i, j, w, h))
    return agglomerate(generate("cartesian", n), blocks)


@SEARCH
@given(split_quad_meshes())
def test_bucketed_search_matches_scan_on_split_quads(mesh):
    assert_faces_match_scan(mesh)


@SEARCH
@given(block_meshes())
def test_bucketed_search_matches_scan_on_blocks(mesh):
    assert_faces_match_scan(mesh)


@SEARCH
@given(st.integers(1, 24), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_bucketed_search_matches_scan_on_a_long_diagonal(m, sx, sy):
    # one triangle below the diagonal of a stretched square; above it an
    # m x m staircase of small squares and half squares whose corners hang
    # on the diagonal, so the search meets one long side among short ones
    vid = {}
    loops = [[vid.setdefault(p, len(vid)) for p in ((0, 0), (m, 0), (m, m))]]
    for j in range(m):
        for i in range(j + 1):
            cell = [(i, j), (i + 1, j + 1), (i, j + 1)] if i == j else [
                (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            loops.append([vid.setdefault(p, len(vid)) for p in cell])
    verts = [(sx * x / m, sy * y / m) for x, y in vid]
    mesh = PolyMesh(verts, loops)
    assert mesh.elements[0].n_faces == m + 2
    assert_faces_match_scan(mesh)


@SEARCH
@given(st.sampled_from([0.5, 2.0]), st.sampled_from([1.0, -1.0]),
       st.floats(0.0, 2 * np.pi), st.floats(1e-3, 1e3))
def test_bucketed_search_matches_scan_near_the_tolerance(factor, side, angle, scale):
    # a square next to two quads whose shared corner sits factor * tol off
    # the square's right side: found at 0.5 tol, missed at 2 tol
    off = side * factor * GEOM_RTOL * np.sqrt(2.0)
    verts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 0.5), (2, 1),
                      (1 + off, 0.5)])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    mesh = PolyMesh(scale * verts @ rot.T, [[0, 1, 2, 3], [1, 4, 5, 7], [7, 5, 6, 2]])
    assert mesh.elements[0].n_faces == (5 if factor < 1 else 4)
    assert_faces_match_scan(mesh)


def _nudged_past_an_end(factor, end, angle, scale):
    """A unit square whose bottom side has a vertex w on its line, factor *
    tol past one end; w is a corner of a triangle beyond that end."""
    tol = GEOM_RTOL * np.sqrt(2.0)
    if end:
        w, far = (1 + factor * tol, 0.0), [(3, -1), (3, 1)]
    else:
        w, far = (-factor * tol, 0.0), [(-2, 1), (-2, -1)]
    verts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), w, *far], dtype=float)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return scale * verts @ rot.T, [[0, 1, 2, 3], [4, 5, 6]]


def scan_error(verts, loops):
    """The message of the first piece of `scan_faces` no longer than its
    element's tolerance, in element and traversal order, or None."""
    keys, _, elems = scan_faces(verts, loops)
    for e, (loop, (face_ids, signs)) in enumerate(zip(loops, elems)):
        poly = verts[loop]
        diff = poly[:, None, :] - poly[None, :, :]
        tol = GEOM_RTOL * float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))
        for f, sign in zip(face_ids, signs):
            u, v = keys[f] if sign > 0 else keys[f][::-1]
            if np.linalg.norm(verts[v] - verts[u]) <= tol:
                return f"element {e}: zero-length face {u}-{v} after splitting"
    return None


@SEARCH
@given(st.sampled_from([0.5, 2.0]), st.sampled_from([0, 1]),
       st.floats(0.0, 2 * np.pi), st.floats(1e-3, 1e3))
def test_bucketed_search_matches_scan_past_the_ends(factor, end, angle, scale):
    # where the prefilter's box margin sits: a vertex on a side's line just
    # past one end is inside the side at 0.5 tol (so a piece of 0.5 tol is
    # left) and outside it at 2 tol
    verts, loops = _nudged_past_an_end(factor, end, angle, scale)
    expected = scan_error(verts, loops)
    assert (expected is not None) == (factor < 1)
    if expected is None:
        assert_faces_match_scan(PolyMesh(verts, loops))
    else:
        with pytest.raises(MeshError) as info:
            PolyMesh(verts, loops)
        assert str(info.value) == expected


@SEARCH
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_twin_sides_match_scan_on_jittered_grids(n, seed):
    # every interior side has a twin, so only the boundary is searched
    mesh = load_mesh(_jittered_document(n, seed))
    assert mesh.n_faces == 2 * n * (n + 1)
    assert_faces_match_scan(mesh)


def test_unused_vertex_splits_no_side():
    # (1, 0.5) is no element's corner: it stays a vertex, and the side it
    # lies in stays one face
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 0.5)]
    mesh = PolyMesh(verts, [[0, 1, 2, 3], [1, 4, 5, 2]])
    assert [el.n_faces for el in mesh.elements] == [4, 4]
    assert mesh.n_faces == 7
    assert len(load_mesh(dump_mesh(mesh)).vertices) == 7
    assert_faces_match_scan(mesh)


@SEARCH
@given(split_quad_meshes(),
       st.lists(st.tuples(st.sampled_from(["side", "corner", "outside"]),
                          st.integers(0, 2**16), st.floats(0.0, 1.0)),
                min_size=1, max_size=8))
def test_unused_vertices_leave_the_tables_unchanged(mesh, extras):
    # vertices no element uses, appended on sides, at corner positions and
    # outside the domain, change no face or element array
    els = mesh.elements
    loops = np.split(els.corners, els.corner_ptr[1:-1])
    verts = mesh.vertices
    extra = []
    for kind, j, t in extras:
        loop = loops[j % len(loops)]
        i = j // len(loops) % len(loop)
        a, b = verts[loop[i]], verts[loop[(i + 1) % len(loop)]]
        extra.append({"side": (1 - t) * a + t * b, "corner": a,
                      "outside": (-1 - 3 * t, 2 + 1e6 * t)}[kind])
    grown = PolyMesh(np.concatenate([verts, extra]), loops)
    assert grown.vertices[:len(verts)].tobytes() == verts.tobytes()
    for table, ref in ((grown.faces, mesh.faces), (grown.elements, els)):
        for name, arr in vars(ref).items():
            got = getattr(table, name)
            assert (got.dtype, got.shape, got.tobytes()) == (
                arr.dtype, arr.shape, arr.tobytes()), name


def _searched(build, monkeypatch):
    """(sides searched, all sides, candidate vertex ids) of ``build()``."""
    calls = []
    search = hm._hanging_vertices

    def spy(verts, va, vb, tol, live, candidates):
        calls.append((np.count_nonzero(live), len(va), candidates))
        return search(verts, va, vb, tol, live, candidates)

    monkeypatch.setattr(hm, "_hanging_vertices", spy)
    mesh = build()
    monkeypatch.undo()
    (call,) = calls
    return mesh, call


def test_search_takes_only_sides_without_a_twin(monkeypatch):
    doc = _jittered_document(32, 7)
    mesh, (live, total, candidates) = _searched(lambda: load_mesh(doc), monkeypatch)
    on_boundary = ((mesh.vertices == 0) | (mesh.vertices == 1)).any(axis=1)
    assert (live, total) == (128, 4096)
    assert candidates.tolist() == np.flatnonzero(on_boundary).tolist()

    # 16 boundary sides; the 4 sides of the neighbours of the refined cell
    # and the 8 outer sides of its children
    grid = generate("cartesian", 4)
    mesh, (live, total, candidates) = _searched(
        lambda: refine_nonconforming(grid, [5]), monkeypatch)
    assert (live, total, len(candidates)) == (28, 76, 24)
    assert_faces_match_scan(mesh)

    # an unused vertex is no candidate
    _, (live, total, candidates) = _searched(
        lambda: PolyMesh([(0, 0), (1, 0), (1, 1), (0, 1), (5, 5)], [[0, 1, 2, 3]]),
        monkeypatch)
    assert (live, total, candidates.tolist()) == (4, 4, [0, 1, 2, 3])


# ---------------------------------------------------------------------------
# the reader against the line-by-line reader it replaced


def _read_lines(text):
    """(vertices, loops) of the document, read line by line; raises
    ``MeshError`` naming the first malformed line."""
    tokens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append((ln, line.split()))
    if not tokens:
        raise MeshError("empty mesh document")

    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError("unexpected end of mesh document")
        t = tokens[pos]
        pos += 1
        return t

    ln, head = take()
    if head != ["POLYMESH2D", "1"]:
        raise MeshError(f"line {ln}: expected header 'POLYMESH2D 1'")
    ln, vhead = take()
    if len(vhead) != 2 or vhead[0] != "VERTICES":
        raise MeshError(f"line {ln}: expected 'VERTICES <n>'")
    n = _parse_int(vhead[1], ln, minimum=1)
    verts = []  # not np.empty((n, 2)): n may be far larger than the document
    for i in range(n):
        ln, fields = take()
        if len(fields) != 2:
            raise MeshError(f"line {ln}: expected '<x> <y>'")
        try:
            verts.append([float(fields[0]), float(fields[1])])
        except ValueError as exc:
            raise MeshError(f"line {ln}: bad coordinate") from exc
    ln, ehead = take()
    if len(ehead) != 2 or ehead[0] != "ELEMENTS":
        raise MeshError(f"line {ln}: expected 'ELEMENTS <m>'")
    m = _parse_int(ehead[1], ln, minimum=1)
    loops = []
    for _ in range(m):
        ln, fields = take()
        p = _parse_int(fields[0], ln, minimum=3)
        if len(fields) != p + 1:
            raise MeshError(f"line {ln}: expected {p} vertex ids")
        loops.append([_parse_int(t, ln) for t in fields[1:]])
    if pos != len(tokens):
        raise MeshError(f"line {tokens[pos][0]}: trailing content")
    return np.array(verts), loops


def _parse_int(token, ln, minimum=None):
    try:
        value = int(token)
    except ValueError as exc:
        raise MeshError(f"line {ln}: expected integer, got {token!r}") from exc
    if minimum is not None and value < minimum:
        raise MeshError(f"line {ln}: value {value} below {minimum}")
    return value


def _outcome(build):
    """Every array of the mesh, or the type and text of the error raised."""
    try:
        mesh = build()
    except Exception as exc:  # the two readers must fail alike
        return type(exc).__name__, str(exc)
    tables = [mesh.vertices, *vars(mesh.faces).values(), *vars(mesh.elements).values()]
    return "mesh", [(a.dtype.str, a.shape, a.tobytes()) for a in tables + list(mesh.batches)]


def reference_load(text):
    return PolyMesh(*_read_lines(text))


SMALL_MESHES = [
    hanging_node_mesh(),
    generate("triangular", 2),
    refine_nonconforming(generate("cartesian", 2), [1]),
    PolyMesh([(-0.0, 0.0), (1e-100, 0.0), (1e-100, 1e-100), (0.0, 1e-100)], [[0, 1, 2, 3]]),
]

# numbers the readers may spell or convert differently, and plain junk
ODD_TOKENS = ["x", "nan", "nan(1)", "-inf", "1_0", "+3", "-1", "0", "00", "1e5", "1.5", ".", "-",
              "1e999", "0x1f", "٣", "1.0-2.0", "99999999999999999999", "#", "VERTICES"]


@st.composite
def mutated_documents(draw):
    text = dump_mesh(draw(st.sampled_from(SMALL_MESHES)))
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(" ")
        j = draw(st.integers(0, len(fields) - 1))
        kind = draw(st.sampled_from(
            ["truncate", "count", "token", "add", "remove", "comment", "blank",
             "tab", "crlf", "cr", "space", "line end"]))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        if kind == "count":
            word = draw(st.sampled_from(["VERTICES", "ELEMENTS"]))
            delta = draw(st.sampled_from([-2, -1, 1]))
            text = re.sub(rf"{word} (\d+)", lambda m: f"{word} {int(m[1]) + delta}", text)
            continue
        if kind == "token":
            fields[j] = draw(st.sampled_from(ODD_TOKENS))
            lines[i] = " ".join(fields)
        elif kind == "add":
            fields.insert(j, draw(st.sampled_from(["0", "1", "0.5"])))
            lines[i] = " ".join(fields)
        elif kind == "remove":
            del fields[j]
            lines[i] = " ".join(fields)
        elif kind == "comment":
            lines[i] += draw(st.sampled_from(["# note", " #", "#1 2 3"]))
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t", "# only a comment"])))
        elif kind == "tab":
            lines[i] = "\t" + lines[i].replace(" ", draw(st.sampled_from(["\t", " \t ", "  "])))
        elif kind == "crlf":
            lines[i] += "\r"
        elif kind == "cr":
            lines[i] = lines[i].replace(" ", "\r", 1)
        elif kind == "space":
            lines[i] = lines[i].replace(" ", draw(st.sampled_from(["\xa0", "\u3000"])), 1)
        else:
            lines[i] += draw(st.sampled_from(["\u2028", "\x85", "\v", "\f"]))
        text = "\n".join(lines)
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_tokenized_reader_matches_the_line_reader(text):
    assert _outcome(lambda: load_mesh(text)) == _outcome(lambda: reference_load(text))


# (line, field) of UNIT_SQUARE_DOC: a count, a coordinate, a corner count
# and a corner id
TOKEN_PLACES = {"vertex count": (1, 1), "coordinate": (3, 1), "element count": (6, 1),
                "corner count": (7, 0), "corner id": (7, 3)}


@pytest.mark.parametrize("place", list(TOKEN_PLACES))
@pytest.mark.parametrize("token", ODD_TOKENS)
def test_odd_tokens_read_as_the_line_reader_reads_them(token, place):
    line, field = TOKEN_PLACES[place]
    lines = [ln.split(" ") for ln in UNIT_SQUARE_DOC.splitlines()]
    lines[line][field] = token
    text = "\n".join(" ".join(ln) for ln in lines) + "\n"
    assert _outcome(lambda: load_mesh(text)) == _outcome(lambda: reference_load(text))


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1e308, 1.7976931348623157e308, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), min_size=3, max_size=12))
def test_tokenized_reader_reads_coordinates_bit_exactly(coords):
    # the reader checks no geometry, so any finite coordinates will do
    doc = "\n".join(
        ["POLYMESH2D 1", f"VERTICES {len(coords)}"]
        + [f"{x!r} {y!r}" for x, y in coords]
        + ["ELEMENTS 1", "3 0 1 2", ""]
    )
    verts, corner_ptr, corners = hm._read_tokens(doc)
    assert verts.tobytes() == np.array(coords, dtype=float).tobytes()
    assert verts.tobytes() == _read_lines(doc)[0].tobytes()
    assert corner_ptr.tolist() == [0, 3] and corners.tolist() == [0, 1, 2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.floats(1e-100, 1e100), st.floats(-4.0, 4.0),
       st.integers(0, 2**32 - 1))
def test_dump_load_round_trip_is_bit_exact(n, scale, shift, seed):
    grid = generate("cartesian", n)
    rng = np.random.default_rng(seed)
    jitter = 0.2 / n * (rng.random(grid.vertices.shape) - 0.5)
    mesh = PolyMesh(scale * (grid.vertices + jitter) + shift * scale, grid.elements.corners.reshape(-1, 4))
    doc = dump_mesh(mesh)
    again = load_mesh(doc)
    assert dump_mesh(again) == doc
    assert _outcome(lambda: again) == _outcome(lambda: mesh)


def _jittered_document(n, seed):
    rng = np.random.default_rng(seed)
    grid = generate("cartesian", n)
    verts = np.array(grid.vertices)
    inner = ((verts > 0) & (verts < 1)).all(axis=1)
    radius = 0.15 / n * np.sqrt(rng.random(inner.sum()))
    angle = 2 * np.pi * rng.random(inner.sum())
    verts[inner] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return dump_mesh(PolyMesh(verts, grid.elements.corners.reshape(-1, 4)))


def _decorated(text):
    """The document with comments, blank lines, tabs and CRLF line ends."""
    lines = text.splitlines()
    out = ["# a mesh", ""]
    for i, line in enumerate(lines):
        out.append(line.replace(" ", "\t" if i % 2 else "  \t") + ("  # row" if i % 3 else ""))
        if i % 5 == 0:
            out.append("   ")
    return "\r\n".join(out) + "\r\n# end\r\n"


def _last_row_token(text, header, token):
    """The document with the last token of the last row before the line
    ``header`` (or of the last line) replaced."""
    lines = text.splitlines()
    i = lines.index(header) - 1 if header else len(lines) - 1
    lines[i] = lines[i].rsplit(" ", 1)[0] + " " + token
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("doc", [
    pytest.param(lambda: _jittered_document(32, 7), id="jittered32"),
    pytest.param(lambda: _decorated(dump_mesh(hanging_node_mesh())), id="decorated"),
    *[pytest.param(lambda tag=tag: dump_mesh(build_family(tag, [8]).meshes[0]), id=tag)
      for tag in ("cartesian", "triangular", "nonconforming", "agglomerated", "rectangles")],
    pytest.param(lambda: _last_row_token(_jittered_document(32, 7), "ELEMENTS 1024", "x"),
                 id="jittered32-bad-vertex"),
    pytest.param(lambda: _last_row_token(_jittered_document(32, 7), None, "-"),
                 id="jittered32-bad-element"),
])
def test_well_formed_documents_take_the_tokenized_path(doc):
    text = doc()
    assert _outcome(lambda: load_mesh(text)) == _outcome(lambda: reference_load(text))


# ---------------------------------------------------------------------------
# generators


def test_generate_builds_the_grid_in_vertex_and_cell_order():
    n = 3
    for kind, loops in [
        ("cartesian", lambda c: [c]),
        ("triangular", lambda c: [[c[0], c[1], c[2]], [c[0], c[2], c[3]]]),
    ]:
        mesh = generate(kind, n)
        assert mesh.vertices.tolist() == [
            [i / n, j / n] for j in range(n + 1) for i in range(n + 1)
        ]
        vid = lambda i, j: j * (n + 1) + i
        expected = [
            lp for j in range(n) for i in range(n)
            for lp in loops([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
        ]
        assert mesh.elements.corners.tolist() == sum(expected, [])
    with pytest.raises(MeshError, match="unknown generator kind 'hex'"):
        generate("hex", 2)
    with pytest.raises(MeshError, match="subdivision count"):
        generate("hex", 0)


def _grid_with(n, replace):
    """Loops of the n x n grid with some cells replaced by other loops."""
    grid = generate("cartesian", n)
    loops = grid.elements.corners.reshape(-1, 4).tolist()
    for e, new in sorted(replace.items(), reverse=True):
        loops[e:e + 1] = new
    return grid.vertices, loops


@pytest.mark.parametrize("verts_loops, message", [
    # cell 0 as two triangles, cells 2 and 3 as one rectangle: not a quad first
    (_grid_with(2, {0: [[0, 1, 4], [0, 4, 3]], 2: [[3, 4, 5, 8, 7, 6]], 3: []}),
     "element 0: not a grid quadrilateral"),
    # the same, but the first element is a unit cell: element 1 is named
    (_grid_with(2, {1: [[1, 2, 5], [1, 5, 4]], 2: [[3, 4, 5, 8, 7, 6]], 3: []}),
     "element 1: not a grid quadrilateral"),
])
def test_agglomerate_names_the_first_non_grid_cell(verts_loops, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        agglomerate(PolyMesh(*verts_loops), 1)


def test_agglomerate_names_the_first_moved_cell():
    # a vertex of cells 4, 5, 7, 8 moved: cell 4 is named, by id order
    verts = np.array(generate("cartesian", 3).vertices)
    for nudge, message in [(0.5e-14, None), (2e-14, "element 4: not a unit grid cell")]:
        moved = verts.copy()
        moved[10] += nudge
        mesh = PolyMesh(moved, generate("cartesian", 3).elements.corners.reshape(-1, 4))
        if message is None:
            assert agglomerate(mesh, 3).n_elements == 1
        else:
            with pytest.raises(MeshError, match=message):
                agglomerate(mesh, 3)

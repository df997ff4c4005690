"""The mesh generators against the element-by-element references they
replaced, and their refusal of bad input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hho2d.mesh import MeshError, PolyMesh, agglomerate, generate, refine_nonconforming

SEARCH = settings(max_examples=40, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# references: one element view at a time, vertices keyed by float hex strings


def _pt_key(p):
    return (float(p[0]).hex(), float(p[1]).hex())


def _compact(verts, loops):
    """Drop vertices not referenced by any loop; reindex the loops."""
    used = sorted({v for lp in loops for v in lp})
    remap = {old: new for new, old in enumerate(used)}
    return verts[used], [[remap[v] for v in lp] for lp in loops]


def reference_refine(mesh, marked):
    marked = set(int(e) for e in marked)
    verts = [tuple(v) for v in mesh.vertices]
    key2id = {_pt_key(v): i for i, v in enumerate(verts)}

    def vertex_id(p):
        key = _pt_key(p)
        if key not in key2id:
            key2id[key] = len(verts)
            verts.append((p[0], p[1]))
        return key2id[key]

    loops = []
    for el in mesh.elements:
        loop = list(el.vertex_loop)
        if el.id not in marked:
            loops.append(loop)
            continue
        pts = mesh.vertices[loop]
        mid = [vertex_id(0.5 * (pts[i] + pts[(i + 1) % len(loop)]))
               for i in range(len(loop))]
        if len(loop) == 3:
            v0, v1, v2 = loop
            m01, m12, m20 = mid
            loops += [[v0, m01, m20], [m01, v1, m12],
                      [m20, m12, v2], [m01, m12, m20]]
        else:
            v0, v1, v2, v3 = loop
            m01, m12, m23, m30 = mid
            c = vertex_id(0.25 * (pts[0] + pts[1] + pts[2] + pts[3]))
            loops += [[v0, m01, c, m30], [m01, v1, m12, c],
                      [c, m12, v2, m23], [m30, c, m23, v3]]
    return PolyMesh(*_compact(np.array(verts), loops))


def reference_agglomerate(fine, target):
    n = int(round(np.sqrt(fine.n_elements)))
    if np.isscalar(target):
        b = int(target)
        target = [(i, j, b, b) for j in range(0, n, b) for i in range(0, n, b)]
    vid = lambda i, j: j * (n + 1) + i
    loops = [
        [vid(i0, j0), vid(i0 + w, j0), vid(i0 + w, j0 + h), vid(i0, j0 + h)]
        for i0, j0, w, h in target
    ]
    return PolyMesh(*_compact(np.asarray(fine.vertices), loops))


def arrays(mesh):
    """Dtype, shape and bytes of every array of the mesh."""
    tables = [mesh.vertices, *vars(mesh.faces).values(), *vars(mesh.elements).values()]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in tables + list(mesh.batches)]


# ---------------------------------------------------------------------------
# same bytes as the references


@st.composite
def marked_meshes(draw):
    """A generated mesh and a list of its element ids, with repeats, in any order."""
    mesh = generate(draw(st.sampled_from(["cartesian", "triangular"])), draw(st.integers(1, 6)))
    ids = st.integers(0, mesh.n_elements - 1)
    return mesh, draw(st.lists(ids, max_size=2 * mesh.n_elements))


@SEARCH
@given(marked_meshes())
def test_refine_matches_reference(case):
    mesh, marked = case
    assert arrays(refine_nonconforming(mesh, marked)) == arrays(reference_refine(mesh, marked))


@SEARCH
@given(marked_meshes(), st.data())
def test_second_refinement_matches_reference(case, data):
    # midpoints of the second pass land on hanging vertices of the first
    mesh = refine_nonconforming(*case)
    marked = data.draw(st.lists(st.integers(0, mesh.n_elements - 1), max_size=mesh.n_elements))
    assert arrays(refine_nonconforming(mesh, marked)) == arrays(reference_refine(mesh, marked))
    every = range(mesh.n_elements)
    assert arrays(refine_nonconforming(mesh, every)) == arrays(reference_refine(mesh, every))


def test_refine_keeps_signed_zeros_apart():
    # the left side's midpoint is (-0.0, 0.5); the unused vertex at
    # (0.0, 0.5), which splits that side, is another point and is dropped
    verts = [(-0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-0.0, 1.0), (0.0, 0.5)]
    mesh = PolyMesh(verts, [[0, 1, 2, 3]])
    ref = refine_nonconforming(mesh, [0])
    assert arrays(ref) == arrays(reference_refine(mesh, [0]))
    assert np.signbit(ref.vertices[:, 0]).sum() == 3


def test_refine_takes_the_largest_id_of_equal_vertices():
    # two unused vertices, 4 and 6, at the square's centre: its children
    # take vertex 6, which keeps its place after the triangle's vertex 5
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (2, 0.5), (0.5, 0.5)]
    mesh = PolyMesh(verts, [[0, 1, 2, 3], [1, 5, 2]])
    ref = refine_nonconforming(mesh, [0])
    assert arrays(ref) == arrays(reference_refine(mesh, [0]))
    assert ref.vertices[4:6].tolist() == [[2, 0.5], [0.5, 0.5]]


@st.composite
def tilings(draw):
    """An n x n grid cut into blocks by guillotine cuts, in any order."""
    n = draw(st.integers(1, 6))
    blocks = [(0, 0, n, n)]
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, len(blocks) - 1))
        i0, j0, w, h = blocks[k]
        if w > 1 and (h == 1 or draw(st.booleans())):
            c = draw(st.integers(1, w - 1))
            blocks[k:k + 1] = [(i0, j0, c, h), (i0 + c, j0, w - c, h)]
        elif h > 1:
            c = draw(st.integers(1, h - 1))
            blocks[k:k + 1] = [(i0, j0, w, c), (i0, j0 + c, w, h - c)]
    return n, draw(st.permutations(blocks))


@SEARCH
@given(tilings())
def test_agglomerate_matches_reference(tiling):
    n, blocks = tiling
    fine = generate("cartesian", n)
    assert arrays(agglomerate(fine, blocks)) == arrays(reference_agglomerate(fine, blocks))


@pytest.mark.parametrize("n, b", [(1, 1), (4, 1), (4, 2), (4, 4), (6, 2), (6, 3)])
def test_uniform_agglomerate_matches_reference(n, b):
    fine = generate("cartesian", n)
    assert arrays(agglomerate(fine, b)) == arrays(reference_agglomerate(fine, b))


# ---------------------------------------------------------------------------
# bad input


@pytest.mark.parametrize("marked, message", [
    ([1.5], "marked element must be an integer, got 1.5"),
    (["1"], "marked element must be an integer, got '1'"),
    ([4.0], "marked element must be an integer, got 4.0"),
    ([9, 5], "marked element 5 out of range"),
    ([3, -2, -1], "marked element -2 out of range"),
    ([2**70, 0], "marked element 1180591620717411303424 out of range"),
])
def test_refine_refuses_bad_marks(marked, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        refine_nonconforming(generate("cartesian", 2), marked)


def test_refine_names_the_smallest_offending_id():
    # element 1 is a pentagon; id 7 is out of range
    verts = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1), (1.5, 1.5)]
    mesh = PolyMesh(verts, [[0, 1, 4, 5], [1, 2, 3, 6, 4]])
    with pytest.raises(MeshError, match="^element 1: only triangles/quads can be refined$"):
        refine_nonconforming(mesh, [7, 1, 0])
    with pytest.raises(MeshError, match="^marked element 7 out of range$"):
        refine_nonconforming(mesh, [7, 0])


@pytest.mark.parametrize("target, message", [
    (2.5, "block size must be an integer, got 2.5"),
    (2.7, "block size must be an integer, got 2.7"),
    ("2", "block size must be an integer, got '2'"),
    (4.0, "block size must be an integer, got 4.0"),
    ([(0, 0, 4.0, 4)], "block field must be an integer, got 4.0"),
    ([(0, 0, 4, "4")], "block field must be an integer, got '4'"),
])
def test_agglomerate_refuses_non_integers(target, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        agglomerate(generate("cartesian", 4), target)


@pytest.mark.parametrize("build, arg, message", [
    (agglomerate, [(0, 0, 1)], r"block must have 4 fields, got \(0, 0, 1\)"),
    (agglomerate, [(0, 0, 4, 4, 1)], r"block must have 4 fields, got \(0, 0, 4, 4, 1\)"),
    (agglomerate, [1, 2], "block must be a sequence, got 1"),
    (agglomerate, None, "block list must be a sequence, got None"),
    (refine_nonconforming, 3, "marked elements must be a sequence, got 3"),
])
def test_generators_refuse_malformed_containers(build, arg, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        build(generate("cartesian", 4), arg)


def test_agglomerate_accepts_integer_types():
    fine = generate("cartesian", 4)
    blocks = np.array([(0, 0, 4, 2), (0, 2, 4, 2)])
    assert arrays(agglomerate(fine, np.int64(2))) == arrays(agglomerate(fine, 2))
    assert arrays(agglomerate(fine, blocks)) == arrays(agglomerate(fine, blocks.tolist()))


@pytest.mark.parametrize("kind", ["cartesian", "triangular"])
def test_generate_refuses_more_vertices_than_int32_indices(kind):
    # n = 46339 is the largest count whose (n + 1)^2 vertices int32 can number
    assert 46340**2 <= np.iinfo(np.int32).max < 46341**2
    with pytest.raises(MeshError, match="^subdivision count 46340 gives more vertices"):
        generate(kind, 46340)

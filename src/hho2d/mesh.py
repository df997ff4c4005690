"""Polygonal mesh handling for 2D polytopal discretizations.

A mesh is a flat list of vertices plus a list of elements given as
counter-clockwise vertex loops.  Faces are never listed explicitly: every
element side is split at mesh vertices lying in its interior (hanging
nodes), and two elements share a face exactly when they emit the same
sub-segment.  Meshes with hanging nodes (non-conforming refinement,
agglomerated Cartesian blocks) therefore look like ordinary polygonal
meshes with a few extra faces.

Text format (line oriented, ``#`` starts a comment)::

    POLYMESH2D 1
    VERTICES <n>
    <x> <y>                  # n lines, implicit 0-based ids
    ELEMENTS <m>
    <p> <v0> ... <v{p-1}>    # CCW vertex loop

Vertex loops must be simple polygons, star-shaped with respect to their
centroid.  All meshes are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative tolerance used for "vertex lies on a side" queries and for the
# geometric consistency checks run on every constructed mesh.
GEOM_RTOL = 1e-12


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class Face:
    """One mesh face: a straight segment between two mesh vertices."""

    id: int
    v0: int
    v1: int
    elems: tuple
    boundary: bool
    length: float
    midpoint: np.ndarray
    tangent: np.ndarray  # unit vector, from v0 to v1 (global orientation)


@dataclass(frozen=True)
class Element:
    """One mesh element with its face loop and geometry cache."""

    id: int
    vertex_loop: np.ndarray   # (p,) corner vertex ids, CCW
    face_ids: np.ndarray      # (nf,) face ids in CCW boundary order
    face_signs: np.ndarray    # (nf,) +1 if traversal matches face v0->v1
    area: float
    diameter: float
    centroid: np.ndarray
    face_normals: np.ndarray    # (nf, 2) outward unit normals
    face_dists: np.ndarray      # (nf,) distance centroid -> face line
    face_lengths: np.ndarray    # (nf,)
    face_midpoints: np.ndarray  # (nf, 2)

    @property
    def n_faces(self):
        return len(self.face_ids)


class PolyMesh:
    """Immutable polygonal mesh with derived faces and geometry caches.

    Parameters
    ----------
    vertices : array_like, shape (n, 2)
        Vertex coordinates.
    loops : sequence of int sequences
        One CCW corner loop per element.  Clockwise loops are reversed.
    """

    def __init__(self, vertices, loops):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError("vertex array must have shape (n, 2)")
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]}: non-finite coordinate")
        if len(loops) == 0:
            raise MeshError("mesh has no elements")
        loops = [np.asarray(lp, dtype=int) for lp in loops]
        for e, lp in enumerate(loops):
            if len(lp) < 3:
                raise MeshError(f"element {e}: loop has fewer than 3 vertices")
            if lp.min() < 0 or lp.max() >= len(verts):
                raise MeshError(f"element {e}: vertex id out of range")
            if len(np.unique(lp)) != len(lp):
                raise MeshError(f"element {e}: repeated vertex in loop")

        loops = [_ccw(verts, lp, e) for e, lp in enumerate(loops)]
        for e, lp in enumerate(loops):
            if not _is_simple(verts[lp]):
                raise MeshError(f"element {e}: non-simple polygon")

        verts.setflags(write=False)
        self.vertices = verts
        self.faces, self.elements = _derive_faces(verts, loops)
        self._validate()

    # -- basic queries ----------------------------------------------------

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def h(self):
        """Meshsize: largest element diameter."""
        return max(el.diameter for el in self.elements)

    @property
    def total_area(self):
        return sum(el.area for el in self.elements)

    def interior_face_ids(self):
        return [f.id for f in self.faces if not f.boundary]

    def boundary_face_ids(self):
        return [f.id for f in self.faces if f.boundary]

    def polygon(self, elem_id):
        """Corner coordinates of one element, CCW, shape (p, 2)."""
        return self.vertices[self.elements[elem_id].vertex_loop]

    def face_endpoints(self, face_id):
        f = self.faces[face_id]
        return self.vertices[f.v0], self.vertices[f.v1]

    # -- consistency ------------------------------------------------------

    def _validate(self):
        for f in self.faces:
            if len(f.elems) not in (1, 2):
                raise MeshError(f"face {f.id}: {len(f.elems)} adjacent elements")
            if f.boundary != (len(f.elems) == 1):
                raise MeshError(f"face {f.id}: inconsistent boundary flag")
        for el in self.elements:
            hT = el.diameter
            if el.area <= 0.0:
                raise MeshError(f"element {el.id}: non-positive area")
            if np.any(el.face_dists <= 0.0):
                raise MeshError(
                    f"element {el.id}: not star-shaped w.r.t. centroid "
                    f"(min face distance {el.face_dists.min():.3e})"
                )
            if el.face_lengths.max() > hT * (1.0 + GEOM_RTOL):
                raise MeshError(f"element {el.id}: face longer than diameter")
            closure = el.face_normals.T @ el.face_lengths
            if np.linalg.norm(closure) > GEOM_RTOL * hT * el.n_faces:
                raise MeshError(f"element {el.id}: face normals do not close up")
            pyramid = 0.5 * np.dot(el.face_dists, el.face_lengths)
            if abs(pyramid - el.area) > GEOM_RTOL * el.area * el.n_faces:
                raise MeshError(f"element {el.id}: face decomposition misses area")


@dataclass
class MeshFamily:
    """Refinement sequence of meshes covering the same domain."""

    tag: str
    meshes: list = field(default_factory=list)

    def __post_init__(self):
        hs = [m.h for m in self.meshes]
        if any(h1 >= h0 for h0, h1 in zip(hs, hs[1:])):
            raise MeshError("family meshsizes must decrease strictly")
        areas = [m.total_area for m in self.meshes]
        if areas and any(abs(a - areas[0]) > 1e-12 * areas[0] for a in areas):
            raise MeshError("family meshes cover different domains")

    def __iter__(self):
        return iter(self.meshes)

    def __len__(self):
        return len(self.meshes)


# ---------------------------------------------------------------------------
# construction helpers


def _ccw(verts, loop, elem_id):
    a = _shoelace(verts[loop])
    if abs(a) < 1e-300:
        raise MeshError(f"element {elem_id}: degenerate (zero-area) loop")
    return loop[::-1].copy() if a < 0 else loop


def _shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _polygon_centroid(poly):
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return area, np.array([cx, cy])


def _is_simple(poly):
    """Check a corner loop for self-intersection (small loops only)."""
    p = len(poly)
    segs = [(poly[i], poly[(i + 1) % p]) for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            if j == i or (j + 1) % p == i or (i + 1) % p == j:
                continue  # shared endpoint
            if _segments_cross(*segs[i], *segs[j]):
                return False
    return True


def _segments_cross(a, b, c, d):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    return (
        orient(a, b, c) * orient(a, b, d) < 0
        and orient(c, d, a) * orient(c, d, b) < 0
    )


def _derive_faces(verts, loops):
    """Split element sides at hanging vertices and match the sub-segments."""
    n_verts = len(verts)
    idx = np.arange(n_verts)

    face_key = {}          # (min vid, max vid) -> face index
    face_adj = []          # face index -> adjacent element ids
    elem_chains = []       # per element: list of (va, vb) in traversal order

    for e, loop in enumerate(loops):
        poly = verts[loop]
        hT = _diameter(poly)
        tol = GEOM_RTOL * hT
        chain_all = []
        for s in range(len(loop)):
            va, vb = loop[s], loop[(s + 1) % len(loop)]
            a, b = verts[va], verts[vb]
            d = b - a
            L2 = d @ d
            L = np.sqrt(L2)
            if L <= tol:
                raise MeshError(f"element {e}: zero-length side {va}-{vb}")
            # vertices lying on the open segment (hanging nodes)
            t = (verts - a) @ d / L2
            off = verts - (a + t[:, None] * d)
            on = (np.einsum("ij,ij->i", off, off) <= tol * tol) & (
                t * L > -tol
            ) & (t * L < L + tol)
            on[va] = on[vb] = False
            mids = idx[on]
            order = np.argsort(t[mids])
            chain = [va, *mids[order], vb]
            for u, v in zip(chain, chain[1:]):
                if np.linalg.norm(verts[v] - verts[u]) <= tol:
                    raise MeshError(
                        f"element {e}: zero-length face {u}-{v} after splitting"
                    )
                chain_all.append((u, v))
        elem_chains.append(chain_all)
        for u, v in chain_all:
            key = (u, v) if u < v else (v, u)
            if key not in face_key:
                face_key[key] = len(face_adj)
                face_adj.append([])
            face_adj[face_key[key]].append(e)

    faces = []
    for key, fid in face_key.items():
        adj = face_adj[fid]
        if len(adj) > 2:
            raise MeshError(f"face {key}: more than two adjacent elements")
        v0, v1 = key
        p0, p1 = verts[v0], verts[v1]
        length = float(np.linalg.norm(p1 - p0))
        faces.append(
            Face(
                id=fid,
                v0=v0,
                v1=v1,
                elems=tuple(adj),
                boundary=len(adj) == 1,
                length=length,
                midpoint=0.5 * (p0 + p1),
                tangent=(p1 - p0) / length,
            )
        )

    elements = []
    for e, loop in enumerate(loops):
        poly = verts[loop]
        area, centroid = _polygon_centroid(poly)
        chain = elem_chains[e]
        nf = len(chain)
        fids = np.empty(nf, dtype=int)
        signs = np.empty(nf, dtype=int)
        normals = np.empty((nf, 2))
        dists = np.empty(nf)
        lengths = np.empty(nf)
        mids = np.empty((nf, 2))
        for i, (u, v) in enumerate(chain):
            key = (u, v) if u < v else (v, u)
            f = faces[face_key[key]]
            fids[i] = f.id
            signs[i] = 1 if (u, v) == (f.v0, f.v1) else -1
            d = verts[v] - verts[u]
            lengths[i] = np.linalg.norm(d)
            normals[i] = np.array([d[1], -d[0]]) / lengths[i]
            mids[i] = 0.5 * (verts[u] + verts[v])
            dists[i] = (mids[i] - centroid) @ normals[i]
        elements.append(
            Element(
                id=e,
                vertex_loop=loop,
                face_ids=fids,
                face_signs=signs,
                area=float(area),
                diameter=_diameter(poly),
                centroid=centroid,
                face_normals=normals,
                face_dists=dists,
                face_lengths=lengths,
                face_midpoints=mids,
            )
        )
        for arr in (loop, fids, signs, normals, dists, lengths, mids, centroid):
            arr.setflags(write=False)

    return faces, elements


def _diameter(poly):
    diff = poly[:, None, :] - poly[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))


# ---------------------------------------------------------------------------
# text format


def load_mesh(text):
    """Parse the POLYMESH2D text format and build the mesh."""
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
    verts = np.empty((n, 2))
    for i in range(n):
        ln, fields = take()
        if len(fields) != 2:
            raise MeshError(f"line {ln}: expected '<x> <y>'")
        try:
            verts[i] = [float(fields[0]), float(fields[1])]
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
    return PolyMesh(verts, loops)


def _parse_int(token, ln, minimum=None):
    try:
        value = int(token)
    except ValueError as exc:
        raise MeshError(f"line {ln}: expected integer, got {token!r}") from exc
    if minimum is not None and value < minimum:
        raise MeshError(f"line {ln}: value {value} below {minimum}")
    return value


def dump_mesh(mesh):
    """Serialize to the POLYMESH2D text format (round-trips exactly)."""
    out = ["POLYMESH2D 1", f"VERTICES {len(mesh.vertices)}"]
    out.extend(f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices)
    out.append(f"ELEMENTS {mesh.n_elements}")
    for el in mesh.elements:
        out.append(" ".join([str(len(el.vertex_loop)), *map(str, el.vertex_loop)]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# generators


def generate(kind, n):
    """Uniform mesh of the unit square: 'cartesian' or 'triangular'."""
    if n < 1:
        raise MeshError("subdivision count must be >= 1")
    vid = lambda i, j: j * (n + 1) + i
    verts = [(i / n, j / n) for j in range(n + 1) for i in range(n + 1)]
    loops = []
    for j in range(n):
        for i in range(n):
            c = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            if kind == "cartesian":
                loops.append(c)
            elif kind == "triangular":
                loops.append([c[0], c[1], c[2]])
                loops.append([c[0], c[2], c[3]])
            else:
                raise MeshError(f"unknown generator kind {kind!r}")
    return PolyMesh(verts, loops)


def refine_nonconforming(mesh, marked):
    """Split marked triangles/quadrilaterals into 4 similar children.

    Neighbors are left untouched; the hanging nodes introduced on their
    sides are resolved by the face-splitting rule, so the result is again a
    valid polygonal mesh.
    """
    marked = set(int(e) for e in marked)
    for e in marked:
        if e < 0 or e >= mesh.n_elements:
            raise MeshError(f"marked element {e} out of range")
        if len(mesh.elements[e].vertex_loop) not in (3, 4):
            raise MeshError(f"element {e}: only triangles/quads can be refined")

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


def agglomerate(fine, target):
    """Merge cells of a conforming Cartesian mesh into rectangular blocks.

    ``target`` is either an integer b (uniform b-by-b blocks, b must divide
    the grid size) or an explicit list of blocks ``(i0, j0, w, h)`` in fine
    cell indices that tiles the grid exactly.  Sides of a block facing
    same-size neighbors stay single faces; sides facing smaller neighbors
    are split at the neighbors' corners by the face derivation rule.
    """
    n = int(round(np.sqrt(fine.n_elements)))
    if n * n != fine.n_elements:
        raise MeshError("fine mesh is not an n-by-n Cartesian grid")
    _check_cartesian(fine, n)

    if np.isscalar(target):
        b = int(target)
        if b < 1 or n % b != 0:
            raise MeshError(f"block size {b} does not divide grid size {n}")
        blocks = [(i, j, b, b) for j in range(0, n, b) for i in range(0, n, b)]
    else:
        blocks = [tuple(int(x) for x in blk) for blk in target]

    covered = np.zeros((n, n), dtype=bool)
    for i0, j0, w, h in blocks:
        if i0 < 0 or j0 < 0 or w < 1 or h < 1 or i0 + w > n or j0 + h > n:
            raise MeshError(f"block {(i0, j0, w, h)} outside the grid")
        if covered[j0:j0 + h, i0:i0 + w].any():
            raise MeshError(f"block {(i0, j0, w, h)} overlaps another block")
        covered[j0:j0 + h, i0:i0 + w] = True
    if not covered.all():
        raise MeshError("blocks do not cover the fine grid")

    vid = lambda i, j: j * (n + 1) + i
    loops = [
        [vid(i0, j0), vid(i0 + w, j0), vid(i0 + w, j0 + h), vid(i0, j0 + h)]
        for i0, j0, w, h in blocks
    ]
    return PolyMesh(*_compact(np.asarray(fine.vertices), loops))


def _check_cartesian(mesh, n):
    if len(mesh.vertices) != (n + 1) ** 2:
        raise MeshError("fine mesh does not look like a generated Cartesian grid")
    for el in mesh.elements:
        if len(el.vertex_loop) != 4:
            raise MeshError(f"element {el.id}: not a grid quadrilateral")
        i = int(round(el.centroid[0] * n - 0.5))
        j = int(round(el.centroid[1] * n - 0.5))
        ref = np.array(
            [[i / n, j / n], [(i + 1) / n, j / n],
             [(i + 1) / n, (j + 1) / n], [i / n, (j + 1) / n]]
        )
        got = np.sort(mesh.vertices[el.vertex_loop], axis=0)
        if not np.allclose(np.sort(ref, axis=0), got, rtol=0, atol=1e-14):
            raise MeshError(f"element {el.id}: not a unit grid cell")


def _pt_key(p):
    return (float(p[0]).hex(), float(p[1]).hex())


def _compact(verts, loops):
    """Drop vertices not referenced by any loop; reindex the loops."""
    used = sorted({v for lp in loops for v in lp})
    remap = {old: new for new, old in enumerate(used)}
    return verts[used], [[remap[v] for v in lp] for lp in loops]


# ---------------------------------------------------------------------------
# diagnostics


def regularity_report(mesh):
    """Shape-regularity proxies: h/rho per element, worst face-distance
    ratio, and the face-count histogram."""
    h_over_rho = np.array(
        [el.diameter / (2.0 * el.face_dists.min()) for el in mesh.elements]
    )
    dist_ratio = min(el.face_dists.min() / el.diameter for el in mesh.elements)
    hist = {}
    for el in mesh.elements:
        hist[el.n_faces] = hist.get(el.n_faces, 0) + 1
    return {
        "h_over_rho": h_over_rho,
        "min_dist_ratio": float(dist_ratio),
        "face_count_hist": hist,
    }

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

``load_mesh`` tokenizes the whole document at once and converts the vertex
block and the element block with one numpy call each.  Where that pass
cannot vouch for its result (a malformed line, a number spelled in a way
numpy reads differently from ``float``/``int``), the line-by-line reader
runs instead and raises ``MeshError`` naming the offending line.  The
tokenized reader and ``generate`` hand a corner table (CSR offsets and
corner ids) straight to the constructor; ``PolyMesh(vertices, loops)``,
which the line reader uses, turns its loops into one first.

Vertex loops must be simple polygons, star-shaped with respect to their
centroid.  All meshes are immutable after construction and safe to share
across threads.

A mesh is stored as read-only arrays.  ``mesh.faces`` (a ``FaceTable``)
has one row per face id; ``mesh.elements`` (an ``ElementTable``) has one
row per element, with the corner loops and the face loops in CSR form.
Indexing or iterating either table gives read-only ``Face``/``Element``
views of single rows.  ``mesh.batches`` lists the element ids in the
stacks that every element kernel runs on: equal corner and face counts,
at most ``STACK_FACES`` faces each.  Construction costs time linear in
the mesh size.  A side that another element repeats in reverse (its
twin) is a face as it stands.  The other sides, on the boundary and next
to hanging vertices, look for hanging vertices among their own ends, in
a uniform bucket grid where only the vertices inside the side's slightly
widened bounding box get the exact on-segment test; when some vertex is
no element's corner, every side is searched for every vertex.  The loop
checks and the geometry run per group of elements with one corner count.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance used for "vertex lies on a side" queries and for the
# geometric consistency checks run on every constructed mesh.
GEOM_RTOL = 1e-12

# Face slots per stack of the stacked element kernels: a group of elements
# with nf faces is cut into stacks of STACK_FACES // nf elements.  Every
# large stacked temporary (monomial and jump tables, face fluxes, the local
# operators) grows with the stack's face count, and the stacks are made
# before the degree is known.  Against stacks of 32 elements, 1024 slots
# raised the peak RSS of a k = 3 build on 8192 triangles by 6 %, 2048 by 12 %.
STACK_FACES = 1024


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class Face:
    """Read-only view of one row of a ``FaceTable``."""

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
    """Read-only view of one row of an ``ElementTable``."""

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


@dataclass(frozen=True, eq=False)
class FaceTable:
    """The faces as read-only arrays, one row per face id.

    ``table[f]`` is a ``Face`` view of row f.
    """

    v0: np.ndarray        # (nF,) smaller end vertex id
    v1: np.ndarray        # (nF,) larger end vertex id
    elems: np.ndarray     # (nF, 2) adjacent elements; -1 second on the boundary
    length: np.ndarray    # (nF,)
    midpoint: np.ndarray  # (nF, 2)
    tangent: np.ndarray   # (nF, 2) unit vector from v0 to v1

    def __len__(self):
        return len(self.v0)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, f):
        f = range(len(self))[f]
        elems = tuple(int(e) for e in self.elems[f] if e >= 0)
        return Face(
            id=f,
            v0=int(self.v0[f]),
            v1=int(self.v1[f]),
            elems=elems,
            boundary=len(elems) == 1,
            length=float(self.length[f]),
            midpoint=self.midpoint[f],
            tangent=self.tangent[f],
        )


@dataclass(frozen=True, eq=False)
class ElementTable:
    """The elements as read-only arrays; ``table[e]`` is an ``Element`` view.

    Corner loops and face loops are CSR: element e has the corners
    ``corners[corner_ptr[e]:corner_ptr[e + 1]]`` and the face rows
    ``face_ptr[e]:face_ptr[e + 1]`` of every ``face_*`` column.
    """

    corner_ptr: np.ndarray      # (n + 1,)
    corners: np.ndarray         # corner vertex ids, CCW per element
    face_ptr: np.ndarray        # (n + 1,)
    face_ids: np.ndarray        # face ids in CCW boundary order
    face_signs: np.ndarray      # +1 if traversal matches face v0->v1
    face_normals: np.ndarray    # (., 2) outward unit normals
    face_dists: np.ndarray      # distance centroid -> face line
    face_lengths: np.ndarray
    face_midpoints: np.ndarray  # (., 2)
    area: np.ndarray            # (n,)
    diameter: np.ndarray        # (n,)
    centroid: np.ndarray        # (n, 2)

    def __len__(self):
        return len(self.area)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, e):
        e = range(len(self))[e]
        c = slice(self.corner_ptr[e], self.corner_ptr[e + 1])
        f = slice(self.face_ptr[e], self.face_ptr[e + 1])
        return Element(
            id=e,
            vertex_loop=self.corners[c],
            face_ids=self.face_ids[f],
            face_signs=self.face_signs[f],
            area=float(self.area[e]),
            diameter=float(self.diameter[e]),
            centroid=self.centroid[e],
            face_normals=self.face_normals[f],
            face_dists=self.face_dists[f],
            face_lengths=self.face_lengths[f],
            face_midpoints=self.face_midpoints[f],
        )

    def corner_rows(self, ids):
        """Positions (B, p) of the corners of ``ids``, which share a count p."""
        return _rows(self.corner_ptr, ids)

    def face_rows(self, ids):
        """Positions (B, nf) of the face rows of ``ids``, which share a count nf."""
        return _rows(self.face_ptr, ids)


def _batches(els):
    """Read-only element id arrays grouped by (corner count, face count), the
    groups in order of first appearance, each cut into stacks of at most
    STACK_FACES faces (at least one element)."""
    shape = np.column_stack([np.diff(els.corner_ptr), np.diff(els.face_ptr)])
    _, first, group = np.unique(shape, axis=0, return_index=True, return_inverse=True)
    stacks = []
    for g in np.argsort(first):
        ids = np.flatnonzero(group == g)
        size = max(1, STACK_FACES // int(shape[first[g], 1]))
        stacks += [_frozen(ids[i:i + size]) for i in range(0, len(ids), size)]
    return tuple(stacks)


def _rows(ptr, ids):
    start = ptr[np.asarray(ids, dtype=int)]
    return start[:, None] + np.arange(ptr[ids[0] + 1] - start[0])


class PolyMesh:
    """Immutable polygonal mesh: vertices, a face table and an element table.

    Parameters
    ----------
    vertices : array_like, shape (n, 2)
        Vertex coordinates.
    loops : sequence of int sequences
        One CCW corner loop per element.  Clockwise loops are reversed.
    """

    def __init__(self, vertices, loops):
        counts = np.array([len(lp) for lp in loops], dtype=int)
        corner_ptr = np.concatenate([[0], np.cumsum(counts)])
        try:
            corners = np.fromiter(
                itertools.chain.from_iterable(loops), dtype=int, count=corner_ptr[-1]
            )
        except OverflowError:
            # an id past int64 is out of range; -1 lets _check_loops name
            # the element, in order with its other checks
            corners = np.fromiter(
                (v if -2**63 <= v < 2**63 else -1
                 for v in itertools.chain.from_iterable(loops)),
                dtype=int, count=corner_ptr[-1],
            )
        self._setup(vertices, corner_ptr, corners)

    @classmethod
    def _from_corners(cls, vertices, corner_ptr, corners):
        """The mesh of a corner table: element e has the corners
        ``corners[corner_ptr[e]:corner_ptr[e + 1]]``.  ``corners`` is taken
        over, and its clockwise loops are reversed in place."""
        mesh = cls.__new__(cls)
        mesh._setup(vertices, corner_ptr, corners)
        return mesh

    def _setup(self, vertices, corner_ptr, corners):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError("vertex array must have shape (n, 2)")
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]}: non-finite coordinate")
        if len(corner_ptr) == 1:
            raise MeshError("mesh has no elements")
        verts.setflags(write=False)
        self.vertices = verts
        self.faces, self.elements = _build(verts, corner_ptr, corners)
        self._validate()
        self.h = float(self.elements.diameter.max())  # meshsize
        self.total_area = sum(self.elements.area.tolist())
        boundary = self.faces.elems[:, 1] < 0
        self._interior = _frozen(np.flatnonzero(~boundary))
        self._boundary = _frozen(np.flatnonzero(boundary))
        self.batches = _batches(self.elements)

    # -- basic queries ----------------------------------------------------

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_faces(self):
        return len(self.faces)

    def interior_face_ids(self):
        return self._interior

    def boundary_face_ids(self):
        return self._boundary

    # -- consistency ------------------------------------------------------

    def _validate(self):
        els = self.elements
        start = els.face_ptr[:-1]
        n_faces = np.diff(els.face_ptr)
        hT, area, lengths = els.diameter, els.area, els.face_lengths
        min_dist = np.minimum.reduceat(els.face_dists, start)
        closure = np.add.reduceat(els.face_normals * lengths[:, None], start)
        pyramid = 0.5 * np.add.reduceat(els.face_dists * lengths, start)
        failed = _first_failure(
            area <= 0.0,
            min_dist <= 0.0,
            np.maximum.reduceat(lengths, start) > hT * (1.0 + GEOM_RTOL),
            np.sqrt(_dot(closure, closure)) > GEOM_RTOL * hT * n_faces,
            np.abs(pyramid - area) > GEOM_RTOL * area * n_faces,
        )
        if failed is not None:
            e, check = failed
            message = (
                "non-positive area",
                "not star-shaped w.r.t. centroid "
                f"(min face distance {min_dist[e]:.3e})",
                "face longer than diameter",
                "face normals do not close up",
                "face decomposition misses area",
            )[check]
            raise MeshError(f"element {e}: {message}")


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
# construction
#
# Every step works on whole arrays: loop checks and polygon geometry per
# group of elements with one corner count, the side splitting over all
# sides at once.  Errors name the first offending element (or face) in id
# order, and within it the first failed check.


def _build(verts, corner_ptr, corners):
    """Checked CCW corner loops, then the face and element tables."""
    _check_loops(verts, corner_ptr, corners)
    area, local_centroid, diameter = _polygon_geometry(verts, corner_ptr, corners)
    u, v, piece_ptr, lengths = _split_sides(verts, corner_ptr, corners, diameter)
    elem = np.repeat(np.arange(len(area)), np.diff(piece_ptr))
    face_ids, faces = _number_faces(verts, u, v, elem)

    # element-side geometry, in traversal order; the face distances, like
    # the shoelace sums, are taken relative to each element's first corner,
    # so their rounding does not grow with the distance from the origin
    first = verts[corners[corner_ptr[:-1]]]
    centroid = first + local_centroid
    pu, pv = verts[u], verts[v]
    d = pv - pu
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    mids = 0.5 * (pu + pv)
    local_mids = 0.5 * ((pu - first[elem]) + (pv - first[elem]))
    elements = ElementTable(
        corner_ptr=corner_ptr,
        corners=corners,
        face_ptr=piece_ptr,
        face_ids=face_ids,
        face_signs=np.where(u < v, 1, -1),
        face_normals=normals,
        face_dists=_dot(local_mids - local_centroid[elem], normals),
        face_lengths=lengths,
        face_midpoints=mids,
        area=area,
        diameter=diameter,
        centroid=centroid,
    )
    for table in (faces, elements):
        for arr in vars(table).values():
            arr.setflags(write=False)
    return faces, elements


def _check_loops(verts, ptr, corners):
    """Reject malformed loops and turn clockwise ones CCW (in place)."""
    n = len(ptr) - 1
    short, out_of_range, repeated = np.zeros((3, n), dtype=bool)
    for ids, rows in _corner_groups(ptr):
        lp = corners[rows]
        if lp.shape[1] < 3:
            short[ids] = True
            continue
        out_of_range[ids] = ((lp < 0) | (lp >= len(verts))).any(axis=1)
        lp = np.sort(lp, axis=1)
        repeated[ids] = (lp[:, 1:] == lp[:, :-1]).any(axis=1)
    failed = _first_failure(short, out_of_range, repeated)
    if failed is not None:
        e, check = failed
        message = (
            "loop has fewer than 3 vertices",
            "vertex id out of range",
            "repeated vertex in loop",
        )[check]
        raise MeshError(f"element {e}: {message}")

    zero_area = np.zeros(n, dtype=bool)
    for ids, rows in _corner_groups(ptr):
        x, y = np.moveaxis(verts[corners[rows]], -1, 0)
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        area = 0.5 * np.sum(x * yn - xn * y, axis=1)
        zero_area[ids] = np.abs(area) < 1e-300
        cw = rows[area < 0]
        corners[cw] = corners[cw[:, ::-1]]
    if zero_area.any():
        raise MeshError(
            f"element {np.argmax(zero_area)}: degenerate (zero-area) loop"
        )

    crossed = np.zeros(n, dtype=bool)
    for ids, rows in _corner_groups(ptr):
        poly = verts[corners[rows]]
        p = rows.shape[1]
        i, j = np.triu_indices(p, 1)
        apart = (j != i + 1) & ((j + 1) % p != i)  # sides without a shared end
        a, b = poly[:, i[apart]], poly[:, (i[apart] + 1) % p]
        c, d = poly[:, j[apart]], poly[:, (j[apart] + 1) % p]
        # signs, not the product of two orientations, which underflows below
        # coordinates of about 1e-77 and overflows above 1e77
        ab_c, ab_d, cd_a, cd_b = np.sign(
            [_orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)]
        )
        crossed[ids] = ((ab_c * ab_d < 0) & (cd_a * cd_b < 0)).any(axis=1)
    if crossed.any():
        raise MeshError(f"element {np.argmax(crossed)}: non-simple polygon")


def _corner_groups(ptr):
    """(element ids, (B, p) corner positions) for each corner count p."""
    counts = np.diff(ptr)
    for p in np.unique(counts):
        ids = np.flatnonzero(counts == p)
        yield ids, ptr[ids][:, None] + np.arange(p)


def _first_failure(*flags):
    """(element, check) of the first element failing any check, or None."""
    flags = np.column_stack(flags)
    bad = np.flatnonzero(flags.any(axis=1))
    if len(bad) == 0:
        return None
    return int(bad[0]), int(np.argmax(flags[bad[0]]))


def _orient(p, q, r):
    return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
        q[..., 1] - p[..., 1]
    ) * (r[..., 0] - p[..., 0])


def _polygon_geometry(verts, ptr, corners):
    """Area, centroid relative to the first corner, and diameter of every
    CCW corner loop.

    The shoelace sums run on coordinates relative to the first corner:
    on absolute ones their cancellation grows like eps |x|^2, not eps h^2.
    """
    n = len(ptr) - 1
    area, diameter = np.empty(n), np.empty(n)
    centroid = np.empty((n, 2))
    for ids, rows in _corner_groups(ptr):
        poly = verts[corners[rows]]
        x, y = np.moveaxis(poly - poly[:, :1], -1, 0)
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * yn - xn * y
        a = 0.5 * cross.sum(axis=1)
        area[ids] = a
        centroid[ids, 0] = np.sum((x + xn) * cross, axis=1) / (6.0 * a)
        centroid[ids, 1] = np.sum((y + yn) * cross, axis=1) / (6.0 * a)
        diff = poly[:, :, None, :] - poly[:, None, :, :]
        dist2 = np.einsum("bijk,bijk->bij", diff, diff)
        diameter[ids] = np.sqrt(dist2.max(axis=(1, 2)))
    return area, centroid, diameter


def _split_sides(verts, ptr, corners, diameter):
    """Split every element side at the mesh vertices inside it.

    Returns the pieces ``(u, v)`` in element, side and chain order, the CSR
    offsets of each element's pieces, and the piece lengths.

    When every vertex is the corner of some element, a side (u, v) with a
    twin, the side (v, u) of another element with each of the two
    occurring once, is a face as it stands: on a mesh whose elements do
    not overlap, a vertex inside it would lie inside one of the two
    elements.  Only the sides without a twin are searched, and only for
    their own ends, since a vertex whose sides all have twins is the centre
    of a closed fan of elements.  This is exact on such meshes where no two
    vertices lie within ``tol`` of each other; elements that overlap, or
    that touch themselves, may keep a twin side whole where a search over
    every vertex would split it.  A vertex that no
    element uses may lie inside any side, so then every side is searched
    for every vertex.
    """
    counts = np.diff(ptr)
    va = corners
    nxt = np.arange(1, len(corners) + 1)
    nxt[ptr[1:] - 1] = ptr[:-1]
    vb = corners[nxt]
    elem = np.repeat(np.arange(len(counts)), counts)
    tol = GEOM_RTOL * diameter[elem]
    d = verts[vb] - verts[va]
    length = np.sqrt(_dot(d, d))
    short = length <= tol

    search, candidates = ~short, None
    used = np.zeros(len(verts), dtype=bool)
    used[corners] = True
    if used.all():
        lone = ~_twins(va, vb, len(verts))
        search &= lone
        end = np.zeros(len(verts), dtype=bool)
        end[va[lone]] = end[vb[lone]] = True
        candidates = np.flatnonzero(end)
    side, mid = _hanging_vertices(verts, va, vb, tol, search, candidates)
    u = np.insert(va, side + 1, mid)  # each side: va, then its hanging vertices
    v = np.insert(vb, side, mid)      # each side: its hanging vertices, then vb
    per_side = np.bincount(side, minlength=len(va)) + 1
    piece_side = np.repeat(np.arange(len(va)), per_side)
    d = verts[v] - verts[u]
    lengths = np.sqrt(_dot(d, d))

    zero = (lengths <= tol[piece_side]) & ~short[piece_side]
    bad = short | (np.bincount(piece_side[zero], minlength=len(va)) > 0)
    if bad.any():
        s = np.argmax(bad)
        if short[s]:
            raise MeshError(f"element {elem[s]}: zero-length side {va[s]}-{vb[s]}")
        p = np.flatnonzero(zero & (piece_side == s))[0]
        raise MeshError(
            f"element {elem[s]}: zero-length face {u[p]}-{v[p]} after splitting"
        )
    side_ptr = np.concatenate([[0], np.cumsum(per_side)])
    return u, v, side_ptr[ptr], lengths


def _twins(va, vb, n):
    """Sides (u, v) that occur once among all sides, as does (v, u): the
    sides whose vertex pair is shared by exactly one other side, which runs
    the other way."""
    key = np.minimum(va, vb) * n + np.maximum(va, vb)
    order = np.argsort(key)
    key, up = key[order], (va < vb)[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    s = start[np.diff(start, append=len(key)) == 2]
    s = s[up[s] != up[s + 1]]
    twin = np.zeros(len(va), dtype=bool)
    twin[order[s]] = twin[order[s + 1]] = True
    return twin


def _hanging_vertices(verts, va, vb, tol, live, candidates):
    """(side, vertex) of every vertex inside a live side, by side, then along
    it, then by id.

    A vertex w lies inside side a-b when its offset from the line is at
    most ``tol`` and its position along the side is within ``tol`` of the
    closed segment; a and b themselves are excluded.  Only the vertex ids in
    ``candidates`` are tested (every vertex when None; ``_split_sides``
    passes the ends of the sides without a twin).  They sit in the buckets
    of a uniform grid whose cell is the median side length (spatial
    hashing, Teschner et al., VMV 2003), and each side tests only the
    vertices of the buckets its tol-widened segment crosses, taking in
    every bucket row just the columns the segment covers.  Of those, the
    side's own ends and the vertices outside its widened bounding box are
    dropped before the exact test, which they could not pass.
    """
    sides = np.flatnonzero(live)
    if len(sides) == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    a, b = verts[va], verts[vb]
    d = b - a
    L2 = _dot(d, d)
    L = np.sqrt(L2)

    # buckets in CSR form: candidate ids sorted by bucket key
    ids = np.arange(len(verts)) if candidates is None else candidates
    pts = verts[ids]
    origin = pts.min(axis=0)
    extent = (pts.max(axis=0) - origin).max()
    cell = max(np.median(L[sides]), extent / 2**20)  # at most 2^20 columns
    col, row = np.floor((pts - origin) / cell).astype(np.int64).T
    n_cols, n_rows = col.max() + 1, row.max() + 1
    key = row * n_cols + col
    order = np.argsort(key, kind="stable")
    keys, by_key = key[order], ids[order]

    # (side, bucket row) pairs, then the columns the side covers in each row
    ga, gb = (a[sides] - origin) / cell, (b[sides] - origin) / cell
    pad = 2.0 * tol[sides] / cell + 1e-8  # rounding of grid coordinates
    y0 = np.floor(np.minimum(ga[:, 1], gb[:, 1]) - pad).clip(0, n_rows - 1)
    y1 = np.floor(np.maximum(ga[:, 1], gb[:, 1]) + pad).clip(0, n_rows - 1)
    rows_per_side = (y1 - y0).astype(np.int64) + 1
    k = np.repeat(np.arange(len(sides)), rows_per_side)
    r = _ranges(y0.astype(np.int64), rows_per_side)
    gak, dg, padk = ga[k], (gb - ga)[k], pad[k]
    with np.errstate(all="ignore"):  # level sides: masked below
        s0 = (r - padk - gak[:, 1]) / dg[:, 1]
        s1 = (r + 1 + padk - gak[:, 1]) / dg[:, 1]
    level = dg[:, 1] == 0
    s_lo = np.where(level, 0.0, np.minimum(s0, s1).clip(0.0, 1.0))
    s_hi = np.where(level, 1.0, np.maximum(s0, s1).clip(0.0, 1.0))
    x_lo = gak[:, 0] + s_lo * dg[:, 0]
    x_hi = gak[:, 0] + s_hi * dg[:, 0]
    c0 = np.floor(np.minimum(x_lo, x_hi) - padk).clip(0, n_cols - 1).astype(np.int64)
    c1 = np.floor(np.maximum(x_lo, x_hi) + padk).clip(0, n_cols - 1).astype(np.int64)
    first = np.searchsorted(keys, r * n_cols + c0, side="left")
    stop = np.searchsorted(keys, r * n_cols + c1, side="right")
    s = sides[np.repeat(k, stop - first)]
    w = by_key[_ranges(first, stop - first)]

    # prefilter: drop the side's own ends, then every vertex outside the
    # side's bounding box widened by `margin`.  A vertex the test below
    # accepts lies within 2.01 tol + eps/2 |coordinate| of that box (3e-162
    # more where its squared offset underflows); the margin covers that and
    # the rounding of the box itself with room to spare.
    s, w = _keep((w != va[s]) & (w != vb[s]), s, w)
    margin = 4.0 * tol + 2.0 * np.finfo(float).eps * np.abs(verts).max() + 1e-150
    lo = np.minimum(a, b) - margin[:, None]
    hi = np.maximum(a, b) + margin[:, None]
    p = verts[w]
    s, w, p = _keep(((p >= lo[s]) & (p <= hi[s])).all(axis=1), s, w, p)

    # the on-segment test on the remaining (side, candidate) pairs
    t = _dot(p - a[s], d[s]) / L2[s]
    off = p - (a[s] + t[:, None] * d[s])
    along = t * L[s]
    on = (
        (np.einsum("ij,ij->i", off, off) <= tol[s] * tol[s])
        & (along > -tol[s])
        & (along < L[s] + tol[s])
    )
    order = np.lexsort((w[on], t[on], s[on]))
    return s[on][order], w[on][order]


def _keep(mask, *arrays):
    return tuple(arr[mask] for arr in arrays)


def _ranges(start, count):
    """Concatenation of ``arange(start[i], start[i] + count[i])``."""
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(count.sum())


def _number_faces(verts, u, v, elem):
    """Face id of every piece, numbered by first appearance, and the faces."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first, inverse = np.unique(
        lo * len(verts) + hi, return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    face_ids = rank[inverse]
    first = np.sort(first)  # first piece of each face, by face id

    count = np.bincount(face_ids)
    crowded = np.flatnonzero(count > 2)
    if len(crowded):
        p = first[crowded[0]]
        key = (int(lo[p]), int(hi[p]))
        raise MeshError(f"face {key}: more than two adjacent elements")
    by_face = elem[np.argsort(face_ids, kind="stable")]
    start = np.cumsum(count) - count
    second = np.where(count == 2, by_face[np.minimum(start + 1, len(by_face) - 1)], -1)

    v0, v1 = lo[first], hi[first]
    p0, p1 = verts[v0], verts[v1]
    d = p1 - p0
    length = np.sqrt(_dot(d, d))
    return face_ids, FaceTable(
        v0=v0,
        v1=v1,
        elems=np.column_stack([by_face[start], second]),
        length=length,
        midpoint=0.5 * (p0 + p1),
        tangent=d / length[:, None],
    )


def _dot(a, b):
    """Row-wise dot products of (m, 2) arrays.

    The stacked matmul computes each row like ``a[i] @ b[i]`` (and
    ``np.linalg.norm``), so results match the one-row forms bit for bit; a
    plain ``x*x + y*y`` differs from them in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _frozen(arr):
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# text format


def load_mesh(text):
    """Parse the POLYMESH2D text format and build the mesh."""
    table = _read_tokens(text)
    if table is None:
        return PolyMesh(*_read_lines(text))
    return PolyMesh._from_corners(*table)


# the bytes each part of a document may hold on the tokenized path
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n"
_FLOAT_BYTES = b"0123456789.eE+- \t\n"
_INT_BYTES = b"0123456789+- \t\n"
_COMMENT = re.compile(rb"#[^\n]*")
_INT64 = np.iinfo(np.int64)


def _read_tokens(text):
    """(vertices, corner_ptr, corners) of a well-formed document, from one
    tokenization of the whole text and one numpy conversion per block.

    Returns None wherever it cannot show that the result equals the line
    reader's: a malformed document, characters other than printable ASCII,
    tabs and line feeds (a CR only before a LF), or number spellings that
    numpy reads differently from ``float``/``int`` (``1_0``, ``nan``,
    integers that do not fit int64).  ``load_mesh`` then runs the line
    reader, which raises its error or reads the document as before.
    """
    if not text.isascii():
        return None
    raw = text.encode()
    if "\r" in text:  # str.splitlines breaks once at a CRLF
        raw = raw.replace(b"\r\n", b"\n")
    if raw.translate(None, _PLAIN):
        return None
    if "#" in text:
        raw = _COMMENT.sub(b"", raw)
    c = np.frombuffer(raw, dtype=np.uint8)
    # tokens raw[start:stop], and the first token of each line that has one
    blank = (c == 32) | (c == 10) | (c == 9)
    edges = np.flatnonzero(np.diff(blank, prepend=True, append=True))
    start, stop = edges[0::2], edges[1::2]
    tok_line = np.searchsorted(np.flatnonzero(c == 10), start)
    first = np.flatnonzero(np.diff(tok_line, prepend=-1))
    n_tokens = np.diff(first, append=len(start))
    word = lambda i: raw[start[i]:stop[i]]

    def count(line, label):
        """n of a '<label> <n>' line, n >= 1, or None."""
        if len(first) <= line or n_tokens[line] != 2 or word(first[line]) != label:
            return None
        try:
            value = int(word(first[line] + 1))
        except ValueError:
            return None
        return value if value >= 1 else None

    def block(lines, chars, dtype):
        """Every token of ``lines`` as one array, or None."""
        t0 = first[lines.start]
        t1 = first[lines.stop - 1] + n_tokens[lines.stop - 1]
        chunk = raw[start[t0]:stop[t1 - 1]]
        if chunk.translate(None, chars):
            return None
        try:
            values = np.fromstring(chunk, dtype=dtype, sep=" ")
        except ValueError:
            return None
        return values if len(values) == t1 - t0 else None

    if len(first) < 2 or n_tokens[0] != 2 or (word(0), word(1)) != (b"POLYMESH2D", b"1"):
        return None
    n = count(1, b"VERTICES")
    m = n and count(n + 2, b"ELEMENTS")
    if not m or len(first) != n + 3 + m or (n_tokens[2:n + 2] != 2).any():
        return None
    verts = block(range(2, n + 2), _FLOAT_BYTES, float)
    flat = block(range(n + 3, n + 3 + m), _INT_BYTES, np.int64)
    if verts is None or flat is None:
        return None
    if flat.max() == _INT64.max or flat.min() == _INT64.min:  # maybe clipped
        return None
    head = first[n + 3:] - first[n + 3]  # the corner count of each loop
    p = flat[head]
    if (p < 3).any() or (n_tokens[n + 3:] != p + 1).any():
        return None
    corners = np.delete(flat, head)
    return verts.reshape(n, 2), np.concatenate([[0], np.cumsum(p)]), corners


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
    return verts, loops


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
    els = mesh.elements
    for loop in np.split(els.corners, els.corner_ptr[1:-1]):
        out.append(" ".join(map(str, [len(loop), *loop.tolist()])))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# generators


def generate(kind, n):
    """Uniform mesh of the unit square: 'cartesian' or 'triangular'."""
    n = operator.index(n)
    if n < 1:
        raise MeshError("subdivision count must be >= 1")
    if kind not in ("cartesian", "triangular"):
        raise MeshError(f"unknown generator kind {kind!r}")
    x = np.arange(n + 1) / n
    verts = np.column_stack([np.tile(x, n + 1), np.repeat(x, n + 1)])
    # vertex (i, j) has id j (n + 1) + i; cell (i, j) starts at its lower left
    v = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = np.column_stack([v, v + 1, v + n + 2, v + n + 1])
    if kind == "triangular":
        cells = cells[:, [0, 1, 2, 0, 2, 3]]
    p = 4 if kind == "cartesian" else 3
    corners = cells.ravel()
    return PolyMesh._from_corners(verts, np.arange(0, len(corners) + 1, p), corners)


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
    els = mesh.elements
    quad = np.diff(els.corner_ptr) == 4
    ids = np.flatnonzero(quad)
    # each quad against the grid cell (i, j) of its centroid, with the
    # corner coordinates sorted per axis: i/n, i/n, (i+1)/n, (i+1)/n
    cell = np.round(els.centroid[ids] * n - 0.5)
    ref = (cell[:, None, :] + np.array([0, 0, 1, 1])[:, None]) / n
    rows = els.corner_ptr[ids][:, None] + np.arange(4)
    got = np.sort(mesh.vertices[els.corners[rows]], axis=1)
    off_grid = np.zeros(len(els), dtype=bool)
    off_grid[ids] = (np.abs(ref - got) > 1e-14).any(axis=(1, 2))
    failed = _first_failure(~quad, off_grid)
    if failed is not None:
        e, check = failed
        message = ("not a grid quadrilateral", "not a unit grid cell")[check]
        raise MeshError(f"element {e}: {message}")


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
    els = mesh.elements
    min_dist = np.minimum.reduceat(els.face_dists, els.face_ptr[:-1])
    counts, first, number = np.unique(
        np.diff(els.face_ptr), return_index=True, return_counts=True
    )
    return {
        "h_over_rho": els.diameter / (2.0 * min_dist),
        "min_dist_ratio": float((min_dist / els.diameter).min()),
        "face_count_hist": {
            int(counts[i]): int(number[i]) for i in np.argsort(first)
        },
    }

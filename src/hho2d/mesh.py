"""Polygonal mesh handling for 2D polytopal discretizations.

A mesh is a flat list of vertices plus a list of elements given as
counter-clockwise vertex loops.  Faces are never listed explicitly: every
element side is split at the corners of other elements lying in its
interior (hanging nodes), and two elements share a face exactly when they
emit the same sub-segment.  Meshes with hanging nodes (non-conforming
refinement, agglomerated Cartesian blocks) therefore look like ordinary
polygonal meshes with a few extra faces.  A vertex that is no element's
corner keeps its id and its line in ``dump_mesh`` but splits no side.

Text format (line oriented, ``#`` starts a comment)::

    POLYMESH2D 1
    VERTICES <n>
    <x> <y>                  # n lines, implicit 0-based ids
    ELEMENTS <m>
    <p> <v0> ... <v{p-1}>    # CCW vertex loop

``load_mesh`` tokenizes the whole document at once, converts the vertex
block and the element block with one numpy call each, and names the first
malformed line in a ``MeshError``.  The reader and the generators hand a
corner table (CSR offsets and corner ids) straight to the constructor;
``PolyMesh(vertices, loops)`` turns its loops into one first.

Vertex loops must be simple polygons, star-shaped with respect to their
centroid.  All meshes are immutable after construction and safe to share
across threads.

A mesh is stored as read-only arrays.  ``mesh.faces`` (a ``FaceTable``)
has one row per face id; ``mesh.elements`` (an ``ElementTable``) has one
row per element, with the corner loops and the face loops in CSR form.
Indexing or iterating the element table gives read-only ``Element``
views of single rows.  ``mesh.batches`` lists the element ids in the
stacks that every element kernel runs on: equal corner and face counts,
at most ``STACK_FACES`` faces each.  Construction costs time linear in
the mesh size.  A side that another element repeats in reverse (its
twin) is a face as it stands.  The other sides, on the boundary and next
to hanging vertices, look for hanging vertices among their own ends, in
a uniform bucket grid where only the vertices inside the side's slightly
widened bounding box get the exact on-segment test.  One pass checks,
orients and measures the loops of each group with one corner count.
Each stack's corner rows, face rows and centroid fan are kept, read-only,
at construction (``mesh.corner_rows``, ``mesh.face_rows``, ``_fan``).
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
    """The faces as read-only arrays, one row per face id."""

    v0: np.ndarray        # (nF,) smaller end vertex id
    v1: np.ndarray        # (nF,) larger end vertex id
    elems: np.ndarray     # (nF, 2) adjacent elements; -1 second on the boundary
    length: np.ndarray    # (nF,)
    midpoint: np.ndarray  # (nF, 2)
    tangent: np.ndarray   # (nF, 2) unit vector from v0 to v1

    def __len__(self):
        return len(self.v0)


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


def _stored(tables, ids, col, checked, *args):
    """Table ``col`` of the row ``(stack, *tables)`` of ``tables`` whose stack
    is ``ids`` itself (``is``, not equal values), else ``checked(*args, ids)``."""
    for row in tables:
        if row[0] is ids:
            return row[col]
    return checked(*args, ids)


def _rows(ptr, ids):
    """Positions (B, c) of the CSR rows of ``ids``, a 1-D stack of integers
    that share a count c; ``MeshError`` names another shape, an empty stack
    or the first bad id."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise MeshError(f"element ids must be a 1-D stack, got shape {ids.shape}")
    if ids.size == 0:
        raise MeshError("empty element stack")
    ids = _ids(ids, len(ptr) - 1)
    start = ptr[ids]
    count = ptr[ids + 1] - start
    bad = count != count[0]
    if bad.any():
        e = np.argmax(bad)
        raise MeshError(f"element {ids[e]} has count {count[e]}, not the stack's {count[0]}")
    return start[:, None] + np.arange(count[0])


def _fan(mesh, ids):
    """Read-only centroid fan of the stack ``ids``: centroids c (B, 2), corner
    offsets a = x_i - c and b = x_(i+1) - c (B, p, 2), signed a x b (B, p)."""
    corners = mesh.vertices[mesh.elements.corners[mesh.corner_rows(ids)]]
    c = mesh.elements.centroid[ids]
    a = corners - c[:, None]
    b = a[:, (np.arange(a.shape[1]) + 1) % a.shape[1]]
    return tuple(map(_frozen, (c, a, b, a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])))


def _ids(ids, n, what="element"):
    """``ids`` as an integer array of ids in [0, n); ``MeshError`` names the
    first bad one (a dtype that is not integer, bool included, makes all bad)."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise MeshError(f"{what} {ids.flat[0]} is not an integer id ({ids.dtype})")
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise MeshError(f"{what} {ids.flat[np.argmax(bad)]} out of range")
    return ids.astype(int, copy=False)


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
            # an id past int64 is out of range; -1 lets _loop_geometry name
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
        # (stack, corner rows, face rows, fan) of every stack, read-only
        self._stacks = tuple((s, _frozen(_rows(self.elements.corner_ptr, s)),
                              _frozen(_rows(self.elements.face_ptr, s))) for s in self.batches)
        self._stacks = tuple(row + (_fan(self, row[0]),) for row in self._stacks)

    # -- basic queries ----------------------------------------------------

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_faces(self):
        return len(self.faces)

    def corner_rows(self, ids):
        """Positions (B, p) in ``elements.corners`` of the corners of ``ids``,
        which share a count p; stored for each stack of ``batches``."""
        return _stored(self._stacks, ids, 1, _rows, self.elements.corner_ptr)

    def face_rows(self, ids):
        """Positions (B, nf) in the ``elements.face_*`` columns of the faces of
        ``ids``, which share a count nf; stored for each stack of ``batches``."""
        return _stored(self._stacks, ids, 2, _rows, self.elements.face_ptr)

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
# Every step works on whole arrays: one pass checks, orients and measures
# the loops of each group of elements with one corner count, the side
# splitting runs over all sides at once.  Errors name the first offending
# element (or face) in id order, and within it the first failed check.


def _build(verts, corner_ptr, corners):
    """Checked CCW corner loops, then the face and element tables."""
    # past about 1e100 the centroid moments, and past 1e150 the loop areas,
    # overflow, and a zero-area loop's centroid divides by zero: the inf or
    # nan they leave is refused before it spreads
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        area, local_centroid, diameter = _loop_geometry(verts, corner_ptr, corners)
    finite = np.isfinite(np.column_stack([area, local_centroid, diameter])).all(axis=1)
    _raise_first_failure({"non-finite geometry": ~finite})
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


def _loop_geometry(verts, ptr, corners):
    """Check every corner loop, turn the clockwise ones CCW (in place), and
    return the area, the centroid relative to the first corner, and the
    diameter of each.  The id checks run on all corners at once, then the
    coordinates of each group with one corner count are gathered once.
    Errors name the first bad loop by id, then by zero area, then by crossing."""
    n = len(ptr) - 1
    counts = np.diff(ptr)
    elem = np.repeat(np.arange(n), counts)
    nv = len(verts)
    # element e's keys lie in [e (nv + 2), e (nv + 2) + nv + 1]: a repeated
    # id gives two equal keys (ids out of range clip alike, but fail first)
    key = np.sort(elem * (nv + 2) + np.clip(corners, -1, nv) + 1)
    out_of_range, repeated = np.zeros((2, n), dtype=bool)
    out_of_range[elem[(corners < 0) | (corners >= nv)]] = True
    repeated[key[1:][key[1:] == key[:-1]] // (nv + 2)] = True
    _raise_first_failure({
        "loop has fewer than 3 vertices": counts < 3,
        "vertex id out of range": out_of_range,
        "repeated vertex in loop": repeated,
    })

    area, diameter = np.empty(n), np.empty(n)
    centroid = np.empty((n, 2))
    zero_area, crossed = np.zeros((2, n), dtype=bool)
    for p in np.unique(counts):
        ids = np.flatnonzero(counts == p)
        rows = ptr[ids][:, None] + np.arange(p)
        poly = verts[corners[rows]]
        a, c = _shoelace(poly)
        zero_area[ids] = np.abs(a) < 1e-300
        cw = a < 0
        if cw.any():
            corners[rows[cw]] = corners[rows[cw, ::-1]]
            poly[cw] = poly[cw, ::-1]
            a, c = _shoelace(poly)  # a reversed loop has a new first corner
        area[ids], centroid[ids] = a, c

        i, j = np.triu_indices(p, 1)
        apart = (j != i + 1) & ((j + 1) % p != i)  # sides without a shared end
        s, t = poly[:, i[apart]], poly[:, (i[apart] + 1) % p]
        u, v = poly[:, j[apart]], poly[:, (j[apart] + 1) % p]
        # signs, not the product of two orientations, which underflows below
        # coordinates of about 1e-77 and overflows above 1e77
        st_u, st_v, uv_s, uv_t = np.sign(
            [_orient(s, t, u), _orient(s, t, v), _orient(u, v, s), _orient(u, v, t)]
        )
        crossed[ids] = ((st_u * st_v < 0) & (uv_s * uv_t < 0)).any(axis=1)

        diff = poly[:, :, None, :] - poly[:, None, :, :]
        diameter[ids] = np.sqrt(np.einsum("bijk,bijk->bij", diff, diff).max(axis=(1, 2)))
    _raise_first_failure({"degenerate (zero-area) loop": zero_area})
    _raise_first_failure({"non-simple polygon": crossed})
    return area, centroid, diameter


def _shoelace(poly):
    """Area and centroid of each loop of ``poly`` (B, p, 2), both taken
    relative to the first corner: on absolute coordinates the cancellation
    of the sums grows like eps |x|^2, not eps h^2."""
    x, y = np.moveaxis(poly - poly[:, :1], -1, 0)
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum(axis=1)
    moments = np.column_stack([((x + xn) * cross).sum(axis=1), ((y + yn) * cross).sum(axis=1)])
    return a, moments / (6.0 * a[:, None])


def _first_failure(*flags):
    """(element, check) of the first element failing any check, or None."""
    flags = np.column_stack(flags)
    bad = np.flatnonzero(flags.any(axis=1))
    if len(bad) == 0:
        return None
    return int(bad[0]), int(np.argmax(flags[bad[0]]))


def _raise_first_failure(checks, ids=None, error=MeshError):
    """Raise ``error("element e: <message>")`` for the first element failing
    any of the ``{message: flags}`` checks, and its first failed check; e is
    the element's position, or its entry of ``ids``.  Return if none fails."""
    failed = _first_failure(*checks.values())
    if failed is not None:
        b, check = failed
        raise error(f"element {b if ids is None else ids[b]}: {list(checks)[check]}")


def _stacked_lapack(call, stacks, ids, error, message):
    """``call(*stacks)``, one batched LAPACK call over the leading axis of the
    ``stacks`` of the elements ``ids``.  Only when it raises ``LinAlgError``
    is ``call`` repeated on each element's slices, to raise
    ``error("element e: <message>")`` for the first element e that fails."""
    try:
        return call(*stacks)
    except np.linalg.LinAlgError as exc:
        for e, *one in zip(ids, *stacks):
            try:
                call(*one)
            except np.linalg.LinAlgError:
                raise error(f"element {e}: {message}") from exc
        raise


def _orient(p, q, r):
    return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
        q[..., 1] - p[..., 1]
    ) * (r[..., 0] - p[..., 0])


def _split_sides(verts, ptr, corners, diameter):
    """Split every element side at the corners of other elements inside it.

    Returns the pieces ``(u, v)`` in element, side and chain order, the CSR
    offsets of each element's pieces, and the piece lengths.

    A side (u, v) with a twin, the side (v, u) of another element with each
    of the two occurring once, is a face as it stands: on a mesh whose
    elements do not overlap, a corner inside it would lie inside one of the
    two elements.  Only the sides without a twin are searched, and only for
    their own ends, since a corner whose sides all have twins is the centre
    of a closed fan of elements.  This is exact on such meshes where no two
    corners lie within ``tol`` of each other; elements that overlap, or that
    touch themselves, may keep a twin side whole where a search over every
    corner would split it.  A vertex that is no element's corner splits no
    side.
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

    lone = ~_twins(va, vb, len(verts))
    end = np.zeros(len(verts), dtype=bool)
    end[va[lone]] = end[vb[lone]] = True
    side, mid = _hanging_vertices(verts, va, vb, tol, lone & ~short, np.flatnonzero(end))
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
    """(side, vertex) of every vertex of ``candidates`` inside a live side,
    by side, then along it, then by id.

    A vertex w lies inside side a-b when its offset from the line is at
    most ``tol`` and its position along the side is within ``tol`` of the
    closed segment; a and b themselves are excluded.  ``_split_sides``
    passes the ends of the sides without a twin as ``candidates``.  They sit
    in the buckets of a uniform grid whose cell is the median side length
    (spatial hashing, Teschner et al., VMV 2003), and each side tests only
    the vertices of the buckets its padded bounding box covers.  Of those,
    the side's own ends and the vertices outside its widened bounding box
    are dropped before the exact test, which they could not pass.
    """
    sides = np.flatnonzero(live)
    if len(sides) == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    a, b = verts[va], verts[vb]
    d = b - a
    L2 = _dot(d, d)
    L = np.sqrt(L2)

    # buckets in CSR form: candidate ids sorted by bucket key
    pts = verts[candidates]
    origin = pts.min(axis=0)
    extent = (pts.max(axis=0) - origin).max()
    cell = max(np.median(L[sides]), extent / 2**20)  # at most 2^20 columns
    col, row = np.floor((pts - origin) / cell).astype(np.int64).T
    n_cols, n_rows = col.max() + 1, row.max() + 1
    key = row * n_cols + col
    order = np.argsort(key, kind="stable")
    keys, by_key = key[order], candidates[order]

    # (side, bucket row) pairs over each side's padded bounding box, then
    # the run of bucket keys of its columns in each row
    ga, gb = (a[sides] - origin) / cell, (b[sides] - origin) / cell
    pad = (2.0 * tol[sides] / cell + 1e-8)[:, None]  # rounding of grid coordinates
    top = [n_cols - 1, n_rows - 1]
    c0, y0 = np.floor(np.minimum(ga, gb) - pad).clip(0, top).astype(np.int64).T
    c1, y1 = np.floor(np.maximum(ga, gb) + pad).clip(0, top).astype(np.int64).T
    k = np.repeat(np.arange(len(sides)), y1 - y0 + 1)
    r = _ranges(y0, y1 - y0 + 1)
    first = np.searchsorted(keys, r * n_cols + c0[k], side="left")
    stop = np.searchsorted(keys, r * n_cols + c1[k], side="right")
    s = sides[np.repeat(k, stop - first)]
    w = by_key[_ranges(first, stop - first)]

    # prefilter: drop the side's own ends, then every vertex outside the
    # side's bounding box widened by `margin`.  A vertex the test below
    # accepts lies within 2.01 tol + eps/2 |coordinate| of that box (3e-162
    # more where its squared offset underflows); the margin covers that and
    # the rounding of the box itself with room to spare.
    s, w = _keep((w != va[s]) & (w != vb[s]), s, w)
    margin = 4.0 * tol + 2.0 * np.finfo(float).eps * np.abs(pts).max() + 1e-150
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
    """Parse the POLYMESH2D text format and build the mesh.

    The document is read in one tokenization, with one numpy conversion for
    the vertex block and one for the element block.  Numbers are read as
    Python's ``float`` and ``int`` read them, and the header counts are
    checked against the rows present before anything is allocated.  A
    malformed document raises ``MeshError`` naming its first bad line.
    """
    return PolyMesh._from_corners(*_read_tokens(text))


# the bytes a document may hold without a rewrite, and the bytes numpy reads
# in a block of numbers as float and int read them
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n"
_FLOAT_BYTES = b"0123456789.eE+- \t\n"
_INT_BYTES = b"0123456789+- \t\n"
_COMMENT = re.compile(rb"#[^\n]*")
_INT64 = np.iinfo(np.int64)


def _read_tokens(text):
    """(vertices, corner_ptr, corners) of a document; raises ``MeshError``
    naming the first malformed line.

    Lines are those of ``str.splitlines`` and tokens those of ``str.split``.
    A document of printable ASCII, tabs and LF or CRLF line ends is split
    on its bytes as it stands.  Any other is first rewritten, without its
    comments and with its tokens joined by single spaces, line for line,
    and the same byte pass reads the result.  A block whose tokens numpy
    reads as ``float``/``int`` do is converted in one numpy call; any other
    token by token with ``float``/``int``.
    """
    raw = text.encode("utf-8", "surrogatepass")
    if "\r" in text:  # str.splitlines breaks once at a CRLF
        raw = raw.replace(b"\r\n", b"\n")
    if not text.isascii() or raw.translate(None, _PLAIN):
        raw = "\n".join(
            " ".join(ln.split("#", 1)[0].split()) for ln in text.splitlines()
        ).encode("utf-8", "surrogatepass")
    elif "#" in text:
        raw = _COMMENT.sub(b"", raw)
    c = np.frombuffer(raw, dtype=np.uint8)
    # tokens raw[start:stop], the first token after each line break, and
    # the non-empty lines, each with the tokens ptr[i]:ptr[i + 1]
    blank = (c == 32) | (c == 10) | (c == 9)
    edges = np.flatnonzero(np.diff(blank, prepend=True, append=True))
    start, stop = edges[0::2], edges[1::2]
    after_break = np.searchsorted(start, np.flatnonzero(c == 10))
    bounds = np.concatenate([[0], after_break, [len(start)]])
    ptr = np.append(bounds[np.flatnonzero(np.diff(bounds))], len(start))
    n_tokens = np.diff(ptr)
    n_lines = len(n_tokens)
    word = lambda t: raw[start[t]:stop[t]].decode("utf-8", "surrogatepass")

    def fail(i, message):
        """Raise ``message`` at non-empty line i; past the last one, the
        document ended early."""
        if i >= n_lines:
            raise MeshError("unexpected end of mesh document")
        line = np.searchsorted(after_break, ptr[i], side="right") + 1
        raise MeshError(f"line {line}: {message}")

    def count(i, label, symbol):
        """n of the '<label> <n>' line i, n >= 1."""
        if i >= n_lines or n_tokens[i] != 2 or word(ptr[i]) != label:
            fail(i, f"expected '{label} <{symbol}>'")
        token = word(ptr[i] + 1)
        try:
            value = int(token)
        except ValueError:
            fail(i, f"expected integer, got {token!r}")
        if value < 1:
            fail(i, f"value {value} below 1")
        return value

    def numbers(t0, t1, chars, dtype, convert):
        """Tokens t0..t1-1 as one array, and where ``convert`` reads them."""
        ok = np.ones(t1 - t0, dtype=bool)
        chunk = raw[start[t0]:stop[t1 - 1]] if t1 > t0 else b""
        # numpy reads a lone sign as 0, or as the sign of the next token
        lone_sign = (b"+" in chunk or b"-" in chunk) and (
            (stop[t0:t1] - start[t0:t1] == 1) & np.isin(c[start[t0:t1]], (43, 45))).any()
        if not chunk.translate(None, chars) and not lone_sign:
            try:
                values = np.fromstring(chunk, dtype=dtype, sep=" ")
            except ValueError:
                values = ()
            if len(values) == t1 - t0 and not (  # numpy clips past int64
                    dtype is np.int64 and len(values)
                    and (values.max() == _INT64.max or values.min() == _INT64.min)):
                return values, ok
        values = np.zeros(t1 - t0, dtype=dtype)
        for t in range(t0, t1):
            try:
                values[t - t0] = convert(word(t))
            except ValueError:
                ok[t - t0] = False
        return values, ok

    if n_lines == 0:
        raise MeshError("empty mesh document")
    if n_tokens[0] != 2 or (word(0), word(1)) != ("POLYMESH2D", "1"):
        fail(0, "expected header 'POLYMESH2D 1'")
    n = count(1, "VERTICES", "n")
    rows = min(n, n_lines - 2)
    short = np.flatnonzero(n_tokens[2:2 + rows] != 2)
    good = short[0] if len(short) else rows
    xy, ok = numbers(ptr[2], ptr[2 + good], _FLOAT_BYTES, float, float)
    if not ok.all():
        fail(2 + np.argmin(ok) // 2, "bad coordinate")
    if good < n:
        fail(2 + good, "expected '<x> <y>'")

    m = count(n + 2, "ELEMENTS", "m")
    e0, e1 = n + 3, min(n + 3 + m, n_lines)  # the loop lines present
    flat, ok = numbers(ptr[e0], ptr[e1], _INT_BYTES, np.int64, _int64)
    head = ptr[e0:e1] - ptr[e0]  # the corner count of each loop
    p = flat[head]
    few, wrong = p < 3, n_tokens[e0:e1] - 1 != p
    if not ok.all() or few.any() or wrong.any():
        # the first loop failing a check, and its first check failed, in order
        r, check = _first_failure(~ok[head], few, wrong, ~np.logical_and.reduceat(ok, head))
        token = word(ptr[e0 + r] + (np.argmin(ok[head[r]:]) if check == 3 else 0))
        if check in (0, 3):
            fail(e0 + r, f"expected integer, got {token!r}")
        p = int(token)
        fail(e0 + r, f"value {p} below 3" if check == 1 else f"expected {p} vertex ids")
    if n_lines != n + 3 + m:
        fail(n + 3 + m, "trailing content")
    return xy.reshape(n, 2), np.concatenate([[0], np.cumsum(p)]), np.delete(flat, head)


def _int64(token):
    """``int(token)``, an id past int64 clipped to its range: out of range
    all the same, it is named by ``_loop_geometry``."""
    return min(max(int(token), _INT64.min), _INT64.max)


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
    if (n + 1) ** 2 > np.iinfo(np.int32).max:  # the bound of the sparse indices
        raise MeshError(f"subdivision count {n} gives more vertices than int32 indices can number")
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
    valid polygonal mesh.  ``marked`` may repeat ids and list them in any
    order; the smallest id that is out of range or not refinable is named.
    """
    els = mesh.elements
    counts = np.diff(els.corner_ptr)
    ids = sorted({_index(e, "marked element") for e in _items(marked, "marked elements")})
    for e in ids:
        if not 0 <= e < len(counts):
            raise MeshError(f"marked element {e} out of range")
        if counts[e] not in (3, 4):
            raise MeshError(f"element {e}: only triangles/quads can be refined")
    ids = np.array(ids, dtype=int)
    p = counts[ids]

    # the new points of each marked element, in element order: its side
    # midpoints, then a quad's centre
    n_new = p + (p == 4)
    new = np.empty((n_new.sum(), 2))
    groups = []
    for q, children in ((3, _TRIANGLE_CHILDREN), (4, _QUAD_CHILDREN)):
        k = np.flatnonzero(p == q)
        loop = els.corners[els.corner_ptr[ids[k], None] + np.arange(q)]
        xy = mesh.vertices[loop]
        pts = [0.5 * (xy + np.roll(xy, -1, axis=1))]
        if q == 4:
            pts.append(0.25 * (xy[:, 0] + xy[:, 1] + xy[:, 2] + xy[:, 3])[:, None])
        at = (np.cumsum(n_new) - n_new)[k, None] + np.arange(q + (q == 4))
        new[at] = np.concatenate(pts, axis=1)
        groups.append((k, loop, at, children))

    # a new point equal to a mesh vertex takes its (largest) id, the others
    # ids from n_vertices on by first appearance; points are equal when their
    # bits are, which keeps -0.0 apart from 0.0
    nv = len(mesh.vertices)
    bits = np.concatenate([mesh.vertices[::-1], new]).view(np.int64)
    _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    fresh = np.sort(first[first >= nv])
    vid = np.where(first >= nv, nv + np.searchsorted(fresh, first), nv - 1 - first)
    new_id = vid[inverse[nv:]]
    verts = np.concatenate([mesh.vertices, new[fresh - nv]])

    # each marked element gives way to its four children
    split = np.zeros(len(counts), dtype=bool)
    split[ids] = True
    reps = np.where(split, 4, 1)
    out = reps * counts
    corners = np.empty(out.sum(), dtype=int)
    corners[np.repeat(~split, out)] = els.corners[np.repeat(~split, counts)]
    start = np.cumsum(out) - out
    for k, loop, at, children in groups:
        row = np.concatenate([loop, new_id[at]], axis=1)
        corners[start[ids[k], None] + np.arange(children.size)] = row[:, children.ravel()]
    ptr = np.concatenate([[0], np.cumsum(np.repeat(counts, reps))])
    return _compacted(verts, ptr, corners)


# children of a marked element as positions in its row of local vertices:
# the corners, the side midpoints (side i runs from corner i), a quad's centre
_TRIANGLE_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])
_QUAD_CHILDREN = np.array([[0, 4, 8, 7], [4, 1, 5, 8], [8, 5, 2, 6], [7, 8, 6, 3]])


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
        b = _index(target, "block size")
        if b < 1 or n % b != 0:
            raise MeshError(f"block size {b} does not divide grid size {n}")
        blocks = [(i, j, b, b) for j in range(0, n, b) for i in range(0, n, b)]
    else:
        blocks = [[_index(x, "block field") for x in _items(blk, "block", 4)]
                  for blk in _items(target, "block list")]

    covered = np.zeros((n, n), dtype=bool)
    for i0, j0, w, h in blocks:
        if i0 < 0 or j0 < 0 or w < 1 or h < 1 or i0 + w > n or j0 + h > n:
            raise MeshError(f"block {(i0, j0, w, h)} outside the grid")
        if covered[j0:j0 + h, i0:i0 + w].any():
            raise MeshError(f"block {(i0, j0, w, h)} overlaps another block")
        covered[j0:j0 + h, i0:i0 + w] = True
    if not covered.all():
        raise MeshError("blocks do not cover the fine grid")

    i0, j0, w, h = np.array(blocks).T
    i1, j1 = i0 + w, j0 + h
    # grid vertex (i, j) has id j (n + 1) + i
    corners = np.column_stack([j0, j0, j1, j1]) * (n + 1) + np.column_stack([i0, i1, i1, i0])
    return _compacted(fine.vertices, np.arange(0, corners.size + 1, 4), corners.ravel())


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
    _raise_first_failure({"not a grid quadrilateral": ~quad, "not a unit grid cell": off_grid})


def _index(value, what, error=MeshError):
    """``value`` as an int, by ``operator.index``: floats and strings are
    refused with ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _items(value, what, size=None):
    """The items of the container ``value``, ``size`` of them if given."""
    try:
        items = list(value)
    except TypeError:
        raise MeshError(f"{what} must be a sequence, got {value!r}") from None
    if size is not None and len(items) != size:
        raise MeshError(f"{what} must have {size} fields, got {value!r}")
    return items


def _compacted(verts, corner_ptr, corners):
    """The mesh of a corner table without the vertices no corner uses, the
    others renumbered in id order."""
    used, corners = np.unique(corners, return_inverse=True)
    return PolyMesh._from_corners(verts[used], corner_ptr, corners)


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

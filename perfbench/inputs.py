"""Seeded POLYMESH2D text generators for the benchmark workloads.

The generators use only numpy and write the text format by hand, so the
program under test sees nothing but the text.  Each input is a pure
function of ``(seed, op_index)``; the seed chooses which cells are refined
and how vertices are jittered, never how many elements there are.
"""

from __future__ import annotations

import numpy as np


def _rng(seed, op_index):
    return np.random.default_rng([int(seed), int(op_index)])


def _text(coords, loops):
    """POLYMESH2D text from float vertex coordinates and CCW corner loops."""
    out = ["POLYMESH2D 1", f"VERTICES {len(coords)}"]
    out.extend(f"{float(x)!r} {float(y)!r}" for x, y in coords)
    out.append(f"ELEMENTS {len(loops)}")
    out.extend(" ".join([str(len(lp)), *map(str, lp)]) for lp in loops)
    return "\n".join(out) + "\n"


def _split(quads, marked):
    """Split the marked (x0, y0, size) lattice squares into four each."""
    out = []
    for q, (x0, y0, s) in enumerate(quads):
        if q not in marked:
            out.append((x0, y0, s))
            continue
        half = s // 2
        out += [
            (x0, y0, half), (x0 + half, y0, half),
            (x0, y0 + half, half), (x0 + half, y0 + half, half),
        ]
    return out


def _grid(n, scale):
    return [(i * scale, j * scale, scale) for j in range(n) for i in range(n)]


def _refined_quads(n, passes, rng):
    """Unit-square quads after ``len(passes)`` rounds of 1-to-4 splitting.

    ``passes`` lists how many cells to split in each round; the cells are
    drawn without replacement from the current mesh, so the element count
    is ``n*n + 3*sum(passes)`` whatever the seed.  Corners live on an
    integer lattice of spacing 1/(n * 2**len(passes)), which keeps midpoints
    exact and makes hanging nodes lie exactly on their neighbours' sides.
    """
    scale = 2 ** len(passes)
    quads = _grid(n, scale)
    for count in passes:
        marked = set(rng.choice(len(quads), size=count, replace=False).tolist())
        quads = _split(quads, marked)
    return quads, n * scale


def _quads_text(quads, lattice):
    vid = {}
    loops = []
    for x0, y0, s in quads:
        loop = []
        for p in ((x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)):
            loop.append(vid.setdefault(p, len(vid)))
        loops.append(loop)
    coords = [(x / lattice, y / lattice) for (x, y) in vid]
    return _text(coords, loops)


def nonconforming_text(seed, op_index, n, passes):
    """Cartesian n x n grid with seeded non-conforming refinement passes."""
    quads, lattice = _refined_quads(n, passes, _rng(seed, op_index))
    return _quads_text(quads, lattice)


def nested_family_texts(seed, op_index, levels, coarse=4, marked=4):
    """A refinement family with the same refined region on every level.

    ``marked`` cells of a ``coarse`` x ``coarse`` grid are drawn from the
    seed; on level n every cell inside a drawn coarse cell is split in
    four.  Each level thus has n*n*(1 + 3*marked/coarse**2) elements, and
    the hanging nodes sit on the same lines at every level, as a nested
    refinement family should.
    """
    rng = _rng(seed, op_index)
    chosen = set(rng.choice(coarse * coarse, size=marked, replace=False).tolist())
    texts = []
    for n in levels:
        r = n // coarse
        split = {
            j * n + i for j in range(n) for i in range(n)
            if (j // r) * coarse + i // r in chosen
        }
        texts.append(_quads_text(_split(_grid(n, 2), split), 2 * n))
    return texts


def jittered_text(seed, op_index, n, amplitude=0.15):
    """Cartesian n x n grid, interior vertices moved by at most amplitude*h."""
    rng = _rng(seed, op_index)
    h = 1.0 / n
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    x, y = (i * h).ravel(), (j * h).ravel()
    interior = ((i > 0) & (i < n) & (j > 0) & (j < n)).ravel()
    m = int(interior.sum())
    radius = amplitude * h * np.sqrt(rng.random(m))
    angle = 2.0 * np.pi * rng.random(m)
    x[interior] += radius * np.cos(angle)
    y[interior] += radius * np.sin(angle)
    vid = lambda a, b: b * (n + 1) + a
    loops = [
        [vid(a, b), vid(a + 1, b), vid(a + 1, b + 1), vid(a, b + 1)]
        for b in range(n) for a in range(n)
    ]
    return _text(np.column_stack([x, y]), loops)


# Workload inputs.  Each returns the list of texts one op loads.

POLY_PASSES = (30, 33)      # cartesian:10 -> 190 -> 289 elements
STUDY_LEVELS = (4, 8, 16)   # 4 of 16 coarse regions split at every level
# 32 x 32 keeps an op near 3 s: ops much longer than the gaps between
# machine-speed samples (see reference.py) could not be measured steadily.
FINE_N = 32


def poly_hik_inputs(seed, op_index):
    return [nonconforming_text(seed, op_index, 10, POLY_PASSES)]


def fine_k0_inputs(seed, op_index):
    return [jittered_text(seed, op_index, FINE_N)]


def study_inputs(seed, op_index):
    return nested_family_texts(seed, op_index, STUDY_LEVELS)


def tiny_inputs(seed):
    """Small meshes for the warm-up op: a family of the study's shape."""
    return nested_family_texts(seed, 0, (2, 4, 8), coarse=2, marked=1)

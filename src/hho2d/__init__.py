"""2D hybrid high-order solver for the Poisson problem on polygonal meshes."""

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
from hho2d.assembly import (
    GlobalHhoVector,
    NormGram,
    SparseSpdSystem,
    assemble,
    build_dof_map,
    solve,
    static_condense,
)
from hho2d.hho_local import (
    LocalOperators,
    elliptic_project,
    eta_bounds,
    interpolate,
    local_operators,
)
from hho2d.verify import CASES, ConvergenceReport, build_family, study

__all__ = [
    "CASES",
    "ConvergenceReport",
    "GlobalHhoVector",
    "LocalOperators",
    "MeshError",
    "MeshFamily",
    "NormGram",
    "PolyMesh",
    "SparseSpdSystem",
    "agglomerate",
    "assemble",
    "build_dof_map",
    "build_family",
    "dump_mesh",
    "elliptic_project",
    "eta_bounds",
    "generate",
    "interpolate",
    "load_mesh",
    "local_operators",
    "refine_nonconforming",
    "regularity_report",
    "solve",
    "static_condense",
    "study",
]

__version__ = "0.1.0"

"""The benchmark's workloads: what one op runs and how its output is checked.

Every op starts from POLYMESH2D text, so mesh parsing, face derivation and
validation are inside the timed path.  Ops reach the program only through
module attributes (``prog.mesh.load_mesh``, ``prog.assembly.assemble``, ...)
so that the traced run sees every call once those attributes are wrapped.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import inputs

SRC = Path(__file__).resolve().parent.parent / "src"

# Exact H1 seminorm squared of u = sin(pi x) sin(pi y) on the unit square.
SINE_ENERGY = np.pi**2 / 2

LAYERS = ("mesh", "polybasis", "hho_local", "assembly", "verify")


class ProgramMissing(RuntimeError):
    """The hho2d sources are not next to the benchmark."""


def import_program():
    """Import hho2d from the checkout's ``src`` and return its layer modules."""
    if not (SRC / "hho2d" / "__init__.py").is_file():
        raise ProgramMissing(f"no hho2d package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"hho2d.{name}") for name in LAYERS}
    for name, module in modules.items():
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise ProgramMissing(f"hho2d.{name} imported from {module.__file__}")
    return SimpleNamespace(**modules)


def sine_source(p):
    return 2.0 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


@dataclass
class OpResult:
    dofs: int
    problems: list


# -- ops ------------------------------------------------------------------


def solve_op(prog, texts, k):
    mesh = prog.mesh.load_mesh(texts[0])
    system = prog.assembly.assemble(mesh, k, sine_source)
    solution, info = prog.assembly.solve(system)
    return system, solution, info


def study_op(prog, texts, k=1):
    meshes = [prog.mesh.load_mesh(t) for t in texts]
    family = prog.mesh.MeshFamily(tag="nonconforming", meshes=meshes)
    return prog.verify.study(family, k, "sine")


# -- checks (run outside the timed window) ---------------------------------

RESIDUAL_MAX = 1e-12
CONDENSED_DIFF_MAX = 1e-10


def check_solve(output, energy_rtol):
    system, solution, info = output
    problems = []
    if not info.residual <= RESIDUAL_MAX:
        problems.append(f"solver residual {info.residual:.3e} > {RESIDUAL_MAX}")
    energy = float(system.rhs @ solution.data)
    rel = abs(energy - SINE_ENERGY) / SINE_ENERGY
    if not rel <= energy_rtol:
        problems.append(f"energy rel. deviation {rel:.3e} > {energy_rtol}")
    return OpResult(dofs=int(system.dofmap.total), problems=problems)


def check_study(report, k=1, eoc_window=0.35):
    problems = []
    eoc = report.eoc.get("energy", float("nan"))
    if not abs(eoc - (k + 1)) <= eoc_window:
        problems.append(f"energy EOC {eoc:.3f} outside {k + 1} +- {eoc_window}")
    for i, row in enumerate(report.rows):
        if not row.solver_residual <= RESIDUAL_MAX:
            problems.append(f"row {i}: solver residual {row.solver_residual:.3e}")
        if not row.condensed_rel_diff <= CONDENSED_DIFF_MAX:
            problems.append(
                f"row {i}: condensed_rel_diff {row.condensed_rel_diff:.3e}"
            )
    return OpResult(dofs=sum(int(r.n_dofs) for r in report.rows), problems=problems)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable      # (seed, op_index) -> list of POLYMESH2D texts
    op: Callable          # (prog, texts) -> raw output, the timed part
    check: Callable       # raw output -> OpResult


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve_poly_hik",
            inputs.poly_hik_inputs,
            lambda prog, texts: solve_op(prog, texts, 3),
            lambda out: check_solve(out, energy_rtol=1e-5),
        ),
        Workload(
            "solve_fine_k0",
            inputs.fine_k0_inputs,
            lambda prog, texts: solve_op(prog, texts, 0),
            lambda out: check_solve(out, energy_rtol=1e-2),
        ),
        Workload(
            "study_conv",
            inputs.study_inputs,
            study_op,
            check_study,
        ),
    )
}


def warm_up(prog, seed=0):
    """One small op per path the workloads take, so lazy set-up is done.

    The first sparse LU and the cached quadrature rules cost far more on
    first use than afterwards; users of a long-lived process pay that once.
    """
    texts = inputs.tiny_inputs(seed)
    study_op(prog, texts)
    for k in (0, 3):
        solve_op(prog, texts[1:2], k)

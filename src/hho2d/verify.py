"""Manufactured solutions, error measures, and convergence studies.

Everything here treats the solver as a black box and measures: energy norms
as sums of x^T N_T x over the element stacks (the solution's, and its
distance to the exact interpolate), the consistency functional's dual norm
through the factored energy Gram, the stabilization energy |R x|^2 of the
exact interpolate (S = R^T R), spectral constants (the coercivity constant
per mesh and the discrete Poincare constant), and fitted convergence orders.

Element data comes in the stacks of ``mesh.batches``: ``ops`` holds one
``LocalOperators`` stack and an interpolate one (B, n_local) array per
batch, and every measure reads them stack by stack.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from hho2d import assembly as asm
from hho2d import hho_local as hl
from hho2d import polybasis as pb
from hho2d.mesh import MeshError, MeshFamily, agglomerate, generate, refine_nonconforming


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution with matching source for the unit square."""

    name: str
    u: object
    grad: object
    f: object
    regularity: str = "smooth"


def _sine():
    u = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    grad = lambda p: np.pi * np.column_stack(
        [
            np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ]
    )
    f = lambda p: 2.0 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    return ManufacturedCase("sine", u, grad, f, "analytic")


def _bubble():
    u = lambda p: p[:, 0] * (1 - p[:, 0]) * p[:, 1] * (1 - p[:, 1])
    grad = lambda p: np.column_stack(
        [
            (1 - 2 * p[:, 0]) * p[:, 1] * (1 - p[:, 1]),
            p[:, 0] * (1 - p[:, 0]) * (1 - 2 * p[:, 1]),
        ]
    )
    f = lambda p: 2.0 * (p[:, 0] * (1 - p[:, 0]) + p[:, 1] * (1 - p[:, 1]))
    return ManufacturedCase("bubble", u, grad, f, "polynomial")


CASES = {"sine": _sine(), "bubble": _bubble()}


# ---------------------------------------------------------------------------
# mesh families


def build_family(tag, levels, frac=0.25, block=2):
    """Refinement families used by the studies.

    cartesian / triangular: uniform generators; nonconforming: scattered
    marking (stride pattern) so hanging-node elements cover a fixed area
    fraction; agglomerated: coarse blocks on the left half, fine cells on
    the right; rectangles: 2x1 dominoes everywhere.
    """
    meshes = []
    for n in levels:
        if tag in ("cartesian", "triangular"):
            meshes.append(generate(tag, n))
        elif tag == "nonconforming":
            meshes.append(nonconforming_mesh(n, frac))
        elif tag == "agglomerated":
            meshes.append(agglomerated_mesh(n, block))
        elif tag == "rectangles":
            meshes.append(rectangle_mesh(n))
        else:
            raise MeshError(f"unknown family tag {tag!r}")
    return MeshFamily(tag=tag, meshes=meshes)


def nonconforming_mesh(n, frac=0.25):
    """Cartesian grid with a scattered fraction of cells split in four."""
    if not 0 < frac <= 1:
        raise MeshError("nonconforming fraction must be in (0, 1]")
    mesh = generate("cartesian", n)
    stride = max(1, int(round(1.0 / frac)))
    marked = [
        j * n + i for j in range(n) for i in range(n)
        if (i + 3 * j) % stride == 0
    ]
    return refine_nonconforming(mesh, marked)


def agglomerated_mesh(n, block=2):
    """Left half coarsened into block x block squares, right half fine."""
    if block < 1:
        raise MeshError("agglomeration block must be >= 1")
    if n % (2 * block) != 0:
        raise MeshError("agglomerated mesh needs block | n/2")
    mesh = generate("cartesian", n)
    blocks = [
        (i, j, block, block)
        for j in range(0, n, block)
        for i in range(0, n // 2, block)
    ]
    blocks += [(i, j, 1, 1) for j in range(n) for i in range(n // 2, n)]
    return agglomerate(mesh, blocks)


def rectangle_mesh(n):
    """All cells merged into 2x1 dominoes (generic non-square elements)."""
    if n % 2 != 0:
        raise MeshError("rectangle mesh needs even n")
    mesh = generate("cartesian", n)
    blocks = [(2 * i, j, 2, 1) for j in range(n) for i in range(n // 2)]
    return agglomerate(mesh, blocks)


# ---------------------------------------------------------------------------
# error measures


def local_interpolates(mesh, k, u):
    """Flat local interpolates of ``u``, one (B, n_local) array per batch."""
    return [hl.interpolate(mesh, ids, k, u) for ids in mesh.batches]


def interpolate_global(system, interp):
    """Dof vector of the global interpolate (boundary faces read zero)."""
    data = np.zeros(system.dofmap.total)
    for ids, iu in zip(system.mesh.batches, interp):
        idx = system.dofmap.indices(ids)
        keep = idx >= 0
        data[idx[keep]] = iu[keep]
    return asm.GlobalHhoVector(dofmap=system.dofmap, data=data)


def _total(parts):
    """Exactly rounded sum of per-element contributions, given as one array
    per stack: the same however the elements are cut into stacks."""
    return math.fsum(np.concatenate(parts).tolist())


def energy_error(ops, solution, interp):
    """Energy distance between the solution and the exact interpolate."""
    err2 = []
    for op, iu in zip(ops, interp):
        e = iu - solution.local_flat(op.elem_id)
        err2.append((e[:, None, :] @ op.norm_gram @ e[:, :, None])[:, 0, 0])
    return float(np.sqrt(max(_total(err2), 0.0)))


def energy_norm(ops, vector):
    """Discrete energy norm of a global dof vector: its energy distance to 0."""
    return energy_error(ops, vector, [0.0] * len(ops))


def l2_norms(system, solution, case):
    """L2 distance between the exact solution and the piecewise cell value,
    and the L2 norm of the source, both on one cell rule of order 2k+6 per
    stack."""
    mesh, k = system.mesh, system.k
    err2, f2 = [], []
    for op in system.ops:
        points, weights = pb.cell_quadratures(mesh, op.elem_id, 2 * k + 6)
        x = points.reshape(-1, 2)
        loc = solution.local_flat(op.elem_id)
        if k >= 1:
            V = op.cell_basis.eval(points)
            vals = np.einsum("bpi,bi->bp", V, loc[:, :hl.cell_block_dim(k)])
        else:
            vals = (op.avg_weights * loc).sum(axis=1)[:, None]
        diff = case.u(x).reshape(weights.shape) - vals
        err2.append(np.sum(weights * diff**2, axis=1))
        f2.append(np.sum(weights * case.f(x).reshape(weights.shape) ** 2, axis=1))
    return float(np.sqrt(_total(err2))), float(np.sqrt(_total(f2)))


def consistency_moments(system, interp):
    """Moments of the consistency functional against every basis dof."""
    iu = interpolate_global(system, interp)
    return asm.residual(system.matrix, iu.data, system.rhs)


def stab_energy(ops, interp):
    """Aggregate stabilization energy of the interpolated exact solution."""
    parts = [np.sum((op.stab_factor @ iu[..., None]) ** 2, axis=(1, 2))
             for op, iu in zip(ops, interp)]
    return float(np.sqrt(_total(parts)))


def mesh_eta(ops):
    """Largest per-element equivalence constant over the operator stacks."""
    return max(float(hl.eta_of(op).max()) for op in ops)


# ---------------------------------------------------------------------------
# discrete Poincare constant


class PowerIterationError(Exception):
    """Power iteration broke down or did not converge."""


def l2_mass_matrix(system):
    """Gram of the piecewise cell value on the zero-boundary dof space: the
    cell masses of the local build (``LocalOperators.cell_mass``) at k >= 1,
    the outer products of the average rows, times |T|, at k = 0."""
    mesh, k = system.mesh, system.k
    blocks = []
    for op in system.ops:
        idx = system.dofmap.indices(op.elem_id)
        if k == 0:
            w = op.avg_weights * np.sqrt(mesh.elements.area[op.elem_id])[:, None]
            blocks.append((idx, w[:, :, None] * w[:, None, :]))
        else:
            # the blocks act on the cell dofs only
            blocks.append((idx[:, :hl.cell_block_dim(k)], op.cell_mass))
    return asm._scatter_blocks(blocks, system.dofmap.total)


POWER_TOL, POWER_MAXITER = 1e-10, 5000  # power iteration stopping rule


def poincare_constant(system, norm_gram=None):
    """Largest ratio |cell value|_L2 / energy norm, by power iteration."""
    if system.dofmap.total == 0:
        raise asm.AssemblyError("empty system has no Poincare constant")
    if norm_gram is None:
        norm_gram = asm.NormGram(system)
    M = l2_mass_matrix(system)
    rng = np.random.default_rng(2718)
    x = rng.standard_normal(system.dofmap.total)
    Mx = M @ x
    lam = 0.0
    for it in range(1, POWER_MAXITER + 1):
        y = norm_gram.apply_inverse(Mx)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise PowerIterationError("mass matrix annihilated the iterate")
        x = y / ny
        Mx = M @ x  # this iterate's Rayleigh numerator and the next solve's input
        num = x @ Mx
        den = x @ (norm_gram.matrix @ x)
        lam_new = num / den
        if it > 1 and abs(lam_new - lam) <= POWER_TOL * abs(lam_new):
            return float(np.sqrt(lam_new)), it
        lam = lam_new
    raise PowerIterationError(f"power iteration stagnated after {POWER_MAXITER} iterations")


# ---------------------------------------------------------------------------
# EOC fitting


EOC_POINTS = 3  # eoc_fit fits the finest levels
ROUNDOFF_RATIO = 1e-8  # stab_consist <= this * consist_dual is roundoff


def eoc_fit(hs, errors):
    """Least-squares slope of log(error) vs log(h) on the finest points."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2:
        return float("nan")
    take = min(EOC_POINTS, len(hs))
    h, e = hs[-take:], errors[-take:]
    if np.any(e <= 0):
        return float("nan")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def incremental_eoc(hs, errors):
    out = [float("nan")]
    for i in range(1, len(hs)):
        if errors[i] > 0 and errors[i - 1] > 0:
            out.append(
                float(np.log(errors[i - 1] / errors[i]) / np.log(hs[i - 1] / hs[i]))
            )
        else:
            out.append(float("nan"))
    return out


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class StudyRow:
    h: float
    n_dofs: int
    n_face_dofs: int
    energy_err: float
    consist_dual: float
    stab_consist: float
    l2_err: float
    eta: float
    cp: float
    seconds: float
    uh_energy_norm: float = 0.0
    f_l2: float = 0.0
    poincare_iters: int = 0
    solver_residual: float = 0.0
    condensed_rel_diff: float = float("nan")
    reduced_dofs: int = 0


@dataclass
class ConvergenceReport:
    family: str
    k: int
    case: str
    rows: list = field(default_factory=list)
    eoc: dict = field(default_factory=dict)

    CSV_HEADER = [
        "family", "k", "h", "n_dofs", "energy_err", "eoc",
        "consist_dual", "stab_consist", "CP", "eta", "seconds",
    ]

    def _solved(self):
        """Rows with unknowns: a level without any has only roundoff errors."""
        return [r for r in self.rows if r.n_dofs]

    def _stab_is_roundoff(self):
        """The stabilization energy is roundoff on every fitted row, as for
        an interpolate in the stabilization kernel: no slope to fit."""
        rows = self._solved()[-EOC_POINTS:]
        return all(r.stab_consist <= ROUNDOFF_RATIO * r.consist_dual for r in rows)

    def finalize(self):
        rows = self._solved()
        hs = [r.h for r in rows]
        if len(rows) >= 3:
            stab = [r.stab_consist for r in rows]
            self.eoc = {
                "energy": eoc_fit(hs, [r.energy_err for r in rows]),
                "consist": eoc_fit(hs, [r.consist_dual for r in rows]),
                "stab": np.nan if self._stab_is_roundoff() else eoc_fit(hs, stab),
                "l2": eoc_fit(hs, [r.l2_err for r in rows]),
            }
        return self

    def eoc_line(self):
        """The fitted EOCs as printed; a roundoff ``stab`` reads ``roundoff``."""
        roundoff = self._stab_is_roundoff()
        return f"fitted EOC (finest {EOC_POINTS}): " + ", ".join(
            f"{k} = roundoff" if k == "stab" and roundoff else f"{k} = {v:.3f}"
            for k, v in self.eoc.items()
        )

    def _table_rows(self):
        rows = self._solved()
        incr = iter(incremental_eoc([r.h for r in rows], [r.energy_err for r in rows]))
        for row in self.rows:
            e = next(incr) if row.n_dofs else float("nan")
            yield [
                self.family, str(self.k), f"{row.h:.6e}", str(row.n_dofs),
                f"{row.energy_err:.6e}", "" if np.isnan(e) else f"{e:.3f}",
                f"{row.consist_dual:.6e}", f"{row.stab_consist:.6e}",
                f"{row.cp:.6e}", f"{row.eta:.6e}", f"{row.seconds:.3f}",
            ]

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for fields in self._table_rows():
            writer.writerow(fields)
        return out.getvalue()

    def to_markdown(self):
        lines = [
            "| " + " | ".join(self.CSV_HEADER) + " |",
            "|" + "|".join(["---"] * len(self.CSV_HEADER)) + "|",
        ]
        for fields in self._table_rows():
            lines.append("| " + " | ".join(fields) + " |")
        if self.eoc:
            lines.append("")
            lines.append(self.eoc_line())
        return "\n".join(lines) + "\n"


def study(family, k, case, determinism=False):
    """Solve on every mesh of the family and collect all row metrics."""
    if isinstance(case, str):
        case = CASES[case]
    report = ConvergenceReport(family=family.tag, k=k, case=case.name)
    for mesh in family:
        t0 = time.perf_counter()
        system = asm.assemble(mesh, k, case.f)
        solution, info = asm.solve(system)
        norm_gram = asm.NormGram(system)
        interp = local_interpolates(mesh, k, case.u)
        l2_err, f_l2 = l2_norms(system, solution, case)
        row = StudyRow(
            h=mesh.h,
            n_dofs=system.dofmap.total,
            n_face_dofs=system.dofmap.n_face_dofs,
            energy_err=energy_error(system.ops, solution, interp),
            consist_dual=norm_gram.riesz_dual_norm(consistency_moments(system, interp)),
            stab_consist=stab_energy(system.ops, interp),
            l2_err=l2_err,
            eta=mesh_eta(system.ops),
            cp=float("nan"),
            seconds=0.0,
            uh_energy_norm=energy_norm(system.ops, solution),
            f_l2=f_l2,
            solver_residual=info.residual,
        )
        if system.dofmap.total:  # a level without unknowns keeps cp = nan
            row.cp, row.poincare_iters = poincare_constant(system, norm_gram=norm_gram)
        if k >= 1:
            condensed = asm.static_condense(system)
            recovered, _ = asm.solve_condensed(condensed)
            row.condensed_rel_diff = float(
                np.linalg.norm(recovered.data - solution.data)
                / np.linalg.norm(solution.data)
            )
            row.reduced_dofs = condensed.n_reduced
        # wall time is inherently irreproducible; the determinism contract
        # promises byte-identical reports, so it is dropped there
        row.seconds = 0.0 if determinism else time.perf_counter() - t0
        report.rows.append(row)
    return report.finalize()


def stab_consistency_rate(family, k, case):
    """EOC of the aggregate stabilization energy of the exact interpolate."""
    if isinstance(case, str):
        case = CASES[case]
    hs, values = [], []
    for mesh in family:
        ops = asm.build_local_operators(mesh, k)
        values.append(stab_energy(ops, local_interpolates(mesh, k, case.u)))
        hs.append(mesh.h)
    return eoc_fit(hs, values), hs, values


def projector_rate_suite(family, degree, case):
    """EOCs of the cell projection, its weighted boundary trace, and the
    weighted boundary gradient of the local energy projection."""
    if isinstance(case, str):
        case = CASES[case]
    order = 2 * degree + 6
    hs, cell_errs, trace_errs, egrad_errs = [], [], [], []
    for mesh in family:
        els = mesh.elements
        cell2, trace2, egrad2 = [], [], []
        for op in asm.build_local_operators(mesh, degree):
            ids = op.elem_id
            basis = pb.cell_bases(mesh, ids, degree)
            coeff = pb.l2_project_cell(mesh, ids, degree, case.u, order=order)
            eproj, ebasis = hl.elliptic_project(mesh, ids, degree, case.u, ops=op, order=order)
            points, weights = pb.cell_quadratures(mesh, ids, order)
            fpts, fw = pb.face_quadratures(mesh, els.face_ids[mesh.face_rows(ids)], order)
            fpts = fpts.reshape(len(ids), -1, 2)
            fw = fw.reshape(len(ids), -1) * els.diameter[ids][:, None]
            u = case.u(points.reshape(-1, 2)).reshape(weights.shape)
            fu = case.u(fpts.reshape(-1, 2)).reshape(fw.shape)
            fgrad = case.grad(fpts.reshape(-1, 2)).reshape(fw.shape + (2,))
            diff = u - np.einsum("bpi,bi->bp", basis.eval(points), coeff)
            cell2.append(np.sum(weights * diff**2, axis=1))
            bdiff = fu - np.einsum("bpi,bi->bp", basis.eval(fpts), coeff)
            trace2.append(np.sum(fw * bdiff**2, axis=1))
            gdiff = fgrad - np.einsum("bpid,bi->bpd", ebasis.grad(fpts), eproj)
            egrad2.append(np.einsum("bpd,bp,bpd->b", gdiff, fw, gdiff))
        hs.append(mesh.h)
        cell_errs.append(np.sqrt(_total(cell2)))
        trace_errs.append(np.sqrt(_total(trace2)))
        egrad_errs.append(np.sqrt(_total(egrad2)))
    return {
        "cell_l2": eoc_fit(hs, cell_errs),
        "weighted_trace": eoc_fit(hs, trace_errs),
        "elliptic_boundary_gradient": eoc_fit(hs, egrad_errs),
        "hs": hs,
        "cell_errors": cell_errs,
        "trace_errors": trace_errs,
        "egrad_errors": egrad_errs,
    }

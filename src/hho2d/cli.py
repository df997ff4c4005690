"""Command-line front end: solve one problem, run a convergence study, or
run the invariant check suite.

Mesh sources are either a POLYMESH2D file path or a generator spec:
``cartesian:n``, ``triangular:n``, ``nonconf:n:frac``, ``agglo:n:block``.
Exit codes: 0 success, 1 check-suite failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hho2d import assembly as asm
from hho2d import classics as cl
from hho2d import hho_local as hl
from hho2d import polybasis as pb
from hho2d import verify as vf
from hho2d.mesh import MeshError, load_mesh


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    mesh_source: str = ""
    family: str = ""
    levels: tuple = (4, 8, 16, 32)
    k: int = 1
    case: str = "sine"
    out: str = "study.csv"
    determinism: bool = False
    solver: str = "direct"
    dump_matrix: str = ""
    frac: float = 0.25
    block: int = 2

    def __post_init__(self):
        if self.k not in range(asm.K_MAX + 1):
            degrees = ",".join(map(str, range(asm.K_MAX + 1)))
            raise ConfigError(f"degree k must be in {{{degrees}}}, got {self.k}")
        if self.case not in vf.CASES:
            raise ConfigError(f"unknown case {self.case!r}")
        if self.solver not in asm.SOLVE_METHODS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if any(n < 1 for n in self.levels):
            raise ConfigError("levels must be positive")
        if not 0 < self.frac <= 1:
            raise ConfigError("nonconforming fraction must be in (0, 1]")
        if self.block < 1:
            raise ConfigError("agglomeration block must be >= 1")
        if Path(self.out).suffix.lower() == ".md":
            raise ConfigError(f"--out {self.out!r} ends in .md, the suffix of the Markdown mirror")
        # refuse an output path before any work; later errors reach _write
        if self.command == "study":
            outputs = [self.out, Path(self.out).with_suffix(".md")]
        else:
            outputs = [self.dump_matrix] if self.dump_matrix else []
        for path in map(Path, outputs):
            if path.is_dir() or not path.parent.is_dir():
                code = errno.EISDIR if path.is_dir() else errno.ENOENT
                raise ConfigError(f"cannot write {str(path)!r}: {os.strerror(code)}")


def resolve_mesh(source):
    """Turn a mesh source spec into a PolyMesh."""
    parts = source.split(":")
    kind = parts[0]
    try:
        if kind == "cartesian" and len(parts) == 2:
            return vf.generate("cartesian", _positive_int(parts[1]))
        if kind == "triangular" and len(parts) == 2:
            return vf.generate("triangular", _positive_int(parts[1]))
        if kind == "nonconf" and len(parts) in (2, 3):
            n = _positive_int(parts[1])
            f = float(parts[2]) if len(parts) == 3 else RunConfig.frac
            if not 0 < f <= 1:
                raise ConfigError("nonconf fraction must be in (0, 1]")
            return vf.nonconforming_mesh(n, f)
        if kind == "agglo" and len(parts) in (2, 3):
            n = _positive_int(parts[1])
            b = int(parts[2]) if len(parts) == 3 else RunConfig.block
            return vf.agglomerated_mesh(n, b)
    except (ValueError, MeshError) as exc:
        raise ConfigError(f"bad generator spec {source!r}: {exc}") from exc
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"mesh source {source!r}: no such file or generator")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"mesh source {source!r}: {exc}") from exc
    return load_mesh(text)


def _write(path, write):
    """``write(path)``; a path that cannot be written is a configuration error."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _positive_int(token):
    value = int(token)
    if value < 1:
        raise ValueError("parameter must be >= 1")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hho2d",
        description="Hybrid high-order Poisson solver on polygonal meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem and print a summary")
    solve.add_argument("--mesh", dest="mesh_source", metavar="MESH", required=True,
                       help="file path or generator spec")
    solve.add_argument("--k", type=int, default=1)
    solve.add_argument("--case", default="sine")
    solve.add_argument("--solver", default="direct", choices=asm.SOLVE_METHODS)
    solve.add_argument("--determinism", action="store_true")
    solve.add_argument("--dump-matrix", default="", help="write the system matrix")

    study = sub.add_parser("study", help="run a convergence study over a family")
    study.add_argument(
        "--family",
        default="cartesian",
        choices=["cartesian", "triangular", "nonconforming", "agglomerated", "rectangles"],
    )
    study.add_argument("--levels", default="4,8,16,32")
    study.add_argument("--k", type=int, default=1)
    study.add_argument("--case", default="sine")
    study.add_argument("--out", default="study.csv")
    study.add_argument("--determinism", action="store_true")
    study.add_argument("--frac", type=float, default=0.25)
    study.add_argument("--block", type=int, default=2)

    check = sub.add_parser("check", help="run the invariant suite on one mesh")
    check.add_argument("--mesh", dest="mesh_source", metavar="MESH", required=True)
    check.add_argument("--k", type=int, default=1)
    check.add_argument("--case", default="sine")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "study":
            try:
                args.levels = tuple(int(t) for t in args.levels.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad levels {args.levels!r}: {exc}") from exc
        config = RunConfig(**vars(args))
        run = {"solve": run_solve, "study": run_study, "check": run_check}[config.command]
        return run(config)
    except (
        asm.SolverError,
        asm.AssemblyError,
        hl.HhoError,
        pb.BasisError,
        vf.PowerIterationError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f'FAILURE kind=numerical detail="{exc}"', file=sys.stderr)
        return 3
    except (ConfigError, MeshError) as exc:
        print(f'FAILURE kind=config detail="{exc}"', file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f'FAILURE kind=check detail="{exc}"', file=sys.stderr)
        return 1


def run_solve(config):
    mesh = resolve_mesh(config.mesh_source)
    case = vf.CASES[config.case]
    t0 = time.perf_counter()
    system = asm.assemble(mesh, config.k, case.f)
    solution, info = asm.solve(system, method=config.solver)
    # wall time is irreproducible; --determinism promises identical output
    elapsed = 0.0 if config.determinism else time.perf_counter() - t0
    print(f"mesh: {mesh.n_elements} elements, {mesh.n_faces} faces, h = {mesh.h:.6e}")
    print(f"degree k = {config.k}, case = {config.case}, unknowns = {system.dofmap.total}")
    print(f"solver = {info.method}, {info}")
    print(f"solution energy norm = {vf.energy_norm(system.ops, solution):.6e}")
    interp = vf.local_interpolates(mesh, config.k, case.u)
    energy_err = vf.energy_error(system.ops, solution, interp)
    print(f"energy error vs exact interpolate = {energy_err:.6e}")
    print(f"wall time = {elapsed:.3f} s")
    if config.dump_matrix:
        _write(config.dump_matrix, lambda path: asm.dump_matrix(path, system.matrix))
        print(f"matrix dumped to {config.dump_matrix} (nnz = {system.matrix.nnz})")
    return 0


def run_study(config):
    family = vf.build_family(
        config.family, config.levels, frac=config.frac, block=config.block
    )
    report = vf.study(
        family, config.k, config.case, determinism=config.determinism
    )
    csv_text = report.to_csv()
    out = Path(config.out)
    _write(out, lambda path: path.write_text(csv_text))
    _write(out.with_suffix(".md"), lambda path: path.write_text(report.to_markdown()))
    sys.stdout.write(csv_text)
    if report.eoc:
        print(report.eoc_line())
    print(f"wrote {out} and {out.with_suffix('.md')}")
    return 0


def run_check(config):
    mesh = resolve_mesh(config.mesh_source)
    k = config.k
    failures = []

    def report(name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    ops = asm.build_local_operators(mesh, k)
    rng = np.random.default_rng(20240601)

    def draw():
        """(stack, coefficients, interpolates) of one test polynomial per
        element in its reconstruction basis, drawn in element-id order."""
        coeffs = rng.standard_normal((mesh.n_elements, ops[0].recon_basis.dim))
        out = []
        for s in ops:
            c = coeffs[s.elem_id]

            def v(p):
                # the points of each element arrive as one block of the stack
                pts = p.reshape(len(c), -1, 2)
                return np.einsum("bpi,bi->bp", s.recon_basis.eval(pts), c).ravel()

            out.append((s, c, hl.interpolate(mesh, s.elem_id, k, v)))
        return out

    worst = 0.0
    polynomials = draw()
    for s, c, vec in polynomials:
        got = (s.recon @ vec[..., None])[..., 0]
        defect = np.linalg.norm(got - c, axis=1) / np.linalg.norm(c, axis=1)
        worst = max(worst, defect.max())
    report("polynomial-consistency", worst <= 1e-10, f"max relative defect {worst:.2e}")

    # |S v| against the element's energy scale: S itself is roundoff where
    # P^{k+1} fills the local space (triangles at k = 0)
    worst = 0.0
    for s, c, vec in draw():
        denom = np.linalg.norm(s.stiff, 2, axis=(1, 2)) * np.linalg.norm(vec, axis=1) + 1e-300
        S = hl._sym(hl._mT(s.stab_factor) @ s.stab_factor)
        defect = np.linalg.norm((S @ vec[..., None])[..., 0], axis=1) / denom
        worst = max(worst, defect.max())
    report("stabilization-consistency", worst <= 1e-10, f"max scaled defect {worst:.2e}")

    # the assembled form on v = I_T p: S v = 0 and P v = c, so stiff v = P^T G c,
    # G the gradient Gram of the reconstruction basis, formed on the cell
    # rule and not from the build's moments.  It reuses the first line's
    # polynomials, so the later lines keep their draws
    worst = 0.0
    for s, c, vec in polynomials:
        points, weights = pb.cell_quadratures(mesh, s.elem_id, 2 * k)
        grads = s.recon_basis.grad(points)
        G = sum(hl._wgram(grads[..., d], weights, grads[..., d]) for d in range(2))
        defect = (s.stiff @ vec[..., None] - hl._mT(s.recon) @ G @ c[..., None])[..., 0]
        denom = np.linalg.norm(s.stiff, 2, axis=(1, 2)) * np.linalg.norm(vec, axis=1) + 1e-300
        worst = max(worst, (np.linalg.norm(defect, axis=1) / denom).max())
    report("stiffness-consistency", worst <= 1e-10, f"max scaled defect {worst:.2e}")

    try:
        report("coercivity-bounds", True, f"max eta {vf.mesh_eta(ops):.3f}")
    except hl.CoercivityViolationError as exc:
        report("coercivity-bounds", False, str(exc))

    case = vf.CASES[config.case]
    fluxes = cl.gradient_fluxes(mesh, case.grad)
    values = np.zeros(mesh.n_faces)
    interior = mesh.interior_face_ids()
    values[interior] = rng.standard_normal(len(interior))
    residual = cl.magic_residual(mesh, fluxes, values)
    scale = cl.magic_scale(mesh, fluxes, values) + 1e-300
    report("flux-cancellation", abs(residual) <= 1e-12 * scale,
           f"relative residual {abs(residual) / scale:.2e}")

    system = asm.assemble(mesh, k, case.f, ops=ops)
    # three faces: three corners and no hanging vertex
    if (np.diff(mesh.elements.face_ptr) == 3).all():
        import scipy.sparse as sp

        system0 = system if k == 0 else asm.assemble(mesh, 0, case.f)
        cr = cl.cr_assemble(mesh, case.f)
        rel = sp.linalg.norm(system0.matrix - cr.matrix) / sp.linalg.norm(cr.matrix)
        report("cr-equality", rel <= 1e-12, f"relative Frobenius gap {rel:.2e}")
    else:
        print("SKIP cr-equality: mesh is not a conforming triangulation")

    if system.dofmap.total:
        try:
            cp, iters = vf.poincare_constant(system)
            report("poincare", np.isfinite(cp) and cp > 0,
                   f"C_P {cp:.4f} in {iters} iterations")
        except vf.PowerIterationError as exc:
            report("poincare", False, str(exc))
    else:
        print("SKIP poincare: no unknowns on this mesh")

    if failures:
        raise CheckFailure(", ".join(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they are produced.

The convergence studies (criteria 1, 4, 7, 8, 11, 12 share them) run once
per (family, degree) through a session-scoped fixture.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from hho2d import assembly as asm
from hho2d import classics as cl
from hho2d import hho_local as hl
from hho2d import verify as vf
from hho2d.mesh import PolyMesh, generate

LEVELS = (4, 8, 16, 32)
FAMILIES = ("cartesian", "triangular", "nonconforming")
DEGREES = (0, 1, 2)


def stab_gram(ops):
    """The stabilization Gram S = R^T R of ``ops``, derived from the stored
    factor R by the expression the build adds into the stiffness."""
    return hl._sym(hl._mT(ops.stab_factor) @ ops.stab_factor)


def poly(basis, c):
    """The polynomial sum_i c_i phi_i of a basis stack of one, at points (P, 2)."""
    return lambda p: basis.eval(p[None])[0] @ c


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="session")
def studies():
    out = {}
    for tag in FAMILIES:
        family = vf.build_family(tag, LEVELS)
        for k in DEGREES:
            out[(tag, k)] = vf.study(family, k, "sine")
    return out


# Sub-cases whose exact interpolate lies in the kernel of a nonzero
# stabilization: at k = 0 on squares the only residual of the face means is
# (u_E + u_W) - (u_N + u_S), which sin(pi x) sin(pi y) cancels by its x<->y
# symmetry.  Without its O(h) stabilization part the consistency error on
# squares is O(h^2), so the energy and dual slopes rise from k + 1 = 1 to 2.
# "In the kernel" means the stabilization energy is roundoff against the
# consistency dual norm on every row.  A stabilization that is zero outright
# (triangles at k = 0, where HHO is Crouzeix-Raviart and the slope stays 1)
# does not count.
STAB_KERNEL_RTOL = 1e-8
EXPECTED_STAB_KERNEL = {("cartesian", 0)}


@pytest.fixture(scope="session")
def stab_kernel(studies):
    kernel = set()
    for (tag, k), report in studies.items():
        if not all(
            row.stab_consist <= STAB_KERNEL_RTOL * row.consist_dual
            for row in report.rows
        ):
            continue
        coarse = vf.build_family(tag, LEVELS[:1]).meshes[0]
        if any(
            np.any(np.linalg.norm(stab_gram(op), 2, axis=(1, 2))
                   > 1e-14 * np.linalg.norm(op.stiff, 2, axis=(1, 2)))
            for op in asm.build_local_operators(coarse, k)
        ):
            kernel.add((tag, k))
    return kernel


def _expected_slope(kernel, tag, k, case):
    """Expected EOC of the energy and dual errors, and why if it is not k+1."""
    if (tag, k) in kernel:
        return 2, f", {case} in k={k} stab kernel"
    return k + 1, ""


def _check_kernel(kernel):
    if kernel != EXPECTED_STAB_KERNEL:
        return [
            f"stabilization-kernel sub-cases {sorted(kernel)} != "
            f"{sorted(EXPECTED_STAB_KERNEL)}"
        ]
    return []


# -- criterion 1: convergence rates -----------------------------------------


def test_criterion_01_convergence_rates(studies, stab_kernel):
    failures, details = _check_kernel(stab_kernel), []
    for (tag, k), report in studies.items():
        eoc = report.eoc["energy"]
        expect, why = _expected_slope(stab_kernel, tag, k, report.case)
        runtime = sum(row.seconds for row in report.rows)
        details.append(f"{tag} k={k}: EOC {eoc:.3f} (expect {expect}{why}) ({runtime:.0f}s)")
        if not (expect - 0.15 <= eoc <= expect + 0.15):
            failures.append(f"{tag} k={k}: energy EOC {eoc:.3f} not in {expect} +/- 0.15")
        if runtime >= 120.0:
            failures.append(f"{tag} k={k}: study took {runtime:.1f}s >= 120s")
    _report("01 convergence-rates", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criteria 2 and 3: polygon corpus ----------------------------------------


def random_polygon_corpus(count=50, seed=42):
    """Triangles, squares, and split-side pentagon cells, randomly placed."""
    rng = np.random.default_rng(seed)
    corpus = []
    kinds = (["triangle", "square", "pentagon"] * ((count + 2) // 3))[:count]
    for kind in kinds:
        th = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        scale = rng.uniform(0.4, 2.5)
        shift = rng.uniform(-3, 3, 2)
        place = lambda pts: np.asarray(pts) * scale @ R.T + shift
        if kind == "triangle":
            base = [(0, 0), (1, 0), rng.uniform(0.2, 0.8, 2) + [0, 0.4]]
            corpus.append((PolyMesh(place(base), [[0, 1, 2]]), 0))
        elif kind == "square":
            base = [(0, 0), (1, 0), (1, 1), (0, 1)]
            corpus.append((PolyMesh(place(base), [[0, 1, 2, 3]]), 0))
        else:
            t = rng.uniform(0.25, 0.75)
            verts = place(
                [(0, 0), (1, 0), (2, 0), (2, t), (1, t), (2, 1), (1, 1), (0, 1)]
            )
            loops = [[0, 1, 6, 7], [1, 2, 3, 4], [4, 3, 5, 6]]
            corpus.append((PolyMesh(verts, loops), 0))
    return corpus


def test_criterion_02_polynomial_exactness():
    corpus = random_polygon_corpus()
    rng = np.random.default_rng(7)
    rank_failures = 0
    worst = 0.0
    for mesh, elem in corpus:
        for k in (0, 1, 2, 3):
            try:
                ops = hl.local_operators(mesh, [elem], k)
            except hl.HhoError:
                rank_failures += 1
                continue
            c = rng.standard_normal(ops.recon_basis.dim)
            got = ops.recon[0] @ hl.interpolate(mesh, [elem], k, poly(ops.recon_basis, c))[0]
            worst = max(worst, np.linalg.norm(got - c) / np.linalg.norm(c))
    ok = worst <= 1e-10 and rank_failures == 0
    _report(
        "02 polynomial-exactness",
        ok,
        f"50 polygons x k in 0..3: max defect {worst:.2e}, rank failures {rank_failures}",
    )
    assert ok


def test_criterion_03_stabilization_consistency():
    corpus = random_polygon_corpus()
    rng = np.random.default_rng(11)
    worst = 0.0
    for mesh, elem in corpus:
        for k in (0, 1, 2):
            ops = hl.local_operators(mesh, [elem], k)
            c = rng.standard_normal(ops.recon_basis.dim)
            (flat,) = hl.interpolate(mesh, [elem], k, poly(ops.recon_basis, c))
            (S,) = stab_gram(ops)
            s_norm = np.linalg.norm(S, 2)
            if s_norm <= 1e-14 * np.linalg.norm(ops.stiff[0], 2):
                continue  # triangles at k = 0: stabilization is exactly zero
            worst = max(
                worst,
                np.linalg.norm(S @ flat) / (s_norm * np.linalg.norm(flat)),
            )
    ok = worst <= 1e-10
    _report("03 stabilization-polynomial-consistency", ok, f"max scaled defect {worst:.2e}")
    assert ok


# -- criterion 4: coercivity constant stability -------------------------------


def test_criterion_04_eta_stability(studies):
    failures, details = [], []
    for (tag, k), report in studies.items():
        etas = [row.eta for row in report.rows]
        ratio = max(etas) / min(etas)
        details.append(f"{tag} k={k}: max eta {max(etas):.2f} (x{ratio:.2f})")
        if ratio > 3.0:
            failures.append(f"{tag} k={k}: eta varies by {ratio:.2f} > 3")
    _report("04 coercivity-stability", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criterion 5: Crouzeix-Raviart link ---------------------------------------


def test_criterion_05_cr_link():
    worst = 0.0
    for n in (2, 4, 8):
        mesh = generate("triangular", n)
        cr = cl.cr_assemble(mesh, vf.CASES["sine"].f)
        hho = asm.assemble(mesh, 0, vf.CASES["sine"].f)
        rel = sp.linalg.norm(hho.matrix - cr.matrix) / sp.linalg.norm(cr.matrix)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _report("05 cr-link", ok, f"max relative Frobenius gap {worst:.2e} over n in (2,4,8)")
    assert ok


# -- criterion 6: flux cancellation -------------------------------------------


def test_criterion_06_magic_formula():
    rng = np.random.default_rng(3)
    checks = []

    tau = lambda p: np.column_stack(
        [np.sin(p[:, 1]) + p[:, 0] ** 2, np.cos(p[:, 0]) + p[:, 1] ** 3]
    )
    for n in (4, 8):
        mesh = generate("triangular", n)
        fluxes = cl.rtn_interpolate(mesh, tau).normal_fluxes()
        vals = np.zeros(mesh.n_faces)
        interior = mesh.interior_face_ids()
        vals[interior] = rng.standard_normal(len(interior))
        r = cl.magic_residual(mesh, fluxes, vals)
        s = cl.magic_scale(mesh, fluxes, vals)
        checks.append(("rtn", abs(r) <= 1e-12 * s, abs(r) / s))

    grad = vf.CASES["sine"].grad
    for mesh in (vf.nonconforming_mesh(4), vf.agglomerated_mesh(8, 2)):
        fluxes = cl.gradient_fluxes(mesh, grad)
        vals = np.zeros(mesh.n_faces)
        interior = mesh.interior_face_ids()
        vals[interior] = rng.standard_normal(len(interior))
        r = cl.magic_residual(mesh, fluxes, vals)
        s = cl.magic_scale(mesh, fluxes, vals)
        checks.append(("gradient", abs(r) <= 1e-12 * s, abs(r) / s))

    mesh = generate("triangular", 2)
    fluxes = cl.rtn_interpolate(mesh, tau).normal_fluxes()
    vals = np.zeros(mesh.n_faces)
    interior = mesh.interior_face_ids()
    vals[interior] = rng.standard_normal(len(interior))
    loops = np.split(mesh.elements.face_ids, mesh.elements.face_ptr[1:-1])
    e = next(
        e for e, fids in enumerate(loops)
        if any(mesh.faces.elems[f, 1] >= 0 for f in fids)
    )
    iloc = next(i for i, f in enumerate(loops[e]) if mesh.faces.elems[f, 1] >= 0)
    fid = int(loops[e][iloc])
    bad = [f.copy() for f in fluxes]
    bad[e][iloc] *= -1.0
    r_bad = cl.magic_residual(mesh, bad, vals)
    expected = -2.0 * mesh.faces.length[fid] * fluxes[e][iloc] * vals[fid]
    detected = abs(r_bad) > 1e-8 and np.isclose(r_bad, expected, rtol=1e-12)
    checks.append(("negative-control", detected, abs(r_bad)))

    ok = all(c[1] for c in checks)
    _report(
        "06 magic-formula",
        ok,
        "; ".join(f"{name} {'ok' if good else 'BAD'} ({val:.2e})" for name, good, val in checks),
    )
    assert ok


# -- criterion 7: discrete Poincare stability ---------------------------------


def test_criterion_07_poincare(studies):
    failures, details = [], []
    for (tag, k), report in studies.items():
        cps = [row.cp for row in report.rows]
        iters = [row.poincare_iters for row in report.rows]
        ratio = max(cps) / min(cps)
        details.append(f"{tag} k={k}: C_P {max(cps):.3f} (x{ratio:.2f}, <= {max(iters)} its)")
        if ratio >= 1.5:
            failures.append(f"{tag} k={k}: C_P varies by {ratio:.2f} >= 1.5")
        if max(iters) >= 5000:
            failures.append(f"{tag} k={k}: power iteration hit the cap")
    # the Cartesian k=1 constants are additionally expected below 1 here
    cart = [row.cp for row in studies[("cartesian", 1)].rows]
    if max(cart) > 1.0:
        failures.append(f"cartesian k=1: C_P {max(cart):.3f} > 1")
    _report("07 poincare-stability", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criterion 8: consistency-error sandwich -----------------------------------


def test_criterion_08_consistency_sandwich(studies, stab_kernel):
    failures, details = _check_kernel(stab_kernel), []
    for (tag, k), report in studies.items():
        for row in report.rows:
            lo = row.consist_dual / row.eta
            hi = row.eta * row.consist_dual
            if not (lo <= row.energy_err * (1 + 1e-12) and row.energy_err <= hi * (1 + 1e-12)):
                failures.append(
                    f"{tag} k={k} h={row.h:.3e}: sandwich violated "
                    f"({lo:.3e} <= {row.energy_err:.3e} <= {hi:.3e})"
                )
        eoc = report.eoc["consist"]
        expect, why = _expected_slope(stab_kernel, tag, k, report.case)
        details.append(f"{tag} k={k}: dual EOC {eoc:.3f} (expect {expect}{why})")
        if not (expect - 0.2 <= eoc <= expect + 0.2):
            failures.append(
                f"{tag} k={k}: consistency EOC {eoc:.3f} not in {expect} +/- 0.2"
            )
    _report("08 consistency-sandwich", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criterion 9: stabilization consistency rate -------------------------------


def test_criterion_09_stab_consistency_rate():
    failures, details = [], []
    family = vf.build_family("rectangles", LEVELS)
    for k in DEGREES:
        eoc, _, values = vf.stab_consistency_rate(family, k, "sine")
        details.append(f"k={k}: EOC {eoc:.3f}")
        if not (k + 1 - 0.2 <= eoc <= k + 1 + 0.2):
            failures.append(f"k={k}: stabilization EOC {eoc:.3f} not in {k+1} +/- 0.2")
        if min(values) <= 0:
            failures.append(f"k={k}: degenerate stabilization energies {values}")
    _report("09 stabilization-consistency-rate", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criterion 10: projector rates ---------------------------------------------


def test_criterion_10_projector_rates():
    failures, details = [], []
    family = vf.build_family("cartesian", (2, 4, 8, 16))
    for degree in DEGREES:
        suite = vf.projector_rate_suite(family, degree, "sine")
        details.append(
            f"l={degree}: cell {suite['cell_l2']:.2f}, trace {suite['weighted_trace']:.2f}, "
            f"energy-boundary {suite['elliptic_boundary_gradient']:.2f}"
        )
        if abs(suite["cell_l2"] - (degree + 1)) > 0.2:
            failures.append(f"l={degree}: cell L2 EOC {suite['cell_l2']:.3f}")
        if abs(suite["weighted_trace"] - (degree + 1)) > 0.2:
            failures.append(f"l={degree}: weighted trace EOC {suite['weighted_trace']:.3f}")
        if abs(suite["elliptic_boundary_gradient"] - (degree + 1)) > 0.2:
            failures.append(
                f"k={degree}: boundary-gradient EOC {suite['elliptic_boundary_gradient']:.3f}"
            )
    _report("10 projector-rates", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criterion 11: a priori bound -----------------------------------------------


def test_criterion_11_apriori_bound(studies):
    failures, details = [], []
    for (tag, k), report in studies.items():
        margins = [
            row.uh_energy_norm / (row.eta * row.cp * row.f_l2) for row in report.rows
        ]
        details.append(f"{tag} k={k}: max margin {max(margins):.3f}")
        for row, margin in zip(report.rows, margins):
            if margin > 1.0:
                failures.append(
                    f"{tag} k={k} h={row.h:.3e}: |u_h| exceeds eta*C_P*|f| by {margin:.3f}"
                )
    _report("11 apriori-bound", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)


# -- criterion 12: static condensation ------------------------------------------


def test_criterion_12_static_condensation(studies):
    failures, details = [], []
    for (tag, k), report in studies.items():
        if k < 1:
            continue
        worst = max(row.condensed_rel_diff for row in report.rows)
        details.append(f"{tag} k={k}: max rel diff {worst:.2e}")
        for row in report.rows:
            if not row.condensed_rel_diff <= 1e-11:
                failures.append(
                    f"{tag} k={k} h={row.h:.3e}: condensed diff {row.condensed_rel_diff:.2e}"
                )
            if row.reduced_dofs != row.n_face_dofs:
                failures.append(
                    f"{tag} k={k} h={row.h:.3e}: reduced size {row.reduced_dofs} "
                    f"!= face dofs {row.n_face_dofs}"
                )
    _report("12 static-condensation", not failures, "; ".join(details))
    assert not failures, "\n".join(failures)

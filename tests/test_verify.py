import dataclasses

import numpy as np
import pytest

from hho2d import assembly as asm
from hho2d import mesh as hm
from hho2d import classics as cl
from hho2d import polybasis as pb
from hho2d import verify as vf
from hho2d.mesh import MeshError, generate


def element_views(mesh, stacks):
    """(element, its operators) for every member of the operator stacks."""
    return [(mesh.elements[e], s[b]) for s in stacks for b, e in enumerate(s.elem_id)]


def test_cases_satisfy_their_pde():
    # forced pairs: -lap(u) = f, checked by finite differences
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.1, 0.9, (40, 2))
    eps = 1e-5
    for case in vf.CASES.values():
        lap = np.zeros(len(pts))
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            lap += (case.u(pts + shift) - 2 * case.u(pts) + case.u(pts - shift)) / eps**2
        assert -lap == pytest.approx(case.f(pts), abs=1e-5 * (1 + np.abs(case.f(pts)).max()))
        # gradient consistency
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            fd = (case.u(pts + shift) - case.u(pts - shift)) / (2 * eps)
            assert fd == pytest.approx(case.grad(pts)[:, d], abs=1e-8 + 1e-6 * np.abs(fd).max())


def test_cases_vanish_on_boundary():
    t = np.linspace(0, 1, 33)
    for case in vf.CASES.values():
        for edge in (
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([t, np.ones_like(t)]),
            np.column_stack([np.zeros_like(t), t]),
            np.column_stack([np.ones_like(t), t]),
        ):
            assert np.abs(case.u(edge)).max() <= 1e-14


def test_family_builders():
    fam = vf.build_family("nonconforming", [4, 8])
    assert fam.tag == "nonconforming"
    assert fam.meshes[0].h == pytest.approx(np.sqrt(2) / 4)
    assert any(el.n_faces > 4 for el in fam.meshes[0].elements)
    rect = vf.rectangle_mesh(4)
    assert rect.n_elements == 8
    agg = vf.agglomerated_mesh(8, 2)
    assert agg.total_area == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(MeshError, match="unknown family tag"):
        vf.build_family("unknown", [2])
    with pytest.raises(MeshError, match="block"):
        vf.agglomerated_mesh(6, 2)
    for block in (0, -2):
        with pytest.raises(MeshError, match="^agglomeration block must be >= 1$"):
            vf.build_family("agglomerated", [8], block=block)
    with pytest.raises(MeshError, match="even"):
        vf.rectangle_mesh(3)


@pytest.mark.parametrize("frac", [0.0, -1.0, 5.0, 1.0 + 1e-12, float("nan"), float("inf")])
def test_nonconforming_fraction_is_checked(frac):
    with pytest.raises(MeshError, match=r"^nonconforming fraction must be in \(0, 1\]$"):
        vf.nonconforming_mesh(4, frac)
    with pytest.raises(MeshError, match=r"^nonconforming fraction must be in \(0, 1\]$"):
        vf.build_family("nonconforming", [4], frac=frac)


def test_energy_error_zero_for_interpolate():
    mesh = generate("cartesian", 2)
    system = asm.assemble(mesh, 1, vf.CASES["sine"].f)
    interp = vf.local_interpolates(mesh, 1, vf.CASES["sine"].u)
    iu = vf.interpolate_global(system, interp)
    # sin(pi * 1.0) is ~1e-16, so boundary-face blocks differ by roundoff
    assert vf.energy_error(system.ops, iu, interp) <= 1e-13


def test_consistency_vanishes_for_global_polynomial():
    # bubble is degree 4, so k = 3 reproduces it exactly and the
    # consistency functional collapses to quadrature noise
    case = vf.CASES["bubble"]
    mesh = generate("cartesian", 2)
    system = asm.assemble(mesh, 3, case.f)
    gram = asm.NormGram(system)
    interp = vf.local_interpolates(mesh, 3, case.u)
    moments = vf.consistency_moments(system, interp)
    iu = vf.interpolate_global(system, interp)
    scale = vf.energy_norm(system.ops, iu)
    assert gram.riesz_dual_norm(moments) <= 1e-9 * scale


def test_stab_energy_vanishes_for_global_polynomial():
    case = vf.CASES["bubble"]
    mesh = vf.nonconforming_mesh(2)
    ops = asm.build_local_operators(mesh, 3)
    interp = vf.local_interpolates(mesh, 3, case.u)
    assert vf.stab_energy(ops, interp) <= 1e-9



def test_sine_lies_in_k0_stab_kernel_on_squares_only():
    # At k = 0 a square's only stabilization residual is (u_E + u_W) -
    # (u_N + u_S) of the face means; sin(pi x) sin(pi y) cancels it by its
    # x<->y symmetry.  Another function or another cell shape does not.
    def energy(mesh, case):
        ops = asm.build_local_operators(mesh, 0)
        return vf.stab_energy(ops, vf.local_interpolates(mesh, 0, vf.CASES[case].u))

    for n in (2, 4, 8):
        assert energy(generate("cartesian", n), "sine") <= 1e-13
        assert energy(vf.rectangle_mesh(n), "sine") >= 1e-2
        # the 2x2 grid has the bubble's own symmetries and cancels it too
        if n > 2:
            assert energy(generate("cartesian", n), "bubble") >= 1e-4

def test_eoc_fit():
    hs = [0.4, 0.2, 0.1, 0.05]
    errs = [4 * h**2 for h in hs]
    assert vf.eoc_fit(hs, errs) == pytest.approx(2.0, abs=1e-12)
    assert np.isnan(vf.eoc_fit(hs, [0, 0, 0, 0]))
    incr = vf.incremental_eoc(hs, errs)
    assert np.isnan(incr[0])
    assert incr[1:] == pytest.approx([2.0, 2.0, 2.0])


def test_poincare_constant_of_an_empty_system():
    # one cell at k = 0: every face is on the boundary, no unknowns
    system = asm.assemble(generate("cartesian", 1), 0, vf.CASES["sine"].f)
    assert system.dofmap.total == 0
    with pytest.raises(asm.AssemblyError, match="empty system"):
        vf.poincare_constant(system)


def l_shaped_mesh():
    """cartesian:4 without its top-right quadrant: 12 squares."""
    xy = np.linspace(0.0, 1.0, 5)
    vertices = [(x, y) for y in xy for x in xy]
    loops = [[5 * j + i, 5 * j + i + 1, 5 * (j + 1) + i + 1, 5 * (j + 1) + i]
             for j in range(4) for i in range(4) if i < 2 or j < 2]
    return hm.PolyMesh(vertices, loops)


ORACLE_MESHES = {
    **{tag: lambda tag=tag: vf.build_family(tag, [4]).meshes[0]
       for tag in ("cartesian", "triangular", "nonconforming", "agglomerated", "rectangles")},
    "lshape": l_shaped_mesh,
}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(ORACLE_MESHES))
def test_poincare_constant_identity_oracle(name, k):
    # brute-force oracle on a small mesh: dense generalized eigenproblem
    mesh = ORACLE_MESHES[name]()
    system = asm.assemble(mesh, k, vf.CASES["sine"].f)
    gram = asm.NormGram(system)
    cp, iters = vf.poincare_constant(system, norm_gram=gram)
    import scipy.linalg

    M = vf.l2_mass_matrix(system).toarray()
    N = gram.matrix.toarray()
    lam = scipy.linalg.eigh(M, N, eigvals_only=True)
    assert cp == pytest.approx(np.sqrt(lam[-1]), rel=1e-8)
    assert iters < 5000


def test_poincare_cr_identification():
    # k = 0 on conforming triangles is the classical nonconforming space
    values = []
    for n in (2, 4, 8):
        mesh = generate("triangular", n)
        system = asm.assemble(mesh, 0, vf.CASES["sine"].f)
        cp, _ = vf.poincare_constant(system)
        values.append(cp)
        assert np.isfinite(cp) and cp > 0
    assert max(values) / min(values) < 1.5
    assert max(values) <= 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_cr_stability_bound_via_measured_poincare(n):
    # discrete a priori bound: |grad u_h| <= C_P |f| with measured constant
    case = vf.CASES["bubble"]
    mesh = generate("triangular", n)
    cr = cl.cr_assemble(mesh, case.f)
    vals = cr.solve()
    energy = 0.0
    for el in mesh.elements:
        (grads,) = cl.cr_basis_gradients(mesh, [el.id])
        gh = vals[el.face_ids] @ grads
        energy += el.area * (gh @ gh)
    energy = np.sqrt(energy)
    system = asm.assemble(mesh, 0, case.f)
    cp, _ = vf.poincare_constant(system)
    f_l2 = vf.l2_norms(system, asm.solve(system)[0], case)[1]
    assert energy <= cp * f_l2 * (1 + 1e-10)


def test_study_report_schema():
    fam = vf.build_family("cartesian", [2, 4, 8])
    report = vf.study(fam, 0, "sine")
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "family,k,h,n_dofs,energy_err,eoc,consist_dual,stab_consist,CP,eta,seconds"
    assert len(lines) == 4
    assert lines[1].startswith("cartesian,0,")
    md = report.to_markdown()
    assert md.startswith("| family |")
    assert "fitted EOC" in md
    assert set(report.eoc) == {"energy", "consist", "stab", "l2"}
    for row in report.rows:
        assert row.solver_residual <= 1e-12
        assert row.n_dofs > 0
        assert row.seconds >= 0


def test_study_interpolates_once_per_element_per_row(monkeypatch):
    from hho2d import hho_local as hl

    calls = []
    interpolate = hl.interpolate

    def counting(mesh, elem_id, k, v, order=None):
        calls.append((id(mesh), sorted(np.atleast_1d(elem_id).tolist())))
        return interpolate(mesh, elem_id, k, v, order=order)

    monkeypatch.setattr(hl, "interpolate", counting)
    fam = vf.build_family("nonconforming", [2, 4])
    vf.study(fam, 1, "sine")
    # each element exactly once per row ...
    interpolated = sorted((m, e) for m, ids in calls for e in ids)
    assert interpolated == sorted((id(mesh), el.id) for mesh in fam for el in mesh.elements)
    # ... in one stacked call per element stack
    batches = [(id(mesh), ids.tolist()) for mesh in fam for ids in mesh.stacks(1)]
    assert len(batches) < sum(mesh.n_elements for mesh in fam)
    assert sorted(calls) == sorted(batches)


def test_study_rows_satisfy_apriori_and_sandwich():
    fam = vf.build_family("triangular", [2, 4])
    report = vf.study(fam, 1, "sine")
    for row in report.rows:
        assert row.uh_energy_norm <= row.eta * row.cp * row.f_l2
        assert row.consist_dual / row.eta <= row.energy_err * (1 + 1e-12)
        assert row.energy_err <= row.eta * row.consist_dual * (1 + 1e-12)
        assert row.condensed_rel_diff <= 1e-11


def test_reconstructed_solution_converges_to_exact():
    # independent end-to-end oracle: rebuild the degree-(k+1) potential from
    # the solved unknowns and compare its gradient with the analytic one
    case = vf.CASES["sine"]
    errs, hs = [], []
    for n in (4, 8, 16):
        mesh = generate("cartesian", n)
        system = asm.assemble(mesh, 1, case.f)
        solution, _ = asm.solve(system)
        err2 = 0.0
        for el, op in element_views(mesh, system.ops):
            coeff = op.recon[0] @ solution.local_flat([el.id])[0]
            points, (weights,) = pb.cell_quadratures(mesh, [el.id], 8)
            gh = np.einsum("pid,i->pd", op.recon_basis.grad(points)[0], coeff)
            diff = case.grad(points[0]) - gh
            err2 += np.einsum("pd,p,pd->", diff, weights, diff)
        errs.append(np.sqrt(err2))
        hs.append(mesh.h)
    assert vf.eoc_fit(hs, errs) == pytest.approx(2.0, abs=0.2)


def test_solver_unchanged_through_mesh_serialization():
    from hho2d.mesh import dump_mesh, load_mesh

    case = vf.CASES["bubble"]
    mesh = vf.nonconforming_mesh(3, 0.34)
    reloaded = load_mesh(dump_mesh(mesh))
    s1 = asm.assemble(mesh, 1, case.f)
    s2 = asm.assemble(reloaded, 1, case.f)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.rhs, s2.rhs)
    u1, _ = asm.solve(s1)
    u2, _ = asm.solve(s2)
    assert np.array_equal(u1.data, u2.data)


def test_projector_rate_suite_smoke():
    fam = vf.build_family("cartesian", [2, 4, 8])
    suite = vf.projector_rate_suite(fam, 1, "sine")
    assert suite["cell_l2"] == pytest.approx(2.0, abs=0.2)
    assert suite["weighted_trace"] == pytest.approx(2.0, abs=0.2)
    assert suite["elliptic_boundary_gradient"] == pytest.approx(2.0, abs=0.25)


def test_projector_rates_on_general_shapes():
    # hanging-node pentagons and mixed-size blocks, not just squares
    fam = vf.build_family("nonconforming", [2, 4, 8])
    suite = vf.projector_rate_suite(fam, 1, "sine")
    assert suite["cell_l2"] == pytest.approx(2.0, abs=0.25)
    assert suite["elliptic_boundary_gradient"] == pytest.approx(2.0, abs=0.3)


def _polynomial_case(degree):
    rng = np.random.default_rng(degree)
    exps = [(d - b, b) for d in range(degree + 1) for b in range(d + 1)]
    coef = rng.standard_normal(len(exps))

    def u(p):
        return sum(c * p[:, 0] ** a * p[:, 1] ** b for c, (a, b) in zip(coef, exps))

    return vf.ManufacturedCase(f"poly{degree}", u, None, None, "polynomial")


def test_stab_consistency_polynomial_st2():
    # the stabilization annihilates interpolates of degree-(k+1) polynomials
    fam = vf.build_family("nonconforming", [2, 4])
    for k in (0, 1, 2, 3):
        _, _, values = vf.stab_consistency_rate(fam, k, _polynomial_case(k + 1))
        assert max(values) <= 1e-9
    # bubble is degree 4: exactly reproducible at k = 3
    _, _, values = vf.stab_consistency_rate(fam, 3, "bubble")
    assert max(values) <= 1e-9


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_study_totals_do_not_depend_on_the_stack_cut(k, monkeypatch):
    # 16 face slots, 16 (k + 1) face unknowns, cut every group into stacks
    # of 1 to 5 elements; the lone elements are the same as under the
    # default budget, since a one-element stack takes BLAS's one-row path
    # in the moment Grams
    default = hm.STACK_FACE_DOFS

    def totals(budget):
        monkeypatch.setattr(hm, "STACK_FACE_DOFS", budget)
        out = []
        for tag in ("nonconforming", "triangular", "agglomerated"):
            family = vf.build_family(tag, (4, 8))
            assert budget == default or len(family.meshes[-1].stacks(k)) > 8
            for row in vf.study(family, k, "sine").rows:
                out.append({n: repr(v) for n, v in dataclasses.asdict(row).items()
                            if n != "seconds"})
            suite = vf.projector_rate_suite(family, k, "sine")
            out.append({n: repr(suite[n]) for n in ("cell_errors", "trace_errors",
                                                     "egrad_errors")})
        return out

    assert totals(16 * (k + 1)) == totals(default)


def test_a_study_row_gathers_each_stack_once(monkeypatch):
    # the corner, face and dof-index rows of a stack are gathered once, when
    # its mesh or dof map is built; a row builds one cell rule per stack for
    # the loads, one for the interpolation and one for both L2 measures
    text = hm.dump_mesh(vf.nonconforming_mesh(8))
    rows, rules = {}, []

    def counted_rows(ptr, ids):
        rows[id(ptr)] = rows.get(id(ptr), 0) + 1
        return real_rows(ptr, ids)

    def counted_rules(mesh, ids, order):
        rules.append(order)
        return real_rules(mesh, ids, order)

    real_rows, real_rules = hm._rows, pb.cell_quadratures
    monkeypatch.setattr(hm, "_rows", counted_rows)
    monkeypatch.setattr(asm, "_rows", counted_rows)
    monkeypatch.setattr(pb, "cell_quadratures", counted_rules)
    mesh = hm.load_mesh(text)
    vf.study(hm.MeshFamily(tag="nonconforming", meshes=[mesh]), 1, "sine")
    n_stacks = len(mesh.stacks(1))
    assert len(rows) == 3 and max(rows.values()) <= n_stacks, rows
    assert len(rules) <= 3 * n_stacks and sorted(set(rules)) == [6, 8]

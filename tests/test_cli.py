import re
import tracemalloc

import numpy as np
import pytest

from hho2d import assembly as asm
from hho2d import cli
from hho2d.mesh import dump_mesh, generate


def test_resolve_mesh_generators():
    assert cli.resolve_mesh("cartesian:3").n_elements == 9
    assert cli.resolve_mesh("triangular:2").n_elements == 8
    nc = cli.resolve_mesh("nonconf:4:0.25")
    assert nc.n_elements > 16
    ag = cli.resolve_mesh("agglo:8:2")
    assert ag.total_area == pytest.approx(1.0, abs=1e-15)


def test_resolve_mesh_from_file(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text(dump_mesh(generate("cartesian", 2)))
    assert cli.resolve_mesh(str(path)).n_elements == 4


def test_resolve_mesh_errors():
    with pytest.raises(cli.ConfigError):
        cli.resolve_mesh("cartesian:0")
    with pytest.raises(cli.ConfigError):
        cli.resolve_mesh("definitely-not-a-file")
    with pytest.raises(cli.ConfigError):
        cli.resolve_mesh("nonconf:4:1.5")


def test_run_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="solve", k=5)
    # both degree guards read K_MAX, and keep their texts
    k = asm.K_MAX + 1
    with pytest.raises(cli.ConfigError) as exc:
        cli.RunConfig(command="solve", k=k)
    assert str(exc.value) == "degree k must be in {0,1,2,3}, got 4"
    with pytest.raises(asm.AssemblyError) as exc:
        asm.build_dof_map(generate("cartesian", 1), k)
    assert str(exc.value) == "polynomial degree must be in {0, 1, 2, 3}"
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="solve", case="nope")
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="study", levels=(0, 2))


def test_solve_command(capsys):
    code = cli.main(["solve", "--mesh", "cartesian:4", "--k", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "relative residual" in out
    assert "energy error" in out
    args = ["solve", "--mesh", "cartesian:4", "--k", "1", "--determinism"]
    outs = [(cli.main(args), capsys.readouterr().out) for _ in range(2)]
    assert outs[0] == outs[1]
    assert "wall time = 0.000 s" in outs[0][1]


@pytest.mark.parametrize("solver, factors", [("direct", 1), ("cg", 0)])
def test_solve_factors_only_the_system_matrix(monkeypatch, capsys, solver, factors):
    # the energy norm is summed over the element stacks: no Gram is factored
    calls = []
    factor = cli.asm._factor
    monkeypatch.setattr(cli.asm, "_factor", lambda A: calls.append(A.shape) or factor(A))
    assert cli.main(["solve", "--mesh", "nonconf:4", "--k", "2", "--solver", solver]) == 0
    assert "solution energy norm" in capsys.readouterr().out
    assert len(calls) == factors


def test_solve_without_unknowns(capsys):
    # one cell at k = 0: every face is on the boundary, the system is empty
    code = cli.main(["solve", "--mesh", "cartesian:1", "--k", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unknowns = 0" in out
    assert "solver = empty" in out
    error = re.search(r"energy error vs exact interpolate = (\S+)", out)
    assert float(error.group(1)) <= 1e-15


def test_solve_with_matrix_dump(tmp_path, capsys):
    dump = tmp_path / "mat.txt"
    code = cli.main(
        ["solve", "--mesh", "triangular:2", "--k", "0", "--dump-matrix", str(dump)]
    )
    assert code == 0
    assert dump.read_text().startswith("%%MatrixMarket")


@pytest.mark.parametrize("case", ["missing-dir", "directory", "dump-missing-dir"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, case):
    missing = tmp_path / "missing"
    if case == "dump-missing-dir":
        path = missing / "m.txt"
        args = ["solve", "--mesh", "cartesian:2", "--k", "1", "--dump-matrix", str(path)]
    else:
        path = missing / "x.csv" if case == "missing-dir" else tmp_path
        args = ["study", "--family", "cartesian", "--levels", "2,4", "--k", "0",
                "--out", str(path)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    reason = "Is a directory" if case == "directory" else "No such file or directory"
    assert err == f"FAILURE kind=config detail=\"cannot write '{path}': {reason}\"\n"
    assert not missing.exists()


def test_study_refuses_a_markdown_out(tmp_path, capsys):
    # the Markdown mirror would overwrite the CSV
    out = tmp_path / "rep.md"
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="study", out=str(out))
    assert cli.main(["study", "--levels", "2", "--k", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"FAILURE kind=config detail=\"--out '{out}'")
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing-dir", "directory", "mirror-directory",
                                  "dump-missing-dir", "dump-directory"])
def test_an_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch, case):
    calls = []
    for module, name in ((cli.vf, "study"), (cli.asm, "assemble")):
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a))
    path = {"missing-dir": tmp_path / "missing" / "x.csv", "directory": tmp_path,
            "mirror-directory": tmp_path / "x.csv", "dump-missing-dir": tmp_path / "missing" / "m.txt",
            "dump-directory": tmp_path}[case]
    (tmp_path / "x.md").mkdir()
    if case.startswith("dump"):
        args = ["solve", "--mesh", "cartesian:2", "--k", "1", "--dump-matrix", str(path)]
    else:
        args = ["study", "--family", "cartesian", "--levels", "4,8,16,32", "--k", "1",
                "--out", str(path)]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    refused = tmp_path / "x.md" if case == "mirror-directory" else path
    assert err.startswith(f"FAILURE kind=config detail=\"cannot write '{refused}'")


@pytest.mark.parametrize("args", [["study", "--family", "cartesian", "--levels", "99999999999999999999"],
                                  ["solve", "--mesh", "cartesian:99999999999", "--k", "0"]])
def test_an_oversized_generator_is_a_config_error(capsys, args):
    # refused from n alone: (n + 1)^2 vertices exceed the int32 index range
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("FAILURE kind=config detail=") and "subdivision count 99999999999" in err
    assert peak < 2**20


def test_check_command_passes(capsys):
    code = cli.main(["check", "--mesh", "cartesian:2", "--k", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS polynomial-consistency" in out
    assert "PASS poincare" in out


def test_check_takes_a_case(capsys, monkeypatch):
    # the flux-cancellation and the assembled loads use the chosen case
    seen = []
    assemble, fluxes = cli.asm.assemble, cli.cl.gradient_fluxes

    def spy_assemble(mesh, k, f, **kwargs):
        seen.append(f)
        return assemble(mesh, k, f, **kwargs)

    def spy_fluxes(mesh, grad, **kwargs):
        seen.append(grad)
        return fluxes(mesh, grad, **kwargs)

    monkeypatch.setattr(cli.asm, "assemble", spy_assemble)
    monkeypatch.setattr(cli.cl, "gradient_fluxes", spy_fluxes)
    code = cli.main(["check", "--mesh", "triangular:2", "--k", "1", "--case", "bubble"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS flux-cancellation" in out and "PASS cr-equality" in out
    bubble = cli.vf.CASES["bubble"]
    assert seen == [bubble.grad, bubble.f, bubble.f]
    assert cli.main(["check", "--mesh", "cartesian:2", "--case", "nope"]) == 2
    assert capsys.readouterr().err.startswith("FAILURE kind=config")


def test_check_on_triangles_includes_cr(capsys):
    code = cli.main(["check", "--mesh", "triangular:2", "--k", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS cr-equality" in out


def test_check_builds_and_assembles_once_at_k0(capsys, monkeypatch):
    # the cr-equality and the poincare steps share one k = 0 system
    calls = {"build": 0, "assemble": 0}
    build, assemble = cli.asm.build_local_operators, cli.asm.assemble

    def spy_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def spy_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli.asm, "build_local_operators", spy_build)
    monkeypatch.setattr(cli.asm, "assemble", spy_assemble)
    cli.main(["check", "--mesh", "triangular:8", "--k", "0"])
    out = capsys.readouterr().out
    assert "PASS cr-equality" in out and "PASS poincare" in out
    assert calls == {"build": 1, "assemble": 1}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_check_on_several_stacks(capsys, k):
    # the face-count stacks of nonconf:4 do not follow element-id order
    assert len(cli.resolve_mesh("nonconf:4").stacks(k)) > 1
    code = cli.main(["check", "--mesh", "nonconf:4", "--k", str(k)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS polynomial-consistency" in out
    assert "PASS stabilization-consistency" in out


def test_check_sees_one_broken_element(monkeypatch, capsys):
    # negative control: one element's reconstruction scaled, deep in a stack
    build = cli.asm.build_local_operators

    def broken(mesh, k):
        ops = build(mesh, k)
        ops[-1].recon[-1] *= 2.0
        return ops

    monkeypatch.setattr(cli.asm, "build_local_operators", broken)
    code = cli.main(["check", "--mesh", "nonconf:4", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL polynomial-consistency" in captured.out
    assert "PASS stabilization-consistency" in captured.out


def test_check_passes_stabilization_on_triangles_at_k0(capsys):
    # S vanishes up to roundoff on triangles at k = 0, and so does S v
    code = cli.main(["check", "--mesh", "triangular:8", "--k", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS stabilization-consistency" in out


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_check_sees_a_stabilization_outside_the_kernel(monkeypatch, capsys, k):
    # negative control: a rank-one term along the cell mean, which no
    # polynomial of degree k + 1 with a nonzero mean escapes, in one element
    build = cli.asm.build_local_operators

    def broken(mesh, k):
        ops = build(mesh, k)
        last = ops[-1]
        # one more factor row, sqrt(|stiff|_2) e0^T on the last element and
        # zero on the others, adds |stiff|_2 e0 e0^T to its S = R^T R
        row = np.zeros((len(last.elem_id), 1, last.n_local))
        row[-1, 0, 0] = np.sqrt(np.linalg.norm(last.stiff[-1], 2))
        last.stab_factor = np.concatenate([last.stab_factor, row], axis=1)
        return ops

    monkeypatch.setattr(cli.asm, "build_local_operators", broken)
    code = cli.main(["check", "--mesh", "nonconf:4", "--k", str(k)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL stabilization-consistency" in out
    assert "PASS polynomial-consistency" in out


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("spec", ["cartesian:4", "nonconf:8", "triangular:4"])
def test_check_sees_an_inconsistent_stiffness(monkeypatch, capsys, spec, k):
    assert cli.main(["check", "--mesh", spec, "--k", str(k)]) == 0
    out = capsys.readouterr().out
    assert "PASS stiffness-consistency" in out and "PASS scale-invariance" in out
    build = cli.hl.local_operators

    # negative control: A = P^T G P + N, the energy-norm Gram in place of
    # S = R^T R; the stabilization-consistency line reads R, which is intact
    def mutant(mesh, ids, k):
        s = build(mesh, ids, k)
        R = s.stab_factor
        s.stiff = cli.hl._sym(s.stiff - cli.hl._mT(R) @ R + s.norm_gram)
        return s

    monkeypatch.setattr(cli.hl, "local_operators", mutant)
    code = cli.main(["check", "--mesh", spec, "--k", str(k)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL stiffness-consistency" in out
    assert "PASS stabilization-consistency" in out and "PASS polynomial-consistency" in out

    # negative control: R h_T^-1, an S = R^T R scaled by h_T^-2, still
    # consistent but not bounded: eta grows by about 1e6 at scale 1e-3
    def unbounded(mesh, ids, k):
        s = build(mesh, ids, k)
        R = s.stab_factor
        s.stab_factor = R / mesh.elements.diameter[s.elem_id, None, None]
        S = cli.hl._mT(s.stab_factor) @ s.stab_factor
        s.stiff = cli.hl._sym(s.stiff - cli.hl._mT(R) @ R + S)
        return s

    monkeypatch.setattr(cli.hl, "local_operators", unbounded)
    code = cli.main(["check", "--mesh", spec, "--k", str(k)])
    out = capsys.readouterr().out
    assert "PASS stiffness-consistency" in out and "PASS stabilization-consistency" in out
    if spec == "triangular:4" and k == 0:
        # no stabilization to scale: HHO is Crouzeix-Raviart there
        assert code == 0 and "PASS scale-invariance" in out
    else:
        assert code == 1
        assert "FAIL scale-invariance" in out


def test_study_command_writes_outputs(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = cli.main(
        [
            "study", "--family", "triangular", "--levels", "2,4,8",
            "--k", "0", "--case", "sine", "--out", str(out_csv),
        ]
    )
    assert code == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == (
        "family,k,h,n_dofs,energy_err,eoc,consist_dual,stab_consist,CP,eta,seconds"
    )
    assert out_csv.with_suffix(".md").exists()
    assert "fitted EOC" in capsys.readouterr().out


def test_study_with_a_level_without_unknowns(tmp_path, capsys):
    # the 1-cell level has no unknowns at k = 0: no Poincare constant there
    out_csv = tmp_path / "report.csv"
    code = cli.main(
        ["study", "--family", "cartesian", "--levels", "1,2,4", "--k", "0",
         "--out", str(out_csv)]
    )
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["0", "4", "24"]
    # its roundoff errors enter no EOC: incremental or fitted
    assert [row[5] for row in rows[:2]] == ["", ""]
    assert float(rows[2][5]) > 0
    fitted = re.findall(r"= (-?\d+\.\d+)", capsys.readouterr().out)
    assert all(float(v) >= 0 for v in fitted)
    assert rows[0][8] == "nan"
    assert all(float(row[8]) > 0 for row in rows[1:])
    first = cli.vf.study(cli.vf.build_family("cartesian", [1, 2]), 0, "sine").rows[0]
    assert np.isnan(first.cp) and first.poincare_iters == 0


def test_study_reports_a_roundoff_stabilization_fit(tmp_path, capsys):
    # the sine interpolate lies in the k = 0 stabilization kernel on squares:
    # its stabilization energy is roundoff on every level, so no slope
    out_csv = tmp_path / "report.csv"
    args = ["study", "--family", "cartesian", "--levels", "1,2,4,8", "--k", "0"]
    assert cli.main(args + ["--out", str(out_csv)]) == 0
    line = (r"^fitted EOC \(finest 3\): energy = 1\.\d{3}, consist = 1\.\d{3}, "
            r"stab = roundoff, l2 = \d\.\d{3}$")
    assert re.search(line, capsys.readouterr().out, re.M)
    assert re.search(line, out_csv.with_suffix(".md").read_text(), re.M)
    report = cli.vf.study(cli.vf.build_family("cartesian", [1, 2, 4, 8]), 0, "sine")
    assert set(report.eoc) == {"energy", "consist", "stab", "l2"}
    assert np.isnan(report.eoc["stab"])
    # where the stabilization energy converges, its slope is printed
    assert cli.main(["study", "--family", "cartesian", "--levels", "2,4,8", "--k", "1",
                     "--out", str(out_csv)]) == 0
    assert re.search(r"stab = 1\.\d{3}, l2", capsys.readouterr().out)


def test_study_deterministic_bytes(tmp_path):
    args = [
        "study", "--family", "cartesian", "--levels", "2,4",
        "--k", "0", "--determinism",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(capsys):
    code = cli.main(["solve", "--mesh", "no-such-generator:4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("FAILURE kind=config")


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_mesh_file_is_a_config_error(tmp_path, capsys, token):
    path = tmp_path / "mesh.txt"
    path.write_text(
        f"POLYMESH2D 1\nVERTICES 4\n0 0\n1 0\n1 {token}\n0 1\n"
        "ELEMENTS 1\n4 0 1 2 3\n"
    )
    code = cli.main(["solve", "--mesh", str(path), "--k", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("FAILURE kind=config")


@pytest.mark.parametrize("vertex", ["99999999999999999999", "-99999999999999999999",
                                    str(2**63)])
def test_vertex_id_past_int64_is_a_config_error(tmp_path, capsys, vertex):
    path = tmp_path / "mesh.txt"
    path.write_text(
        "POLYMESH2D 1\nVERTICES 4\n0 0\n1 0\n1 1\n0 1\n"
        f"ELEMENTS 2\n3 0 1 2\n3 0 2 {vertex}\n"
    )
    code = cli.main(["solve", "--mesh", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith('FAILURE kind=config detail="element 1: vertex id out of range')
    assert "Traceback" not in err


def test_oversized_vertex_count_is_a_config_error(tmp_path, capsys):
    # the count is checked against the rows present: no array of that size
    path = tmp_path / "mesh.txt"
    path.write_text(
        "POLYMESH2D 1\nVERTICES 99999999999999999999\n0 0\n1 0\n1 1\n0 1\n"
        "ELEMENTS 1\n4 0 1 2 3\n"
    )
    code = cli.main(["solve", "--mesh", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == 'FAILURE kind=config detail="line 7: bad coordinate"\n'


@pytest.mark.parametrize("unreadable", ["bad-utf8", "directory"])
def test_unreadable_mesh_source_is_a_config_error(tmp_path, capsys, unreadable):
    path = tmp_path / "mesh.txt"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"POLYMESH2D 1\nVERTICES \xff\n")
    code = cli.main(["solve", "--mesh", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"FAILURE kind=config detail=\"mesh source '{path}': ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, detail",
    [
        (["--family", "agglomerated", "--levels", "4,6", "--block", "2"],
         "agglomerated mesh needs block | n/2"),
        (["--family", "agglomerated", "--block", "0"], "agglomeration block must be >= 1"),
        (["--family", "nonconforming", "--frac", "0"],
         "nonconforming fraction must be in (0, 1]"),
        (["--levels", "4,x"], "bad levels '4,x'"),
    ],
)
def test_bad_study_input_is_a_config_error(tmp_path, capsys, args, detail):
    code = cli.main(["study", "--out", str(tmp_path / "s.csv"), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f'FAILURE kind=config detail="{detail}')


def test_bad_agglomerated_spec_keeps_its_message(capsys):
    assert cli.main(["solve", "--mesh", "agglo:6:2"]) == 2
    assert capsys.readouterr().err == (
        "FAILURE kind=config detail=\"bad generator spec 'agglo:6:2': "
        "agglomerated mesh needs block | n/2\"\n")


@pytest.mark.parametrize("spec", ["agglo:8:0", "agglo:8:-2"])
def test_agglomeration_block_below_one_is_a_config_error(capsys, spec):
    assert cli.main(["solve", "--mesh", spec]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"FAILURE kind=config detail=\"bad generator spec '{spec}': "
        "agglomeration block must be >= 1\"\n")
    assert "Traceback" not in err


def test_bad_degree_exit_code(capsys):
    code = cli.main(["solve", "--mesh", "cartesian:2", "--k", "7"])
    assert code == 2


def test_check_failure_exit_code(monkeypatch, capsys):
    # force one suite to fail by breaking the flux computation
    from hho2d import classics as cl

    def broken_fluxes(mesh, grad):
        return [np.ones(el.n_faces) for el in mesh.elements]

    monkeypatch.setattr(cli.cl, "gradient_fluxes", broken_fluxes)
    code = cli.main(["check", "--mesh", "cartesian:2", "--k", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL flux-cancellation" in captured.out
    assert captured.err.startswith("FAILURE kind=check")


def test_numerical_failure_exit_code(monkeypatch, capsys):
    from hho2d import assembly as asm

    def boom(*args, **kwargs):
        raise asm.SolverError("forced failure", residual=1.0)

    monkeypatch.setattr(cli.asm, "solve", boom)
    code = cli.main(["solve", "--mesh", "cartesian:2", "--k", "1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("FAILURE kind=numerical")


def test_linalg_failure_is_numerical(monkeypatch, capsys):
    # LinAlgError is a ValueError, but not a configuration error
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("forced singular matrix")

    monkeypatch.setattr(cli.asm, "solve", boom)
    code = cli.main(["solve", "--mesh", "cartesian:2", "--k", "1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("FAILURE kind=numerical")

import operator
import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hho2d import assembly as asm
from hho2d import classics as cl
from hho2d import cli
from hho2d import hho_local as hl
from hho2d import mesh as hm
from hho2d import polybasis as pb
from hho2d.mesh import MeshError, generate, refine_nonconforming
from hho2d.verify import CASES, build_family, energy_norm, nonconforming_mesh

SINE = CASES["sine"]


TABLE_MESHES = {
    **{tag: lambda tag=tag: build_family(tag, [8]).meshes[0]
       for tag in ("cartesian", "triangular", "nonconforming", "agglomerated", "rectangles")},
    "refined": lambda: refine_nonconforming(nonconforming_mesh(4), [0, 5, 9]),
}


@pytest.mark.parametrize("name", list(TABLE_MESHES))
def test_stack_tables_equal_the_checked_path(name):
    # a stack of mesh.stacks(k) itself reads its stored table; a copy of it,
    # equal by value, runs the checked path and gets the same rows
    mesh = TABLE_MESHES[name]()
    for k in range(4):
        dofmap = asm.build_dof_map(mesh, k)
        assert [ids for ids, _ in dofmap.stacks] == list(mesh.stacks(k))
        for ids in mesh.stacks(k):
            for lookup in (mesh.corner_rows, mesh.face_rows, dofmap.indices):
                table = lookup(ids)
                assert lookup(ids) is table
                copy = ids.copy()
                same = lookup(copy)
                assert same is not table
                assert same.dtype == table.dtype and same.tobytes() == table.tobytes()
                assert not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0
                copy[-1] = mesh.n_elements
                with pytest.raises(MeshError, match=f"^element {mesh.n_elements} out of range$"):
                    lookup(copy)
    # a pickled mesh is its corner table: loading rebuilds every table
    # read-only with the same bytes, and keeps each stack of every degree
    # paired with its stored rows and fan
    again = pickle.loads(pickle.dumps(mesh))
    tables = lambda m: [m.vertices, *vars(m.faces).values(), *vars(m.elements).values()]
    raw = lambda a: (a.dtype, a.shape, a.tobytes())
    for got, want in zip(tables(again), tables(mesh), strict=True):
        assert not got.flags.writeable
        assert raw(got) == raw(want)
    for k in range(4):
        assert len(again.stacks(k)) == len(mesh.stacks(k))
        for ids, old in zip(again.stacks(k), mesh.stacks(k)):
            assert again.corner_rows(ids) is again.corner_rows(ids)
            assert again.face_rows(ids) is again.face_rows(ids)
            fan = again._stored(ids, slice(3, None), hm._fan, again)
            assert all(map(operator.is_, again._stored(ids, slice(3, None), hm._fan, again), fan))
            for got, want in zip((ids, again.corner_rows(ids), again.face_rows(ids), *fan),
                                 (old, mesh.corner_rows(old), mesh.face_rows(old),
                                  *mesh._stored(old, slice(3, None), hm._fan, mesh))):
                assert not got.flags.writeable
                assert raw(got) == raw(want)


def test_dof_map_counts():
    mesh = generate("cartesian", 2)
    dm = asm.build_dof_map(mesh, 1)
    assert dm == dm and dm != asm.build_dof_map(mesh, 1)  # compared by identity
    assert dm.n_face_dofs == 8
    assert dm.total == 12
    assert asm.build_dof_map(mesh, 0).total == 4


def test_dof_map_single_element_is_empty():
    mesh = generate("cartesian", 1)
    dm = asm.build_dof_map(mesh, 0)
    assert dm.total == 0
    system = asm.assemble(mesh, 0, SINE.f)
    solution, info = asm.solve(system)
    assert solution.data.shape == (0,)
    assert info.residual == 0.0


def test_dof_map_offsets_disjoint():
    mesh = generate("triangular", 3)
    for k in (0, 1, 2):
        dm = asm.build_dof_map(mesh, k)
        seen = np.zeros(dm.total, dtype=int)
        for e in range(mesh.n_elements):
            (idx,) = dm.indices([e])
            seen[idx[idx >= 0]] += 1
        assert seen.min() >= 1  # every dof touched by some element


def test_single_unknown_system_is_exact_division():
    # 2-triangle square at k=0: one interior face, a 1x1 system
    mesh = generate("triangular", 1)
    system = asm.assemble(mesh, 0, SINE.f)
    assert system.dofmap.total == 1
    solution, info = asm.solve(system)
    assert solution.data[0] == pytest.approx(
        system.rhs[0] / system.matrix[0, 0], rel=1e-15
    )
    assert info.residual <= 1e-15


def test_zero_source_gives_zero_solution():
    mesh = generate("cartesian", 3)
    system = asm.assemble(mesh, 1, lambda p: np.zeros(len(p)))
    solution, _ = asm.solve(system)
    assert np.abs(solution.data).max() == 0.0


def test_solve_refuses_an_unknown_method():
    # refused before the shortcuts for an empty system and a zero load
    empty = asm.assemble(generate("cartesian", 1), 0, SINE.f)
    zero = asm.assemble(generate("cartesian", 3), 1, lambda p: np.zeros(len(p)))
    assert empty.dofmap.total == 0 and not zero.rhs.any()
    for system in (empty, zero, asm.assemble(generate("cartesian", 3), 1, SINE.f)):
        with pytest.raises(asm.SolverError, match="^unknown solve method 'bogus'$"):
            asm.solve(system, method="bogus")


def test_matrix_symmetric_and_spd():
    for k in (0, 1, 2):
        mesh = refine_nonconforming(generate("cartesian", 2), [0])
        system = asm.assemble(mesh, k, SINE.f)
        gap = system.matrix - system.matrix.T
        denom = np.abs(system.matrix.data).max()
        assert (np.abs(gap.data).max() if gap.nnz else 0.0) <= 1e-13 * denom
        scipy.linalg.cholesky(system.matrix.toarray())


def backward_error(A, x, b):
    """Normwise backward error |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf)."""
    A = A.toarray()
    inf = np.inf
    return np.linalg.norm(b - A @ x, inf) / (
        np.linalg.norm(A, inf) * np.linalg.norm(x, inf) + np.linalg.norm(b, inf)
    )


def test_solve_contract():
    mesh = generate("cartesian", 4)
    system = asm.assemble(mesh, 1, SINE.f)
    solution, info = asm.solve(system)
    assert info.residual <= 1e-12
    res = np.linalg.norm(system.matrix @ solution.data - system.rhs)
    assert res <= 1e-12 * np.linalg.norm(system.rhs)
    cg_solution, cg_info = asm.solve(system, method="cg")
    assert cg_info.method == "cg"
    assert cg_info.residual <= 1e-11
    assert cg_solution.data == pytest.approx(solution.data, rel=1e-8, abs=1e-12)
    for x, got in ((solution, info), (cg_solution, cg_info)):
        want = backward_error(system.matrix, x.data, system.rhs)
        assert got.backward_error == pytest.approx(want, rel=1e-12)
    assert 0 < info.backward_error <= 1e-15


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_direct_solves_match_dense_cholesky(k):
    mesh = nonconforming_mesh(3)
    system = asm.assemble(mesh, k, SINE.f)
    A = system.matrix.toarray()
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), system.rhs)
    rel = lambda x, y: np.linalg.norm(x - y) / np.linalg.norm(y)
    solution, info = asm.solve(system)
    assert info.method == "direct"
    assert rel(solution.data, ref) <= 1e-12
    if k >= 1:
        condensed = asm.static_condense(system)
        recovered, cinfo = asm.solve_condensed(condensed)
        assert rel(recovered.data, ref) <= 1e-12
        xf = recovered.data[:condensed.n_reduced]
        want = backward_error(condensed.matrix, xf, condensed.rhs)
        assert cinfo.backward_error == pytest.approx(want, rel=1e-12)
    gram = asm.NormGram(system)
    v = np.random.default_rng(k).standard_normal(system.dofmap.total)
    G = scipy.linalg.cho_factor(gram.matrix.toarray())
    assert rel(gram.apply_inverse(v), scipy.linalg.cho_solve(G, v)) <= 1e-12


def test_factor_uses_a_symmetric_ordering():
    # minimum degree on A^T + A fills far less than splu's default COLAMD
    A = asm.assemble(generate("cartesian", 16), 2, SINE.f).matrix
    ours = asm._factor(A)
    default = spla.splu(A.tocsc())
    assert ours.L.nnz + ours.U.nnz < default.L.nnz + default.U.nnz


FAMILY_TAGS = ("cartesian", "triangular", "nonconforming", "agglomerated", "rectangles")


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_every_factored_matrix_is_bitwise_symmetric(monkeypatch, tag, n):
    # _factor hands the CSR arrays to SuperLU as CSC, which is the transpose:
    # every matrix it receives must equal its transpose byte for byte
    factored = []
    factor = asm._factor

    def spy(A):
        factored.append(A)
        return factor(A)

    monkeypatch.setattr(asm, "_factor", spy)
    monkeypatch.setattr(cl, "_factor", spy)
    mesh = build_family(tag, [n]).meshes[0]
    for k in range(4):
        system = asm.assemble(mesh, k, SINE.f)
        asm.solve(system)
        asm.NormGram(system)
        if k >= 1:
            asm.solve_condensed(asm.static_condense(system))
    if tag == "triangular":
        cl.cr_assemble(mesh, SINE.f).solve()
    assert len(factored) == 2 + 3 * 3 + (tag == "triangular")
    for A in factored:
        T = A.T.tocsr()
        T.sort_indices()
        assert A.format == "csr"
        assert np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)
        assert np.array_equal(A.data.view(np.uint64), T.data.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2])
def test_norm_gram_stores_no_zero_and_fills_half_the_stiffness(k):
    # at k >= 1 each element's Gram couples a face with itself and the cell
    # only; factored on that pattern, it fills less than half of what A does
    system = asm.assemble(nonconforming_mesh(8), k, SINE.f)
    gram = asm.NormGram(system)
    assert (gram.matrix.data != 0).all()
    fill = lambda lu: lu.L.nnz + lu.U.nnz
    assert fill(asm._factor(gram.matrix)) < fill(asm._factor(system.matrix)) / 2


def ref_scatter_int64(blocks, n):
    """``_scatter_blocks`` with int64 triplet indices."""
    rows, cols, vals = [], [], []
    for idx, local in blocks:
        idx = idx.astype(np.int64)
        m = idx.shape[-1]
        r, c, v = np.repeat(idx, m, axis=-1), np.tile(idx, m), local.reshape(-1, m * m)
        keep = (r >= 0) & (c >= 0) & (v != 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def test_int32_triplets_scatter_the_bytes_of_int64_ones():
    system = asm.assemble(nonconforming_mesh(4), 2, SINE.f)
    rng = np.random.default_rng(5)
    cases = [
        ([(system.dofmap.indices(op.elem_id), op.stiff) for op in system.ops],
         system.dofmap.total),
        # eliminated dofs and exact zeros, in a block of one element
        ([(np.array([[3, -1, 0, 3]]), rng.standard_normal((1, 4, 4)) * (rng.random((1, 4, 4)) < 0.5))],
         5),
    ]
    for blocks, n in cases:
        got, want = asm._scatter_blocks(blocks, n), ref_scatter_int64(blocks, n)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.indices.dtype == np.int32


def test_direct_failure_raises_solver_error(monkeypatch, capsys):
    mesh = generate("cartesian", 3)
    system = asm.assemble(mesh, 0, SINE.f)

    def broken_splu(*args, **kwargs):
        raise RuntimeError("factorization exploded")

    monkeypatch.setattr(asm.spla, "splu", broken_splu)
    with pytest.raises(asm.SolverError, match="factorization exploded") as err:
        asm.solve(system)
    # no factor, no solution: the residual is that of x = 0
    assert err.value.residual == 1.0
    assert "backward error" in str(err.value)
    assert cli.main(["solve", "--mesh", "cartesian:3", "--k", "0"]) == 3
    assert "FAILURE kind=numerical" in capsys.readouterr().err
    # the condensed solve goes through the same direct path
    condensed = asm.static_condense(asm.assemble(mesh, 1, SINE.f))
    with pytest.raises(asm.SolverError, match="factorization exploded") as err:
        asm.solve_condensed(condensed)
    assert err.value.residual == 1.0


def test_rhs_matches_cell_value_functional():
    # oracle: b . v == integral of f times the piecewise cell value of v
    rng = np.random.default_rng(5)
    for k in (0, 1):
        mesh = generate("cartesian", 2)
        system = asm.assemble(mesh, k, SINE.f)
        v = rng.standard_normal(system.dofmap.total)
        vec = asm.GlobalHhoVector(dofmap=system.dofmap, data=v)
        total = 0.0
        for e, op in [(e, s[b]) for s in system.ops for b, e in enumerate(s.elem_id)]:
            (points,), (weights,) = pb.cell_quadratures(mesh, [e], 2 * k + 4)
            (loc,) = vec.local_flat([e])
            if k >= 1:
                vals = op.cell_basis.eval(points[None])[0] @ loc[: hl.cell_block_dim(k)]
            else:
                vals = np.full(len(weights), op.avg_weights[0] @ loc)
            total += weights @ (SINE.f(points) * vals)
        assert system.rhs @ v == pytest.approx(total, rel=1e-12)


def test_k0_matrix_equals_cr_matrix_rhs_differs():
    mesh = generate("triangular", 4)
    system = asm.assemble(mesh, 0, SINE.f)
    cr = cl.cr_assemble(mesh, SINE.f)
    rel = sp.linalg.norm(system.matrix - cr.matrix) / sp.linalg.norm(cr.matrix)
    assert rel <= 1e-12
    # loads differ: cell-average projection of f vs pointwise f
    assert not np.allclose(system.rhs, cr.rhs, rtol=1e-10)


def test_gather_scatter_roundtrip():
    mesh = generate("cartesian", 3)
    dm = asm.build_dof_map(mesh, 2)
    rng = np.random.default_rng(0)
    vec = asm.GlobalHhoVector(dofmap=dm, data=rng.standard_normal(dm.total))
    back = asm.GlobalHhoVector.zeros(dm)
    counts = np.zeros(dm.total)
    for e in range(mesh.n_elements):
        back.scatter_add([e], vec.local_flat([e]))
        (idx,) = dm.indices([e])
        counts[idx[idx >= 0]] += 1.0
    assert back.data / counts == pytest.approx(vec.data, rel=1e-14)
    # boundary faces always read zero
    (local,) = vec.local_flat([0])
    (rows,) = mesh.face_rows([0])
    nc = hl.cell_block_dim(2)
    for i, fid in enumerate(mesh.elements.face_ids[rows]):
        if mesh.faces.elems[fid, 1] < 0:
            assert np.all(local[nc + 3 * i:nc + 3 * (i + 1)] == 0.0)


def test_assembly_deterministic_bytes():
    mesh = generate("triangular", 3)
    a = asm.assemble(mesh, 1, SINE.f)
    b = asm.assemble(mesh, 1, SINE.f)
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.rhs, b.rhs)


def test_static_condensation_counts_and_agreement():
    mesh = generate("cartesian", 2)
    system = asm.assemble(mesh, 1, SINE.f)
    condensed = asm.static_condense(system)
    assert condensed.n_reduced == 8
    assert system.matrix.nnz >= condensed.matrix.nnz
    full, _ = asm.solve(system)
    recovered, _ = asm.solve_condensed(condensed)
    rel = np.linalg.norm(recovered.data - full.data) / np.linalg.norm(full.data)
    assert rel <= 1e-11


def test_static_condensation_rejects_k0():
    mesh = generate("cartesian", 2)
    system = asm.assemble(mesh, 0, SINE.f)
    with pytest.raises(asm.AssemblyError):
        asm.static_condense(system)


def test_global_coercivity_with_measured_eta():
    mesh = generate("cartesian", 3)
    for k in (0, 1):
        system = asm.assemble(mesh, k, SINE.f)
        gram = asm.NormGram(system)
        eta = max(hl.eta_of(op).max() for op in system.ops)
        rng = np.random.default_rng(k)
        for _ in range(20):
            v = rng.standard_normal(system.dofmap.total)
            a = v @ (system.matrix @ v)
            n = v @ (gram.matrix @ v)
            assert a >= n / eta * (1 - 1e-10)
            assert a <= n * eta * (1 + 1e-10)


def test_riesz_dual_norm():
    mesh = generate("cartesian", 3)
    system = asm.assemble(mesh, 1, SINE.f)
    gram = asm.NormGram(system)
    assert gram.riesz_dual_norm(np.zeros(gram.dofmap.total)) == 0.0
    rng = np.random.default_rng(9)
    v = asm.GlobalHhoVector(gram.dofmap, rng.standard_normal(gram.dofmap.total))
    ell = gram.matrix @ v.data
    assert gram.riesz_dual_norm(ell) == pytest.approx(energy_norm(system.ops, v), rel=1e-12)


def test_matrix_dump(tmp_path):
    mesh = generate("cartesian", 2)
    system = asm.assemble(mesh, 0, SINE.f)
    path = tmp_path / "matrix.txt"
    asm.dump_matrix(path, system.matrix)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("%%MatrixMarket")
    n, m, nnz = (int(t) for t in lines[1].split())
    assert (n, m, nnz) == (4, 4, system.matrix.nnz)
    assert len(lines) == 2 + nnz
    i, j, v = lines[2].split()
    assert int(i) >= 0 and int(j) >= 0
    float(v)


@pytest.mark.parametrize("k", [1.5, "1", 1.0])
def test_a_non_integer_degree_is_refused(k):
    with pytest.raises(asm.AssemblyError) as exc:
        asm.assemble(generate("cartesian", 2), k, SINE.f)
    assert str(exc.value) == "polynomial degree must be in {0, 1, 2, 3}"

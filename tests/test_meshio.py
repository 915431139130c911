import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (RowwiseMesh, ScalarFaceMesh, float64_save_mesh,
                      scalar_mesh_identities)
from fvlab.cli import main
from fvlab.geometry import (MeshConstructionError, PrimalMesh,
                            build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_perturbed_quads,
                            check_mesh_identities)
from fvlab.meshio import MeshFormatError, load_mesh, save_mesh


@pytest.mark.parametrize("make", [
    lambda: build_cartesian(4, 3),
    lambda: build_perturbed_quads(5, 5, amplitude=0.2, seed=9),
    lambda: build_intervals(6),
])
def test_mesh_round_trip(make, tmp_path):
    mesh = make()
    p1 = tmp_path / "mesh.txt"
    save_mesh(mesh, p1)
    back = load_mesh(p1)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cell_vertices, mesh.cell_vertices)
    assert np.array_equal(back.face_cells, mesh.face_cells)
    assert np.array_equal(back.cell_face_normals, mesh.cell_face_normals)
    assert back.domain == mesh.domain
    # save -> load -> save is byte-identical
    p2 = tmp_path / "mesh2.txt"
    save_mesh(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_normal_is_detected(tmp_path):
    mesh = build_cartesian(3, 3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    # flip the normal of the first interior face record
    target = int(np.nonzero(mesh.interior_face_mask)[0][0])
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) == 7 and parts[0] == str(target) and i > 10:
            parts[-2] = f"{-float(parts[-2]):.17g}"
            parts[-1] = f"{-float(parts[-1]):.17g}"
            lines[i] = " ".join(parts)
            break
    path.write_text("\n".join(lines) + "\n")
    corrupted = load_mesh(path)
    problems = check_mesh_identities(corrupted)
    assert problems
    assert any(f"face {target}" in p for p in problems)


@pytest.mark.parametrize("wrong_cell", ["not_holding", "out_of_range"])
def test_corrupted_face_cells_is_a_format_error(wrong_cell, tmp_path, capsys):
    mesh = build_cartesian(3, 3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    target = int(np.nonzero(mesh.interior_face_mask)[0][0])
    if wrong_cell == "not_holding":
        cell = next(c for c in range(mesh.n_cells)
                    if target not in mesh.cell_faces[c])
    else:
        cell = mesh.n_cells
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) == 7 and parts[0] == str(target):
            parts[4] = str(cell)        # the face's second cell, cellQ
            lines[i] = " ".join(parts)
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshConstructionError,
                       match=rf"face {target} names cells? .*{cell}"):
        load_mesh(path)
    config = tmp_path / "check.ini"
    config.write_text(f"[mesh]\nfile = {path}\n\n[study]\nlayout = rt\n")
    assert main(["check-identities", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"face {target}" in err


def mesh_arrays(mesh):
    return {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}


def assert_same_arrays(got, want, bitwise=False):
    """The same mesh arrays, of equal dtype and values; with `bitwise`,
    of equal shape and bytes too (signs of zeros, NaNs)."""
    got, want = mesh_arrays(got), mesh_arrays(want)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key
        if bitwise:
            assert got[key].shape == want[key].shape, key
            assert got[key].tobytes() == want[key].tobytes(), key


@st.composite
def built_meshes(draw):
    kind = draw(st.sampled_from(["intervals", "cartesian", "perturbed"]))
    ratio = st.floats(0.8, 1.25)
    if kind == "intervals":
        return build_intervals(draw(st.integers(1, 30)), grading=draw(ratio))
    nx, ny = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    if kind == "cartesian":
        grading = draw(st.one_of(st.just(1.0), ratio, st.tuples(ratio, ratio)))
        return build_cartesian(nx, ny, grading=grading)
    return build_perturbed_quads(nx, ny, amplitude=draw(st.floats(0.0, 0.24)),
                                 seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(built_meshes())
# 4704 faces: the face section spans two 4096-row write blocks
@example(build_perturbed_quads(48, 48, amplitude=0.2, seed=11))
def test_mesh_pipeline_matches_scalar_oracles(mesh):
    """Every mesh array (volumes, centroids, diameters, face measures,
    normals, face table) == the row-wise formulas' and the dict-built face
    table's, bit for bit; the saved bytes == the float64 row writer's;
    save -> load gives the same arrays, bit for bit (signed zeros of the
    normals included); save -> load -> save gives identical bytes."""
    rowwise = RowwiseMesh(mesh.vertices, mesh.cell_vertices, mesh.domain)
    assert_same_arrays(mesh, rowwise, bitwise=True)
    assert mesh.is_rectangular() == rowwise.is_rectangular()
    assert_same_arrays(mesh, ScalarFaceMesh(
        mesh.vertices, mesh.cell_vertices, mesh.domain), bitwise=True)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        oracle = Path(tmp) / "oracle.txt"
        save_mesh(mesh, first)
        float64_save_mesh(mesh, oracle)
        assert first.read_bytes() == oracle.read_bytes()
        back = load_mesh(first)
        save_mesh(back, second)
        assert first.read_bytes() == second.read_bytes()
    assert back.domain == mesh.domain
    assert_same_arrays(back, mesh, bitwise=True)
    table = dict(face_normals=back.face_normals, face_cells=back.face_cells,
                 face_vertices=back.face_vertices)
    for oracle_mesh in (RowwiseMesh, ScalarFaceMesh):
        assert_same_arrays(back, oracle_mesh(
            back.vertices, back.cell_vertices, back.domain, **table),
            bitwise=True)
    assert check_mesh_identities(back) == scalar_mesh_identities(back) == []


@pytest.mark.parametrize("vertices, cells, domain", [
    ([[0.0], [1.0], [2.0], [3.0]], [[0, 1], [1, 2], [1, 3]], [(0.0, 3.0)]),
    (build_cartesian(2, 1).vertices, [[0, 2, 3, 1], [2, 4, 5, 3], [0, 2, 3, 1]],
     [(0.0, 1.0), (0.0, 1.0)]),
])
def test_face_shared_by_three_cells(vertices, cells, domain):
    with pytest.raises(MeshConstructionError) as want:
        ScalarFaceMesh(vertices, cells, domain)
    with pytest.raises(MeshConstructionError, match="shared by >2 cells") as got:
        PrimalMesh(vertices, cells, domain)
    assert str(got.value) == str(want.value)


def test_missing_and_out_of_range_faces_rejected():
    mesh = build_cartesian(2, 2)
    table = dict(face_normals=mesh.face_normals[1:],
                 face_cells=mesh.face_cells[1:],
                 face_vertices=mesh.face_vertices[1:])
    fv = re.escape(str(tuple(mesh.face_vertices[0].tolist())))
    with pytest.raises(MeshConstructionError,
                       match=rf"cell 0 references missing face {fv}$"):
        PrimalMesh(mesh.vertices, mesh.cell_vertices, mesh.domain, **table)
    table["face_vertices"] = mesh.face_vertices[1:] + 1
    with pytest.raises(MeshConstructionError,
                       match=r"and vertices \[8, 9\], outside the 4 cells "
                             r"or the 9 vertices"):
        PrimalMesh(mesh.vertices, mesh.cell_vertices, mesh.domain, **table)
    cells = mesh.cell_vertices.copy()
    cells[3, 2] = 9
    with pytest.raises(MeshConstructionError, match="cell 3 names vertices"):
        PrimalMesh(mesh.vertices, cells, mesh.domain)


def _sections(lines):
    """Line range of each section's records in a saved mesh file."""
    out = {}
    for i, ln in enumerate(lines):
        word, *rest = ln.split()
        if word in ("vertices", "cells", "faces"):
            out[word] = range(i + 1, i + 1 + int(rest[0]))
    return out


@pytest.mark.parametrize("section", ["vertices", "cells", "faces"])
@pytest.mark.parametrize("defect", ["duplicate", "out_of_range", "short"])
def test_bad_record_ids_are_format_errors(section, defect, tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    save_mesh(build_cartesian(2, 2), path)
    lines = path.read_text().splitlines()
    rows = _sections(lines)[section]
    tokens = lines[rows[1]].split()
    if defect == "duplicate":
        tokens[0], match = "0", rf"{section} record id 0 is repeated"
    elif defect == "out_of_range":
        tokens[0] = str(len(rows))
        match = rf"{section} record id {len(rows)} is outside 0..{len(rows) - 1}"
    else:
        tokens.pop()
        match = rf"{section} record 1 has {len(tokens)} fields"
    lines[rows[1]] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=match):
        load_mesh(path)
    config = tmp_path / "check.ini"
    config.write_text(f"[mesh]\nfile = {path}\n\n[study]\nlayout = rt\n")
    assert main(["check-identities", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and section in err


def test_records_load_in_any_order(tmp_path):
    mesh = build_perturbed_quads(4, 3, amplitude=0.2, seed=3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(0)
    for rows in _sections(lines).values():
        block = [lines[i] for i in rows]
        for i, j in zip(rows, rng.permutation(len(block))):
            lines[i] = block[j]
    path.write_text("\n".join(lines) + "\n")
    assert_same_arrays(load_mesh(path), mesh)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a mesh\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_truncated_file_rejected(tmp_path):
    mesh = build_cartesian(2, 2)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:8]) + "\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


@pytest.mark.parametrize("layout, build_dual", [
    ("rt", build_dual_rt), ("mac", build_dual_mac), ("colocated1d", None)])
def test_nan_normal_fails_the_identities(layout, build_dual, tmp_path,
                                         capsys):
    """A NaN normal violates every identity that reads it, with either
    layout's dual and without a dual (a 2D mesh under colocated1d)."""
    path = tmp_path / "mesh.txt"
    save_mesh(build_cartesian(3, 3), path)
    lines = path.read_text().splitlines()
    row = _sections(lines)["faces"][7]
    lines[row] = " ".join(lines[row].split()[:-2] + ["nan", "nan"])
    path.write_text("\n".join(lines) + "\n")
    mesh = load_mesh(path)
    dual = build_dual(mesh) if build_dual else None
    problems = check_mesh_identities(mesh, dual)
    assert problems == scalar_mesh_identities(mesh, dual)
    # face 7 lies between cells 2 and 5
    assert problems[:5] == [
        "cell 2: face closure sum violated (|sum|=nan)",
        "cell 5: face closure sum violated (|sum|=nan)",
        "face 7: normals not antisymmetric",
        "face 7: stored normal differs from geometry (cell 2)",
        "face 7: stored normal differs from geometry (cell 5)"]
    config = tmp_path / "check.ini"
    config.write_text(f"[mesh]\nfile = {path}\n\n[study]\nlayout = {layout}\n")
    assert main(["check-identities", "--config", str(config)]) == 1
    assert capsys.readouterr().out == "".join(f"FAIL {p}\n" for p in problems)


# the records of a saved build_cartesian(1, 1)
ONE_CELL = {"vertices": ["0 0 0", "1 0 1", "2 1 0", "3 1 1"],
            "cells": ["0 0 2 3 1"],
            "faces": ["0 0 2 0 -1 0 -1", "1 2 3 0 -1 1 0", "2 3 1 0 -1 0 1",
                      "3 1 0 0 -1 -1 0"]}


def _mesh_text(domain="0 1 0 1", **records):
    """A one-cell mesh file with the domain bounds or the records of a
    section replaced."""
    text = f"fvlab-mesh 1\ndim 2\ndomain {domain}\n"
    for word, rows in dict(ONE_CELL, **records).items():
        text += f"{word} {len(rows)}\n" + "".join(f"{r}\n" for r in rows)
    return text


def test_one_cell_text_is_a_saved_mesh(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text(_mesh_text())
    assert_same_arrays(load_mesh(path), build_cartesian(1, 1))


@pytest.mark.parametrize("text, error, match", [
    (_mesh_text(vertices=["0 0 0", "1 0 1", "2 nan 0", "3 1 1"]),
     MeshConstructionError, r"vertex 2 has a non-finite coordinate \[nan, 0.0\]"),
    (_mesh_text(vertices=["0 0 0", "1 0 1", "2 1 0", "3 1 inf"]),
     MeshConstructionError, r"vertex 3 has a non-finite coordinate \[1.0, inf\]"),
    (_mesh_text(domain="0 1 0 nan"),
     MeshConstructionError, r"domain bounds .* are not all finite"),
    (_mesh_text(domain="-inf 1 0 1"),
     MeshConstructionError, r"domain bounds .* are not all finite"),
    (_mesh_text(vertices=[], cells=[], faces=[]),
     MeshFormatError, "vertices section has no records"),
    (_mesh_text(cells=[], faces=[]),
     MeshFormatError, "cells section has no records"),
    (_mesh_text(faces=[]), MeshFormatError, "faces section has no records"),
], ids=["nan_vertex", "inf_vertex", "nan_domain", "inf_domain", "empty",
        "no_cells", "no_faces"])
def test_non_finite_and_empty_meshes_are_rejected(text, error, match,
                                                  tmp_path, capsys):
    """Rejected on load with an ``error:`` line and exit 2 (no warning
    from the parser and no NaN measures in the summary)."""
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(error, match=match):
        load_mesh(path)
    config = tmp_path / "info.ini"
    config.write_text(f"[mesh]\nfile = {path}\n\n[study]\nlayout = rt\n")
    for command in ("mesh-info", "check-identities"):
        assert main([command, "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:"), (out, err)
        assert re.search(match, err), err


@pytest.mark.parametrize("vertices, cells, domain, match", [
    ([[0.0], [np.nan], [1.0]], [[0, 1], [1, 2]], [(0.0, 1.0)],
     r"vertex 1 has a non-finite coordinate \[nan\]"),
    ([[0.0], [1.0]], [[0, 1]], [(0.0, np.inf)], "domain bounds"),
    (np.zeros((0, 2)), np.zeros((0, 4), dtype=int), [(0.0, 1.0), (0.0, 1.0)],
     "the mesh has no cells"),
    (build_cartesian(1, 1).vertices, np.zeros((0, 4), dtype=int),
     [(0.0, 1.0), (0.0, 1.0)], "the mesh has no cells"),
], ids=["nan_vertex_1d", "inf_domain_1d", "empty", "no_cells"])
def test_primal_mesh_rejects_non_finite_and_empty_input(vertices, cells,
                                                        domain, match):
    with pytest.raises(MeshConstructionError, match=match):
        PrimalMesh(vertices, cells, domain)

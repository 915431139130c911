import numpy as np
import pytest

from fvlab.cli import main
from fvlab.fields import CellScalarField, FaceScalarFieldMAC, FaceVectorFieldRT
from fvlab.geometry import (MeshConstructionError, build_cartesian,
                            build_dual_mac, build_intervals,
                            build_perturbed_quads, build_time_grid,
                            check_mesh_identities)
from fvlab.meshio import (MeshFormatError, load_field, load_mesh, save_field,
                          save_mesh)


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


def test_field_round_trips(tmp_path):
    mesh = build_cartesian(3, 3)
    grid = build_time_grid(1.0, 2)
    dual = build_dual_mac(mesh)
    rng = np.random.default_rng(4)
    cases = [
        CellScalarField(mesh, grid, rng.normal(size=(3, 9))),
        FaceVectorFieldRT(mesh, grid, rng.normal(size=(3, mesh.n_faces, 2))),
        FaceScalarFieldMAC(mesh, grid, dual, rng.normal(size=(3, mesh.n_faces))),
    ]
    for i, fld in enumerate(cases):
        path = tmp_path / f"field{i}.csv"
        save_field(fld, path)
        back = load_field(path, mesh, grid, dual=dual)
        assert np.array_equal(back.values, fld.values)
        assert path.read_text().splitlines()[1].startswith("entity,level,")


def test_field_missing_record_rejected(tmp_path):
    mesh = build_cartesian(2, 2)
    grid = build_time_grid(1.0, 1)
    fld = CellScalarField(mesh, grid, np.ones((2, 4)))
    path = tmp_path / "f.csv"
    save_field(fld, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(MeshFormatError):
        load_field(path, mesh, grid)

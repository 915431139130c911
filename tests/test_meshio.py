import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (RowwiseMesh, ScalarFaceMesh, float64_save_mesh,
                      scalar_mesh_identities)
from fvlab import quadrature
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


@pytest.mark.parametrize("line, bad, error, match", [
    ("dim 2", "dim x", MeshFormatError,
     r"dim line 'dim x': 'x' is not an integer$"),
    ("domain 0 1 0 1", "domain 0 1 0 x", MeshFormatError,
     r"domain line 'domain 0 1 0 x': 'x' is not a number$"),
    ("vertices 4", "vertices x", MeshFormatError,
     r"vertices line 'vertices x': 'x' is not an integer$"),
    ("vertices 4", "vertices 1e3", MeshFormatError,
     r"vertices line 'vertices 1e3': '1e3' is not an integer$"),
    ("vertices 4", "vertices -2", MeshFormatError,
     r"vertices section has a negative count -2$"),
    # more records than the file has lines: no column of that size is made
    ("vertices 4", f"vertices {2 ** 50}", MeshFormatError,
     r"truncated mesh file$"),
    ("dim 2", "dim 2 3", MeshFormatError,
     r"expected 'dim' and 1 value\(s\), got 'dim 2 3'$"),
    ("dim 2", "dim 3", MeshFormatError, r"bad dimension 3$"),
    # vertex 1 repeats vertex 0, so face 3 joins one point to itself
    ("1 0 1", "1 0 0", MeshConstructionError, r"zero-length face$"),
], ids=["dim_not_int", "domain_not_number", "count_not_int",
        "count_float_syntax", "count_negative", "count_past_the_file",
        "dim_token_count", "dim_3", "repeated_vertex"])
def test_bad_header_lines_and_degenerate_files_exit_2(line, bad, error,
                                                      match, tmp_path,
                                                      capsys):
    """Each header value is read with a format error that names its line,
    and the file guards behind the header fire through the command line:
    an ``error:`` line and exit 2."""
    text = _mesh_text()
    assert text.count(f"\n{line}\n") == 1
    path = tmp_path / "mesh.txt"
    path.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
    with pytest.raises(error, match=match):
        load_mesh(path)
    config = tmp_path / "check.ini"
    config.write_text(f"[mesh]\nfile = {path}\n\n[study]\nlayout = rt\n")
    assert main(["check-identities", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:"), (out, err)
    assert re.search(match, err.strip()), err


# CHUNK_VALUES of the block-seam tests: a row (or cell) a block, a few
# rows a block, and the default, on a mesh with several blocks at each
SEAM_VALUES = [1, 7, quadrature.CHUNK_VALUES]


def _seam_mesh(values):
    """A perturbed mesh whose sections, cells and faces span several
    blocks at `values` (at the default: 2 cell blocks, 3 face blocks)."""
    if values == quadrature.CHUNK_VALUES:
        return build_perturbed_quads(130, 129, amplitude=0.2, seed=2)
    return build_perturbed_quads(5, 4, amplitude=0.2, seed=2)


@pytest.mark.parametrize("values", SEAM_VALUES)
@pytest.mark.parametrize("layout", ["saved", "shuffled", "blank_crlf"])
def test_row_blocks_load_the_built_arrays(values, layout, tmp_path):
    """Whatever the block size, ``load_mesh`` gives the built mesh's
    arrays, equal in bits and dtype: from the saved file (ids in order),
    from its records shuffled within each section, and with blank lines
    and CRLF line endings."""
    mesh = _seam_mesh(values)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    if layout != "saved":
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(values)
        if layout == "shuffled":
            for rows in _sections(lines).values():
                block = [lines[i] for i in rows]
                for i, j in zip(rows, rng.permutation(len(block))):
                    lines[i] = block[j]
        else:
            for i in sorted(rng.choice(len(lines), 40), reverse=True):
                lines.insert(int(i), " \t" if i % 2 else "")
        end = "\r\n" if layout == "blank_crlf" else "\n"
        path.write_bytes("".join(f"{ln}{end}" for ln in lines).encode())
    with mock.patch.object(quadrature, "CHUNK_VALUES", values):
        back = load_mesh(path)
    assert back.domain == mesh.domain
    assert_same_arrays(back, mesh, bitwise=True)


def _edit(word, row, change):
    """An edit of a saved file's lines: the tokens of record `row` of
    section `word` replaced by ``change(tokens)``."""
    def apply(lines):
        i = _sections(lines)[word][row]
        lines[i] = " ".join(change(lines[i].split()))
    return apply


def _cut(word, row):
    """An edit that ends the file before record `row` of section `word`."""
    def apply(lines):
        del lines[_sections(lines)[word][row]:]
    return apply


def _last_normal_x(tokens):
    return tokens[:-1] + ["x"]


@pytest.mark.parametrize("values", SEAM_VALUES)
@pytest.mark.parametrize("edits, error, message", [
    ([_edit("faces", 40, _last_normal_x)], MeshFormatError,
     "faces section: could not convert string 'x' to float64 at row 40, "
     "column 7."),
    ([_edit("vertices", 25, lambda t: t[:2] + ["y"])], MeshFormatError,
     "vertices section: could not convert string 'y' to float64 at row 25, "
     "column 3."),
    ([_edit("cells", 17, lambda t: t[:3] + ["1.5"] + t[4:])], MeshFormatError,
     "cells section: could not convert string '1.5' to int64 at row 17, "
     "column 4."),
    ([_edit("faces", 3, _last_normal_x), _edit("faces", 45, lambda t: t[:-1])],
     MeshFormatError, "faces record 45 has 6 fields, expected 7"),
    ([_cut("faces", 30)], MeshFormatError, "truncated mesh file"),
    ([_edit("faces", 3, _last_normal_x), _cut("faces", 30)], MeshFormatError,
     "truncated mesh file"),
    ([_edit("faces", 44, lambda t: ["2"] + t[1:])], MeshFormatError,
     "faces record id 2 is repeated"),
    ([_edit("cells", 17, lambda t: t[:1] + t[:0:-1])], MeshConstructionError,
     "cell 17 is not counter-clockwise or degenerate"),
    ([_edit("faces", 44, lambda t: t[:1] + ["0"] + t[2:])],
     MeshConstructionError, "cell 17 references missing face (27, 22)"),
], ids=["late_row", "late_vertex", "late_cell", "width_after_number",
        "truncated", "truncated_after_number", "late_repeated_id",
        "late_clockwise_cell", "late_missing_face"])
def test_row_blocks_fail_as_the_whole_file(values, edits, error, message,
                                           tmp_path):
    """A bad record in a later block, or a file that ends inside a block,
    fails with the message of the whole file read at once: the end of the
    file first, then the section's first record of the wrong width, then
    ``loadtxt``'s message with its row counted in the section; a cell or
    face in a later block names itself as in the whole mesh."""
    path = tmp_path / "mesh.txt"
    save_mesh(build_perturbed_quads(5, 4, amplitude=0.2, seed=2), path)
    lines = path.read_text().splitlines()
    for edit in edits:
        edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(quadrature, "CHUNK_VALUES", values), \
            pytest.raises(error) as got:
        load_mesh(path)
    assert str(got.value) == message


@pytest.mark.parametrize("values", SEAM_VALUES)
@pytest.mark.parametrize("normal", ["flipped", "nan"])
def test_identity_blocks_report_as_the_whole_mesh(values, normal,
                                                  tmp_path):
    """A flipped or NaN normal on the last interior face, in the last
    blocks of faces and cells, gives the scalar checker's problems in its
    order, whatever the block size."""
    mesh = _seam_mesh(values)
    target = int(np.flatnonzero(mesh.interior_face_mask)[-1])
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    row = _sections(lines)["faces"][target]
    tokens = lines[row].split()
    tokens[-2:] = (["nan", "nan"] if normal == "nan" else
                   [f"{-float(t):.17g}" for t in tokens[-2:]])
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(quadrature, "CHUNK_VALUES", values):
        loaded = load_mesh(path)
        dual = build_dual_rt(loaded)
        problems = check_mesh_identities(loaded, dual)
    assert problems == scalar_mesh_identities(loaded, dual)
    cells = mesh.face_cells[target]
    pairs = ([f"face {target}: normals not antisymmetric"]
             if normal == "nan" else [])
    assert [p.partition(" (|sum|=")[0] for p in problems] == (
        [f"cell {c}: face closure sum violated" for c in cells] + pairs
        + [f"face {target}: stored normal differs from geometry (cell {c})"
           for c in cells])

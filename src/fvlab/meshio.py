"""Plain-text persistence for meshes.

Mesh format (whitespace-separated, one record per line, floats printed with
17 significant digits so values round-trip exactly):

    fvlab-mesh 1
    dim D
    domain x0 x1 [y0 y1]
    vertices NV
    <id> <x> [<y>]            (NV lines)
    cells NC
    <id> <v0> <v1> [...]      (NC lines)
    faces NF
    <id> <v...> <cellP> <cellQ> <n...>   (NF lines; cellQ = -1 on the boundary)

The per-face normal is the one seen from cellP and is stored explicitly, so
a corrupted file remains observable to the identity checker rather than
being silently healed on load.  The ids of a section are a permutation of
0..n-1 and its records may come in any order.  A repeated or out-of-range
id, a record of the wrong width or a bad number is a ``MeshFormatError``; a
cell or face naming a vertex or cell outside the mesh, or a face its cells
do not hold, is a ``MeshConstructionError`` (both are ``ValueError``s).
"""

from __future__ import annotations

import numpy as np

from .geometry import PrimalMesh

__all__ = ["save_mesh", "load_mesh", "MeshFormatError"]

MAGIC = "fvlab-mesh 1"


class MeshFormatError(ValueError):
    pass


def _write_rows(fh, fmt, *columns):
    """Write the rows of side-by-side `columns` with the %-template `fmt`,
    4096 per block to bound memory.  Each column is formatted from its own
    dtype: ints as Python ints, floats as Python floats."""
    columns = [c for array in columns
               for c in np.reshape(array, (len(array), -1)).T]
    width, rows = len(columns), len(columns[0])
    for lo in range(0, rows, 4096):
        n = min(4096, rows - lo)
        values = [None] * (n * width)           # row-major, as fmt reads them
        for j, c in enumerate(columns):
            values[j::width] = c[lo:lo + n].tolist()
        fh.write((f"{fmt}\n" * n) % tuple(values))


def save_mesh(mesh: PrimalMesh, path):
    real = " %.17g" * mesh.dim
    ids = [np.arange(n) for n in (mesh.n_vertices, mesh.n_cells, mesh.n_faces)]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{MAGIC}\ndim {mesh.dim}\ndomain "
                 + " ".join("%.17g" % b for ab in mesh.domain for b in ab)
                 + f"\nvertices {mesh.n_vertices}\n")
        _write_rows(fh, "%d" + real, ids[0], mesh.vertices)
        fh.write(f"cells {mesh.n_cells}\n")
        _write_rows(fh, "%d" + " %d" * mesh.cell_vertices.shape[1], ids[1],
                    mesh.cell_vertices)
        fh.write(f"faces {mesh.n_faces}\n")
        _write_rows(fh, "%d" + " %d" * (mesh.face_vertices.shape[1] + 2)
                    + real, ids[2], mesh.face_vertices, mesh.face_cells,
                    mesh.face_normals)


def _header(lines, at, word, count):
    """The `count` values of header line `at`, which must start with `word`."""
    tokens = lines[at].split() if at < len(lines) else ["end of file"]
    if tokens[0] != word or len(tokens) != 1 + count:
        raise MeshFormatError(f"expected {word!r} and {count} value(s), got "
                              f"{' '.join(tokens)!r}")
    return tokens[1:]


def _check_ids(word, ids):
    """The record ids of section `word` are a permutation of 0..n-1 (n
    records); the first id outside or repeated is a format error."""
    n = len(ids)
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise MeshFormatError(f"{word} record id {ids[np.argmax(outside)]} "
                              f"is outside 0..{n - 1}")
    repeated = np.bincount(ids, minlength=n)[ids] > 1
    if repeated.any():
        raise MeshFormatError(f"{word} record id {ids[np.argmax(repeated)]} "
                              f"is repeated")


def _section(lines, at, word, fields):
    """The section "<word> n" at line `at`: its n records "<id> <fields>"
    ((name, type, count) each) in id order, and the line after them."""
    n = int(_header(lines, at, word, 1)[0])
    rows = lines[at + 1:at + 1 + n]
    if n < 0 or len(rows) < n:
        raise MeshFormatError("truncated mesh file")
    if n == 0:
        raise MeshFormatError(f"{word} section has no records")
    dtype = np.dtype([("id", np.int64)] + [(name, t, (k,))
                                            for name, t, k in fields])
    try:
        rec = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        width = 1 + sum(k for _, _, k in fields)
        bad = next((r.split() for r in rows if len(r.split()) != width), None)
        raise MeshFormatError(f"{word} section: {exc}" if bad is None else
                              f"{word} record {bad[0]} has {len(bad)} "
                              f"fields, expected {width}") from None
    _check_ids(word, rec["id"])
    return rec[np.argsort(rec["id"])], at + 1 + n


def load_mesh(path) -> PrimalMesh:
    with open(path) as fh:
        lines = list(filter(None, map(str.strip, fh.read().split("\n"))))
    if not lines or lines[0] != MAGIC:
        raise MeshFormatError(f"not a {MAGIC!r} file")
    dim = int(_header(lines, 1, "dim", 1)[0])
    if dim not in (1, 2):
        raise MeshFormatError(f"bad dimension {dim}")
    domain = np.array(_header(lines, 2, "domain", 2 * dim),
                      dtype=float).reshape(dim, 2)
    vertices, at = _section(lines, 3, "vertices", [("x", float, dim)])
    cells, at = _section(lines, at, "cells", [("v", np.int64, 2 * dim)])
    faces, at = _section(lines, at, "faces", [
        ("v", np.int64, dim), ("c", np.int64, 2), ("n", float, dim)])
    return PrimalMesh(vertices["x"], cells["v"], domain,
                      face_normals=faces["n"], face_cells=faces["c"],
                      face_vertices=faces["v"])


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
id, a record of the wrong width, a bad number in a record or a header line
(``dim x``, ``vertices 1e3``) or a negative count is a ``MeshFormatError``;
a cell or face naming a vertex or cell outside the mesh, or a face its
cells do not hold, is a ``MeshConstructionError`` (both are
``ValueError``s).

``load_mesh`` reads the file's stripped, non-blank lines as the sections
take them and parses each section in row blocks (``chunk_slices``) into
columns made before its first block, so loading holds the mesh plus one
block of lines and values, never the whole text.  The mesh then adopts its
face table and ``check_mesh_identities`` checks it over blocks of cells and
faces.  A section whose ids already run 0..n-1, as ``save_mesh`` writes
them, is not reordered.  Every array, and every error message, is the one
the whole file read at once would give.
"""

from __future__ import annotations

import math
import os
import re
from itertools import islice
from stat import S_ISREG

import numpy as np

from .geometry import PrimalMesh
from .quadrature import chunk_slices

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


def _header(lines, word, count, kind=int):
    """The `count` values of the next line, "<word> <values>", each read by
    `kind`: int, or float (numpy reads a number as Python's float does)."""
    tokens = next(lines, "end of file").split()
    if tokens[0] != word or len(tokens) != 1 + count:
        raise MeshFormatError(f"expected {word!r} and {count} value(s), got "
                              f"{' '.join(tokens)!r}")
    values = []
    for token in tokens[1:]:
        try:
            values.append(kind(token))
        except ValueError:
            raise MeshFormatError(
                f"{word} line {' '.join(tokens)!r}: {token!r} is not "
                f"{'an integer' if kind is int else 'a number'}") from None
    return values


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


def _rejected(word, width, rows, start, exc, lines, after):
    """The error of section `word` whose block `rows`, its records from
    `start` on, ``loadtxt`` rejected with `exc`, and of which `after`
    records follow in `lines`: the error of the whole section at once.
    That is a section cut short by the end of the file, else the section's
    first record of the wrong width, else ``loadtxt``'s message with its
    row counted from the section's first record."""
    bad = next((r.split() for r in rows if len(r.split()) != width), None)
    for row in islice(lines, after):
        after -= 1
        if bad is None and len(row.split()) != width:
            bad = row.split()
    if after:
        return MeshFormatError("truncated mesh file")
    if bad is not None:
        return MeshFormatError(f"{word} record {bad[0]} has {len(bad)} "
                               f"fields, expected {width}")
    message = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + start}",
                     str(exc), count=1)
    return MeshFormatError(f"{word} section: {message}")


def _section(lines, word, fields, most):
    """The next section of `lines`, "<word> n": the columns of its n
    records "<id> <fields>" ((name, type, count) each) in id order, by
    name.  The records are parsed in row blocks (``chunk_slices``) into
    columns made before the first block, so a section costs its columns
    and one block; records already in id order need no reordering.  A
    count above `most`, the most lines the file can hold, is a truncated
    file before any column is made."""
    n, = _header(lines, word, 1)
    if n < 0:
        raise MeshFormatError(f"{word} section has a negative count {n}")
    if n > most:
        raise MeshFormatError("truncated mesh file")
    if n == 0:
        raise MeshFormatError(f"{word} section has no records")
    dtype = np.dtype([("id", np.int64)] + [(name, t, (k,))
                                            for name, t, k in fields])
    width = 1 + sum(k for _, _, k in fields)
    ids = np.empty(n, dtype=np.int64)
    columns = {name: np.empty((n, k), dtype=t) for name, t, k in fields}
    in_order = True
    for block in chunk_slices(n, width):
        rows = list(islice(lines, block.stop - block.start))
        if len(rows) < block.stop - block.start:
            raise MeshFormatError("truncated mesh file")
        try:
            rec = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            raise _rejected(word, width, rows, block.start, exc, lines,
                            n - block.stop) from None
        ids[block] = rec["id"]
        for name, column in columns.items():
            column[block] = rec[name]
        in_order = in_order and np.array_equal(
            rec["id"], np.arange(block.start, block.stop))
    if not in_order:
        _check_ids(word, ids)
        order = np.argsort(ids)
        columns = {name: column[order] for name, column in columns.items()}
    return columns


def load_mesh(path) -> PrimalMesh:
    with open(path) as fh:
        # n non-blank lines take 2n - 1 bytes at least (pipes: no bound)
        st = os.fstat(fh.fileno())
        most = (st.st_size + 1) // 2 if S_ISREG(st.st_mode) else math.inf
        # the stripped, non-blank lines, read as the sections take them
        lines = filter(None, map(str.strip, fh))
        if next(lines, None) != MAGIC:
            raise MeshFormatError(f"not a {MAGIC!r} file")
        dim, = _header(lines, "dim", 1)
        if dim not in (1, 2):
            raise MeshFormatError(f"bad dimension {dim}")
        domain = np.reshape(_header(lines, "domain", 2 * dim, float),
                            (dim, 2))
        vertices = _section(lines, "vertices", [("x", float, dim)], most)
        cells = _section(lines, "cells", [("v", np.int64, 2 * dim)], most)
        faces = _section(lines, "faces", [
            ("v", np.int64, dim), ("c", np.int64, 2), ("n", float, dim)],
            most)
    return PrimalMesh(vertices["x"], cells["v"], domain,
                      face_normals=faces["n"], face_cells=faces["c"],
                      face_vertices=faces["v"])

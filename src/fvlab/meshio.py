"""Plain-text persistence for meshes and fields.

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
being silently healed on load.

Field format: CSV with one record per (entity, level).
"""

from __future__ import annotations

import numpy as np

from .fields import CellScalarField, FaceScalarFieldMAC, FaceVectorFieldRT
from .geometry import PrimalMesh

__all__ = ["save_mesh", "load_mesh", "save_field", "load_field",
           "MeshFormatError"]

MAGIC = "fvlab-mesh 1"


class MeshFormatError(ValueError):
    pass


def _f(x) -> str:
    return f"{float(x):.17g}"


def save_mesh(mesh: PrimalMesh, path):
    lines = [MAGIC, f"dim {mesh.dim}"]
    lines.append("domain " + " ".join(_f(b) for ab in mesh.domain for b in ab))
    lines.append(f"vertices {mesh.n_vertices}")
    for i, v in enumerate(mesh.vertices):
        lines.append(f"{i} " + " ".join(_f(c) for c in v))
    lines.append(f"cells {mesh.n_cells}")
    for i, loop in enumerate(mesh.cell_vertices):
        lines.append(f"{i} " + " ".join(str(int(k)) for k in loop))
    lines.append(f"faces {mesh.n_faces}")
    for i in range(mesh.n_faces):
        fv = " ".join(str(int(k)) for k in np.atleast_1d(mesh.face_vertices[i]))
        p, q = mesh.face_cells[i]
        nrm = " ".join(_f(c) for c in mesh.face_normals[i])
        lines.append(f"{i} {fv} {int(p)} {int(q)} {nrm}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _expect(tokens, word):
    """The record `tokens`, checked to start with `word`."""
    if not tokens or tokens[0] != word:
        raise MeshFormatError(f"expected {word!r}, got {tokens[:1]!r}")
    return tokens


def load_mesh(path) -> PrimalMesh:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != MAGIC:
        raise MeshFormatError(f"not a {MAGIC!r} file")
    it = iter(lines[1:])

    def take():
        try:
            return next(it).split()
        except StopIteration:
            raise MeshFormatError("truncated mesh file") from None

    dim = int(_expect(take(), "dim")[1])
    if dim not in (1, 2):
        raise MeshFormatError(f"bad dimension {dim}")
    vals = [float(s) for s in _expect(take(), "domain")[1:]]
    if len(vals) != 2 * dim:
        raise MeshFormatError("bad domain record")
    domain = [(vals[2 * i], vals[2 * i + 1]) for i in range(dim)]
    nv = int(_expect(take(), "vertices")[1])
    vertices = np.empty((nv, dim))
    for _ in range(nv):
        rec = take()
        vertices[int(rec[0])] = [float(s) for s in rec[1:1 + dim]]
    nc = int(_expect(take(), "cells")[1])
    nv_per_cell = 2 if dim == 1 else 4
    cells = np.empty((nc, nv_per_cell), dtype=np.int64)
    for _ in range(nc):
        rec = take()
        cells[int(rec[0])] = [int(s) for s in rec[1:1 + nv_per_cell]]
    nf = int(_expect(take(), "faces")[1])
    fv_len = 1 if dim == 1 else 2
    face_vertices = np.empty((nf, fv_len), dtype=np.int64)
    face_cells = np.empty((nf, 2), dtype=np.int64)
    face_normals = np.empty((nf, dim))
    for _ in range(nf):
        rec = take()
        i = int(rec[0])
        face_vertices[i] = [int(s) for s in rec[1:1 + fv_len]]
        face_cells[i] = [int(rec[1 + fv_len]), int(rec[2 + fv_len])]
        face_normals[i] = [float(s) for s in rec[3 + fv_len:3 + fv_len + dim]]
    return PrimalMesh(vertices, cells, domain, face_normals=face_normals,
                      face_cells=face_cells, face_vertices=face_vertices)


# ----------------------------------------------------------------------
# fields

_FIELD_KINDS = {"cell": 1, "face_rt": 2, "face_mac": 1}


def save_field(fld, path):
    if isinstance(fld, CellScalarField):
        kind, vals = "cell", fld.values[:, :, None]
    elif isinstance(fld, FaceVectorFieldRT):
        kind, vals = "face_rt", fld.values
    elif isinstance(fld, FaceScalarFieldMAC):
        kind, vals = "face_mac", fld.values[:, :, None]
    else:
        raise TypeError(f"cannot save field of type {type(fld).__name__}")
    width = _FIELD_KINDS[kind]
    header = ["entity", "level"] + [f"v{i}" for i in range(width)]
    lines = [f"# fvlab-field {kind}", ",".join(header)]
    n_lev, n_ent = vals.shape[:2]
    for e in range(n_ent):
        for n in range(n_lev):
            row = [str(e), str(n)] + [_f(vals[n, e, i]) for i in range(width)]
            lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path, mesh, grid, dual=None):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("# fvlab-field "):
        raise MeshFormatError("not a fvlab-field file")
    kind = lines[0].split()[-1]
    if kind not in _FIELD_KINDS:
        raise MeshFormatError(f"unknown field kind {kind!r}")
    width = _FIELD_KINDS[kind]
    n_lev = grid.n_steps + 1
    n_ent = mesh.n_cells if kind == "cell" else mesh.n_faces
    vals = np.full((n_lev, n_ent, width), np.nan)
    for ln in lines[2:]:
        parts = ln.split(",")
        e, n = int(parts[0]), int(parts[1])
        vals[n, e] = [float(s) for s in parts[2:2 + width]]
    if np.any(np.isnan(vals)):
        raise MeshFormatError("field file is missing records")
    if kind == "cell":
        return CellScalarField(mesh, grid, vals[:, :, 0])
    if kind == "face_rt":
        return FaceVectorFieldRT(mesh, grid, vals)
    return FaceScalarFieldMAC(mesh, grid, dual, vals[:, :, 0])

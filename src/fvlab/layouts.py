"""The three discretisation layouts and every rule that depends on them.

The consistency quantities need, per cell, the face fluxes F.n and the
pieces on which f(U) is constant.  Colocated 1D, RT and MAC differ only in
how they build those two objects.  ``LAYOUTS`` maps the public layout name
(the INI key, ``FluxFamily.layout``, the ``layout`` arguments) to the
object that states its rules.  Face values have shape (N, NF) for one
component per face (MAC, colocated 1D) and (N, NF, 2) for RT vectors.
"""

from __future__ import annotations

import numpy as np

from .fields import FaceScalarFieldMAC, FaceVectorFieldRT
from .geometry import LOCAL_OPPOSITE, sum_opposite_first

__all__ = ["Layout", "LAYOUTS", "RT", "MAC", "COLOCATED_1D", "get_layout",
           "layout_of", "BOUNDARY_POLICIES"]

BOUNDARY_POLICIES = ("upwind_zero", "zero_flux", "periodic")


class Layout:
    """Per-layout rules.

    name               public key of the layout
    dim                space dimension
    staggered          the velocity lives on the faces (RT, MAC)
    pieces             constancy pieces of f(U) per (cell, local face)
    dual_builder       name of the ``fvlab.geometry`` builder of its dual
    velocity_field     class of its face velocity field
    boundary_policies  the boundary policies its fluxes support
    scheme_source      a transport scheme can generate its fields

    Each layout gives ``flux_pieces`` and ``flux_cell_means``, and a
    staggered one the dual edges of R2 (``jump_edges``) and what a face
    stores of a velocity vector (``face_components``).  ``flux_pieces``
    and ``velocity_jump_terms`` write their (step, cell, face[, piece])
    tables into the pass's ``quadrature.Workspace`` ("table" and "terms",
    with "a" and "b" as scratch), one face and piece at a time with the
    cells innermost.  The normal
    rules below suit one component per face, whose outward sign a layout
    gives by ``_cell_signs`` (NC, nf) and ``_face_signs`` (NF,); RT
    overrides them for its full vectors.
    """

    dim = 2
    staggered = True
    dual_builder = None
    velocity_field = None
    boundary_policies = ("upwind_zero", "zero_flux")
    scheme_source = False

    def fits(self, mesh) -> bool:
        """Whether the layout's dual can be built on `mesh`."""
        return mesh.dim == self.dim

    # -- normal components of face-stored values --------------------------
    def cell_normal(self, values, mesh, dual):
        """values . n_{P,zeta} per (step, cell, local face), (N, NC, nf)."""
        return (values.take(mesh.cell_faces, axis=1)
                * self._cell_signs(mesh, dual)[None])

    def face_normal(self, values, faces, mesh, dual):
        """values . n of `faces`, seen from their first cell, (N, len(faces))."""
        return values[:, faces] * self._face_signs(mesh, dual)[None, faces]

    def boundary_weights(self, mesh, dual):
        """The boundary faces and |zeta| times the sign of n_zeta seen from
        each one's first cell, formed once per level: for one component
        per face, a face value times its weight is |zeta| times its
        ``face_normal``, bit for bit, as the signs are +-1."""
        faces = np.flatnonzero(mesh.boundary_face_mask)
        return faces, mesh.face_measures[faces] * self._face_signs(mesh, dual)[faces]

    def magnitude(self, values, out=None):
        """Euclidean size of each face value, (N, NF), into ``out`` when
        given."""
        return np.abs(values, out=out)

    # -- f(U) on its constancy pieces ---------------------------------------
    def piece_measures(self, mesh):
        """|D| of each piece, (NC, nf, pieces): the cell split evenly."""
        share = (1.0 / self.pieces) * mesh.cell_volumes
        return np.broadcast_to(share[:, None, None],
                               (mesh.n_cells, mesh.cell_faces.shape[1],
                                self.pieces))

    # -- sampling and jumps ---------------------------------------------------
    def face_components(self, vv, mesh, dual):
        """What each face stores of full face vectors vv (NF, 2): the
        vector as is."""
        return np.asarray(vv, dtype=float)

    def velocity_at(self, v_exact, mesh, dual, t):
        """What the faces store of a closed form v(x, t) at the time t: the
        ``face_components`` of v at the face midpoints."""
        return self.face_components(v_exact(mesh.face_midpoints, t), mesh,
                                    dual)

    def velocity_jump_terms(self, vv, dt, mesh, edges, weights, work):
        """dt_n * |v_a - v_b| * w_{P,e} per (step, cell, dual edge), for
        the velocity levels vv and steps dt of some steps and the dual
        edges e = (a, b) of each cell (local faces) with their weights
        (``jump_edges``), in the ``quadrature.Workspace`` work; each
        edge's differences are formed with the cells innermost."""
        vcf = np.take(vv, mesh.cell_faces, axis=1, mode="clip", out=work(
            "a", (len(vv),) + mesh.cell_faces.shape + vv.shape[2:]))
        diff = work("b", vcf.shape[:2] + (len(edges),) + vv.shape[2:])
        for e, (a, b) in enumerate(edges):
            np.subtract(vcf[:, :, a], vcf[:, :, b], out=diff[:, :, e])
        terms = self.magnitude(diff, out=work("terms", diff.shape[:3]))
        np.multiply(dt[:, None, None], terms, out=terms)
        return np.multiply(terms, weights, out=terms)


class _RT(Layout):
    """Full velocity vector per face; four diamond pieces per cell."""

    name = "rt"
    pieces = 4
    dual_builder = "build_dual_rt"
    velocity_field = FaceVectorFieldRT

    def cell_normal(self, values, mesh, dual):
        return np.einsum("ncfd,cfd->ncf", values[:, mesh.cell_faces],
                         mesh.cell_face_normals)

    def face_normal(self, values, faces, mesh, dual):
        return np.einsum("nfd,fd->nf", values[:, faces],
                         mesh.face_normals[faces])

    def magnitude(self, values, out=None):
        return np.sqrt((values ** 2).sum(-1), out=out)

    def flux_pieces(self, qv, vv, pair, mesh, dual, cells, work):
        """f(U).n_{P,zeta} on each piece of the cells ``cells``, (N,
        len(cells), nf, pieces), in the workspace ``work``: diamond p
        carries g(q) v_p, and its flux through face k is that . n_k."""
        vcf = vv[:, mesh.cell_faces]                           # (N, NC, 4, 2)
        dots = np.einsum("ncpd,ckd->nckp", vcf, mesh.cell_face_normals)
        return np.take(pair.g(qv)[:, :, None, None] * dots, cells, axis=1,
                       mode="clip",
                       out=work("table", (len(qv), cells.size, 4, 4)))

    def flux_cell_means(self, qv, vv, pair, mesh):
        """Mean of the vector f(U) over each cell, (N, NC, dim)."""
        vcf = vv[:, mesh.cell_faces]
        mean_v = 0.25 * sum_opposite_first(vcf, axis=2)
        return pair.g(qv)[:, :, None] * mean_v

    def jump_edges(self, mesh, dual):
        # dual-edge weight C*diam(P)^2, C the realised splitting constant
        const = dual.jump_weight_constant
        return (dual.dual_edges_local,
                (const * mesh.cell_diameters ** 2)[:, None], const)


class _MAC(Layout):
    """Normal component per face; two half-rectangle pieces per face."""

    name = "mac"
    pieces = 2
    dual_builder = "build_dual_mac"
    velocity_field = FaceScalarFieldMAC
    scheme_source = True

    def fits(self, mesh) -> bool:
        return mesh.dim == self.dim and mesh.is_rectangular()

    def _cell_signs(self, mesh, dual):
        return dual.cell_face_delta

    def _face_signs(self, mesh, dual):
        return dual.face_delta_first

    def flux_pieces(self, qv, vv, pair, mesh, dual, cells, work):
        # the half-rectangles next to face k and to its opposite face
        n = len(qv)
        g = pair.g(np.take(qv, cells, axis=1, mode="clip",
                           out=work("a", (n, cells.size))))
        vcf = np.take(vv, mesh.cell_faces[cells], axis=1, mode="clip",
                      out=work("b", (n, cells.size, 4)))
        delta = dual.cell_face_delta[cells]
        out = work("table", (n, cells.size, 4, 2))
        for k in range(4):
            for p, face in enumerate((k, LOCAL_OPPOSITE[k])):
                np.multiply(vcf[:, :, face], delta[:, k], out=out[:, :, k, p])
                np.multiply(g, out[:, :, k, p], out=out[:, :, k, p])
        return out

    def flux_cell_means(self, qv, vv, pair, mesh):
        vcf = vv[:, mesh.cell_faces]
        mean1 = 0.5 * (vcf[:, :, 3] + vcf[:, :, 1])   # left/right pair
        mean2 = 0.5 * (vcf[:, :, 0] + vcf[:, :, 2])   # bottom/top pair
        return pair.g(qv)[:, :, None] * np.stack([mean1, mean2], axis=-1)

    def face_components(self, vv, mesh, dual):
        """The normal component of each face: the one along its family."""
        return np.asarray(vv, dtype=float)[np.arange(mesh.n_faces),
                                           dual.face_family]

    def jump_edges(self, mesh, dual):
        # weight diam(P)(|zeta| + |zeta'|) per direction pair
        areas = mesh.cell_face_measures
        a, b = np.asarray(dual.direction_pairs_local).T
        return (dual.direction_pairs_local,
                mesh.cell_diameters[:, None] * (areas[:, a] + areas[:, b]),
                None)


class _Colocated1D(Layout):
    """Cell unknowns only; f(U) is constant on the whole interval."""

    name = "colocated1d"
    dim = 1
    staggered = False
    pieces = 1
    boundary_policies = BOUNDARY_POLICIES
    scheme_source = True

    def _cell_signs(self, mesh, dual):
        return mesh.cell_face_normals[:, :, 0]

    def _face_signs(self, mesh, dual):
        return mesh.face_normals[:, 0]

    def flux_pieces(self, qv, vv, pair, mesh, dual, cells, work):
        f = pair.flux(np.take(qv, cells, axis=1, mode="clip",
                              out=work("a", (len(qv), cells.size))))
        out = work("table", f.shape + (2, 1))
        for k in range(2):
            np.multiply(f, mesh.cell_face_normals[cells, k, 0],
                        out=out[:, :, k, 0])
        return out

    def flux_cell_means(self, qv, vv, pair, mesh):
        return pair.flux(qv)[:, :, None]


RT, MAC, COLOCATED_1D = _RT(), _MAC(), _Colocated1D()
LAYOUTS = {layout.name: layout for layout in (RT, MAC, COLOCATED_1D)}


def get_layout(name: str) -> Layout:
    """The layout registered under `name`."""
    try:
        return LAYOUTS[name]
    except KeyError:
        raise ValueError(f"unknown layout {name!r}; choose from "
                         f"{', '.join(LAYOUTS)}") from None


def layout_of(v) -> Layout:
    """The staggered layout whose face velocity field `v` is."""
    for layout in LAYOUTS.values():
        if layout.staggered and isinstance(v, layout.velocity_field):
            return layout
    raise TypeError(f"not a face velocity field: {type(v).__name__}")

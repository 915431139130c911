"""Independent brute-force oracles shared by the unit and acceptance tests."""

import warnings

import numpy as np

from fvlab.consistency import (WeakRhs, _FluxDefects, compute_X1,
                               compute_X2, jump_sums, measured_constant,
                               residual_flux, residual_init, residual_time,
                               weak_form_gap)
from fvlab.fields import (_bump, _reference_at, _support_table,
                          default_translate_weights, interpolate_test,
                          translate_functional)
from fvlab.geometry import (LOCAL_OPPOSITE, DualMeshMAC, DualMeshRT,
                            MeshConstructionError, PrimalMesh,
                            build_time_grid, regularity, sum_opposite_first)
from fvlab.layouts import get_layout
from fvlab.operators import (BetaFamily, assemble_convection, convection,
                             divergence, flux_colocated_upwind_1d,
                             flux_staggered, get_pair, time_derivative)
from fvlab.quadrature import (DEFAULT_ORDER, ORACLE_ORDER, BoxQuadrature,
                              CellQuadrature, FaceQuadrature, SlabQuadrature,
                              Workspace, add_steps, composite_gauss_legendre,
                              slab_time_integrals, step_values, tensor_points)
from fvlab.schemes import SchemeConfig, sample_manufactured, scheme_levels
from fvlab.study import (BUMP_1D, ResidualReport, _audit, build_level,
                         manufactured_solution)


def face_value(q, face: int, n: int, scheme: str = "centered",
               lam: float = 0.5, signal: float = 0.0) -> float:
    """Convex face value q_zeta^n of one interior face, by scalar
    arithmetic.

    ``signal`` is v_zeta^n . n_{P,zeta} seen from the first adjacent cell;
    upwinding picks the upstream side and falls back to the centered value
    when the signal vanishes.
    """
    p, qq = q.mesh.face_cells[face]
    if qq < 0:
        raise ValueError(f"face {face} is a boundary face; apply a boundary policy")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    first, second = q.values[n, p], q.values[n, qq]
    if scheme == "centered":
        return float(lam * first + (1.0 - lam) * second)
    if scheme != "upwind":
        raise ValueError(f"unknown face scheme {scheme!r}")
    if signal > 0.0:
        return float(first)
    if signal < 0.0:
        return float(second)
    return float(0.5 * first + 0.5 * second)


def separable_phi(phi, x, t, kind="value"):
    """phi.value/dt/grad at the points x, evaluated the direct way: the
    time factor on one time per point and every bump at every point, in
    the documented product order."""
    x = np.atleast_2d(x)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[0]).copy()
    tf = phi._time_factor(t, derivative=kind == "dt")
    bumps = [_bump(x[:, d], a, b) for d, (a, b) in enumerate(phi.support)]
    if kind != "grad":
        out = tf
        for b in bumps:
            out = out * b
        return out
    out = np.empty((x.shape[0], len(bumps)))
    for d, (a, b) in enumerate(phi.support):
        g = _bump(x[:, d], a, b, derivative=True) * tf
        for e, be in enumerate(bumps):
            if e != d:
                g = g * be
        out[:, d] = g
    return out


def brute_force_flux_residual(flux, q, v, pair, mesh, grid, layout, dual):
    """Enumerate the flux-residual term table with scalar arithmetic.

    Follows the documented (step, interior cell, local face, piece) layout
    and the same per-term operation order as ``residual_flux_terms``, so the
    two tables agree bit for bit.
    """
    n_steps = grid.n_steps
    interior = np.nonzero(mesh.interior_cell_mask)[0]
    nf = mesh.cell_faces.shape[1]
    npieces = {"rt": 4, "mac": 2, "colocated1d": 1}[layout]
    terms = np.empty((n_steps, interior.size, nf, npieces))
    for ni in range(n_steps):
        dt = grid.steps[ni]
        for ii, c in enumerate(interior):
            coef = mesh.cell_diameters[c] / mesh.cell_volumes[c]
            for k in range(nf):
                f = mesh.cell_faces[c, k]
                area = mesh.face_measures[f]
                if layout == "rt":
                    fdot = (flux.values[ni, f, 0] * mesh.cell_face_normals[c, k, 0]
                            + flux.values[ni, f, 1] * mesh.cell_face_normals[c, k, 1])
                elif layout == "mac":
                    fdot = flux.values[ni, f] * dual.cell_face_delta[c, k]
                else:
                    fdot = flux.values[ni, f] * mesh.cell_face_normals[c, k, 0]
                for p in range(npieces):
                    if layout == "rt":
                        fp = mesh.cell_faces[c, p]
                        gq = pair.g(q.values[ni, c])
                        piece = gq * (v.values[ni, fp, 0]
                                      * mesh.cell_face_normals[c, k, 0]
                                      + v.values[ni, fp, 1]
                                      * mesh.cell_face_normals[c, k, 1])
                        meas = 0.25 * mesh.cell_volumes[c]
                    elif layout == "mac":
                        kk = k if p == 0 else LOCAL_OPPOSITE[k]
                        fp = mesh.cell_faces[c, kk]
                        gq = pair.g(q.values[ni, c])
                        piece = gq * (v.values[ni, fp] * dual.cell_face_delta[c, k])
                        meas = 0.5 * mesh.cell_volumes[c]
                    else:
                        fq = pair.g(q.values[ni, c])
                        piece = fq * mesh.cell_face_normals[c, k, 0]
                        meas = mesh.cell_volumes[c]
                    t = dt * coef
                    t = t * area
                    t = t * meas
                    t = t * abs(fdot - piece)
                    terms[ni, ii, k, p] = t
    return terms


def einsum_lanes(products):
    """The order in which numpy's two-operand einsum kernel (baseline
    X86_V2 build: two float64 lanes) adds one call's products p, the last
    axis of ``products``, to the call's output: lane l starts at 0.0; each
    full block of 8 products takes p[6+l], then p[4+l], p[2+l] and p[l]
    into lane l (acc = p + acc); the rest goes in pairs, a missing odd
    product counting as 0.0; the call's value is 0.0 + (lane 0 + lane 1).
    ``np.einsum("ck,rck->rc")`` calls the kernel once per row of k, and
    ``np.einsum("i,i->")`` once per block of numpy's buffer size."""
    k = products.shape[-1]
    lanes = [np.zeros(products.shape[:-1]), np.zeros(products.shape[:-1])]
    full = k // 8 * 8
    for start in range(0, full, 8):
        for lane in range(2):
            for j in (6, 4, 2, 0):
                lanes[lane] = products[..., start + j + lane] + lanes[lane]
    for i in range(full, k, 2):
        lanes[0] = products[..., i] + lanes[0]
        lanes[1] = (products[..., i + 1] if i + 1 < k else 0.0) + lanes[1]
    return 0.0 + (lanes[0] + lanes[1])


def flat_einsum_lanes(w, v, block):
    """``np.einsum("i,i->", w, v)`` by ``einsum_lanes``: one kernel call
    per consecutive block of ``block`` products, the last one ragged, and
    each call's value added to the output from +0.0 in block order."""
    products = w * v
    return add_steps([einsum_lanes(products[lo:lo + block])
                      for lo in range(0, products.size, block)])


def per_step_sum(table) -> float:
    """The documented summation order of every reported space-time sum
    (``quadrature.step_sum``), one step at a time: numpy's pairwise sum of
    each step's C-order row of the term table, the step values added left
    to right."""
    total = 0.0
    for n in range(table.shape[0]):
        total += float(np.sum(np.ascontiguousarray(table[n])))
    return total


class RowwiseMesh(PrimalMesh):
    """PrimalMesh with the row-wise formulas that ``PrimalMesh`` used before
    its column passes, verbatim: (NC, nv, dim) vertex rows reduced over
    their small axes, np.roll loops, and the face table numbered by double
    argsort.  The bit-for-bit reference for the cell, face and normal
    arrays of ``PrimalMesh``."""

    def _build_cells(self):
        verts = self.vertices[self.cell_vertices]          # (NC, nv, dim)
        if self.dim == 1:
            a = verts[:, 0, 0]
            b = verts[:, 1, 0]
            if np.any(b <= a):
                raise MeshConstructionError("degenerate 1D cell (b <= a)")
            self.cell_volumes = b - a
            self.cell_diameters = b - a
            self.cell_centroids = (0.5 * (a + b))[:, None]
        else:
            x = verts[:, :, 0]
            y = verts[:, :, 1]
            xn = np.roll(x, -1, axis=1)
            yn = np.roll(y, -1, axis=1)
            cross = x * yn - xn * y
            area2 = cross.sum(axis=1)
            if np.any(area2 <= 0):
                bad = int(np.argmax(area2 <= 0))
                raise MeshConstructionError(
                    f"cell {bad} is not counter-clockwise or degenerate")
            self.cell_volumes = 0.5 * area2
            cx = ((x + xn) * cross).sum(axis=1) / (6.0 * self.cell_volumes)
            cy = ((y + yn) * cross).sum(axis=1) / (6.0 * self.cell_volumes)
            self.cell_centroids = np.stack([cx, cy], axis=1)
            # diameter = largest pairwise vertex distance
            diff = verts[:, :, None, :] - verts[:, None, :, :]
            self.cell_diameters = np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))

    def _face_keys(self, fv):
        if fv.shape[1] == 1:
            return fv[:, 0]
        return fv.min(axis=1) * self.n_vertices + fv.max(axis=1)

    def _local_faces(self, cells=slice(None)):
        loop = self.cell_vertices[cells]
        if self.dim == 2:
            loop = np.stack([loop, np.roll(loop, -1, axis=1)], axis=-1)
        fv = loop.reshape(-1, self.dim)
        return fv, self._face_keys(fv)

    def _build_faces(self):
        local, keys = self._local_faces()
        pos = np.argsort(keys, kind="stable")       # appearances, key by key
        new = np.r_[True, np.diff(keys[pos]) != 0]
        key = np.cumsum(new) - 1
        nth = np.arange(pos.size) - np.flatnonzero(new)[key]
        fid = np.argsort(np.argsort(pos[new]))[key]
        cell_faces = fid[np.argsort(pos)]           # pos inverted
        if np.any(nth > 1):
            raise MeshConstructionError(
                f"face {cell_faces[pos[nth > 1].min()]} shared by >2 cells")
        self.face_cells = np.full((new.sum(), 2), -1)
        self.face_cells[fid, nth] = pos // self.cell_vertices.shape[1]
        self.face_vertices = local[np.sort(pos[new])]
        self.cell_faces = cell_faces.reshape(self.cell_vertices.shape)
        self._derive_face_geometry()

    def _derive_face_geometry(self, stored_normals=None):
        super()._derive_face_geometry(stored_normals)
        if self.dim == 2:
            va = self.vertices[self.face_vertices[:, 0]]
            vb = self.vertices[self.face_vertices[:, 1]]
            self.face_midpoints = 0.5 * (va + vb)
            self.face_measures = np.sqrt(((vb - va) ** 2).sum(-1))

    def _rowwise_edges(self, cells=slice(None)):
        loop = self.vertices[self.cell_vertices[cells]]
        return np.roll(loop, -1, axis=1) - loop

    def _edge_normals(self, cells=slice(None)):
        edge = self._rowwise_edges(cells)
        length = np.sqrt((edge ** 2).sum(-1))
        return np.stack([edge[:, :, 1] / length, -edge[:, :, 0] / length],
                        axis=-1)

    def _local_index(self, cells, faces):
        hits = self.cell_faces[cells] == np.expand_dims(faces, -1)
        return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)

    def is_rectangular(self) -> bool:
        if self.dim == 1:
            return True
        edge = self._rowwise_edges()
        horiz = edge[:, [0, 2], 1] == 0.0
        vert = edge[:, [1, 3], 0] == 0.0
        return bool(horiz.all() and vert.all())


def float64_save_mesh(mesh, path):
    """``save_mesh`` with the row writer it had before formatting each
    column from its own dtype, verbatim: a section's columns go through
    one np.column_stack, floats whenever one column is."""
    def write_rows(fh, fmt, *columns):
        rows = np.column_stack(columns)
        for lo in range(0, len(rows), 4096):
            part = rows[lo:lo + 4096]
            fh.write((f"{fmt}\n" * len(part)) % tuple(part.ravel().tolist()))

    real = " %.17g" * mesh.dim
    ids = [np.arange(n) for n in (mesh.n_vertices, mesh.n_cells, mesh.n_faces)]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"fvlab-mesh 1\ndim {mesh.dim}\ndomain "
                 + " ".join("%.17g" % b for ab in mesh.domain for b in ab)
                 + f"\nvertices {mesh.n_vertices}\n")
        write_rows(fh, "%d" + real, ids[0], mesh.vertices)
        fh.write(f"cells {mesh.n_cells}\n")
        write_rows(fh, "%d" + " %d" * mesh.cell_vertices.shape[1], ids[1],
                   mesh.cell_vertices)
        fh.write(f"faces {mesh.n_faces}\n")
        write_rows(fh, "%d" + " %d" * (mesh.face_vertices.shape[1] + 2)
                   + real, ids[2], mesh.face_vertices, mesh.face_cells,
                   mesh.face_normals)


class ScalarFaceMesh(RowwiseMesh):
    """PrimalMesh whose face table is built, adopted and oriented one cell
    face at a time through a dict of sorted vertex tuples: the reference
    for the array face code of ``PrimalMesh``.  Its cell arrays, face
    measures and normals come from the row-wise formulas of
    ``RowwiseMesh``."""

    def _scalar_local_faces(self):
        nv = self.cell_vertices.shape[1]
        for c, loop in enumerate(self.cell_vertices):
            if self.dim == 1:
                local = [(loop[0],), (loop[1],)]
            else:
                local = [(loop[k], loop[(k + 1) % nv]) for k in range(nv)]
            for k, fv in enumerate(local):
                yield c, k, fv

    def _build_faces(self):
        face_of = {}
        face_vertices = []
        face_cells = []
        cell_faces = np.empty(self.cell_vertices.shape, dtype=np.int64)
        for c, k, fv in self._scalar_local_faces():
            key = tuple(sorted(fv))
            fid = face_of.get(key)
            if fid is None:
                fid = len(face_vertices)
                face_of[key] = fid
                face_vertices.append(fv)
                face_cells.append([c, -1])
            else:
                if face_cells[fid][1] != -1:
                    raise MeshConstructionError(f"face {fid} shared by >2 cells")
                face_cells[fid][1] = c
            cell_faces[c, k] = fid
        self.face_vertices = np.asarray(face_vertices, dtype=np.int64)
        self.face_cells = np.asarray(face_cells, dtype=np.int64)
        self.cell_faces = cell_faces
        self._derive_face_geometry()

    def _adopt_faces(self, face_vertices, face_cells, face_normals):
        self.face_vertices = np.ascontiguousarray(face_vertices, dtype=np.int64)
        self.face_cells = np.ascontiguousarray(face_cells, dtype=np.int64)
        face_of = {tuple(sorted(fv)): i
                   for i, fv in enumerate(self.face_vertices)}
        cell_faces = np.empty(self.cell_vertices.shape, dtype=np.int64)
        for c, k, fv in self._scalar_local_faces():
            try:
                cell_faces[c, k] = face_of[tuple(sorted(fv))]
            except KeyError:
                raise MeshConstructionError(
                    f"cell {c} references missing face {fv}") from None
        self.cell_faces = cell_faces
        self._derive_face_geometry(stored_normals=face_normals)

    def _finalize(self):
        super()._finalize()
        normals = np.empty((self.n_faces, self.dim))
        cells = np.arange(self.n_cells)
        for k in range(self.cell_faces.shape[1]):
            fids = self.cell_faces[:, k]
            owner = self.face_cells[fids, 0] == cells
            normals[fids[owner]] = self.cell_face_normals[owner, k]
        normals.setflags(write=False)
        self.face_normals = normals


def local_face_index(mesh, cell, face) -> int:
    """The position of the first match of `face` in the cell's face list."""
    for k, f in enumerate(mesh.cell_faces[cell]):
        if f == face:
            return k
    raise KeyError(f"face {face} is not a face of cell {cell}")


def scalar_outward_normal(mesh, cell, face):
    """n_{cell,face}: the normal at the first match of `face` in the cell's
    face list."""
    return mesh.cell_face_normals[cell, local_face_index(mesh, cell, face)]


def scalar_mesh_identities(mesh, dual=None):
    """``check_mesh_identities`` with the antisymmetry test run face by
    face; the same messages in the same order.  Every test reads
    ``not value <= tol``, so a NaN is a violation."""
    rt = dual if isinstance(dual, DualMeshRT) else None
    mac = dual if isinstance(dual, DualMeshMAC) else None
    bad = []
    areas = mesh.face_measures[mesh.cell_faces]
    closure = np.einsum("cf,cfd->cd", areas, mesh.cell_face_normals)
    norm = np.sqrt((closure ** 2).sum(-1))
    tol = 1e-12 * areas.sum(axis=1)
    for c in np.nonzero(~(norm <= tol))[0]:
        bad.append(f"cell {c}: face closure sum violated (|sum|={norm[c]:.3e})")
    for f in np.nonzero(mesh.interior_face_mask)[0]:
        p, q = mesh.face_cells[f]
        pair = (scalar_outward_normal(mesh, p, f)
                + scalar_outward_normal(mesh, q, f))
        if not np.sqrt((pair ** 2).sum()) <= 1e-14:
            bad.append(f"face {f}: normals not antisymmetric")
    if mesh.dim == 2:
        loop = mesh.vertices[mesh.cell_vertices]
        edge = np.roll(loop, -1, axis=1) - loop
        length = np.sqrt((edge ** 2).sum(-1))
        geom = np.stack([edge[:, :, 1] / length, -edge[:, :, 0] / length],
                        axis=-1)
        err = np.sqrt(((geom - mesh.cell_face_normals) ** 2).sum(-1))
        for c, k in zip(*np.nonzero(~(err <= 1e-12))):
            bad.append(f"face {mesh.cell_faces[c, k]}: stored normal differs "
                       f"from geometry (cell {c})")
    if not np.all(mesh.cell_volumes > 0):
        bad.append("non-positive cell measure")
    omega = 1.0
    for a, b in mesh.domain:
        omega *= (b - a)
    total = float(mesh.cell_volumes.sum())
    if not abs(total - omega) <= 1e-12 * omega:
        bad.append(f"cell measures sum to {total!r}, expected {omega!r}")
    if rt is not None:
        half_sum = rt.half_measures.sum(axis=1)
        for c in np.nonzero(half_sum != mesh.cell_volumes)[0]:
            bad.append(f"cell {c}: RT half-dual measures do not sum to |P|")
    if mac is not None:
        for i in (0, 1):
            tot = float(mac.dual_measures[mac.face_family == i].sum())
            if not abs(tot - omega) <= 1e-12 * omega:
                bad.append(f"MAC duals of direction {i + 1} sum to {tot!r}, "
                           f"expected {omega!r}")
    return bad


# the manufactured q of fvlab.study written out as plain f(x, t), in the
# left-to-right product order the solutions' evaluators must keep
CLOSED_FORMS = {
    "sinsin_cos": lambda x, t: np.sin(np.pi * x[:, 0])
    * np.sin(np.pi * x[:, 1]) * np.cos(t),
    "sinsin_shear": lambda x, t: 1.0 + 0.5 * np.sin(np.pi * x[:, 0])
    * np.sin(np.pi * x[:, 1]) * np.cos(t),
    "bump_advect_1d": lambda x, t: _bump(np.atleast_2d(x)[:, 0]
                                         - np.asarray(t), *BUMP_1D),
}


def slab_integrals_per_slab(slab, f, n):
    """Slab integrals of step n the per-slab way: ``f(t)``, the values on
    the ``slab.cell`` nodes at time t, is called once per Gauss time, and
    the weighted cell integrals are added in time order."""
    t0 = slab.grid.knots[n]
    t1 = slab.grid.knots[n + 1]
    half = 0.5 * (t1 - t0)
    out = np.zeros(slab.cell.points.shape[0])
    for tn, tw in zip(0.5 * (t0 + t1) + half * slab.tnodes1d,
                      half * slab.tweights1d):
        out += tw * slab.cell.cell_integrals(f(tn))
    return out


def l1_distance_per_slab(field, ref, order=4):
    """The L1 distance of ``lp_distance`` with one ``ref(x, t)`` call per
    Gauss time of every slab, the slab sums added in step order."""
    slab = SlabQuadrature(CellQuadrature(field.mesh, order), field.grid)
    total = 0.0
    for n in range(field.grid.n_steps):
        qn = field.values[n][:, None]
        total += slab_integrals_per_slab(
            slab, lambda t: np.abs(qn - slab.cell.values(ref, t)), n).sum()
    return float(total)


def tensor_field_per_call(field):
    """A cell field on a tensor mesh as f(x, t), locating the time level
    and the cell of every point anew at each call."""
    mesh, grid = field.mesh, field.grid
    nodes = [np.unique(mesh.vertices[:, d]) for d in range(mesh.dim)]
    shape = tuple(axis.size - 1 for axis in nodes)
    table = field.values.reshape((grid.n_steps + 1,) + shape)

    def fn(x, t):
        x = np.atleast_2d(x)
        n = int(np.clip(np.searchsorted(grid.knots, t, side="right") - 1,
                        0, grid.n_steps - 1))
        cell = tuple(np.clip(np.searchsorted(axis, x[:, d], side="right") - 1,
                             0, size - 1)
                     for d, (axis, size) in enumerate(zip(nodes, shape)))
        return table[n][cell]

    return fn


def assert_bitwise(a, b):
    """Equal shapes and equal bytes: values, NaNs and signs of zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes(), np.abs(a - b).max()


def cell_rule_einsum(mesh, order=4, panels=1, rows=None):
    """points, weights and normalised weights of a 2D ``CellQuadrature``
    formed the earlier way: each bilinear map (nodes and both Jacobian
    columns) by one ``einsum("vk,cvd->ckd")`` over all cells at once."""
    rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    nodes1d, w1d = composite_gauss_legendre(order, panels)
    verts = mesh.vertices[mesh.cell_vertices[rows]]
    xi, eta = (a.ravel() for a in np.meshgrid(nodes1d, nodes1d,
                                              indexing="ij"))
    shape = np.stack([0.25 * (1 - xi) * (1 - eta), 0.25 * (1 + xi) * (1 - eta),
                      0.25 * (1 + xi) * (1 + eta), 0.25 * (1 - xi) * (1 + eta)])
    dxi = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    deta = 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    points = np.einsum("vk,cvd->ckd", shape, verts)
    jx = np.einsum("vk,cvd->ckd", dxi, verts)
    je = np.einsum("vk,cvd->ckd", deta, verts)
    jac = jx[:, :, 0] * je[:, :, 1] - jx[:, :, 1] * je[:, :, 0]
    weights = np.outer(w1d, w1d).ravel()[None, :] * jac
    return points, weights, weights / weights.sum(axis=1)[:, None]


def interpolate_test_all_rows(phi, mesh, grid, order=4, panels=4):
    """phi_cell, phi_face and grad_phi of ``interpolate_test`` formed
    unfactored: the means of phi(., t_n) on every cell and face at every
    knot, support or not.  phi may override ``at`` with an evaluator that
    has ``value(t)`` only."""
    cq = CellQuadrature(mesh, order, panels)
    fq = FaceQuadrature(mesh, order, panels)
    n_lev = grid.n_steps + 1
    phi_cell = np.empty((n_lev, mesh.n_cells))
    phi_face = np.empty((n_lev, mesh.n_faces))
    on_cells = phi.at(cq.flat_points())
    on_faces = phi.at(fq.points.reshape(-1, mesh.dim))
    for n, t in enumerate(grid.knots):
        phi_cell[n] = cq.cell_means(on_cells.value(t))
        phi_face[n] = fq.face_means(on_faces.value(t))
    areas = mesh.face_measures[mesh.cell_faces]
    weights = areas[:, :, None] * mesh.cell_face_normals
    face_vals = phi_face[:, mesh.cell_faces]
    if weights.shape[1] == 4:
        gsum = sum_opposite_first(face_vals[..., None] * weights[None], axis=2)
    else:
        gsum = np.einsum("ncf,cfd->ncd", face_vals, weights)
    return phi_cell, phi_face, gsum / mesh.cell_volumes[None, :, None]


def materialise(interp):
    """phi_P^n, phi_zeta^n and the face-mean gradient of an
    ``InterpolatedTest`` at every knot, each ``tf[n] * table``: shapes
    (N+1, NC), (N+1, NF) and (N+1, NC, dim)."""
    tf = interp.tf
    return (tf[:, None] * interp.cell_table, tf[:, None] * interp.face_table,
            tf[:, None, None] * interp.grad_table)


def residual_time_slab(betas, phi, space_order=4):
    """The signed sum of ``residual_time`` and its term mass sum |terms|,
    with phi's slab integrals formed unfactored: phi.value on every node of
    the (cell x time-slab) rule of every cell (``slab_cell_integrals``)."""
    mesh = betas.mesh
    slab = SlabQuadrature(CellQuadrature(mesh, space_order), betas.grid)
    on_cells = phi.at(slab.cell.flat_points())
    # every cell varies (the rule's default), so f is asked for all cells
    phi_int = slab.slab_cell_integrals(
        lambda steps, tn, cells: on_cells.value(tn[..., None]))
    terms = (np.diff(betas.values, axis=0)
             * phi_int)[:, mesh.interior_cell_mask]
    return float(terms.sum()), float(np.abs(terms).sum())


def weak_rhs_whole(pair, q_exact, v_exact, phi, order=ORACLE_ORDER,
                   panels=12):
    """``weak_rhs`` with each volume integrand formed on the whole
    space-time box at once: the reported terms summed by the same flat
    ``BoxQuadrature.integrate``, the order+2 check as the documented
    summation order (``per_step_sum``) of the whole box's weighted
    integrand, one row per node of the first axis."""
    dim = phi.dim
    space_box = BoxQuadrature(list(phi.support), panels, order)
    phi_x0 = phi.at_grid(space_box.grid_axes).value(0.0).ravel()
    init = -space_box.integrate(pair.beta(q_exact(space_box.points, 0.0))
                                * phi_x0)
    bounds = list(phi.support) + [(0.0, phi.t_max)]

    def integrands(box):
        x = tensor_points(box.grid_axes[:dim])
        t_axis = box.grid_axes[dim]
        times = t_axis.ravel()
        on_box = phi.at_grid(box.grid_axes[:dim])
        qb = np.asarray(_reference_at(q_exact, x, times), dtype=float).ravel()
        time = pair.beta(qb) * on_box.dt(t_axis).ravel()
        grad = on_box.grad(t_axis).reshape(-1, dim)
        if v_exact is None:
            space = pair.g(qb) * grad[:, 0]
        else:
            vv = np.asarray(_reference_at(v_exact, x, times),
                            dtype=float).reshape(-1, dim)
            space = pair.g(qb) * np.einsum("nd,nd->n", vv, grad)
        return time, space

    box = BoxQuadrature(bounds, panels, order)
    time, space = integrands(box)
    vol_time, vol_space = -box.integrate(time), -box.integrate(space)
    volume = vol_time + vol_space
    box = BoxQuadrature(bounds, panels, order + 2)
    time, space = integrands(box)
    terms = box.weights * (time + space)
    vol2 = -per_step_sum(terms.reshape(box.grid_axes[0].size, -1))
    delta = abs(volume - vol2)
    if delta > 1e-7 * (1.0 + abs(volume)):
        warnings.warn(f"weak-form volume quadrature disagreement "
                      f"{delta:.3e}", stacklevel=2)
    return WeakRhs(init + volume, init, volume, vol_time, vol_space, delta)


def compute_level_by_stages(config, level, phi, rhs, base_reg):
    """(report, q) of one study level with every stage run on its own over
    the whole level, in turn: the flux family, C(U), X1, X2, the init,
    time and flux residuals, the jumps, the translate functional, the
    weak-form gap, the sup norms and the measured constant, each a public
    whole-level function of fvlab, and the L1 distance to the limit by
    ``l1_distance_per_slab`` on its closed form (``CLOSED_FORMS``).  The
    oracle of ``fvlab.study._compute_level`` and its one-pass
    ``level_pass``."""
    mesh, dual, h_ref = build_level(config, level)
    layout = get_layout(config.layout)
    sol = manufactured_solution(config.solution)
    q_exact, v_exact = sol["q"], sol["v"]
    q0 = lambda x: q_exact(x, 0.0)
    pair = get_pair(config.beta_name, config.g_name)
    extras = {}
    if config.field_source == "manufactured":
        n_steps = max(1, round(config.T / (config.dt_over_h * h_ref)))
        grid = build_time_grid(config.T, n_steps, pattern=config.time_pattern,
                               ratio=config.time_ratio)
        q, v = sample_manufactured(q_exact, v_exact, config.layout, mesh, dual,
                                   grid, order=config.quad_order)
    else:
        scheme_cfg = SchemeConfig(q0=q0, T=config.T,
                                  cfl=config.cfl, velocity=v_exact,
                                  boundary_policy=config.boundary_policy,
                                  quad_order=config.quad_order)
        q, v, grid, ledger = collect_scheme(layout, mesh, dual, scheme_cfg)
        extras["scheme_min"] = float(q.values.min())
        extras["scheme_max"] = float(q.values.max())
        extras["mass_defect"] = ledger.max_relative_defect()
    reg = regularity(mesh, grid, dual)
    _audit(config, level, reg, base_reg)
    if layout.staggered:
        flux = flux_staggered(q, v, pair, scheme=config.face_scheme,
                              lam=config.lam, policy=config.boundary_policy)
    else:
        flux = flux_colocated_upwind_1d(q, policy=config.boundary_policy)
    betas = BetaFamily.from_field(q, pair)
    conv = assemble_convection(betas, flux)
    interp = interpolate_test(phi, mesh, grid, order=config.quad_order,
                              panels=config.interp_panels)
    x1 = compute_X1(betas, interp)
    x2 = compute_X2(flux, interp, q=q, v=v, pair=pair)
    init = residual_init(betas, q0, phi, pair, order=config.oracle_order)
    times = residual_time(betas, q, phi, pair, space_order=config.quad_order)
    rflux = residual_flux(flux, q, v, pair, mesh, grid, config.layout, dual)
    jumps = jump_sums(q, v)
    weights = default_translate_weights(mesh, grid, theta=config.translate_theta)
    trans = translate_functional(q, weights)
    gap = weak_form_gap(conv, interp, rhs)
    sup_norm = q.sup_norm()
    if v is not None:
        sup_norm = max(sup_norm, v.sup_norm())
    # the limit as a plain f(x, t), called at every Gauss time of a slab
    l1 = l1_distance_per_slab(q, CLOSED_FORMS[config.solution],
                              order=config.quad_order)
    report = ResidualReport(
        level=level, h=mesh.delta(), dt=grid.dt_max, theta1=reg.theta1,
        theta2=reg.theta2, theta3=reg.theta3, x1=x1.value, x2=x2.value,
        res_init=init.cellwise, res_time=times.majorant, res_flux=rflux,
        r1=jumps.r1, r2=jumps.r2, translate=trans, weak_gap=gap.gap,
        sup_norm=sup_norm, theta_mac=reg.theta_mac,
        res_init_signed=init.signed, res_init_l1=init.l1_majorant,
        res_time_signed=times.signed, x2_gradient=x2.gradient_route,
        rt_constant=(jumps.rt_constant if jumps.rt_constant is not None
                     else np.nan),
        measured_c=measured_constant(q, v, pair),
        l1_distance=l1, **extras)
    return report, q


def bump_masked(s, a, b, derivative=False):
    """exp(-1/(1-u^2)) rescaled to (a, b), or its derivative in s, formed
    on the masked points |u| < 1 only and +0.0 elsewhere: the oracle of
    ``fields._bump``."""
    s = np.asarray(s, dtype=float)
    u = (2.0 * s - (a + b)) / (b - a)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    one = 1.0 - ui * ui
    value = np.exp(-1.0 / one)
    if derivative:
        value = value * (-2.0 * ui / one ** 2) * (2.0 / (b - a))
    out[inside] = value
    return out


def collect_scheme(layout, mesh, dual, config):
    """``schemes.scheme_levels`` of the layout collected whole: (q, v,
    grid, ledger), v None in 1D."""
    source = scheme_levels(layout, mesh, dual, config)
    q, v = source.collect()
    return q, v, source.grid, source.ledger


def march_by_steps(source):
    """The levels q^0..q^N and the mass ledger (mass, boundary flux) of a
    ``schemes.SchemeLevels`` source marched step by step into one whole
    (N + 1, NC) array, v sampled whole first: the oracle of its chunked
    march."""
    mesh, grid, layout, dual = source.mesh, source.grid, source.layout, source.dual
    config = source.config
    n = grid.n_steps
    v = None
    if layout.staggered:
        v = np.stack([layout.velocity_at(config.velocity, mesh, dual, t)
                      for t in grid.knots])
    dt = float(grid.steps[0])
    vols = mesh.cell_volumes
    bfaces, bweights = layout.boundary_weights(mesh, dual)
    values = np.empty((n + 1, mesh.n_cells))
    quad = CellQuadrature(mesh, config.quad_order)
    values[0] = quad.cell_means(quad.values(config.q0))
    mass, boundary = np.empty(n + 1), np.empty(n)
    mass[0] = float(np.dot(vols, values[0]))
    for k in range(n):
        flux = source.fluxes(values[k:k + 1], None if v is None else v[k:k + 1])
        div = divergence(layout.cell_normal(flux, mesh, dual), mesh)[0]
        values[k + 1] = values[k] - (dt / vols) * div
        mass[k + 1] = float(np.dot(vols, values[k + 1]))
        boundary[k] = dt * float((flux[0, bfaces] * bweights).sum())
    return values, v, mass, boundary


# ----------------------------------------------------------------------
# the broadcasting forms of the chunk tables, each table formed whole by
# numpy broadcasting over its short face or piece axis: the oracles of
# the forms that loop over faces and pieces with the cells innermost

def flux_pieces_broadcast(layout, qv, vv, pair, mesh, dual):
    """f(U).n_{P,zeta} on each piece of every cell, (N, NC, nf, pieces)."""
    if layout.name == "colocated1d":
        return (pair.g(qv)[:, :, None, None]
                * mesh.cell_face_normals[None, :, :, 0:1])
    vcf = vv[:, mesh.cell_faces]
    if layout.name == "rt":
        dots = np.einsum("ncpd,ckd->nckp", vcf, mesh.cell_face_normals)
        return pair.g(qv)[:, :, None, None] * dots
    delta = dual.cell_face_delta[None, :, :]
    own = vcf * delta
    opp = vcf[:, :, LOCAL_OPPOSITE] * delta
    return pair.g(qv)[:, :, None, None] * np.stack([own, opp], axis=-1)


def defect_table_broadcast(defects, fdotn, qv, vv):
    """``_FluxDefects.table``: F.n of the interior cells minus their
    pieces."""
    piece = flux_pieces_broadcast(defects.layout, qv, vv, defects.pair,
                                  defects.mesh, defects.dual)
    return (np.take(fdotn, defects.cells, axis=1)[:, :, :, None]
            - np.take(piece, defects.cells, axis=1))


def residual_terms_broadcast(defects, dt, table):
    """``_FluxDefects.residual_terms``."""
    return (dt[:, None, None, None]
            * defects.diam_coef[None, :, None, None]
            * defects.areas[None, :, :, None]
            * defects.meas[None, :, :, :]
            * np.abs(table))


def x2_tables_broadcast(defects, dt, qv, vv, table, interp, tf):
    """The gradient and remainder tables of ``_FluxDefects.x2_terms``."""
    mean_f = defects.layout.flux_cell_means(qv, vv, defects.pair,
                                            defects.mesh)[:, defects.cells]
    grad = tf[:, None, None] * interp.grad_table[defects.cells]
    gradient = -(dt[:, None] * np.einsum("ncd,ncd->nc", mean_f, grad)
                 * defects.vols)
    tf = tf[:, None, None]
    dphi = (tf * interp.cell_table[defects.cells, None]
            - tf * interp.face_table[defects.cell_faces])
    remainder = (dt[:, None, None, None]
                 * (defects.x2_coef[None] * (table * dphi[:, :, :, None])))
    return gradient, remainder


def jump_tables_broadcast(jumps, dt, qv, vv):
    """The R1 cell-sum and face-sum tables of ``_JumpTerms.terms``, and
    the R2 table when vv is given."""
    r1 = dt[:, None, None] * np.abs(
        qv[:, :, None] - qv[:, jumps.other]) * jumps.w_ck
    r1_face = (dt[:, None] * np.abs(qv[:, jumps.p] - qv[:, jumps.r])
               * jumps.omega)
    if vv is None:
        return r1, r1_face, None
    a, b = np.asarray(jumps.edges).T
    vcf = vv[:, jumps.mesh.cell_faces]
    r2 = (dt[:, None, None]
          * jumps.layout.magnitude(vcf[:, :, a] - vcf[:, :, b]) * jumps.weights)
    return r1, r1_face, r2


def phi_weighted_full(q, v, pair, fluxes, interp, layout, dual,
                      space_order=DEFAULT_ORDER):
    """X1 (direct and by parts), X2 (direct, gradient term, remainder),
    the weak LHS and the signed time residual of a level by name, each
    from its (step, ...) tables over every step of the level, past phi's
    last live step too, by the operations of the level pass's terms: the
    oracle of their walk over each chunk's head.  q and v are the whole
    levels (v None in 1D) and ``fluxes`` the layout's flux rule."""
    mesh, grid = interp.mesh, interp.grid
    dt, vols, n = grid.steps[:, None], mesh.cell_volumes, grid.n_steps
    qv, vv = q[:-1], None if v is None else v[:-1]
    beta = pair.beta(q)
    dtb = time_derivative(beta, grid.steps)
    fdotn = layout.cell_normal(fluxes(qv, vv), mesh, dual)
    div = divergence(fdotn, mesh)
    phi = interp.cells(slice(0, n))

    def total(table):
        return add_steps(step_values(table))

    start = float(np.einsum("c,c->", vols, beta[0] * interp.cells(0)))
    series = (np.diff(interp.tf)[:, None] * interp.cell_table) * beta[1:]
    defects = _FluxDefects(mesh, layout, dual, pair, Workspace())
    gradient, remainder = x2_tables_broadcast(
        defects, grid.steps, qv, vv,
        defect_table_broadcast(defects, fdotn, qv, vv), interp,
        interp.tf[:n])
    cells = defects.cells
    space_int = _support_table(interp.phi, CellQuadrature, mesh, space_order,
                               1, CellQuadrature.cell_integrals)[cells]
    time_int = slab_time_integrals(grid.knots, interp.phi._time_factor)
    out = dict(x1=total(dt * (dtb * phi) * vols),
               x1_by_parts=-start - total(series * vols),
               x2=total(dt * (div * phi)), x2_gradient=total(gradient),
               x2_remainder=total(remainder),
               lhs=total(dt * (convection(dtb, div, mesh) * phi) * vols),
               time_signed=total(np.diff(beta[:, cells], axis=0)
                                 * (time_int[:, None] * space_int)))
    out["x2_gradient_route"] = out["x2_gradient"] + out["x2_remainder"]
    return out

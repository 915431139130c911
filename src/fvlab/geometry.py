"""Primal meshes (1D intervals, 2D Cartesian and perturbed quadrangles),
RT and MAC dual meshes, time grids and regularity parameters.

Meshes are immutable after construction (arrays are marked read-only) and
deterministic for a fixed seed.  Cell face lists follow a fixed local order:
``[left, right]`` in 1D and ``[bottom, right, top, left]`` for quadrangles
(edges of the counter-clockwise vertex loop), so opposite faces sit at local
positions (0, 2) and (1, 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PrimalMesh", "TimeGrid", "DualMeshRT", "DualMeshMAC", "MeshRegularity",
    "build_intervals", "build_cartesian", "build_perturbed_quads",
    "build_tensor", "subdivide_nodes", "build_dual_rt", "build_dual_mac",
    "build_time_grid", "regularity", "check_mesh_identities",
    "MeshConstructionError", "LOCAL_OPPOSITE", "sum_opposite_first",
    "TIME_PATTERNS",
]

TIME_PATTERNS = ("uniform", "alternating")

# local-face index pairs for quadrangles
QUAD_ADJACENT_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 0))
LOCAL_OPPOSITE = (2, 3, 0, 1)   # the opposite of each local face
# opposite pairs with the fixed two-hop via-face used to split their jump
QUAD_OPPOSITE_PAIRS = ((0, 2, 1), (1, 3, 2))


class MeshConstructionError(ValueError):
    pass


def sum_opposite_first(terms, axis: int):
    """Sum over the local faces of a cell along ``axis``: the two of an
    interval, t0 + t1, and the four of a quadrangle with opposite faces
    paired first, (t0 + t2) + (t1 + t3).  Constant states cancel bitwise on
    rectangles in this order."""
    lead = (slice(None),) * (axis % terms.ndim)
    t = [terms[lead + (k,)] for k in range(terms.shape[axis])]
    if len(t) == 2:
        return t[0] + t[1]
    return (t[0] + t[2]) + (t[1] + t[3])


class PrimalMesh:
    """Polygonal mesh: cells, deduplicated faces, adjacency and metrics.

    Parameters
    ----------
    vertices : (NV, dim) array
    cell_vertices : (NC, 2) or (NC, 4) int array
        Vertex loops; counter-clockwise in 2D.
    domain : sequence of per-axis (lo, hi) bounds of the meshed box.
    """

    def __init__(self, vertices, cell_vertices, domain, face_normals=None,
                 face_cells=None, face_vertices=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cell_vertices = np.ascontiguousarray(cell_vertices, dtype=np.int64)
        self.dim = self.vertices.shape[1]
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        if self.dim not in (1, 2):
            raise MeshConstructionError(f"dimension must be 1 or 2, got {self.dim}")
        cv = self.cell_vertices
        bad = ((cv < 0) | (cv >= len(self.vertices))).any(axis=1)
        if bad.any():
            c = int(np.argmax(bad))
            raise MeshConstructionError(
                f"cell {c} names vertices {cv[c].tolist()}, outside the "
                f"{len(self.vertices)} vertices")
        self._build_cells()
        if face_vertices is None:
            self._build_faces()
        else:
            self._adopt_faces(face_vertices, face_cells, face_normals)
        self._finalize()

    # ------------------------------------------------------------------
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
        """One integer per face (row of vertex ids `fv`): the vertex in 1D,
        min*NV + max in 2D."""
        if fv.shape[1] == 1:
            return fv[:, 0]
        return fv.min(axis=1) * self.n_vertices + fv.max(axis=1)

    def _local_faces(self):
        """Vertices and keys of every cell face, cell-major in the fixed
        local order: a vertex in 1D, an edge of the loop in 2D."""
        loop = self.cell_vertices
        if self.dim == 2:
            loop = np.stack([loop, np.roll(loop, -1, axis=1)], axis=-1)
        fv = loop.reshape(-1, self.dim)
        return fv, self._face_keys(fv)

    def _build_faces(self):
        """Deduplicate the local faces by key with one stable sort.  Faces
        are numbered in order of first appearance (cell-major, local order);
        a face's first and second appearances give its two cells."""
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

    def _adopt_faces(self, face_vertices, face_cells, face_normals):
        """Adopt an explicit face table (mesh import); normals kept as given."""
        self.face_vertices = np.ascontiguousarray(face_vertices, dtype=np.int64)
        self.face_cells = np.ascontiguousarray(face_cells, dtype=np.int64)
        fc, fv = self.face_cells, self.face_vertices
        bad = ((fc[:, 0] < 0) | (fc[:, 1] < -1) | (fc >= self.n_cells).any(axis=1)
               | ((fv < 0) | (fv >= self.n_vertices)).any(axis=1))
        if bad.any():
            f = int(np.argmax(bad))
            raise MeshConstructionError(
                f"face {f} names cells {fc[f, 0]} and {fc[f, 1]} and vertices "
                f"{fv[f].tolist()}, outside the {self.n_cells} cells or the "
                f"{self.n_vertices} vertices")
        # a key shared by several faces resolves to the last of them
        keys = self._face_keys(self.face_vertices)
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = np.append(keys[by_key], -1)   # -1: below every key
        local, want = self._local_faces()
        at = np.searchsorted(sorted_keys[:-1], want, side="right") - 1
        missing = np.flatnonzero(sorted_keys[at] != want)
        if missing.size:
            raise MeshConstructionError(
                f"cell {missing[0] // self.cell_vertices.shape[1]} references "
                f"missing face {tuple(local[missing[0]].tolist())}")
        self.cell_faces = by_key[at].reshape(self.cell_vertices.shape)
        self._derive_face_geometry(stored_normals=face_normals)

    def _derive_face_geometry(self, stored_normals=None):
        if self.dim == 1:
            self.face_midpoints = self.vertices[self.face_vertices[:, 0]]
            self.face_measures = np.ones(self.n_faces)
        else:
            va = self.vertices[self.face_vertices[:, 0]]
            vb = self.vertices[self.face_vertices[:, 1]]
            self.face_midpoints = 0.5 * (va + vb)
            self.face_measures = np.sqrt(((vb - va) ** 2).sum(-1))
            if np.any(self.face_measures <= 0):
                raise MeshConstructionError("zero-length face")
        # outward normals per (cell, local face), from the cell's own loop
        normals = self.cell_face_normals = (
            np.tile([[-1.0], [1.0]], (self.n_cells, 1, 1)) if self.dim == 1
            else self._edge_normals())
        if stored_normals is not None:
            # import path: the file's per-face normal (as seen from its first
            # cell) replaces the derived one, so corruption stays observable
            stored = np.ascontiguousarray(stored_normals, dtype=float)
            for side in (0, 1):
                f = np.flatnonzero(self.face_cells[:, side] >= 0)
                c = self.face_cells[f, side]
                k = self._local_index(c, f)
                if np.any(k < 0):
                    i = int(np.argmax(k < 0))
                    raise MeshConstructionError(
                        f"face {f[i]} names cell {c[i]}, which does not "
                        f"hold it")
                normals[c, k] = stored[f] if side == 0 else -stored[f]

    def _cell_edges(self):
        """(NC, nv, 2) counter-clockwise edge vectors of the cell loops."""
        loop = self.vertices[self.cell_vertices]
        return np.roll(loop, -1, axis=1) - loop

    def _edge_normals(self):
        """(NC, nv, 2) outward unit normals of the cell edges (2D)."""
        edge = self._cell_edges()
        length = np.sqrt((edge ** 2).sum(-1))
        return np.stack([edge[:, :, 1] / length, -edge[:, :, 0] / length],
                        axis=-1)

    def _local_index(self, cells, faces):
        """Local index of each face in its cell's list (the first match),
        -1 where the cell does not hold the face."""
        hits = self.cell_faces[cells] == np.expand_dims(faces, -1)
        return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)

    def _finalize(self):
        self.boundary_face_mask = self.face_cells[:, 1] < 0
        self.interior_face_mask = ~self.boundary_face_mask
        has_boundary = np.zeros(self.n_cells, dtype=bool)
        has_boundary[self.face_cells[self.boundary_face_mask, 0]] = True
        self.interior_cell_mask = ~has_boundary
        # canonical per-face normal: the one seen from the first adjacent cell
        owner = self.face_cells[:, 0]
        self.face_normals = self.cell_face_normals[
            owner, self._local_index(owner, np.arange(self.n_faces))]
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    # ------------------------------------------------------------------
    @cached_property
    def cell_face_measures(self) -> np.ndarray:
        """|zeta| per (cell, local face), (NC, nf): the one gather of the
        face measures that every per-cell face sum reads, built on first
        use."""
        measures = self.face_measures[self.cell_faces]
        measures.setflags(write=False)
        return measures

    @property
    def n_cells(self) -> int:
        return self.cell_vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_vertices.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def delta(self) -> float:
        """Space step: the largest cell diameter."""
        return float(self.cell_diameters.max())

    def domain_measure(self) -> float:
        return math.prod(b - a for a, b in self.domain)

    def is_rectangular(self) -> bool:
        """True when every cell is an axis-aligned rectangle (exact test)."""
        if self.dim == 1:
            return True
        edge = self._cell_edges()
        horiz = edge[:, [0, 2], 1] == 0.0
        vert = edge[:, [1, 3], 0] == 0.0
        return bool(horiz.all() and vert.all())


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < ... < t_N = T with its regularity ratio theta3."""

    knots: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("time grid needs at least two knots")
        if knots[0] != 0.0:
            raise ValueError("time grid must start at t = 0")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("time knots must be strictly increasing")
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def n_steps(self) -> int:
        return self.knots.size - 1

    @property
    def steps(self):
        return np.diff(self.knots)

    @property
    def final_time(self) -> float:
        return float(self.knots[-1])

    @property
    def dt_max(self) -> float:
        return float(self.steps.max())

    @property
    def theta3(self) -> float:
        steps = self.steps
        if steps.size < 2:
            return 1.0  # empty max over consecutive pairs: neutral value
        r = steps[1:] / steps[:-1]
        return float(np.max(np.maximum(r, 1.0 / r)))


@dataclass
class DualMeshRT:
    """Diamond duals for the RT layout: measures and connectivity only.

    Half-dual measures are |P|/4 by convention; the dual-cell geometry is
    never constructed.  ``dual_edges`` lists, per cell, the four adjacent
    local-face pairs whose half-diamonds share a dual edge; ``opposite_pairs``
    carries the fixed two-hop via-face used to split opposite-face jumps.
    """

    mesh: PrimalMesh
    half_measures: np.ndarray           # (NC, 4) = |P|/4
    dual_measures: np.ndarray           # (NF,)
    dual_edges_local: tuple = QUAD_ADJACENT_PAIRS
    opposite_pairs_local: tuple = QUAD_OPPOSITE_PAIRS
    jump_multiplicity: np.ndarray = field(default=None)
    jump_weight_constant: int = 3
    theta = np.nan                      # no MAC quasi-uniformity

    def identity_problems(self, mesh) -> list:
        """The half-dual measures of each cell of ``mesh`` sum to |P|."""
        half_sum = self.half_measures.sum(axis=1)
        return [f"cell {c}: RT half-dual measures do not sum to |P|"
                for c in np.flatnonzero(half_sum != mesh.cell_volumes)]


@dataclass
class DualMeshMAC:
    """MAC duals: one half-rectangle dual family per coordinate direction."""

    mesh: PrimalMesh
    face_family: np.ndarray             # (NF,) 0 -> normal along e1, 1 -> e2
    dual_measures: np.ndarray           # (NF,) = sum of |P|/2 contributions
    cell_face_delta: np.ndarray         # (NC, 4) sign n_{P,zeta}.e^(i)
    face_delta_first: np.ndarray = None  # (NF,) sign seen from the first cell
    direction_pairs_local: tuple = ((3, 1), (0, 2))   # (left,right), (bottom,top)
    theta: float = np.nan               # quasi-uniformity max(hbar1/h2, hbar2/h1)

    def identity_problems(self, mesh) -> list:
        """The duals of each direction cover the domain of ``mesh``."""
        omega, bad = mesh.domain_measure(), []
        for i in (0, 1):
            tot = float(self.dual_measures[self.face_family == i].sum())
            if abs(tot - omega) > 1e-12 * omega:
                bad.append(f"MAC duals of direction {i + 1} sum to {tot!r}, "
                           f"expected {omega!r}")
        return bad


@dataclass(frozen=True)
class MeshRegularity:
    theta1: float
    theta2: float
    theta3: float
    theta_mac: float = np.nan


# ----------------------------------------------------------------------
# builders

def _graded_nodes(a: float, b: float, n: int, ratio: float):
    """n+1 nodes on [a, b]; consecutive step ratio = `ratio` (1 -> uniform).
    A ratio whose steps overflow or vanish beside the others raises, as the
    nodes must be finite and strictly increasing."""
    if ratio <= 0:
        raise MeshConstructionError(f"grading ratio must be > 0, got {ratio}")
    if ratio == 1.0:
        return np.linspace(a, b, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = ratio ** np.arange(n)
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
        nodes *= (b - a) / nodes[-1]
    nodes += a
    nodes[0] = a
    nodes[-1] = b
    if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
        raise MeshConstructionError(
            f"grading ratio {ratio!r} gives {n} cells on [{a}, {b}] whose "
            f"nodes are not finite and strictly increasing")
    return nodes


def build_intervals(n: int, domain=(0.0, 1.0), grading: float = 1.0) -> PrimalMesh:
    """1D mesh of n interval cells on [a, b]."""
    if n < 1:
        raise MeshConstructionError(f"need n >= 1 cells, got {n}")
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise MeshConstructionError("degenerate 1D domain")
    nodes = _graded_nodes(a, b, n, grading)
    cells = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    return PrimalMesh(nodes[:, None], cells, domain=[(a, b)])


def _cartesian_vertices(nx, ny, domain, grading):
    if nx < 1 or ny < 1:
        raise MeshConstructionError(f"need nx, ny >= 1, got ({nx}, {ny})")
    (x0, x1), (y0, y1) = domain
    if not (x1 > x0 and y1 > y0):
        raise MeshConstructionError("degenerate domain box")
    gx, gy = (grading, grading) if np.isscalar(grading) else grading
    xs = _graded_nodes(x0, x1, nx, gx)
    ys = _graded_nodes(y0, y1, ny, gy)
    return _tensor_vertices(xs, ys), xs, ys


def _tensor_vertices(xs, ys):
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def _cartesian_cells(nx, ny):
    nid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    i = i.ravel()
    j = j.ravel()
    return np.stack([nid[i, j], nid[i + 1, j], nid[i + 1, j + 1], nid[i, j + 1]],
                    axis=1)


def build_cartesian(nx: int, ny: int, domain=((0.0, 1.0), (0.0, 1.0)),
                    grading=1.0) -> PrimalMesh:
    """Tensor-product quadrangle mesh of nx x ny cells (rectangles)."""
    verts, xs, ys = _cartesian_vertices(nx, ny, domain, grading)
    return PrimalMesh(verts, _cartesian_cells(nx, ny), domain=domain)


def subdivide_nodes(nodes, factor: int):
    """Split every interval of a 1D node array into `factor` equal parts."""
    nodes = np.asarray(nodes, dtype=float)
    if factor == 1:
        return nodes.copy()
    left = nodes[:-1]
    steps = np.diff(nodes)
    sub = left[:, None] + steps[:, None] * (np.arange(factor) / factor)[None, :]
    return np.concatenate([sub.ravel(), nodes[-1:]])


def build_tensor(xs, ys, domain=None) -> PrimalMesh:
    """Rectangular mesh from explicit per-axis node arrays."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if domain is None:
        domain = ((xs[0], xs[-1]), (ys[0], ys[-1]))
    nx, ny = xs.size - 1, ys.size - 1
    if nx < 1 or ny < 1:
        raise MeshConstructionError("need at least one cell per axis")
    return PrimalMesh(_tensor_vertices(xs, ys), _cartesian_cells(nx, ny),
                      domain=domain)


def check_perturbation(amplitude: float, seed: int):
    """amplitude must lie in [0, 0.25) so the quadrangles stay convex, and
    the seed of the shifts must be >= 0."""
    if not 0.0 <= amplitude < 0.25:
        raise MeshConstructionError(
            f"amplitude must be in [0, 0.25), got {amplitude}")
    if seed < 0:
        raise MeshConstructionError(f"seed must be >= 0, got {seed}")


def build_perturbed_quads(nx: int, ny: int, domain=((0.0, 1.0), (0.0, 1.0)),
                          amplitude: float = 0.2, seed: int = 0) -> PrimalMesh:
    """Cartesian mesh with interior vertices shifted by up to amplitude*h.

    The perturbation is deterministic for a fixed seed, and amplitude 0
    reproduces ``build_cartesian`` bitwise (``check_perturbation`` states
    the bounds).
    """
    check_perturbation(amplitude, seed)
    verts, xs, ys = _cartesian_vertices(nx, ny, domain, 1.0)
    if amplitude > 0.0:
        hx = np.min(np.diff(xs))
        hy = np.min(np.diff(ys))
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-1.0, 1.0, size=(nx + 1, ny + 1, 2))
        shift[[0, -1]] = 0.0
        shift[:, [0, -1]] = 0.0
        verts = verts + amplitude * (shift.reshape(-1, 2) * np.array([hx, hy]))
    cells = _cartesian_cells(nx, ny)
    mesh = PrimalMesh(verts, cells, domain=domain)
    _check_convex_quads(mesh)
    return mesh


def _check_convex_quads(mesh):
    edge = mesh._cell_edges()
    nxt = np.roll(edge, -1, axis=1)
    cross = edge[:, :, 0] * nxt[:, :, 1] - edge[:, :, 1] * nxt[:, :, 0]
    bad = np.nonzero(~(cross > 0).all(axis=1))[0]
    if bad.size:
        raise MeshConstructionError(f"cell {int(bad[0])} is not strictly convex")


def build_dual_rt(mesh: PrimalMesh) -> DualMeshRT:
    """Diamond dual data for a quadrangle mesh: |D_{P,zeta}| = |P|/4."""
    if mesh.dim != 2 or mesh.cell_vertices.shape[1] != 4:
        raise MeshConstructionError("RT duals need a 2D quadrangle mesh")
    half = 0.25 * mesh.cell_volumes[:, None] * np.ones((1, 4))
    dual = np.zeros(mesh.n_faces)
    for k in range(4):
        np.add.at(dual, mesh.cell_faces[:, k], half[:, k])
    # leg multiplicities of the fixed opposite-pair splitting (per local pair)
    legs = [sorted(leg) for a, b, via in QUAD_OPPOSITE_PAIRS
            for leg in ((a, via), (via, b))]
    mult = np.array([1 + legs.count(sorted(p)) for p in QUAD_ADJACENT_PAIRS])
    half.setflags(write=False)
    dual.setflags(write=False)
    return DualMeshRT(mesh=mesh, half_measures=half, dual_measures=dual,
                      jump_multiplicity=mult,
                      jump_weight_constant=int(mult.max()))


def build_dual_mac(mesh: PrimalMesh) -> DualMeshMAC:
    """MAC dual data; requires an axis-aligned rectangular mesh."""
    if mesh.dim != 2 or not mesh.is_rectangular():
        raise MeshConstructionError("MAC duals need a rectangular tensor mesh")
    normals = mesh.cell_face_normals
    # family from the first adjacent cell's normal: 0 along e1, 1 along e2
    family = np.where(np.abs(mesh.face_normals[:, 0]) == 1.0, 0, 1)
    dual = np.zeros(mesh.n_faces)
    for k in range(4):
        np.add.at(dual, mesh.cell_faces[:, k], 0.5 * mesh.cell_volumes)
    fam_axis = family[mesh.cell_faces]                      # (NC, 4)
    delta = np.take_along_axis(
        normals, fam_axis[:, :, None], axis=2)[:, :, 0]
    delta_first = np.take_along_axis(
        mesh.face_normals, family[:, None], axis=1)[:, 0]
    hbar = [mesh.face_measures[family == i].max() for i in (0, 1)]
    hlow = [mesh.face_measures[family == i].min() for i in (0, 1)]
    theta = max(hbar[0] / hlow[1], hbar[1] / hlow[0])
    for arr in (family, dual, delta, delta_first):
        arr.setflags(write=False)
    return DualMeshMAC(mesh=mesh, face_family=family, dual_measures=dual,
                       cell_face_delta=delta, face_delta_first=delta_first,
                       theta=float(theta))


def build_time_grid(T: float, N: int, pattern: str = "uniform",
                    ratio: float = 1.0) -> TimeGrid:
    """Time grid on [0, T]: uniform, or steps alternating 1 : ratio."""
    if N < 1:
        raise ValueError(f"need N >= 1 steps, got {N}")
    if T <= 0:
        raise ValueError(f"need T > 0, got {T}")
    if pattern == "uniform":
        knots = np.linspace(0.0, T, N + 1)
    elif pattern == "alternating":
        if ratio <= 0:
            raise ValueError(f"ratio must be > 0, got {ratio}")
        steps = np.where(np.arange(N) % 2 == 0, 1.0, ratio)
        with np.errstate(over="ignore", invalid="ignore"):
            knots = np.concatenate([[0.0], np.cumsum(steps)])
            knots *= T / knots[-1]
        knots[-1] = T
        if not (np.all(np.isfinite(knots)) and np.all(np.diff(knots) > 0)):
            raise ValueError(f"ratio {ratio!r} gives {N} alternating steps "
                             f"on [0, {T}] whose knots are not finite and "
                             f"strictly increasing")
    else:
        raise ValueError(f"unknown time pattern {pattern!r}")
    return TimeGrid(knots)


def regularity(mesh: PrimalMesh, grid: TimeGrid,
               dual: DualMeshMAC | DualMeshRT | None = None) -> MeshRegularity:
    """theta1 = max diam^2/|P|, theta2 = max adjacent area ratio, theta3,
    and the dual's theta_mac (nan for RT duals and without a dual)."""
    theta1 = float(np.max(mesh.cell_diameters ** 2 / mesh.cell_volumes))
    # max(p/q, q/p) >= 1 after rounding, so 1 is also the empty maximum
    vol_p, vol_q = mesh.cell_volumes[mesh.face_cells[mesh.interior_face_mask]].T
    theta2 = float(np.max(np.maximum(vol_p / vol_q, vol_q / vol_p),
                          initial=1.0))
    return MeshRegularity(theta1=theta1, theta2=theta2, theta3=grid.theta3,
                          theta_mac=np.nan if dual is None else dual.theta)


# ----------------------------------------------------------------------
# invariant checks (also driven by the check-identities command)

def check_mesh_identities(mesh: PrimalMesh,
                          dual: DualMeshMAC | DualMeshRT | None = None):
    """Return a list of human-readable violations (empty when all hold),
    the dual's own measure identities (``identity_problems``) last."""
    # per-cell closure sum |zeta| n_{P,zeta} = 0, on the stored face
    # measures (``cell_face_measures`` is derived from them)
    areas = mesh.face_measures[mesh.cell_faces]             # (NC, nf)
    closure = np.einsum("cf,cfd->cd", areas, mesh.cell_face_normals)
    norm = np.sqrt((closure ** 2).sum(-1))
    bad = [f"cell {c}: face closure sum violated (|sum|={norm[c]:.3e})"
           for c in np.flatnonzero(norm > 1e-12 * areas.sum(axis=1))]
    # antisymmetric normals across interior faces, all at once
    f = np.flatnonzero(mesh.interior_face_mask)
    p, q = mesh.face_cells[f, 0], mesh.face_cells[f, 1]
    pair = (mesh.cell_face_normals[p, mesh._local_index(p, f)]
            + mesh.cell_face_normals[q, mesh._local_index(q, f)])
    bad += [f"face {f[i]}: normals not antisymmetric"
            for i in np.flatnonzero(np.sqrt((pair ** 2).sum(-1)) > 1e-14)]
    # stored normals consistent with geometry (catches corrupted imports)
    if mesh.dim == 2:
        err = np.sqrt(((mesh._edge_normals() - mesh.cell_face_normals) ** 2)
                      .sum(-1))
        bad += [f"face {mesh.cell_faces[c, k]}: stored normal differs "
                f"from geometry (cell {c})"
                for c, k in zip(*np.nonzero(err > 1e-12))]
    # measures positive, domain covered
    if np.any(mesh.cell_volumes <= 0):
        bad.append("non-positive cell measure")
    total = float(mesh.cell_volumes.sum())
    if abs(total - mesh.domain_measure()) > 1e-12 * mesh.domain_measure():
        bad.append(f"cell measures sum to {total!r}, expected "
                   f"{mesh.domain_measure()!r}")
    return bad if dual is None else bad + dual.identity_problems(mesh)

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


def _sum_in_order(terms):
    """((t0 + t1) + t2) + ... of equal-shape columns: numpy's order for the
    sum of a row of fewer than 8 terms, which starts from +0 and so differs
    only where every term is -0.  One term is returned as it is."""
    if len(terms) == 1:
        return terms[0]
    total = terms[0] + terms[1]
    for t in terms[2:]:
        total += t
    return total


def _distinct_loops(coords, cell_vertices):
    """The distinct loops of one coordinate ``coords`` (NV,) over the cells'
    vertex loops, (n, nv), and each cell's index among them, (NC,).  Loops
    are told apart by their bit patterns (one lexsort of the int64 view),
    so loops of +0.0 and of -0.0 stay distinct; the loops come in the order
    of their bits."""
    # the kept index first, below the sort's temporaries in the heap, and
    # in 32 bits, as it lives as long as the mesh
    index = np.empty(len(cell_vertices), dtype=np.int32)
    # (nv, NC): each row a contiguous sort key
    columns = coords[cell_vertices.T]
    bits = columns.view(np.int64)
    order = np.lexsort(bits)
    # a loop starts a new group where any vertex's bits change
    new = np.zeros(columns.shape[1], dtype=bool)
    new[0] = True
    for key in bits:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    ranks = np.cumsum(new)
    ranks -= 1
    index[order] = ranks
    distinct = np.ascontiguousarray(columns[:, order[new]].T)
    for arr in (distinct, index):
        arr.setflags(write=False)
    return distinct, index


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
        if not np.isfinite(self.vertices).all():
            v = int(np.argmin(np.isfinite(self.vertices).all(axis=1)))
            raise MeshConstructionError(
                f"vertex {v} has a non-finite coordinate "
                f"{self.vertices[v].tolist()}")
        if not all(math.isfinite(b) for ab in self.domain for b in ab):
            raise MeshConstructionError(
                f"domain bounds {self.domain} are not all finite")
        if len(self.cell_vertices) == 0:
            raise MeshConstructionError("the mesh has no cells")
        cv = self.cell_vertices
        bad = np.zeros(len(cv), dtype=bool)
        for col in cv.T:
            bad |= (col < 0) | (col >= len(self.vertices))
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
        """Volumes, centroids and diameters, one (NC,) column per local
        vertex.  The per-cell sums add the vertex terms in loop order,
        ((t0 + t1) + t2) + t3, as numpy sums a row of four."""
        x, y = self._loop_columns()
        if self.dim == 1:
            a, b = x
            if not np.all(b > a):
                raise MeshConstructionError("degenerate 1D cell (b <= a)")
            self.cell_volumes = b - a
            self.cell_diameters = b - a
            self.cell_centroids = (0.5 * (a + b))[:, None]
            return
        nxt = self._next_vertex()
        cross = [x[k] * y[j] - x[j] * y[k] for k, j in enumerate(nxt)]
        area2 = _sum_in_order(cross)
        if not np.all(area2 > 0):
            bad = int(np.argmin(area2 > 0))
            raise MeshConstructionError(
                f"cell {bad} is not counter-clockwise or degenerate")
        self.cell_volumes = 0.5 * area2
        six = 6.0 * self.cell_volumes
        self.cell_centroids = np.empty((self.n_cells, 2))
        for d, u in enumerate((x, y)):
            moment = _sum_in_order([(u[k] + u[j]) * cross[k]
                                    for k, j in enumerate(nxt)])
            np.divide(moment, six, out=self.cell_centroids[:, d])
        # diameter = largest vertex distance, over the edges and diagonals
        diameter = np.zeros(self.n_cells)
        for k in range(len(x)):
            for j in range(k + 1, len(x)):
                dx = x[k] - x[j]
                dy = y[k] - y[j]
                np.maximum(diameter, np.sqrt(dx * dx + dy * dy), out=diameter)
        self.cell_diameters = diameter

    def _loop_columns(self):
        """The vertex coordinates of the cell loops as (nv, NC) columns:
        row k holds the k-th vertex of every cell (y is None in 1D)."""
        loop = self.cell_vertices.T
        x = self.vertices[:, 0][loop]
        return x, self.vertices[:, 1][loop] if self.dim == 2 else None

    def _next_vertex(self):
        """The local index of the next vertex of the loop, per vertex."""
        nv = self.cell_vertices.shape[1]
        return [(k + 1) % nv for k in range(nv)]

    def _face_keys(self, fv):
        """One integer per face (row of vertex ids `fv`): the vertex in 1D,
        min*NV + max in 2D."""
        if fv.shape[1] == 1:
            return fv[:, 0]
        a, b = fv[:, 0], fv[:, 1]
        return np.minimum(a, b) * self.n_vertices + np.maximum(a, b)

    def _local_faces(self):
        """Vertices and keys of every cell face, cell-major in the fixed
        local order: a vertex in 1D, an edge of the loop in 2D."""
        loop = self.cell_vertices
        if self.dim == 2:
            loop = np.stack([loop, loop[:, self._next_vertex()]], axis=-1)
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
        # a face's id is the rank of its first appearance among all firsts
        first = np.zeros(pos.size, dtype=bool)
        first[pos[new]] = True
        fid = (np.cumsum(first) - 1)[pos[new]][key]
        cell_faces = np.empty_like(fid)
        cell_faces[pos] = fid                       # pos inverted
        if np.any(nth > 1):
            raise MeshConstructionError(
                f"face {cell_faces[pos[nth > 1].min()]} shared by >2 cells")
        self.face_cells = np.full((new.sum(), 2), -1)
        self.face_cells[fid, nth] = pos // self.cell_vertices.shape[1]
        self.face_vertices = local[first]
        self.cell_faces = cell_faces.reshape(self.cell_vertices.shape)
        self._derive_face_geometry()

    def _adopt_faces(self, face_vertices, face_cells, face_normals):
        """Adopt an explicit face table (mesh import); normals kept as given."""
        self.face_vertices = np.ascontiguousarray(face_vertices, dtype=np.int64)
        self.face_cells = np.ascontiguousarray(face_cells, dtype=np.int64)
        fc, fv = self.face_cells, self.face_vertices
        bad = ((fc[:, 0] < 0) | (fc[:, 1] < -1) | (fc[:, 0] >= self.n_cells)
               | (fc[:, 1] >= self.n_cells))
        for col in fv.T:
            bad |= (col < 0) | (col >= self.n_vertices)
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
            self.face_midpoints = np.empty((self.n_faces, 2))
            squares = []
            for d in (0, 1):
                a, b = self.vertices[:, d][self.face_vertices.T]
                np.multiply(0.5, a + b, out=self.face_midpoints[:, d])
                e = b - a
                squares.append(e * e)
            self.face_measures = np.sqrt(squares[0] + squares[1])
            if np.any(self.face_measures <= 0):
                raise MeshConstructionError("zero-length face")
        # outward normals per (cell, local face), from the cell's own loop
        normals = self.cell_face_normals = (
            np.tile([[-1.0], [1.0]], (self.n_cells, 1, 1)) if self.dim == 1
            else self._edge_normals())
        if stored_normals is not None:
            # import path: the file's per-face normal (as seen from its first
            # cell) replaces the derived one, so corruption stays observable;
            # the second cell's is its negation with zero components kept
            # as stored, as the cells' own loops give both cells of a face
            # the same signed zeros
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
                if side == 0:
                    normals[c, k] = stored[f]
                else:
                    flipped = stored[f]
                    np.negative(flipped, out=flipped, where=flipped != 0)
                    normals[c, k] = flipped

    def _cell_edges(self):
        """(nv, NC) x and y columns of the counter-clockwise edge vectors of
        the cell loops: row k holds the edge from vertex k to vertex k+1."""
        nxt = self._next_vertex()
        return tuple(u[nxt] - u for u in self._loop_columns())

    def _edge_normals(self):
        """(NC, nv, 2) outward unit normals of the cell edges (2D)."""
        ex, ey = self._cell_edges()
        length = np.sqrt(ex * ex + ey * ey)
        normals = np.empty(self.cell_vertices.shape + (2,))
        np.divide(ey.T, length.T, out=normals[:, :, 0])
        np.divide(np.negative(ex, out=ex).T, length.T, out=normals[:, :, 1])
        return normals

    def _local_index(self, cells, faces):
        """Local index of each face in its cell's list (the first match),
        -1 where the cell does not hold the face."""
        held = self.cell_faces[cells]
        index = np.full(np.shape(held)[:-1], -1)
        for k in reversed(range(self.cell_faces.shape[1])):
            index[held[..., k] == faces] = k
        return index

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

    @cached_property
    def axis_loops(self) -> list:
        """Per axis, the distinct vertex loops of that coordinate, (n, nv),
        and each cell's loop among them, (NC,): ``loops[index[c]]`` is cell
        c's coordinates in loop order, bit for bit (``_distinct_loops``);
        on a tensor mesh the x loops are the columns and the y loops the
        rows.  Built on first use, one axis at a time."""
        return [_distinct_loops(self.vertices[:, d], self.cell_vertices)
                for d in range(self.dim)]

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
        ex, ey = self._cell_edges()
        return bool(np.all(ey[0::2] == 0.0) and np.all(ex[1::2] == 0.0))


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
        if not (np.all(np.isfinite(knots)) and np.all(np.diff(knots) > 0)):
            raise ValueError("time knots must be finite and strictly "
                             "increasing")
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
        half_sum = _sum_in_order(list(self.half_measures.T))
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
            if not abs(tot - omega) <= 1e-12 * omega:
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
    ex, ey = mesh._cell_edges()
    convex = np.ones(mesh.n_cells, dtype=bool)
    for k, j in enumerate(mesh._next_vertex()):
        convex &= ex[k] * ey[j] - ey[k] * ex[j] > 0
    bad = np.flatnonzero(~convex)
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
    the dual's own measure identities (``identity_problems``) last.  Every
    test reads ``~(value <= tol)``, so a NaN anywhere is a violation."""
    # per-cell closure sum |zeta| n_{P,zeta} = 0, on the stored face
    # measures (``cell_face_measures`` is derived from them), the local
    # faces added in order, as numpy's einsum "cf,cfd->cd" adds them
    nf = mesh.cell_faces.shape[1]
    areas = [mesh.face_measures[mesh.cell_faces[:, k]] for k in range(nf)]
    normals = mesh.cell_face_normals
    closure = [_sum_in_order([a * normals[:, k, d]
                              for k, a in enumerate(areas)])
               for d in range(mesh.dim)]
    norm = np.sqrt(_sum_in_order([c * c for c in closure]))
    tol = 1e-12 * _sum_in_order(areas)
    bad = [f"cell {c}: face closure sum violated (|sum|={norm[c]:.3e})"
           for c in np.flatnonzero(~(norm <= tol))]
    # antisymmetric normals across interior faces, all at once
    f = np.flatnonzero(mesh.interior_face_mask)
    p, q = mesh.face_cells[f, 0], mesh.face_cells[f, 1]
    n_p = normals[p, mesh._local_index(p, f)]
    n_q = normals[q, mesh._local_index(q, f)]
    pair = [n_p[:, d] + n_q[:, d] for d in range(mesh.dim)]
    pair = np.sqrt(_sum_in_order([c * c for c in pair]))
    bad += [f"face {f[i]}: normals not antisymmetric"
            for i in np.flatnonzero(~(pair <= 1e-14))]
    # stored normals consistent with geometry (catches corrupted imports)
    if mesh.dim == 2:
        geometric = mesh._edge_normals()
        err = [geometric[:, :, d] - normals[:, :, d] for d in (0, 1)]
        err = np.sqrt(err[0] * err[0] + err[1] * err[1])
        bad += [f"face {mesh.cell_faces[c, k]}: stored normal differs "
                f"from geometry (cell {c})"
                for c, k in zip(*np.nonzero(~(err <= 1e-12)))]
    # measures positive, domain covered
    if not np.all(mesh.cell_volumes > 0):
        bad.append("non-positive cell measure")
    total = float(mesh.cell_volumes.sum())
    omega = mesh.domain_measure()
    if not abs(total - omega) <= 1e-12 * omega:
        bad.append(f"cell measures sum to {total!r}, expected {omega!r}")
    return bad if dual is None else bad + dual.identity_problems(mesh)


"""Gauss-Legendre quadrature on mesh cells, faces, time slabs and boxes.

Cell rules map a tensor Gauss-Legendre rule through the bilinear quadrangle
map (affine for rectangles and intervals), face rules are 1D Gauss-Legendre
along each edge, and ``BoxQuadrature`` provides a mesh-independent panelised
rule for smooth space-time integrals (the "oracle" side of dual-route
checks).

The rules reduce arrays: ``cell_means``, ``cell_integrals``,
``cell_vector_means``, ``face_means`` and ``BoxQuadrature.integrate`` take
the integrand's values on the rule's own nodes (``points``, in their C
order), and ``SlabQuadrature.slab_cell_integrals`` takes a function that
returns the values on the ``cell`` rule's nodes at the Gauss times of a
chunk of time steps, or at one time per slab for an integrand that does
not change within a slab.  ``CellQuadrature.values(f, t)`` evaluates a
callable on a cell rule's nodes: it calls ``f(x)`` when t is None and
``f(x, t)`` otherwise.

Every space-time sum that fvlab reports follows one summation order,
stated by ``step_values`` and ``add_steps`` and applied whole by
``step_sum``.  Steps are evaluated in chunks of about ``CHUNK_VALUES``
values (``chunk_slices``), a constant that decides only how many steps
share one call.  The one flat sum is ``BoxQuadrature.integrate``, kept
for the reported weak-form terms of ``consistency.weak_rhs``; its order+2
self-check reduces its box by ``step_sum`` over rows of the first axis
(``BoxQuadrature.row_weights``) instead.

Cell means use a shifted weighted average, ``f0 + sum(w * (f - f0))``, so a
constant integrand reproduces the constant bitwise.  A 2D cell rule forms
its nodes and both Jacobian columns by adding the vertex terms of the
bilinear map from +0.0 in vertex order, written out over blocks of cells
(about ``CHUNK_VALUES`` values each), so the order is not left to
``einsum`` and the block size moves no bit.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, reduce

import numpy as np

DEFAULT_ORDER = 4
ORACLE_ORDER = 8
# node values evaluated per call when integrands are batched over times
CHUNK_VALUES = 2 ** 16


def check_rule(order: int, panels: int):
    """The bounds of a composite Gauss-Legendre rule: `panels` >= 1
    sub-intervals of an `order`-point rule, `order` >= 1."""
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")


def gauss_legendre(order: int):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [-1, 1],
    computed once per order and shared: both arrays are read-only."""
    check_rule(order, 1)
    return _leggauss(order)


@cache
def _leggauss(order: int):
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def composite_gauss_legendre(order: int, panels: int = 1):
    """Composite rule on [-1, 1]: `panels` equal sub-intervals, an
    `order`-point Gauss-Legendre rule on each.  Needed to resolve bump test
    functions, whose derivatives are huge near the support edge."""
    return _panel_rule(order, panels, -1.0, 1.0)


def _panel_rule(order: int, panels: int, a: float, b: float):
    """Nodes and weights of the composite rule on [a, b]."""
    check_rule(order, panels)
    nodes, weights = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    all_nodes = (mids[:, None] + halfs[:, None] * nodes[None, :]).ravel()
    all_weights = (halfs[:, None] * weights[None, :]).ravel()
    return all_nodes, all_weights


def chunk_slices(n: int, per_item: int):
    """Consecutive slices covering range(n), each holding at least one
    item and at most ``CHUNK_VALUES // per_item`` items."""
    step = max(1, CHUNK_VALUES // max(1, per_item))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def step_values(table, mass: bool = False):
    """The summation order of every space-time sum that fvlab reports,
    first half: ``table`` holds the terms (steps, ...) of consecutive time
    steps (or slabs, or level pairs), each term formed elementwise by the
    caller, and each step's row of C-order terms is reduced by numpy's
    pairwise ``sum``.  A C-contiguous row sums to the same bits alone, in
    a chunk or in the whole table, so neither the chunks, nor a thread
    count, nor the caller's memory layout moves a bit.  Returns the step
    values (steps,), with ``mass`` stacked over the row sums of |terms|,
    shape (2, steps)."""
    rows = np.ascontiguousarray(table, dtype=float).reshape(
        len(table), math.prod(table.shape[1:]))
    if mass:
        return np.stack([rows.sum(axis=1), np.abs(rows).sum(axis=1)])
    return rows.sum(axis=1)


def add_steps(values) -> float:
    """Second half of the summation order: the step values of
    ``step_values``, in step order, added left to right."""
    total = 0.0
    for value in np.asarray(values, dtype=float).tolist():
        total += value
    return total


def step_sum(tables) -> float:
    """``add_steps`` over the ``step_values`` of the term tables of
    consecutive chunks of steps, in step order; each table is reduced as
    it comes."""
    values = [step_values(table) for table in tables]
    return add_steps(np.concatenate(values) if values else [])


def tensor_points(axes) -> np.ndarray:
    """The nodes of the tensor grid spanned by per-axis coordinates laid
    along their own dimensions (as ``BoxQuadrature.grid_axes``), one row
    per node in C order."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
    points = np.empty(shape + (len(axes),))
    for d, nodes in enumerate(axes):
        points[..., d] = nodes
    return points.reshape(-1, len(axes))


def _shifted_means(wnorm, vals):
    """f0 + sum(w * (f - f0)) per row: the mean of each row of values
    against its normalised weights, reproducing constants bitwise."""
    vals = np.asarray(vals, dtype=float).reshape(wnorm.shape)
    f0 = vals[:, 0]
    return f0 + np.einsum("ck,ck->c", wnorm, vals - f0[:, None])


class _RowRule:
    """A rule with one row of nodes per cell or face (``points``, shaped
    (rows, k, dim)) and normalised weights ``_wnorm`` per row.  Built on
    the mesh's cells or faces ``rows`` only (all of them by default), a
    rule's rows carry the bits of the same rows of the rule on all."""

    def __init__(self, mesh, rows):
        self.mesh = mesh
        self.rows = (slice(None) if rows is None
                     else np.asarray(rows, dtype=np.intp))

    def means(self, vals):
        """The mean of each row of values on the nodes against its
        normalised weights; constants are reproduced bitwise."""
        return _shifted_means(self._wnorm, vals)


class CellQuadrature(_RowRule):
    """Per-cell tensor Gauss-Legendre rule of a given order.

    Precomputes physical node coordinates and weights for every cell of the
    mesh, or for the cells ``rows`` only; the same rule is reused across
    time levels.  Weights include the Jacobian of the bilinear map, so
    ``weights[c].sum()`` approximates the cell measure.
    """

    def __init__(self, mesh, order: int = DEFAULT_ORDER, panels: int = 1,
                 rows=None):
        super().__init__(mesh, rows)
        nodes1d, w1d = composite_gauss_legendre(order, panels)
        verts = mesh.vertices[mesh.cell_vertices[self.rows]]  # (NC, nv, dim)
        if mesh.dim == 1:
            a = verts[:, 0, 0][:, None]
            b = verts[:, 1, 0][:, None]
            half = 0.5 * (b - a)
            pts = 0.5 * (a + b) + half * nodes1d[None, :]
            self.points = pts[:, :, None]  # (NC, k, 1)
            self.weights = np.broadcast_to(w1d[None, :], pts.shape) * half
            self.weights = np.ascontiguousarray(self.weights)
        else:
            xi, eta = np.meshgrid(nodes1d, nodes1d, indexing="ij")
            xi = xi.ravel()
            eta = eta.ravel()
            wt = np.outer(w1d, w1d).ravel()
            # bilinear shape functions on [-1,1]^2, vertex order CCW
            n0 = 0.25 * (1 - xi) * (1 - eta)
            n1 = 0.25 * (1 + xi) * (1 - eta)
            n2 = 0.25 * (1 + xi) * (1 + eta)
            n3 = 0.25 * (1 - xi) * (1 + eta)
            shape = np.stack([n0, n1, n2, n3], axis=0)          # (4, k)
            dxi = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)], axis=0)
            deta = 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)], axis=0)
            # x, d x / d xi and d x / d eta at the nodes, (maps, k) per vertex
            maps = np.stack([shape, dxi, deta], axis=1)
            n_cells, k = len(verts), xi.size
            self.points = np.empty((n_cells, k, 2))
            self.weights = np.empty((n_cells, k))
            # blocks of cells whose 2 x 3 sums per node fill ~CHUNK_VALUES
            for cells in chunk_slices(n_cells, 6 * k):
                acc = np.zeros((2, 3, cells.stop - cells.start, k))
                for v in range(4):
                    for d in range(2):
                        acc[d] += maps[v][:, None] * verts[cells, v, d, None]
                self.points[cells] = np.moveaxis(acc[:, 0], 0, -1)
                (jx0, jx1), (je0, je1) = acc[:, 1], acc[:, 2]
                self.weights[cells] = wt * (jx0 * je1 - jx1 * je0)
        self._wsum = self.weights.sum(axis=1)
        self._wnorm = self.weights / self._wsum[:, None]
        for arr in (self.points, self.weights, self._wsum, self._wnorm):
            arr.setflags(write=False)

    def flat_points(self):
        return self.points.reshape(-1, self.mesh.dim)

    def values(self, f, t=None):
        """f(x), or f(x, t) when t is given, at all nodes x, shaped (NC, k)
        for scalar f and (NC, k, m) for f with m components."""
        x = self.flat_points()
        vals = np.asarray(f(x) if t is None else f(x, t), dtype=float)
        return vals.reshape(self.points.shape[:2] + vals.shape[1:])

    def _scalars(self, vals):
        return np.asarray(vals, dtype=float).reshape(self.points.shape[:2])

    cell_means = _RowRule.means

    def cell_integrals(self, vals):
        """Cell integrals of the values on the nodes."""
        return np.einsum("ck,ck->c", self.weights, self._scalars(vals))

    def cell_vector_means(self, vals):
        """Cell averages of vector values on the nodes, shaped (NC, m)."""
        vals = np.asarray(vals, dtype=float).reshape(
            self.points.shape[:2] + (-1,))
        f0 = vals[:, 0, :]
        return f0 + np.einsum("ck,ckd->cd", self._wnorm, vals - f0[:, None, :])


class FaceQuadrature(_RowRule):
    """Per-face Gauss-Legendre rule along each edge (a point in 1D), on
    every face of the mesh or on the faces ``rows`` only."""

    def __init__(self, mesh, order: int = DEFAULT_ORDER, panels: int = 1,
                 rows=None):
        super().__init__(mesh, rows)
        face_vertices = mesh.face_vertices[self.rows]
        if mesh.dim == 1:
            # (NF, 1, 1)
            self.points = mesh.face_midpoints[self.rows][:, None, :]
            self.weights = np.ones((len(face_vertices), 1))
        else:
            nodes1d, w1d = composite_gauss_legendre(order, panels)
            va = mesh.vertices[face_vertices[:, 0]]
            vb = mesh.vertices[face_vertices[:, 1]]
            mid = 0.5 * (va + vb)
            half = 0.5 * (vb - va)
            self.points = mid[:, None, :] + nodes1d[None, :, None] * half[:, None, :]
            self.weights = np.broadcast_to(
                0.5 * w1d[None, :], (len(face_vertices), nodes1d.size)).copy()
        self._wnorm = self.weights / self.weights.sum(axis=1)[:, None]
        for arr in (self.points, self.weights, self._wnorm):
            arr.setflags(write=False)

    face_means = _RowRule.means


def gauss_times(knots, order: int = DEFAULT_ORDER):
    """Gauss-Legendre times tn[n, j] and weights tw[n, j] of the time slabs
    (t_n, t_{n+1}), both shaped (N, order)."""
    nodes, weights = gauss_legendre(order)
    half = 0.5 * (knots[1:] - knots[:-1])
    mid = 0.5 * (knots[:-1] + knots[1:])
    return mid[:, None] + half[:, None] * nodes, half[:, None] * weights


def slab_time_integrals(knots, f, order: int = DEFAULT_ORDER):
    """Integrals of f(t) over each time slab, shape (N,): ``f(tn)`` gives
    the values at the times of ``gauss_times``; per slab the weighted
    values are added in time order."""
    tn, tw = gauss_times(knots, order)
    vals, out = f(tn), np.zeros(tn.shape[0])
    for j in range(order):
        out += tw[:, j] * vals[:, j]
    return out


class SlabQuadrature:
    """Tensor (cell x time-slab) rule for integrals over P x (t_n, t_{n+1}),
    from the cell rule ``cell`` of the mesh of ``grid``'s level."""

    def __init__(self, cell: CellQuadrature, grid,
                 time_order: int = DEFAULT_ORDER, work=None):
        self.cell = cell
        self.grid = grid
        self.tnodes1d, self.tweights1d = gauss_legendre(time_order)
        self._weights = None
        # the (cell, time) row integrals and one time's weighted rows of a
        # chunk go into the buffers "slab_rows" and "slab_terms" of the
        # workspace ``work`` (a new one by default), reused by every call
        self._work = Workspace() if work is None else work

    def slab_cell_integrals(self, f, steps=slice(None), out=None,
                            once=False):
        """Integrals over P x (t_n, t_{n+1}) for the steps n of the slice
        ``steps`` (all by default) and every cell P, shape (steps, NC),
        written into ``out`` when given.

        ``f(sub, tn)`` gives the integrand's values on the ``cell`` nodes
        at the Gauss times ``tn[b, j]`` of the steps ``sub`` (a slice of
        ``steps``), shaped (len(sub), T, NC, k) or reshapeable to it; when
        one step's times hold more than ``CHUNK_VALUES`` values, f gets
        that step with consecutive groups of its times.  Each (cell, time)
        row is reduced by the same ``einsum`` as ``cell_integrals``, and
        per slab the weighted rows are added in time order, from +0.0.

        With ``once``, the integrand is the same at every Gauss time of a
        slab: f gets the first time of each slab only (tn shaped
        (len(sub), 1)) and gives (len(sub), 1, NC, k).  Each row is then
        reduced once and added with each Gauss weight in time order; T
        equal rows reduce to equal bits, so the sums are those of the
        integrand given at all T times, bit for bit.
        """
        lo, hi, _ = steps.indices(self.grid.n_steps)
        times, tweights = gauss_times(self.grid.knots[lo:hi + 1],
                                      self.tnodes1d.size)
        n_steps, n_t = times.shape
        n_cells, k = self.cell.points.shape[:2]
        if out is None:
            out = np.zeros((n_steps, n_cells))
        else:
            out[...] = 0.0
        n_f = 1 if once else n_t
        chunks = chunk_slices(n_steps, n_f * n_cells * k)
        # a chunk of several steps takes all their times at once
        groups = chunk_slices(n_f, n_cells * k)
        weights = self._row_weights(
            (chunks[0].stop - chunks[0].start)
            * (groups[0].stop - groups[0].start) if chunks else 0)
        for sub in chunks:
            acc = out[sub]
            term = self._work("slab_terms", acc.shape)
            for js in groups:
                tn = times[sub, js]
                vals = np.asarray(f(slice(lo + sub.start, lo + sub.stop), tn),
                                  dtype=float).reshape(-1, k)
                ints = np.einsum("ck,ck->c", weights[:vals.shape[0]], vals,
                                 out=self._work("slab_rows", vals.shape[:1]))
                ints = ints.reshape(tn.shape + (n_cells,))
                # with once, each Gauss time of a slab weighs its one row
                for j in range(n_t) if once else range(js.start, js.stop):
                    np.multiply(tweights[sub, j, None],
                                ints[:, 0 if once else j - js.start],
                                out=term)
                    acc += term
        return out

    def _row_weights(self, rows):
        """The cell weights once per (step, time) row of ``rows`` rows,
        shape (rows * NC, k); kept for later calls with as many rows or
        fewer."""
        weights = self._weights
        n_cells, k = self.cell.weights.shape
        if weights is None or weights.shape[0] < rows * n_cells:
            weights = np.broadcast_to(self.cell.weights,
                                      (rows, n_cells, k)).reshape(-1, k)
            self._weights = weights
        return weights


class Workspace:
    """Reused buffers by name: ``work(name, shape)`` is a C-order view of
    the buffer ``name``, replaced only when it holds fewer values.  The
    terms of a level pass write their chunk tables into one (``out=``),
    so the tables are sized at the first, largest, chunk and no later
    chunk allocates them, and faults them in, again."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name, shape):
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)


class BoxQuadrature:
    """Panelised tensor Gauss-Legendre rule over an axis-aligned box.

    Used for mesh-independent space(-time) integrals of smooth integrands;
    each axis is split into `panels` panels and an `order`-point rule is
    applied per panel.
    """

    def __init__(self, bounds, panels: int, order: int = ORACLE_ORDER):
        bounds = [tuple(map(float, b)) for b in bounds]
        axes = [_panel_rule(order, panels, a, b) for a, b in bounds]
        k = len(axes)
        # the 1D nodes of axis d laid along dimension d: they broadcast to
        # the tensor grid, whose C order is the order of `points`
        along = [[-1 if e == d else 1 for e in range(k)] for d in range(k)]
        self.grid_axes = [nodes.reshape(along[d])
                          for d, (nodes, _) in enumerate(axes)]
        self._axis_weights = [weights.reshape(along[d])
                              for d, (_, weights) in enumerate(axes)]
        self.bounds = bounds

    @cached_property
    def points(self) -> np.ndarray:
        """The box nodes, one row per node in C order; built on first use
        only, callers that can work per axis use ``grid_axes``."""
        return tensor_points(self.grid_axes)

    @cached_property
    def weights(self) -> np.ndarray:
        """The weight of each node of ``points``, in C order; built on
        first use only, callers that reduce by rows use ``row_weights``."""
        return self.row_weights(slice(None)).ravel()

    def row_weights(self, rows: slice) -> np.ndarray:
        """The weights of the nodes of the first-axis indices ``rows`` (a
        slice), shaped (rows, nodes per index): the matching rows of
        ``weights``."""
        first = self._axis_weights[0][rows]
        # weight products in axis order, (w_0 * w_1) * w_2
        products = reduce(np.multiply, [first] + self._axis_weights[1:])
        return products.reshape(first.size, -1)

    def integrate(self, vals) -> float:
        """Integral over the box of the values on ``points``.  The sum is
        numpy's own loop, not a BLAS dot, whose split across BLAS threads
        would change its last digits with the BLAS thread count."""
        return float(np.einsum("i,i->", self.weights,
                               np.asarray(vals, dtype=float)))

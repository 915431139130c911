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
chunk of time steps.  ``CellQuadrature.values(f, t)`` is the one place
where a callable meets the nodes: it calls ``f(x)`` when t is None and
``f(x, t)`` otherwise.

Every space-time sum that fvlab reports follows one summation order,
stated by ``step_values`` and ``add_steps`` and applied whole by
``step_sum``.  Steps are evaluated in chunks of about ``CHUNK_VALUES``
values (``chunk_slices``), a constant that decides only how many steps
share one call.

Cell means use a shifted weighted average, ``f0 + sum(w * (f - f0))``, so a
constant integrand reproduces the constant bitwise.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, reduce

import numpy as np

DEFAULT_ORDER = 4
ORACLE_ORDER = 8
# node values evaluated per call when integrands are batched over times
CHUNK_VALUES = 2 ** 16


def gauss_legendre(order: int):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [-1, 1],
    computed once per order and shared: both arrays are read-only."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
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
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
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


def step_sum(tables, mass: bool = False):
    """``add_steps`` over the ``step_values`` of the term tables of
    consecutive chunks of steps, in step order; each table is reduced as
    it comes.  With ``mass`` the sum of |terms| is returned too."""
    values = [step_values(table, mass) for table in tables]
    values = (np.concatenate(values, axis=-1) if values
              else np.zeros((2, 0) if mass else 0))
    if mass:
        return add_steps(values[0]), add_steps(values[1])
    return add_steps(values)


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

    def __init__(self, mesh, order, panels, rows):
        self.mesh = mesh
        self.order = order
        self.panels = panels
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
        super().__init__(mesh, order, panels, rows)
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
            self.points = np.einsum("vk,cvd->ckd", shape, verts)
            jx = np.einsum("vk,cvd->ckd", dxi, verts)           # d x / d xi
            je = np.einsum("vk,cvd->ckd", deta, verts)          # d x / d eta
            jac = jx[:, :, 0] * je[:, :, 1] - jx[:, :, 1] * je[:, :, 0]
            self.weights = wt[None, :] * jac
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
        super().__init__(mesh, order, panels, rows)
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
    """Tensor (cell x time-slab) rule for integrals over P x (t_n, t_{n+1})."""

    def __init__(self, mesh, grid, space_order: int = DEFAULT_ORDER,
                 time_order: int = DEFAULT_ORDER, panels: int = 1):
        self.cell = CellQuadrature(mesh, space_order, panels)
        self.grid = grid
        self.tnodes1d, self.tweights1d = gauss_legendre(time_order)
        self._weights = None

    def slab_cell_integrals(self, f, steps=slice(None)):
        """Integrals over P x (t_n, t_{n+1}) for the steps n of the slice
        ``steps`` (all by default) and every cell P, shape (steps, NC).

        ``f(sub, tn)`` gives the integrand's values on the ``cell`` nodes
        at the Gauss times ``tn[b, j]`` of the steps ``sub`` (a slice of
        ``steps``), shaped (len(sub), T, NC, k) or reshapeable to it.  Each
        (cell, time) row is reduced by the same ``einsum`` as
        ``cell_integrals``, and per slab the weighted rows are added in
        time order.
        """
        lo, hi, _ = steps.indices(self.grid.n_steps)
        times, tweights = gauss_times(self.grid.knots[lo:hi + 1],
                                      self.tnodes1d.size)
        n_steps, n_t = times.shape
        n_cells, k = self.cell.points.shape[:2]
        out = np.zeros((n_steps, n_cells))
        chunks = chunk_slices(n_steps, n_t * n_cells * k)
        weights = self._row_weights(
            (chunks[0].stop - chunks[0].start) * n_t if chunks else 0)
        for sub in chunks:
            tn, tw = times[sub], tweights[sub]
            vals = np.asarray(f(slice(lo + sub.start, lo + sub.stop), tn),
                              dtype=float).reshape(-1, k)
            ints = np.einsum("ck,ck->c", weights[:vals.shape[0]], vals)
            ints = ints.reshape(tn.shape + (n_cells,))
            acc = out[sub]
            for j in range(n_t):
                acc += tw[:, j, None] * ints[:, j]
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


class BoxQuadrature:
    """Panelised tensor Gauss-Legendre rule over an axis-aligned box.

    Used for mesh-independent space(-time) integrals of smooth integrands;
    the box is split into `panels` per axis and an `order`-point rule is
    applied per panel per axis.
    """

    def __init__(self, bounds, panels, order: int = ORACLE_ORDER):
        bounds = [tuple(map(float, b)) for b in bounds]
        if np.isscalar(panels):
            panels = [int(panels)] * len(bounds)
        axes = [_panel_rule(order, m, a, b)
                for (a, b), m in zip(bounds, panels)]
        k = len(axes)
        # the 1D nodes of axis d laid along dimension d: they broadcast to
        # the tensor grid, whose C order is the order of `points`
        along = [[-1 if e == d else 1 for e in range(k)] for d in range(k)]
        self.grid_axes = [nodes.reshape(along[d])
                          for d, (nodes, _) in enumerate(axes)]
        # weight products in axis order, (w_0 * w_1) * w_2
        self.weights = reduce(np.multiply, [
            weights.reshape(along[d])
            for d, (_, weights) in enumerate(axes)]).ravel()
        self.bounds = bounds

    @cached_property
    def points(self) -> np.ndarray:
        """The box nodes, one row per node in C order; built on first use
        only, callers that can work per axis use ``grid_axes``."""
        return tensor_points(self.grid_axes)

    def integrate(self, vals) -> float:
        """Integral over the box of the values on ``points``.  The sum is
        numpy's own loop, not a BLAS dot, whose split across BLAS threads
        would change its last digits with the BLAS thread count."""
        return float(np.einsum("i,i->", self.weights,
                               np.asarray(vals, dtype=float)))

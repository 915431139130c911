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
returns the values on a range of the ``cell`` rule's cells at the Gauss
times of a chunk of time steps.  It has one rule for every cell: a cell
whose integrand does not change within any slab of the chunk is evaluated
and reduced once per slab, at the slab's first Gauss time, every other
cell at every Gauss time, and each cell's weighted rows are added in time
order, so the split moves no bit.  ``CellQuadrature.values(f, t)`` evaluates a
callable on a cell rule's nodes: it calls ``f(x)`` when t is None and
``f(x, t)`` otherwise.

Every space-time sum that fvlab reports follows one summation order,
stated by ``step_values`` and ``add_steps`` and applied whole by
``step_sum``.  Steps are evaluated in chunks of about ``CHUNK_VALUES``
values (``chunk_slices``), a constant that decides only how many steps
share one call.  The reported weak-form terms of ``consistency.weak_rhs``
are box sums instead, in the order of numpy's own flat ``np.einsum("i,i->",
w, v)`` (``BoxSum``, and ``BoxQuadrature.integrate`` for a whole vector):
the C-order node values in blocks of numpy's default buffer size
(``np.getbufsize()``, 8192), each block reduced by one call of einsum's
kernel, the block values added by ``add_steps``.  So a box fed in pieces of
any size sums to the bits of the flat dot, independent of the BLAS thread
count.  Its order+2 self-check reduces its box by ``step_sum`` over rows of
the first axis (``BoxQuadrature.row_weights``).

Cell means use a shifted weighted average, ``f0 + sum(w * (f - f0))``, so a
constant integrand reproduces the constant bitwise.  A 2D cell rule forms
its nodes and both Jacobian columns by adding the vertex terms of the
bilinear map from +0.0 in vertex order, written out over blocks of about
``CHUNK_VALUES`` values, so the order is not left to ``einsum`` and the
block size moves no bit; each axis's terms are formed once per distinct
vertex loop of that axis (``CellQuadrature``).
"""

from __future__ import annotations

import contextvars
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
    count, nor the caller's memory layout moves a bit.  A row of signed
    zeros sums to a signed zero (-0.0 only when every term is -0.0).
    Returns the step values (steps,), with ``mass`` stacked over the row
    sums of |terms|, shape (2, steps)."""
    rows = np.ascontiguousarray(table, dtype=float).reshape(
        len(table), math.prod(table.shape[1:]))
    if mass:
        return np.stack([rows.sum(axis=1), np.abs(rows).sum(axis=1)])
    return rows.sum(axis=1)


def add_steps(values) -> float:
    """Second half of the summation order: the step values of
    ``step_values``, in step order, added left to right from +0.0.  So
    the total is never -0.0 (x + y is -0.0 only when both are), and a
    step value of +0.0 or -0.0 leaves it unchanged bit for bit: leaving
    out any run of signed-zero steps, as the terms weighted by phi do
    past phi's last live step, moves no bit of the total."""
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


class BoxSum:
    """sum_i w_i v_i over a box's nodes, given in consecutive C-order
    pieces (``add``), to the bits of the flat ``np.einsum("i,i->", w, v)``
    of the whole vectors.  That einsum runs its kernel once per block of
    numpy's default buffer size, whatever ``np.setbufsize`` a caller chose
    (so it is read in a fresh context), and adds each block's value to its
    output, from +0.0, in block order.  Here each complete block is reduced
    by ``np.einsum("ij,ij->i")``, one kernel call a row, the values of a
    block that a piece leaves open (fewer than a block) are carried in a
    reused buffer, and ``total`` adds the block values by ``add_steps``."""

    def __init__(self):
        self._block = contextvars.Context().run(np.getbufsize)
        self._carry = np.empty((2, self._block))
        self._held = 0
        self._values = []

    def add(self, weights, values):
        """Feed the next C-order piece: weights and values of equal size."""
        w, v = np.ravel(weights), np.ravel(values)
        block, held, lo = self._block, self._held, 0
        if held:
            lo = min(block - held, w.size)
            self._carry[0, held:held + lo] = w[:lo]
            self._carry[1, held:held + lo] = v[:lo]
            self._held += lo
            if self._held < block:
                return
            self._reduce(self._carry[:1], self._carry[1:])
        hi = lo + (w.size - lo) // block * block
        self._reduce(w[lo:hi].reshape(-1, block), v[lo:hi].reshape(-1, block))
        self._held = w.size - hi
        self._carry[0, :self._held] = w[hi:]
        self._carry[1, :self._held] = v[hi:]

    def _reduce(self, w, v):
        self._values.append(np.einsum("ij,ij->i", w, v))

    def total(self) -> float:
        """The sum of every piece fed so far: the open block's value (+0.0
        when it holds none, which moves no bit) is added last."""
        held = self._carry[:, :self._held]
        return add_steps(np.concatenate(
            self._values + [np.einsum("ij,ij->i", held[:1], held[1:])]))


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

    In 2D a node's x, dx/dxi and dx/deta depend only on the cell's four
    vertex x values, and its y terms only on the four y values.  So each
    axis's part of the map is formed once per distinct vertex loop of that
    axis among the rows (``PrimalMesh.axis_loops``, loops told apart by
    their bits) into a table that the cells gather from, and the weight
    wt (jx0 je1 - jx1 je0) takes jx0 and je0 from the x loop and jx1 and
    je1 from the y loop: the operations, and their order, of the per-cell
    map, so every point and weight has its bits.  On a tensor mesh the
    tables hold the columns and the rows; where every row has a loop of
    its own (a perturbed mesh) there is no table, and each block of cells
    forms its own loops.
    """

    def __init__(self, mesh, order: int = DEFAULT_ORDER, panels: int = 1,
                 rows=None):
        super().__init__(mesh, rows)
        nodes1d, w1d = composite_gauss_legendre(order, panels)
        if mesh.dim == 1:
            verts = mesh.vertices[mesh.cell_vertices[self.rows]]  # (NC, 2, 1)
            a = verts[:, 0, 0][:, None]
            b = verts[:, 1, 0][:, None]
            half = 0.5 * (b - a)
            pts = 0.5 * (a + b) + half * nodes1d[None, :]
            self.points = pts[:, :, None]  # (NC, k, 1)
            self.weights = np.broadcast_to(w1d[None, :], pts.shape) * half
            self.weights = np.ascontiguousarray(self.weights)
        else:
            self._build_bilinear(nodes1d, w1d)
        self._wsum = self.weights.sum(axis=1)
        self._wnorm = self.weights / self._wsum[:, None]
        for arr in (self.points, self.weights, self._wsum, self._wnorm):
            arr.setflags(write=False)

    def _build_bilinear(self, nodes1d, w1d):
        """Points and weights of the bilinear map of each quadrangle of
        the rows, from each axis's part of the map, ``_loop_maps`` of the
        distinct loops of that axis among the rows, gathered to the
        cells; without a table where every row's loop is its own."""
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
        k = xi.size
        axes = []
        for loops, index in self.mesh.axis_loops:
            ids = index[self.rows]
            used = np.zeros(len(loops), dtype=bool)
            used[ids] = True
            n_used = np.count_nonzero(used)
            if n_used == len(ids):
                # a loop of its own per cell: formed block by block below,
                # in the cells' order, with no table to gather from
                axes.append((loops[ids], None))
                continue
            table = np.empty((3, n_used, k))
            distinct = loops[used]
            for block in chunk_slices(n_used, 3 * k):
                _loop_maps(maps, distinct[block], table[:, block])
            axes.append((table, (np.cumsum(used) - 1)[ids]))
        n_cells = len(ids)
        self.points = np.empty((n_cells, k, 2))
        self.weights = np.empty((n_cells, k))
        # blocks of cells whose 2 x 3 terms per node fill ~CHUNK_VALUES;
        # per axis the block's terms and the cells' rows among them, all
        # of them in order where the block formed its own loops
        for cells in chunk_slices(n_cells, 6 * k):
            (x, ix), (y, iy) = (
                (src, local[cells]) if local is not None
                else (_loop_maps(maps, src[cells],
                                 np.empty((3, cells.stop - cells.start, k))),
                      slice(None))
                for src, local in axes)
            self.points[cells, :, 0] = x[0][ix]
            self.points[cells, :, 1] = y[0][iy]
            # wt (jx0 je1 - jx1 je0): jx0 and je0 of the x loop, jx1 and
            # je1 of the y loop
            w = np.multiply(x[1][ix], y[2][iy], out=self.weights[cells])
            w -= y[1][iy] * x[2][ix]
            w *= wt

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


def _loop_maps(maps, loops, out):
    """One axis's part of the bilinear map at the k nodes of each vertex
    loop (n, 4) of that coordinate: x, dx/dxi and dx/deta (or y's), written
    into ``out`` (3, n, k).  The vertex terms are added from +0.0 in vertex
    order, each the product of the vertex coordinate and its shape-function
    row of ``maps`` (4, 3, k)."""
    out[...] = 0.0
    term = np.empty(out.shape)
    for v, rows in enumerate(maps):
        np.multiply(rows[:, None], loops[:, v, None], out=term)
        out += term
    return out


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
        # the (cell, time) row integrals of a chunk at the first Gauss time
        # of each slab and at the others, and one time's weighted rows, go
        # into the buffers "slab_first", "slab_rows" and "slab_terms" of
        # the workspace ``work`` (a new one by default), reused by every
        # call
        self._work = Workspace() if work is None else work

    def slab_cell_integrals(self, f, steps=slice(None), out=None,
                            varying=slice(None)):
        """Integrals over P x (t_n, t_{n+1}) for the steps n of the slice
        ``steps`` (all by default) and every cell P, shape (steps, NC),
        written into ``out`` when given.

        ``f(sub, tn, cells)`` gives the integrand's values on the nodes of
        the ``cell`` rule's cells ``cells`` (a slice) at the Gauss times
        ``tn[b, j]`` of the steps ``sub`` (a slice of ``steps``), shaped
        (len(sub), len(tn[b]), cells, k) or reshapeable to it.

        One rule for every cell.  The integrand of a cell outside the
        slice ``varying`` (every cell is in it by default) must not change
        within any slab of ``steps``: f gets every cell at the first Gauss
        time of each slab, and the cells of ``varying`` at the other times
        (in consecutive groups of them when one step's times hold more
        than ``CHUNK_VALUES`` values).  Each (cell, time) row is reduced by
        the same ``einsum`` as ``cell_integrals``, and per slab each cell
        adds its weighted rows in time order, from +0.0; a cell outside
        ``varying`` adds its first row with each Gauss weight.  T equal
        rows reduce to equal bits, so a steady cell counted as varying
        moves no bit: the sums are those of the integrand given at every
        Gauss time.
        """
        lo, hi, _ = steps.indices(self.grid.n_steps)
        times, tweights = gauss_times(self.grid.knots[lo:hi + 1],
                                      self.tnodes1d.size)
        n_steps, n_t = times.shape
        n_cells, k = self.cell.weights.shape
        varying = slice(*varying.indices(n_cells)[:2])
        n_var = len(range(n_cells)[varying])
        if out is None:
            out = np.zeros((n_steps, n_cells))
        else:
            out[...] = 0.0
        # a chunk of several steps takes all their times at once
        chunks = chunk_slices(n_steps, (n_cells + (n_t - 1) * n_var) * k)
        groups = [slice(1 + js.start, 1 + js.stop)
                  for js in chunk_slices(n_t - 1, n_var * k)]
        for sub in chunks:
            acc, tn, tw = out[sub], times[sub], tweights[sub]
            sub = slice(lo + sub.start, lo + sub.stop)
            term = self._work("slab_terms", acc.shape)
            # the rows at the first Gauss time of each slab, every cell
            first = self._rows(f, sub, tn[:, :1], slice(None), "slab_first")
            np.multiply(tw[:, 0, None], first[:, 0], out=term)
            acc += term
            for js in groups:
                rows = (self._rows(f, sub, tn[:, js], varying, "slab_rows")
                        if n_var else None)
                for j in range(js.start, js.stop):
                    np.multiply(tw[:, j, None], first[:, 0], out=term)
                    if n_var:
                        np.multiply(tw[:, j, None], rows[:, j - js.start],
                                    out=term[:, varying])
                    acc += term
        return out

    def _rows(self, f, sub, tn, cells, name):
        """The integrals over each cell of ``cells`` of f's values at each
        time of tn, shape tn.shape + (cells,), into the workspace buffer
        ``name``; the cell weights are the ``cell_integrals`` operand."""
        weights = self.cell.weights[cells]
        vals = np.asarray(f(sub, tn, cells), dtype=float).reshape(
            (tn.size,) + weights.shape)
        ints = np.einsum("ck,rck->rc", weights, vals,
                         out=self._work(name, vals.shape[:2]))
        return ints.reshape(tn.shape + weights.shape[:1])


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

    def row_weights(self, rows: slice, out=None) -> np.ndarray:
        """The weights of the nodes of the first-axis indices ``rows`` (a
        slice), shaped (rows, nodes per index): the matching rows of
        ``weights``, written into ``out`` of that shape when given."""
        first = self._axis_weights[0][rows]
        *lead, last = [first] + self._axis_weights[1:]
        # weight products in axis order, (w_0 * w_1) * w_2, the last one
        # over the whole grid (1.0 * w_0 is w_0); each factor lies along
        # its own axis
        shape = tuple(f.size for f in lead + [last])
        grid = np.empty(shape) if out is None else out.reshape(shape)
        np.multiply(reduce(np.multiply, lead, 1.0), last, out=grid)
        return grid.reshape(first.size, -1)

    def integrate(self, vals) -> float:
        """Integral over the box of the values on ``points``: the ``BoxSum``
        of the whole vector, the bits of numpy's own flat einsum, not of a
        BLAS dot, whose split across BLAS threads would change its last
        digits with the BLAS thread count."""
        box_sum = BoxSum()
        box_sum.add(self.weights, np.asarray(vals, dtype=float))
        return box_sum.total()

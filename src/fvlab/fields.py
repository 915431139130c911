"""Discrete fields, smooth compactly supported test functions, their
interpolates, L1 distances and the translate functionals.

Discrete values live on the primal cells (scalars) or on faces (RT vectors,
MAC normal components: what a face stores is its layout's, and a
``FaceField`` holds that ``layouts.Layout``); the associated space-time
function is piecewise constant, taking the level-n value on the slab
[t_n, t_{n+1}).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from .geometry import sum_opposite_first
from .quadrature import (DEFAULT_ORDER, CellQuadrature, FaceQuadrature,
                         SlabQuadrature, Workspace, add_steps, chunk_slices,
                         gauss_times, step_sum, step_values)

__all__ = [
    "CellScalarField", "CellSlabField", "FaceField", "TestFunction",
    "InterpolatedTest",
    "TranslateWeights", "Reference",
    "sample_cell_means", "interpolate_test", "lp_distance",
    "translate_functional", "translate_functional_general",
    "default_translate_weights", "SupportError", "TIME_PROFILES",
]

TIME_PROFILES = ("initial", "interior")


class SupportError(ValueError):
    """Raised when a test function's support violates C_c(Omega x [0,T))."""


def _same_level(stage: str, *fields):
    """The fields of one stage (None skipped) must share one mesh object
    and time grids with equal knots; else a ValueError names the stage."""
    fields = [f for f in fields if f is not None]
    mesh, grid = fields[0].mesh, fields[0].grid
    for f in fields[1:]:
        if f.mesh is not mesh:
            raise ValueError(f"{stage}: its fields lie on different meshes")
        if f.grid is not grid and not np.array_equal(f.grid.knots,
                                                     grid.knots):
            raise ValueError(f"{stage}: its fields lie on different time "
                             f"grids")


def check_finite_levels(levels):
    """Raise on non-finite values of the field levels ``levels``."""
    if not np.all(np.isfinite(levels)):
        raise ValueError("non-finite field values")


class _LevelField:
    """Values per mesh entity for levels n = 0..N (per slab n = 0..N-1
    when ``slab``), finite and read-only."""

    slab = False

    def __init__(self, mesh, grid, values, entity_shape):
        values = np.ascontiguousarray(values, dtype=float)
        shape = (grid.n_steps + (not self.slab),) + entity_shape
        if values.shape != shape:
            raise ValueError(f"expected shape {shape}, got {values.shape}")
        check_finite_levels(values)
        self.mesh = mesh
        self.grid = grid
        self.values = values
        values.setflags(write=False)

    def sup_norm(self) -> float:
        """Max |value| over the slab levels 0..N-1 (the space-time
        function)."""
        return float(self._sizes().max())

    def _sizes(self):
        """|value| per entity of the levels 0..N-1."""
        return np.abs(self.values[:self.grid.n_steps])


class CellScalarField(_LevelField):
    """Cell-centred scalar unknown q_P^n, levels n = 0..N."""

    def __init__(self, mesh, grid, values):
        super().__init__(mesh, grid, values, (mesh.n_cells,))


class CellSlabField(_LevelField):
    """Cell scalar per time slab [t_n, t_{n+1}), n = 0..N-1, such as the
    convection operator C(U)_P^n."""

    slab = True

    def __init__(self, mesh, grid, values):
        super().__init__(mesh, grid, values, (mesh.n_cells,))


class FaceField(_LevelField):
    """A face velocity of a staggered layout (a ``layouts.Layout``) with
    its dual mesh, levels 0..N: per face, ``layout.components`` values (RT
    the full vector, (2,); MAC the normal component, ()).  Its sizes are
    ``layout.magnitude``; the dual gives R2 its dual edges (and RT its
    splitting constant)."""

    def __init__(self, layout, mesh, grid, dual, values):
        super().__init__(mesh, grid, values,
                         (mesh.n_faces,) + layout.components)
        self.layout, self.dual = layout, dual

    def _sizes(self):
        return self.layout.magnitude(self.values[:self.grid.n_steps])


# ----------------------------------------------------------------------
# test functions

def _bump(s, a, b, derivative=False, out=None):
    """exp(-1/(1-u^2)) rescaled to (a, b), extended by zero outside; with
    ``derivative`` its derivative in s.

    The value is formed in place, in ``out`` when given (it may be s
    itself): u^2 < 1 exactly where |u| < 1, and on that inside set the
    value is exp(-1.0 / (1.0 - u * u)), and the derivative that times
    (-2.0 * u / (1.0 - u * u) ** 2) * (2.0 / (b - a)), by ``where=``-masked
    ufuncs, so exp never meets the underflow of the points outside, which
    are set to +0.0."""
    s = np.asarray(s, dtype=float)
    u = np.multiply(2.0, s, out=np.empty_like(s) if out is None else out)
    np.subtract(u, a + b, out=u)
    np.divide(u, b - a, out=u)
    slope = np.multiply(-2.0, u, out=np.empty_like(u)) if derivative else None
    np.multiply(u, u, out=u)
    inside = u < 1.0
    np.subtract(1.0, u, out=u, where=inside)
    if derivative:
        square = np.square(u, out=np.empty_like(u), where=inside)
        np.divide(slope, square, out=slope, where=inside)
    np.divide(-1.0, u, out=u, where=inside)
    np.exp(u, out=u, where=inside)
    if derivative:
        np.multiply(u, slope, out=u, where=inside)
        np.multiply(u, 2.0 / (b - a), out=u, where=inside)
    np.copyto(u, 0.0, where=~inside)
    return u


class TestFunction:
    """Smooth compactly supported phi(x, t) with closed-form derivatives.

    phi is separable, phi(x, t) = tf(t) * B(x) with B(x) = prod_d b_d(x_d):
    the spatial part is a product of exponential bumps over the support
    box.  Two time profiles are available:

    * ``"initial"`` (default): an even bump in t restricted to [0, t_max), so
      phi(., 0) != 0 and the initialization terms of the weak form are
      exercised;
    * ``"interior"``: the bump rescaled to (0, t_max), vanishing at t = 0.

    The support must lie strictly inside the domain box and t_max < T.

    ``at`` and ``at_grid`` are the one evaluation seam: they evaluate the
    bumps once per point set, and ``value``/``dt``/``grad`` go through
    ``at``.  A subclass changes phi by overriding ``_time_factor`` and
    ``_bumps``; its bumps must vanish outside the support box, since
    ``interpolate_test`` and ``residual_time`` apply their rules to B
    (``PhiAt.space``) only on the cells and faces that meet it.

    Product order (a bitwise contract): values and time derivatives are
    formed as ``(tf * b_0) * b_1``, with tf evaluated once per time, grad
    component d as ``(b_d' * tf) * b_e`` over the other axes e in order, B
    as ``b_0 * b_1``, and a factored quantity as ``tf * (rule over B)``.
    """

    def __init__(self, support, t_max, time_profile="initial"):
        self.support = tuple((float(a), float(b)) for a, b in support)
        self.t_max = float(t_max)
        if time_profile not in TIME_PROFILES:
            raise ValueError(f"unknown time profile {time_profile!r}")
        self.time_profile = time_profile
        self.dim = len(self.support)
        for a, b in self.support:
            if not b > a:
                raise ValueError(f"test-function support bounds must have "
                                 f"lo < hi, got ({a}, {b})")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        self.time_range = (0.0 if time_profile == "interior" else -self.t_max,
                           self.t_max)
        for what, (a, b) in self._bump_ranges():
            if not math.isfinite(2.0 / (b - a)):
                raise ValueError(f"{what}: the bump on ({a}, {b}) has a "
                                 f"scale 2/(b - a) that is not finite")

    def _bump_ranges(self):
        """Each bump's range (a, b) with what sets it: the support
        intervals, then the time range."""
        return ([("test-function support bounds", ab) for ab in self.support]
                + [(f"t_max = {self.t_max!r}", self.time_range)])

    def validate_against(self, domain, final_time):
        """Raise a ``SupportError`` unless the support lies strictly inside
        the domain box (one (lo, hi) per axis of phi), t_max < final_time,
        and no bump overflows on the domain and on [0, final_time]."""
        for (a, b), (lo, hi) in zip(self.support, domain):
            if not (a > lo and b < hi):
                raise SupportError(
                    f"support [{a}, {b}] not strictly inside ({lo}, {hi})")
        if not self.t_max < final_time:
            raise SupportError(f"t_max={self.t_max} must be < T={final_time}")
        # a bump squares u = (2s - (a + b)) / (b - a) at every s of the
        # domain and of [0, T], and |u| is largest at their ends
        for (what, (a, b)), (lo, hi) in zip(self._bump_ranges(),
                                            [*domain, (0.0, final_time)]):
            u = max(abs(2.0 * float(s) - (a + b)) for s in (lo, hi)) / (b - a)
            if not math.isfinite(u * u):
                raise SupportError(f"{what}: the bump on ({a}, {b}) "
                                   f"overflows on ({lo}, {hi})")

    # -- evaluation ------------------------------------------------------
    def _time_factor(self, t, derivative=False):
        """The time bump, or its derivative, at the times t."""
        t = np.asarray(t, dtype=float)
        out = _bump(t, *self.time_range, derivative)
        if self.time_profile == "interior":
            return out
        return np.where(t >= 0.0, out, 0.0)

    def _bumps(self, coords, derivative=False):
        """The spatial bumps (or their derivatives), one per axis."""
        if len(coords) < self.dim:
            raise ValueError(f"points have {len(coords)} coordinates, "
                             f"phi needs {self.dim}")
        return [_bump(c, a, b, derivative)
                for c, (a, b) in zip(coords, self.support)]

    def at(self, x) -> PhiAt:
        """phi on the fixed points x, shape (n, dim), for any number of
        times: ``.value(t)``, ``.dt(t)`` and ``.grad(t)``."""
        return PhiAt(self, list(np.atleast_2d(np.asarray(x, dtype=float)).T))

    def at_grid(self, axes) -> PhiAt:
        """phi on a tensor grid given by its per-axis coordinates: ``axes[d]``
        holds the x_d nodes, shaped so that the axes (and the times passed
        to the evaluator) broadcast to the grid.  Each bump is evaluated on
        its own axis only."""
        return PhiAt(self, [np.asarray(a, dtype=float) for a in axes])

    def value(self, x, t):
        return self.at(x).value(t)

    def dt(self, x, t):
        return self.at(x).dt(t)

    def grad(self, x, t):
        return self.at(x).grad(t)

    def sup_norm(self) -> float:
        """Analytic sup of |phi|: each bump factor peaks at exp(-1)."""
        return float(np.exp(-(self.dim + 1)))

    def sup_norm_initial(self) -> float:
        """Analytic sup of |phi(., 0)| over the domain."""
        if self.time_profile == "interior":
            return 0.0
        return float(np.exp(-(self.dim + 1)))


def _times(tf, bumps):
    """(tf * b_0) * b_1 ...: the product order of ``TestFunction``."""
    out = tf
    for b in bumps:
        out = out * b
    return out


def _grad_components(tf, bumps, dbumps):
    """Component d is (b_d' * tf) times the other bumps in axis order; one
    array per component."""
    out = []
    for d, db in enumerate(dbumps):
        g = db * tf
        for e, be in enumerate(bumps):
            if e != d:
                g = g * be
        out.append(g)
    return out


class PhiAt:
    """A test function on one fixed point set (``TestFunction.at`` and
    ``at_grid``): the spatial bumps are evaluated once, their derivatives
    once on the first ``grad``, and each call forms tf(t) once and the
    product in the order of ``TestFunction``."""

    def __init__(self, phi: TestFunction, coords):
        self.phi = phi
        self.coords = coords

    @cached_property
    def _bumps(self):
        return self.phi._bumps(self.coords)

    @cached_property
    def _dbumps(self):
        return self.phi._bumps(self.coords, derivative=True)

    def on_support(self, k):
        """Split the points into rows of k consecutive points (the vertices
        of one cell or face) and return the ids of the rows whose bounding
        box meets the open support box of phi.  A cell or face outside its
        vertices' box has every node on or past an edge of the support, so
        phi(., t) is a signed zero at each of its nodes for any finite
        tf(t)."""
        corners = np.stack(self.coords, axis=-1).reshape(-1, k, self.phi.dim)
        lo, hi = np.asarray(self.phi.support).T
        meets = (corners.max(axis=1) > lo) & (corners.min(axis=1) < hi)
        return np.flatnonzero(meets.all(axis=1))

    def first_rows(self, rows):
        """phi on the part of a tensor grid (``TestFunction.at_grid``) whose
        first coordinate is one of the nodes ``rows`` of the first axis; the
        bumps and their derivatives are sliced from this evaluator's."""
        sub = PhiAt(self.phi, [self.coords[0][rows]] + self.coords[1:])
        sub._bumps = [self._bumps[0][rows]] + self._bumps[1:]
        sub._dbumps = [self._dbumps[0][rows]] + self._dbumps[1:]
        return sub

    def space(self):
        """The spatial factor B = b_0 * b_1 ... at the points."""
        return reduce(np.multiply, self._bumps)

    def value(self, t):
        return _times(self.phi._time_factor(t), self._bumps)

    def dt(self, t):
        return _times(self.phi._time_factor(t, derivative=True), self._bumps)

    def grad(self, t):
        """The components of ``grad_components`` stacked on a trailing
        axis."""
        return np.stack(self.grad_components(t), axis=-1)

    def grad_components(self, t):
        """The components of grad phi, each its own contiguous array."""
        return _grad_components(self.phi._time_factor(t), self._bumps,
                                self._dbumps)


# ----------------------------------------------------------------------
# reference functions f(x, t)

class Reference:
    """f(x, t) = combine(space(x), t), with the x-only part split off so
    that it is formed once per point set.

    ``space(points)`` has one row per point, shaped (M,) for a scalar f and
    (M, m) for an m-vector.  Three evaluations share one broadcasting rule:
    the times get one trailing unit axis per component axis of the space
    part, and the result of ``combine`` is copied out to the joint shape, so
    a steady ``combine`` may return the space part itself.

    * ``f(x, t)``, t a scalar or one time per point: shaped (M,) + C;
    * ``f.at(points)``, the evaluator ``ev(times, out=None)`` with the
      times on a leading axis: shaped (len(times), M) + C, written into
      ``out`` when given;
    * ``f.on_grid(points, times)``, the tensor grid of points x times in C
      order with time fastest: shaped (M, len(times)) + C.

    All three evaluate each value by the same operations, so they agree
    bit for bit.  ``ev(times, out=buf)`` passes ``out`` on to the combine,
    which writes the joint shape into it, so no value array is allocated;
    a combine is given ``out`` only then, so one that is never evaluated
    into a buffer (a steady velocity) need not take it.
    """

    def __init__(self, space: Callable, combine: Callable):
        self.space = space
        self.combine = combine

    def _combine(self, s, t, shape, out=None):
        """combine(s, t) as an array of the given shape: the axes that a
        steady combine leaves out are filled by block copies."""
        if out is not None:
            return self.combine(s, t, out=out)
        vals = np.asarray(self.combine(s, t))
        if vals.shape != shape:
            vals = vals.reshape((1,) * (len(shape) - vals.ndim) + vals.shape)
            for axis, n in enumerate(shape):
                if vals.shape[axis] != n:
                    vals = np.repeat(vals, n, axis=axis)
        return vals

    def __call__(self, x, t):
        s = self.space(np.atleast_2d(x))
        return self._combine(s, _unit_axes(t, s.ndim - 1), s.shape)

    def at(self, points) -> Callable:
        s = self.space(np.atleast_2d(points))
        return lambda times, out=None: self._combine(
            s, _unit_axes(np.asarray(times, dtype=float)[:, None], s.ndim - 1),
            (len(times),) + s.shape, out)

    def on_grid(self, points, times) -> np.ndarray:
        s = self.space(np.atleast_2d(points))
        return self._combine(s[:, None], _unit_axes(times, s.ndim - 1),
                             s.shape[:1] + (len(times),) + s.shape[1:])


def _unit_axes(t, n):
    """The times t as floats with n trailing unit axes."""
    t = np.asarray(t, dtype=float)
    return t.reshape(t.shape + (1,) * n)


def _reference_at(ref, points, times=None):
    """ref on the fixed points.  Without times, the evaluator ``ev(times,
    out=None)``, shaped (len(times), len(points)) + C: ``ref.at(points)``
    when ref has one, else one ``ref(points, t)`` call per time, stacked
    (into ``out`` when given).  With times, the values on the tensor grid
    points x times, shaped (len(points), len(times)) + C with time
    fastest: ``ref.on_grid`` when ref has one, else one ``ref(x, t)`` call
    on every grid node."""
    if times is not None:
        on_grid = getattr(ref, "on_grid", None)
        if on_grid is not None:
            return on_grid(points, times)
        times = np.asarray(times, dtype=float)
        vals = np.asarray(ref(np.repeat(points, times.size, axis=0),
                              np.tile(times, len(points))), dtype=float)
        return vals.reshape((len(points), times.size) + vals.shape[1:])
    at = getattr(ref, "at", None)
    if at is not None:
        return at(points)

    def per_time(times, out=None):
        return np.stack([np.asarray(ref(points, t), dtype=float)
                         for t in times], out=out)

    return per_time


# ----------------------------------------------------------------------
# sampling and interpolates

def _knot_means(quad: CellQuadrature, ev, knots, out, work=None):
    """Cell means of f(., t) at every time of knots into the rows of
    ``out`` (len(knots), NC), from the evaluator ``ev`` of f on the rule's
    nodes (``_reference_at``), called once per chunk of times; its values
    go into ``work`` when given."""
    nodes = quad.weights.size
    for chunk in chunk_slices(knots.size, nodes):
        count = chunk.stop - chunk.start
        vals = ev(knots[chunk], out=None if work is None
                  else work[:count * nodes].reshape(count, nodes))
        for n, row in zip(range(chunk.start, chunk.stop), vals):
            out[n] = quad.cell_means(row)
    return out


def sample_cell_means(f, mesh, grid, order: int = DEFAULT_ORDER,
                      check: bool = True) -> CellScalarField:
    """Cell means of f(x, t_n) at every knot (initialization rule
    generalized to all levels); f is a ``Reference`` or a plain f(x, t).

    With ``check=True`` the means are recomputed at order+2 and a warning is
    emitted when the two disagree beyond 1e-8 (reported, not fatal).
    """
    values = _cell_means_at_knots(CellQuadrature(mesh, order), f, grid)
    if check:
        means = _cell_means_at_knots(CellQuadrature(mesh, order + 2), f, grid)
        worst = 0.0
        for gap in np.abs(means - values).max(axis=1):
            worst = max(worst, float(gap))
        scale = 1.0 + float(np.abs(values).max())
        if worst > 1e-8 * scale:
            warnings.warn(
                f"cell-mean quadrature disagreement {worst:.3e} between orders "
                f"{order} and {order + 2}", stacklevel=2)
    return CellScalarField(mesh, grid, values)


def _cell_means_at_knots(quad, f, grid):
    return _knot_means(quad, _reference_at(f, quad.flat_points()), grid.knots,
                       np.empty((grid.n_steps + 1, quad.points.shape[0])))


@dataclass
class InterpolatedTest:
    """Interpolates of a test function on a mesh/time grid, factored as phi
    is (``TestFunction``): tf[n] = tf(t_n) and three tables of B, its cell
    means <B>_P, face means <B>_zeta and face-mean gradient G_P = (1/|P|)
    sum_zeta |zeta| <B>_zeta n_{P,zeta}.  Each interpolate is formed as
    ``tf[n] * table`` by its consumer: phi_P^n (``cells`` at the selected
    knots), phi_zeta^n and the gradient.
    """

    phi: TestFunction
    mesh: object
    grid: object
    tf: np.ndarray              # (N+1,)
    cell_table: np.ndarray      # (NC,)
    face_table: np.ndarray      # (NF,)
    grad_table: np.ndarray      # (NC, dim)

    def cells(self, knots=slice(None)):
        return self.tf[knots, None] * self.cell_table

    def interior_support_clear(self) -> bool:
        """True when phi_P^n and phi_zeta^n vanish on all non-interior cells
        and their faces.  Rounding is monotone, so some tf[n] * table[i] is
        nonzero exactly when the product of the largest magnitudes is."""
        outside = ~self.mesh.interior_cell_mask
        faces = np.zeros(self.mesh.n_faces, dtype=bool)
        faces[self.mesh.cell_faces[outside]] = True
        tables = np.abs(np.concatenate([self.cell_table[outside],
                                        self.face_table[faces]]))
        return bool(tables.size == 0
                    or np.abs(self.tf).max() * tables.max() == 0.0)


def _support_table(phi: TestFunction, rule, mesh, order, panels, op):
    """A table over the cells or faces of the mesh (``rule`` is
    ``CellQuadrature`` or ``FaceQuadrature``): ``op(quad, B)`` of the
    spatial factor B on the rows that meet the support of phi
    (``PhiAt.on_support``), +0.0 on every other row, where B is a signed
    zero at each node.  The rule is built on chunks of those rows of about
    ``CHUNK_VALUES`` nodes; a row's bits do not depend on its chunk."""
    cells = rule is CellQuadrature
    row_vertices = mesh.cell_vertices if cells else mesh.face_vertices
    corners = mesh.vertices[row_vertices].reshape(-1, mesh.dim)
    rows = phi.at(corners).on_support(row_vertices.shape[1])
    out = np.zeros(len(row_vertices))
    for chunk in chunk_slices(rows.size,
                              (order * panels) ** (mesh.dim - (not cells))):
        quad = rule(mesh, order, panels, rows=rows[chunk])
        out[quad.rows] = op(
            quad, phi.at(quad.points.reshape(-1, mesh.dim)).space())
    return out


def interpolate_test(phi: TestFunction, mesh, grid, order: int = DEFAULT_ORDER,
                     panels: int = 4) -> InterpolatedTest:
    """Build tf at the knots and the spatial tables of ``InterpolatedTest``.

    The cell/face rules are panelised (4 panels of the base order per axis
    by default): bump test functions have steep support edges and the
    face-mean gradient amplifies edge-quadrature error by 1/h.  Each table
    is built once per level, its rule on the cells or faces whose vertex box
    meets the support of phi only (``_support_table``); every other entry
    gets +0.0.
    """
    phi.validate_against(mesh.domain, grid.final_time)
    cell_table = _support_table(phi, CellQuadrature, mesh, order, panels,
                                CellQuadrature.means)
    face_table = _support_table(phi, FaceQuadrature, mesh, order, panels,
                                FaceQuadrature.means)
    weights = (mesh.cell_face_measures[:, :, None]
               * mesh.cell_face_normals)                    # (NC, nf, dim)
    face_vals = face_table[mesh.cell_faces]                 # (NC, nf)
    gsum = sum_opposite_first(face_vals[..., None] * weights, axis=1)
    return InterpolatedTest(
        phi=phi, mesh=mesh, grid=grid, tf=phi._time_factor(grid.knots),
        cell_table=cell_table, face_table=face_table,
        grad_table=gsum / mesh.cell_volumes[:, None])


# ----------------------------------------------------------------------
# Lp distances

class LpDistance(NamedTuple):
    distance: float
    sup_field: float            # measured sup-norm of the discrete field


def lp_distance(field: CellScalarField, ref: Callable,
                order: int = DEFAULT_ORDER) -> LpDistance:
    """L1 distance between a cell field and a continuous function (a
    ``Reference`` or a plain ref(x, t)).

    Per-cell / per-slab quadrature of |q_P^n - ref(x, t)| (the kink where
    the two cross limits accuracy to a few percent, which is enough for
    convergence diagnostics); the distance is the ``step_sum`` of the
    (slab, cell) table, formed one chunk of steps at a time
    (``l1_steps``).
    """
    quad = CellQuadrature(field.mesh, order)
    l1 = l1_steps(quad, field.grid, _reference_at(ref, quad.flat_points()))
    chunks = chunk_slices(field.grid.n_steps, field.mesh.n_cells)
    return LpDistance(add_steps(np.concatenate(
        [l1(ch, field.values[ch]) for ch in chunks])), field.sup_norm())


def l1_steps(quad: CellQuadrature, grid, ev, work=None):
    """The step values (``step_values``) of the L1 distance of
    ``lp_distance`` on the cell rule ``quad``, as a function ``l1(steps,
    levels)`` of a slice of steps and the q levels of those steps; ``ev``
    evaluates the reference on the rule's nodes (``_reference_at``).

    The slab rule is formed once, here.  Per chunk of the slab rule, the
    reference's values on the nodes are written into the buffer "l1" of
    the ``quadrature.Workspace`` work (a new one by default) by
    ``ev(times, out=)`` and turned into |q - ref| in place, and the
    (cell, time) rows and the slab sums go into its buffers too
    ("slab_rows", "slab_terms", "l1_sums"), so no chunk allocates a value
    array and two distances of one pass can share one workspace.

    A reference that is piecewise constant in time names the slab of each
    time by ``ev.slabs(times)`` (``study._LevelQ.at``).  When it puts the
    first and the last Gauss time of every slab of a chunk in one of its
    slabs, it gives equal values at all Gauss times of each slab, and so
    does |q - ref|: the chunk asks for one time per slab (the slab rule's
    ``once``), whose sums keep their bits."""
    work = Workspace() if work is None else work
    slab = SlabQuadrature(quad, grid, work=work)
    nodes = quad.points.shape[:2]
    slabs = getattr(ev, "slabs", None)

    def l1(steps, levels):
        def integrand(sub, tn):
            vals = ev(tn.ravel(),
                      out=work("l1", (tn.size, nodes[0] * nodes[1])))
            vals = vals.reshape(tn.shape + nodes)
            rows = levels[sub.start - steps.start:sub.stop - steps.start]
            np.subtract(rows[:, None, :, None], vals, out=vals)
            return np.abs(vals, out=vals)

        once = False
        if slabs is not None:
            tn, _ = gauss_times(grid.knots[steps.start:steps.stop + 1],
                                slab.tnodes1d.size)
            once = np.array_equal(slabs(tn[:, 0]), slabs(tn[:, -1]))
        out = work("l1_sums", (len(levels), nodes[0]))
        return step_values(slab.slab_cell_integrals(integrand, steps, out=out,
                                                    once=once))

    return l1


# ----------------------------------------------------------------------
# translate functionals (discrete compactness quantities)

@dataclass
class TranslateWeights:
    """Weights of the translate functional.

    Face/step form: ``omega_face[j]`` for the j-th interior face and
    ``delta_half[n]`` for the knot between slabs n and n+1 (n = 0..N-2).
    Generalized form: explicit cell pairs / slab-level pairs with weights.
    All weights must be nonnegative.
    """

    mesh: object
    grid: object
    omega_face: np.ndarray | None = None        # (n_interior_faces,)
    delta_half: np.ndarray | None = None        # (N-1,)
    pairs_x: np.ndarray | None = None           # (M, 2) cell ids
    omega_x: np.ndarray | None = None           # (M,)
    pairs_t: np.ndarray | None = None           # (K, 2) slab levels
    delta_t: np.ndarray | None = None           # (K,)

    def __post_init__(self):
        for w in (self.omega_face, self.delta_half, self.omega_x, self.delta_t):
            if w is not None and np.any(np.asarray(w) < 0):
                raise ValueError("translate weights must be nonnegative")

    @property
    def is_general(self) -> bool:
        return self.pairs_x is not None

    # regularity parameters of the weights
    def theta_m(self) -> float:
        mesh = self.mesh
        if not self.is_general:
            faces = np.nonzero(mesh.interior_face_mask)[0]
            vols = mesh.cell_volumes
            p = mesh.face_cells[faces, 0]
            q = mesh.face_cells[faces, 1]
            ratios = np.maximum(self.omega_face / vols[p],
                                self.omega_face / vols[q])
            return float(ratios.max()) if ratios.size else 0.0
        tot = np.zeros(mesh.n_cells)
        np.add.at(tot, self.pairs_x[:, 0], self.omega_x)
        np.add.at(tot, self.pairs_x[:, 1], self.omega_x)
        return float((tot / mesh.cell_volumes).max())

    def theta_t(self) -> float:
        steps = self.grid.steps
        if not self.is_general:
            if self.delta_half is None or self.delta_half.size == 0:
                return 0.0
            d = self.delta_half
            return float(np.max(np.maximum(d / steps[:-1], d / steps[1:])))
        tot = np.zeros(steps.size)
        np.add.at(tot, self.pairs_t[:, 0], self.delta_t)
        np.add.at(tot, self.pairs_t[:, 1], self.delta_t)
        return float((tot / steps).max())

    # gap metrics of the generalized pair sets
    def gap_x(self) -> float:
        verts = self.mesh.vertices[self.mesh.cell_vertices]  # (NC, nv, dim)
        out = 0.0
        for k, l in self.pairs_x:
            diff = verts[k][:, None, :] - verts[l][None, :, :]
            out = max(out, float(np.sqrt((diff ** 2).sum(-1)).max()))
        return out

    def gap_t(self) -> float:
        knots = self.grid.knots
        out = 0.0
        for p, q in self.pairs_t:
            lo, hi = (p, q) if q > p else (q, p)
            out = max(out, float(knots[hi + 1] - knots[lo]))
        return out


def default_translate_weights(mesh, grid, theta: float = 1.0) -> TranslateWeights:
    """omega_sigma = theta*min(|K|, |L|), delta_{n+1/2} = min adjacent steps."""
    faces = np.nonzero(mesh.interior_face_mask)[0]
    vols = mesh.cell_volumes
    omega = theta * np.minimum(vols[mesh.face_cells[faces, 0]],
                               vols[mesh.face_cells[faces, 1]])
    steps = grid.steps
    delta = np.minimum(steps[:-1], steps[1:]) if steps.size > 1 else np.zeros(0)
    return TranslateWeights(mesh=mesh, grid=grid, omega_face=omega,
                            delta_half=delta)


def translate_space_terms(levels, dt, kx, lx, omega) -> np.ndarray:
    """dt_n * |u_K^n - u_L^n| * omega per (step, cell pair (K, L)), for the
    levels of some steps."""
    return dt[:, None] * np.abs(levels[:, kx] - levels[:, lx]) * omega


def translate_time_terms(first, second, delta, vols) -> np.ndarray:
    """delta * |u_K^p - u_K^q| * |K| per (slab-level pair (p, q), cell),
    for the levels p and q of some pairs."""
    return delta[:, None] * np.abs(first - second) * vols


def _translate_sum(u: CellScalarField, weights: TranslateWeights) -> float:
    """The translate functional of u over explicit pair sets: the
    ``step_sum`` of ``translate_space_terms`` per step plus that of
    ``translate_time_terms`` per slab-level pair."""
    vals = u.values[:-1]
    steps, vols = u.grid.steps, u.mesh.cell_volumes
    kx, lx = weights.pairs_x.T
    pt, qt = weights.pairs_t.T
    space = step_sum(
        translate_space_terms(vals[ch], steps[ch], kx, lx, weights.omega_x)
        for ch in chunk_slices(steps.size, kx.size))
    time = step_sum(
        translate_time_terms(vals[pt[ch]], vals[qt[ch]], weights.delta_t[ch],
                             vols)
        for ch in chunk_slices(pt.size, vols.size))
    return space + time


def translate_functional(u: CellScalarField, weights: TranslateWeights) -> float:
    """T_{M,T} u: time-step-weighted space jumps across interior faces plus
    measure-weighted jumps between consecutive slab values."""
    if weights.is_general:
        raise ValueError("got generalized weights; use translate_functional_general")
    return _translate_sum(u, generalize_weights(weights))


class GeneralTranslateResult(NamedTuple):
    value: float
    theta_m: float
    theta_t: float
    gap_x: float
    gap_t: float


def translate_functional_general(u: CellScalarField,
                                 weights: TranslateWeights) -> GeneralTranslateResult:
    """Generalized translate functional over explicit cell/level pair sets.

    Reduces exactly to ``translate_functional`` when the pairs are the
    interior faces and the consecutive slab levels.
    """
    if not weights.is_general:
        raise ValueError("expected generalized weights")
    return GeneralTranslateResult(_translate_sum(u, weights), weights.theta_m(),
                                  weights.theta_t(), weights.gap_x(),
                                  weights.gap_t())


def generalize_weights(weights: TranslateWeights) -> TranslateWeights:
    """Rewrite face/step weights as explicit pair sets (S_x, S_t)."""
    mesh, grid = weights.mesh, weights.grid
    faces = np.nonzero(mesh.interior_face_mask)[0]
    pairs_x = mesh.face_cells[faces].copy()
    n_half = weights.delta_half.size if weights.delta_half is not None else 0
    pairs_t = np.stack([np.arange(n_half), np.arange(1, n_half + 1)], axis=1) \
        if n_half else np.zeros((0, 2), dtype=np.int64)
    delta_t = weights.delta_half if n_half else np.zeros(0)
    return TranslateWeights(mesh=mesh, grid=grid, pairs_x=pairs_x,
                            omega_x=weights.omega_face, pairs_t=pairs_t,
                            delta_t=delta_t)

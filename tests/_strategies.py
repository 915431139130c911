"""Hypothesis strategies for the property tests: random meshes, time
grids, support boxes and discrete fields with their fluxes."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from fvlab import geometry
from fvlab.fields import (TIME_PROFILES, CellScalarField, FaceField,
                          TestFunction)
from fvlab.geometry import (build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_perturbed_quads,
                            build_time_grid)
from fvlab.layouts import MAC, get_layout
from fvlab.operators import (FACE_SCHEMES, flux_colocated_upwind_1d,
                             flux_staggered, get_pair)


@st.composite
def interval_meshes(draw, max_cells=8, min_cells=1):
    """1D interval meshes on [0, 1], uniform or graded."""
    return build_intervals(draw(st.integers(min_cells, max_cells)),
                           grading=draw(st.floats(0.8, 1.25)))


@st.composite
def perturbed_meshes(draw, max_cells=8, min_cells=1):
    """Perturbed quadrangle meshes: random size, amplitude < 0.25 and seed."""
    nx = draw(st.integers(min_cells, max_cells))
    ny = draw(st.integers(min_cells, max_cells))
    return build_perturbed_quads(
        nx, ny, amplitude=draw(st.floats(0.0, 0.25, exclude_max=True)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


@st.composite
def graded_meshes(draw, max_cells=8, min_cells=1):
    """Rectangular tensor meshes with one grading ratio, or one per axis."""
    ratio = st.floats(0.8, 1.25)
    nx = draw(st.integers(min_cells, max_cells))
    ny = draw(st.integers(min_cells, max_cells))
    grading = draw(st.one_of(st.just(1.0), ratio, st.tuples(ratio, ratio)))
    return build_cartesian(nx, ny, grading=grading)


@st.composite
def time_grids(draw, max_steps=6, n_steps=None):
    """Uniform time grids, or grids whose steps alternate 1 : ratio; with
    ``n_steps`` the number of steps is fixed."""
    T = draw(st.floats(0.25, 2.0))
    n = n_steps or draw(st.integers(1, max_steps))
    if draw(st.booleans()):
        return build_time_grid(T, n)
    return build_time_grid(T, n, pattern="alternating",
                           ratio=draw(st.floats(0.5, 2.0)))


@st.composite
def support_boxes(draw, dim=2, mesh=None):
    """Boxes strictly inside the unit box, from a sliver to most of it,
    one (a, b) pair per axis.  Given a mesh, an edge is sometimes moved
    onto a vertex coordinate of that axis (a mesh line of a tensor mesh),
    where the open box only touches the cells on one side."""
    box = []
    for d in range(dim):
        a = draw(st.floats(0.01, 0.9))
        b = draw(st.floats(a + 0.02, 0.99))
        if mesh is not None and draw(st.booleans()):
            lines = np.unique(mesh.vertices[:, d])
            lines = lines[(lines > 0.0) & (lines < 1.0)]
            if lines.size:
                edge = float(draw(st.sampled_from(lines)))
                if draw(st.booleans()) and edge < b:
                    a = edge
                elif edge > a:
                    b = edge
        box.append((a, b))
    return tuple(box)


@st.composite
def interior_support_boxes(draw, mesh):
    """Boxes that meet the interior cells of the mesh only: about the mean
    centroid p of the interior cells, inside the largest cube about p that
    stays clear of the vertex boxes of the other cells, so that a test
    function on the box vanishes on those cells and their faces."""
    outside = mesh.vertices[mesh.cell_vertices[~mesh.interior_cell_mask]]
    p = mesh.cell_centroids[mesh.interior_cell_mask].mean(axis=0)
    r = np.maximum(outside.min(axis=1) - p, p - outside.max(axis=1))
    r = float(r.max(axis=1).min())
    assume(r > 0.0)
    return tuple((float(c - r * draw(st.floats(0.05, 1.0))),
                  float(c + r * draw(st.floats(0.05, 1.0)))) for c in p)


@st.composite
def flux_levels(draw, min_cells=1):
    """A layout, a mesh and time grid it admits, random fields on them and
    their flux: graded tensor meshes for MAC, perturbed quadrangles for RT,
    graded intervals with the upwind flux for colocated 1D; ``min_cells``
    per axis at least."""
    layout = draw(st.sampled_from(["mac", "rt", "colocated1d"]))
    mesh = draw({"mac": graded_meshes(max_cells=4, min_cells=min_cells),
                 "rt": perturbed_meshes(max_cells=4, min_cells=min_cells),
                 "colocated1d": interval_meshes(min_cells=min_cells)}[layout])
    grid = draw(time_grids(max_steps=5))
    pair = get_pair(draw(st.sampled_from(["id", "square", "slogs"])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = CellScalarField(mesh, grid,
                        rng.normal(size=(grid.n_steps + 1, mesh.n_cells)))
    if layout == "colocated1d":
        return layout, None, pair, q, None, flux_colocated_upwind_1d(q)
    dual = build_dual_mac(mesh) if layout == "mac" else build_dual_rt(mesh)
    rules = get_layout(layout)
    v = FaceField(rules, mesh, grid, dual, rng.normal(
        size=(grid.n_steps + 1, mesh.n_faces) + rules.components))
    flux = flux_staggered(q, v, pair,
                          scheme=draw(st.sampled_from(FACE_SCHEMES)))
    return layout, dual, pair, q, v, flux


@st.composite
def constant_levels(draw):
    """A constant state q = c (and v = (a, b)) with its flux on a level of
    a layout: graded tensor meshes for MAC and RT, graded intervals for
    colocated 1D.  Drawn: the pair (only ``id`` for colocated 1D, whose
    flux is fixed), the face scheme and one of the layout's boundary
    policies.  Returns the layout, the pair, q, v (None in 1D), the flux
    and a test function on a support box inside the domain."""
    layout = draw(st.sampled_from(["mac", "rt", "colocated1d"]))
    rules = get_layout(layout)
    mesh = draw(interval_meshes() if rules.dim == 1 else graded_meshes())
    grid = draw(time_grids(max_steps=5))
    policy = draw(st.sampled_from(rules.boundary_policies))
    levels = grid.n_steps + 1
    q = CellScalarField(mesh, grid, np.full((levels, mesh.n_cells),
                                            draw(st.floats(-3.0, 3.0))))
    phi = TestFunction(draw(support_boxes(rules.dim)),
                       draw(st.floats(0.05, 0.95)) * grid.final_time,
                       draw(st.sampled_from(TIME_PROFILES)))
    if not rules.staggered:
        return (layout, get_pair("id"), q, None,
                flux_colocated_upwind_1d(q, policy=policy), phi)
    pair = get_pair(draw(st.sampled_from(["id", "square", "slogs"])))
    dual = getattr(geometry, rules.dual_builder)(mesh)
    vel = np.broadcast_to([draw(st.floats(-2.0, 2.0)),
                           draw(st.floats(-2.0, 2.0))], (mesh.n_faces, 2))
    if rules is MAC:
        vel = MAC.face_components(vel, mesh, dual)
    v = FaceField(rules, mesh, grid, dual,
                  np.broadcast_to(vel, (levels,) + vel.shape))
    flux = flux_staggered(q, v, pair, policy=policy,
                          scheme=draw(st.sampled_from(FACE_SCHEMES)))
    return layout, pair, q, v, flux, phi

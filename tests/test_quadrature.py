from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import assert_bitwise, slab_integrals_per_slab
from _strategies import (graded_meshes, interval_meshes, perturbed_meshes,
                         time_grids)
from fvlab import quadrature
from fvlab.fields import Reference
from fvlab.geometry import build_cartesian, build_intervals, build_perturbed_quads
from fvlab.quadrature import (BoxQuadrature, CellQuadrature, FaceQuadrature,
                              SlabQuadrature,
                              composite_gauss_legendre, gauss_legendre)


def test_gauss_legendre_basics():
    nodes, weights = gauss_legendre(4)
    assert abs(weights.sum() - 2.0) < 1e-14
    # exact for degree 7
    for k in range(8):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(weights, nodes ** k) - exact) < 1e-14


@pytest.mark.parametrize("order", [1, 2, 4, 8, 13])
def test_gauss_legendre_is_cached_and_read_only(order):
    # one rule per order, the bits of leggauss, and no caller can change
    # what the next caller gets
    nodes, weights = gauss_legendre(order)
    want = np.polynomial.legendre.leggauss(order)
    assert_bitwise(nodes, want[0])
    assert_bitwise(weights, want[1])
    again = gauss_legendre(order)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0


def test_composite_rule_covers_interval():
    nodes, weights = composite_gauss_legendre(3, 5)
    assert nodes.size == 15
    assert abs(weights.sum() - 2.0) < 1e-14
    assert abs(np.dot(weights, nodes ** 4) - 2.0 / 5) < 1e-14


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        composite_gauss_legendre(2, 0)


def test_cell_means_constant_bitwise():
    mesh = build_perturbed_quads(5, 4, amplitude=0.2, seed=3)
    quad = CellQuadrature(mesh, 4)
    means = quad.cell_means(quad.values(lambda x: np.full(x.shape[0], 3.0)))
    assert np.all(means == 3.0)


def test_cell_means_affine_hits_centroid():
    mesh = build_perturbed_quads(6, 6, amplitude=0.15, seed=11)
    quad = CellQuadrature(mesh, 4)
    means = quad.cell_means(
        quad.values(lambda x: 2.0 * x[:, 0] - 0.5 * x[:, 1] + 1.0))
    expect = 2.0 * mesh.cell_centroids[:, 0] - 0.5 * mesh.cell_centroids[:, 1] + 1.0
    assert np.abs(means - expect).max() < 1e-14


def test_cell_means_polynomial_exact_to_1e12():
    # sampling exactness contract: polynomials up to the rule's degree
    mesh = build_cartesian(4, 4)
    quad = CellQuadrature(mesh, 4)

    def poly(x):
        return (x[:, 0] ** 3) * (x[:, 1] ** 2) - 2.0 * x[:, 1] ** 3 + x[:, 0]

    oracle = CellQuadrature(mesh, 8)
    assert np.abs(quad.cell_means(quad.values(poly))
                  - oracle.cell_means(oracle.values(poly))).max() < 1e-12


def test_cell_integrals_sum_to_domain_integral():
    mesh = build_perturbed_quads(8, 8, amplitude=0.2, seed=7)
    quad = CellQuadrature(mesh, 6)
    x = quad.flat_points()
    total = quad.cell_integrals(np.sin(np.pi * x[:, 0])
                                * np.sin(np.pi * x[:, 1])).sum()
    assert abs(total - 4.0 / np.pi ** 2) < 1e-10


def test_face_means_linear_exact():
    mesh = build_cartesian(3, 3)
    fq = FaceQuadrature(mesh, 2)
    x = fq.points.reshape(-1, 2)
    means = fq.face_means(x[:, 0] + 2.0 * x[:, 1])
    expect = mesh.face_midpoints[:, 0] + 2.0 * mesh.face_midpoints[:, 1]
    assert np.abs(means - expect).max() < 1e-14


def test_1d_cell_rule():
    mesh = build_intervals(8)
    quad = CellQuadrature(mesh, 4)
    means = quad.cell_means(quad.flat_points()[:, 0] ** 2)
    # mean of s^2 over [a,b] = (a^2+ab+b^2)/3
    edges = np.linspace(0, 1, 9)
    a, b = edges[:-1], edges[1:]
    assert np.abs(means - (a * a + a * b + b * b) / 3.0).max() < 1e-14


def test_box_quadrature_matches_closed_form():
    box = BoxQuadrature([(0.0, 1.0), (0.0, 2.0)], panels=3, order=6)
    p = box.points
    val = box.integrate(np.sin(p[:, 0]) * p[:, 1])
    assert abs(val - (1 - np.cos(1.0)) * 2.0) < 1e-12


def test_type_error_inside_f_of_x_t_propagates():
    # values(f, t) calls f(x, t) exactly when t is given: a TypeError f
    # raises is the caller's error, never a cue to retry as f(x)
    mesh = build_cartesian(3, 3)
    quad = CellQuadrature(mesh, 2)

    def f(x, t=0.0):
        if t > 0.0:
            raise TypeError("boom")
        return x[:, 0]

    assert np.array_equal(quad.values(f), quad.values(f, 0.0))
    with pytest.raises(TypeError, match="boom"):
        quad.values(f, 0.5)
    # a one-argument integrand is not handed a time it cannot take
    with pytest.raises(TypeError):
        quad.values(lambda x: np.full(x.shape[0], 2.0), 0.5)
    means = quad.cell_means(quad.values(lambda x, t: np.full(x.shape[0], t), 2.0))
    assert np.all(means == 2.0)


# a signed integrand with an x-only factor, for meshes of either dimension
WAVE = Reference(lambda x: np.sin(3.0 * x[:, 0]) - x[:, -1],
                 lambda s, t: s * np.cos(5.0 * t) - t)


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(interval_meshes(), perturbed_meshes(max_cells=3)),
       space_order=st.integers(1, 4), time_order=st.integers(1, 4),
       chunk=st.integers(1, 40), spare=st.integers(0, 50),
       offset=st.sampled_from([None, -1, 0, 1]), data=st.data())
def test_slab_integrals_match_per_slab_oracle(mesh, space_order, time_order,
                                              chunk, spare, offset, data):
    # the batched slab rule against one f(t) call per Gauss time of every
    # slab, at 1 step and at one chunk of steps minus one, exactly and plus
    # one, for a chunk constant holding `chunk` steps; equal bytes (signs
    # of zeros too), and the same bytes at the module's constant and at 1
    per_step = time_order * mesh.n_cells * space_order ** mesh.dim
    n_steps = 1 if offset is None else max(1, chunk + offset)
    grid = data.draw(time_grids(n_steps=n_steps))
    slab = SlabQuadrature(mesh, grid, space_order, time_order)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    q = rng.normal(size=(n_steps, mesh.n_cells))
    q[rng.random(q.shape) < 0.2] = 0.0
    q[rng.random(q.shape) < 0.2] = -0.0
    x = slab.cell.flat_points()
    ev = WAVE.at(x)
    nodes = slab.cell.points.shape[:2]

    def batched(steps, tn):
        vals = ev(tn.ravel()).reshape(tn.shape + nodes)
        return q[steps][:, None, :, None] * vals

    want = np.array([slab_integrals_per_slab(
        slab, lambda t: q[n][:, None] * WAVE(x, t).reshape(nodes), n)
        for n in range(n_steps)])
    assert_bitwise(slab.slab_cell_integrals(batched), want)
    for values in (chunk * per_step + spare % per_step, 1):
        with mock.patch.object(quadrature, "CHUNK_VALUES", values):
            assert_bitwise(slab.slab_cell_integrals(batched), want)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rule=st.sampled_from([CellQuadrature, FaceQuadrature]),
       order=st.integers(1, 5), panels=st.integers(1, 3))
def test_rules_on_rows_match_the_full_rule(data, rule, order, panels):
    # a rule built on some cells or faces, in any order, repeated or none,
    # has the points, weights and normalised weights of those rows of the
    # rule built on all of them, bit for bit
    mesh = data.draw(st.one_of(perturbed_meshes(), graded_meshes(),
                               interval_meshes(max_cells=16)))
    full = rule(mesh, order, panels)
    n_rows = full.points.shape[0]
    rows = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=n_rows))
    part = rule(mesh, order, panels, rows=rows)
    for name in ("points", "weights", "_wnorm"):
        assert_bitwise(getattr(part, name),
                       getattr(full, name)[np.asarray(rows, dtype=int)])

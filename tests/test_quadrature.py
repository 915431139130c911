from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (assert_bitwise, cell_rule_einsum, einsum_lanes,
                      flat_einsum_lanes, slab_integrals_per_slab)
from _strategies import (graded_meshes, interval_meshes, perturbed_meshes,
                         shuffled_rectangles, time_grids)
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


@pytest.mark.parametrize("bounds, panels, order, rows", [
    ([(0.0, 1.0)], 3, 5, 4),
    ([(0.2, 0.8), (0.3, 0.7)], 2, 4, 3),
    ([(0.2, 0.8), (0.3, 0.7), (0.0, 0.35)], 2, 5, 7),
])
def test_box_row_weights_are_the_rows_of_weights(bounds, panels, order,
                                                 rows):
    # the weights of chunks of first-axis rows, the last chunk ragged, are
    # the rows of the flat weights, whose products run in axis order
    box = BoxQuadrature(bounds, panels, order)
    axis_weights = [quadrature._panel_rule(order, panels, a, b)[1]
                    for a, b in bounds]
    want = axis_weights[0]
    for w in axis_weights[1:]:
        want = want[..., None] * w
    assert [x.hex() for x in box.weights] == \
        [x.hex() for x in want.ravel()]
    n_first = box.grid_axes[0].size
    whole = box.weights.reshape(n_first, -1)
    with mock.patch.object(quadrature, "CHUNK_VALUES",
                           rows * whole.shape[1]):
        chunks = quadrature.chunk_slices(n_first, whole.shape[1])
    assert len(chunks) > 1 and n_first % rows
    for chunk in chunks:
        got = box.row_weights(chunk)
        assert got.shape == (chunk.stop - chunk.start, whole.shape[1])
        assert [x.hex() for x in got.ravel()] == \
            [x.hex() for x in whole[chunk].ravel()]
        # written into a reused buffer, whose old values must not show
        out = np.full(got.shape, np.nan)
        assert_bitwise(box.row_weights(chunk, out=out), got)
        assert_bitwise(out, got)


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
    slab = SlabQuadrature(CellQuadrature(mesh, space_order), grid, time_order)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    q = rng.normal(size=(n_steps, mesh.n_cells))
    q[rng.random(q.shape) < 0.2] = 0.0
    q[rng.random(q.shape) < 0.2] = -0.0
    x = slab.cell.flat_points()
    ev = WAVE.at(x)
    nodes = slab.cell.points.shape[:2]

    def batched(steps, tn, cells):
        vals = ev(tn.ravel()).reshape(tn.shape + nodes)[:, :, cells]
        return q[steps][:, None, cells, None] * vals

    want = np.array([slab_integrals_per_slab(
        slab, lambda t: q[n][:, None] * WAVE(x, t).reshape(nodes), n)
        for n in range(n_steps)])
    assert_bitwise(slab.slab_cell_integrals(batched), want)
    for values in (chunk * per_step + spare % per_step, 1):
        with mock.patch.object(quadrature, "CHUNK_VALUES", values):
            assert_bitwise(slab.slab_cell_integrals(batched), want)


VARYING_RANGES = ("empty", "full", "interior", "first", "last")


@settings(max_examples=80, deadline=None)
@given(data=st.data(), time_order=st.integers(1, 5),
       space_order=st.integers(1, 3), values=st.integers(1, 400),
       kind=st.sampled_from(VARYING_RANGES))
def test_slab_rule_once_equals_the_integrand_at_every_time(
        data, time_order, space_order, values, kind):
    # the cells outside the varying range give their integrand at the
    # first Gauss time of each slab only, the cells inside it at every
    # Gauss time; the sums are the bits of the integrand evaluated at
    # every Gauss time (per slab, the oracle), signs of zeros included,
    # for a range that is empty, all cells, interior or touching either
    # end, on any slice of steps and for chunks of any size
    mesh = data.draw(st.one_of(interval_meshes(max_cells=16),
                               graded_meshes(max_cells=5)))
    n_cells = mesh.n_cells
    if kind == "interior":
        assume(n_cells >= 3)
        c0 = data.draw(st.integers(1, n_cells - 2))
        varying = slice(c0, data.draw(st.integers(c0 + 1, n_cells - 1)))
    elif kind == "empty":
        c0 = data.draw(st.integers(0, n_cells))
        varying = slice(c0, c0)
    else:
        cut = data.draw(st.integers(1, n_cells))
        varying = {"full": slice(None), "first": slice(0, cut),
                   "last": slice(n_cells - cut, n_cells)}[kind]
    grid = data.draw(time_grids(max_steps=7))
    lo = data.draw(st.integers(0, grid.n_steps - 1))
    steps = slice(lo, data.draw(st.integers(lo + 1, grid.n_steps)))
    slab = SlabQuadrature(CellQuadrature(mesh, space_order), grid, time_order)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    k = slab.cell.points.shape[1]
    vals = rng.normal(size=(grid.n_steps, n_cells, k))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    vals[rng.random(vals.shape) < 0.2] = -0.0
    phase = rng.normal(size=(n_cells, k))
    inside = np.zeros((n_cells, 1), dtype=bool)
    inside[varying] = True
    first = gauss_legendre(time_order)[0][0]
    knots = grid.knots

    def at(n, t):
        # steady outside the range, changing with t inside it
        return np.where(inside, vals[n] * np.cos(t + phase), vals[n])

    def integrand(sub, tn, cells):
        a, b = knots[sub.start:sub.stop], knots[sub.start + 1:sub.stop + 1]
        if cells == slice(None):
            # every cell at the first Gauss time of each slab, and no other
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            assert_bitwise(tn, (mid + half * first)[:, None])
        else:
            # the varying cells at the other times
            assert range(n_cells)[cells] == range(n_cells)[varying]
            assert tn.shape[1] < time_order
        return np.stack([[at(n, t)[cells] for t in row]
                         for n, row in zip(range(sub.start, sub.stop), tn)])

    want = np.array([slab_integrals_per_slab(slab, lambda t: at(n, t), n)
                     for n in range(steps.start, steps.stop)])
    with mock.patch.object(quadrature, "CHUNK_VALUES", values):
        assert_bitwise(slab.slab_cell_integrals(integrand, steps,
                                                varying=varying), want)
        out = np.full_like(want, np.nan)
        slab.slab_cell_integrals(integrand, steps, out=out, varying=varying)
        assert_bitwise(out, want)


def _signed_data(rng, shape):
    """Values of many magnitudes, about a fifth +0.0 and a fifth -0.0."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape)
    v[pick < 0.2], v[pick > 0.8] = 0.0, -0.0
    return v


@settings(max_examples=100, deadline=None)
@given(k=st.one_of(st.integers(1, 70), st.integers(71, 300)),
       cells=st.integers(1, 12), rows=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_row_reduction_is_two_lanes_in_blocks_of_eight(k, cells, rows,
                                                           seed):
    # the order of np.einsum("ck,rck->rc") (SlabQuadrature._rows and
    # cell_integrals) on rows of any k up to 300, k = 16 and 64 of the 2D
    # rules of order 4 and 8 among them, pinned for a fused form that must
    # keep its bits (tests/_oracles.einsum_lanes); signed zeros in the
    # values and some -0.0 weights
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(cells, k))
    v = _signed_data(rng, (rows, cells, k))
    w[rng.random(w.shape) < 0.1] = -0.0
    assert_bitwise(np.einsum("ck,rck->rc", w, v), einsum_lanes(w * v))


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(0, 20), st.integers(8180, 8200),
                   st.integers(16370, 16400), st.integers(20000, 60000)),
       cuts=st.lists(st.integers(0, 60000), max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_box_sums_are_the_flat_einsum_in_buffer_blocks(n, cuts, seed):
    # np.einsum("i,i->") reduces blocks of numpy's default buffer size,
    # 8192 (np.getbufsize()), each by the lane model, and adds the block
    # values in order from +0.0; BoxSum fed the same vectors in pieces cut
    # anywhere, and BoxQuadrature.integrate on a whole vector, give those
    # bits, whatever np.setbufsize a caller chose
    assert np.getbufsize() == 8192
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < 0.05] = -0.0
    v = _signed_data(rng, n)
    flat = float(np.einsum("i,i->", w, v))
    assert_bitwise(flat, flat_einsum_lanes(w, v, np.getbufsize()))
    edges = [0] + sorted(c for c in cuts if c <= n) + [n]
    old = np.setbufsize(4096)
    try:
        box_sum = quadrature.BoxSum()
        for lo, hi in zip(edges[:-1], edges[1:]):
            box_sum.add(w[lo:hi], v[lo:hi])
        assert_bitwise(box_sum.total(), flat)
        assert_bitwise(float(np.einsum("i,i->", w, v)), flat)
    finally:
        np.setbufsize(old)


def test_box_integrate_is_the_flat_einsum():
    # BoxQuadrature.integrate is BoxSum over the whole vector: the bits of
    # the flat einsum of weights and values (10 648 nodes: one block of
    # 8192 and a ragged one)
    box = BoxQuadrature([(0.0, 1.0), (0.2, 0.9), (0.0, 0.4)], 2, 11)
    vals = _signed_data(np.random.default_rng(4), box.weights.size)
    assert_bitwise(box.integrate(vals),
                   float(np.einsum("i,i->", box.weights, vals)))


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


DOMAINS = [((0.0, 1.0), (0.0, 1.0)), ((-1.0, 0.0), (-2.0, 0.0)),
           ((-1.0, 1.0), (0.0, 0.5))]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.sampled_from([1, 2, 3, 4, 8]),
       panels=st.sampled_from([1, 2, 4]))
def test_cell_rule_matches_einsum_oracle(data, order, panels):
    # each axis's part of the map is formed once per distinct vertex loop
    # (by bits) of that axis, adding the vertex terms from +0.0 in vertex
    # order over blocks of loops or cells: the bits of one einsum over all
    # cells, signs of zeros included, on uniform meshes of domains at and
    # below 0.0, the same rectangles with shuffled cells, rotated loops and
    # zeros of either sign, graded and perturbed meshes, on any rows and
    # for blocks of one cell or of more cells than the rule has
    uniform = st.builds(build_cartesian, st.integers(1, 7), st.integers(1, 7),
                        st.sampled_from(DOMAINS))
    mesh = data.draw(st.one_of(uniform, shuffled_rectangles(DOMAINS),
                               perturbed_meshes(), graded_meshes()))
    rows = data.draw(st.none() | st.lists(
        st.integers(0, mesh.n_cells - 1), max_size=mesh.n_cells))
    want = cell_rule_einsum(mesh, order, panels, rows)
    for values in (None, 1, 10 ** 9):
        with mock.patch.object(quadrature, "CHUNK_VALUES",
                               values or quadrature.CHUNK_VALUES):
            rule = CellQuadrature(mesh, order, panels, rows=rows)
        assert rule.points.flags.c_contiguous
        for got, oracle in zip((rule.points, rule.weights, rule._wnorm), want):
            assert_bitwise(got, oracle)
            assert np.array_equal(np.signbit(got), np.signbit(oracle))


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(shuffled_rectangles(DOMAINS), perturbed_meshes(),
                      graded_meshes()))
def test_axis_loops_keep_each_cells_bits(mesh):
    # the distinct loops of the cell rule are told apart by bits: each
    # cell's loop among them is its own coordinates in loop order, signs
    # of zeros included, and no two of them have the same bits
    for d, (loops, index) in enumerate(mesh.axis_loops):
        assert_bitwise(loops[index], mesh.vertices[mesh.cell_vertices, d])
        assert len(np.unique(loops.view(np.int64), axis=0)) == len(loops)


def test_cell_rule_forms_each_axis_once_per_distinct_loop():
    # on a 32 x 32 tensor mesh the x part of the map is formed on the 32
    # column loops and the y part on the 32 row loops, each into one
    # table that the cells gather from; on a perturbed mesh every loop is
    # distinct, so there is no table and no gather: each block of cells
    # forms its own x and then y loops, in the cells' order
    calls = []
    real = quadrature._loop_maps

    def spy(maps, loops, out):
        calls.append(len(loops))
        return real(maps, loops, out)

    with mock.patch.object(quadrature, "_loop_maps", spy):
        CellQuadrature(build_cartesian(32, 32), 4)
    assert calls == [32, 32]
    calls.clear()
    mesh = build_perturbed_quads(32, 32, amplitude=0.2, seed=1)
    with mock.patch.object(quadrature, "_loop_maps", spy):
        CellQuadrature(mesh, 4)
    assert [len(loops) for loops, _ in mesh.axis_loops] == [mesh.n_cells] * 2
    k = 4 * 4
    blocks = quadrature.chunk_slices(mesh.n_cells, 6 * k)
    assert len(blocks) > 1
    assert calls == [b.stop - b.start for b in blocks for _ in "xy"]

import copy
import dataclasses

import numpy as np
import pytest

from _oracles import (local_face_index, scalar_mesh_identities,
                      scalar_outward_normal)
from fvlab.geometry import (MeshConstructionError, TimeGrid,
                            build_cartesian, build_dual_mac, build_dual_rt,
                            build_intervals, build_perturbed_quads,
                            build_time_grid, check_mesh_identities,
                            regularity)


def closure_norms(mesh):
    areas = mesh.face_measures[mesh.cell_faces]
    s = np.einsum("cf,cfd->cd", areas, mesh.cell_face_normals)
    return np.sqrt((s ** 2).sum(-1)), areas.sum(axis=1)


MESH_GALLERY = [
    lambda: build_cartesian(4, 4),
    lambda: build_cartesian(16, 16),
    lambda: build_cartesian(8, 4, domain=((0.0, 2.0), (-1.0, 1.0))),
    lambda: build_cartesian(6, 6, grading=1.2),
    lambda: build_perturbed_quads(8, 8, amplitude=0.2, seed=7),
    lambda: build_perturbed_quads(5, 9, amplitude=0.1, seed=1),
    lambda: build_intervals(10),
    lambda: build_intervals(7, grading=1.3),
]


@pytest.mark.parametrize("make", MESH_GALLERY)
def test_geometric_identities(make):
    mesh = make()
    norms, scale = closure_norms(mesh)
    assert np.all(norms <= 1e-12 * scale)
    for f in np.nonzero(mesh.interior_face_mask)[0]:
        p, q = mesh.face_cells[f]
        n_p = scalar_outward_normal(mesh, p, f)
        n_q = scalar_outward_normal(mesh, q, f)
        assert np.sqrt(((n_p + n_q) ** 2).sum()) <= 1e-14
    omega = mesh.domain_measure()
    assert abs(mesh.cell_volumes.sum() - omega) <= 1e-12 * omega
    assert np.all(mesh.cell_volumes > 0)
    assert np.all(mesh.face_measures > 0)
    assert mesh.cell_faces.shape[1] == (2 if mesh.dim == 1 else 4)
    # |zeta| per (cell, local face): one read-only gather per mesh
    assert mesh.cell_face_measures.tolist() == [
        [mesh.face_measures[f] for f in faces] for faces in mesh.cell_faces]
    assert not mesh.cell_face_measures.flags.writeable
    assert check_mesh_identities(mesh) == []


def test_uniform_square_metrics():
    mesh = build_cartesian(4, 4)
    assert mesh.n_cells == 16
    assert np.abs(mesh.cell_volumes - 1.0 / 16).max() < 1e-15
    assert np.abs(mesh.cell_diameters - np.sqrt(2.0) / 4).max() < 1e-15
    grid = build_time_grid(1.0, 4)
    reg = regularity(mesh, grid)
    assert abs(reg.theta1 - 2.0) < 1e-12
    assert reg.theta2 == 1.0


def test_single_cell_closure():
    mesh = build_cartesian(1, 1)
    assert mesh.n_cells == 1
    norms, scale = closure_norms(mesh)
    assert norms[0] <= 1e-14 * scale[0]
    # the four unit normals are exactly the axis vectors
    normals = sorted(map(tuple, mesh.cell_face_normals[0]))
    assert normals == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_graded_theta2_is_step_ratio():
    # brute-force enumeration of adjacent-pair area ratios
    mesh = build_cartesian(4, 4, grading=1.2)
    ratios = []
    for f in np.nonzero(mesh.interior_face_mask)[0]:
        p, q = mesh.face_cells[f]
        vp, vq = mesh.cell_volumes[p], mesh.cell_volumes[q]
        ratios.append(max(vp / vq, vq / vp))
    grid = build_time_grid(1.0, 2)
    reg = regularity(mesh, grid)
    assert abs(reg.theta2 - max(ratios)) < 1e-14
    # tensor grading with per-axis ratio r gives adjacent area ratio r
    assert abs(max(ratios) - 1.2) < 1e-12


def test_rectangle_theta1():
    mesh = build_cartesian(3, 9, domain=((0.0, 1.0), (0.0, 1.0)))
    # cells h x h/3 with h = 1/3
    grid = build_time_grid(1.0, 2)
    reg = regularity(mesh, grid)
    assert abs(reg.theta1 - 10.0 / 3.0) < 1e-12
    brute = max(d * d / v for d, v in zip(mesh.cell_diameters, mesh.cell_volumes))
    assert abs(reg.theta1 - brute) < 1e-15


def test_refinement_halves_delta_exactly():
    coarse = build_cartesian(8, 8)
    fine = build_cartesian(16, 16)
    assert fine.delta() == 0.5 * coarse.delta()


def test_perturbed_amplitude_zero_is_cartesian_bitwise():
    a = build_cartesian(6, 5)
    b = build_perturbed_quads(6, 5, amplitude=0.0, seed=42)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cell_vertices, b.cell_vertices)


def test_perturbed_quads_convex_and_area_preserving():
    mesh = build_perturbed_quads(8, 8, amplitude=0.2, seed=7)
    # shoelace areas summed (oracle) against the domain
    verts = mesh.vertices[mesh.cell_vertices]
    x, y = verts[:, :, 0], verts[:, :, 1]
    shoelace = 0.5 * (x * np.roll(y, -1, 1) - np.roll(x, -1, 1) * y).sum(1)
    assert np.all(shoelace > 0)
    assert abs(shoelace.sum() - 1.0) <= 1e-12


def test_perturbed_quads_deterministic_and_theta2():
    a = build_perturbed_quads(2, 2, amplitude=0.2, seed=1)
    b = build_perturbed_quads(2, 2, amplitude=0.2, seed=1)
    assert np.array_equal(a.vertices, b.vertices)
    reg = regularity(a, build_time_grid(1.0, 1))
    assert reg.theta2 > 1.0


def test_perturbed_amplitude_out_of_range():
    with pytest.raises(MeshConstructionError):
        build_perturbed_quads(4, 4, amplitude=0.25, seed=0)
    with pytest.raises(MeshConstructionError):
        build_perturbed_quads(4, 4, amplitude=-0.1, seed=0)
    with pytest.raises(MeshConstructionError, match="seed must be >= 0, got -1"):
        build_perturbed_quads(4, 4, seed=-1)


def test_bad_counts_and_degenerate_domain():
    with pytest.raises(MeshConstructionError):
        build_cartesian(0, 4)
    with pytest.raises(MeshConstructionError):
        build_cartesian(4, 4, domain=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(MeshConstructionError):
        build_cartesian(4, 4, grading=-1.0)


# ---------------------------------------------------------------- duals

def test_rt_dual_single_cell():
    mesh = build_cartesian(1, 1)
    rt = build_dual_rt(mesh)
    assert np.all(rt.half_measures == 0.25)
    assert np.all(rt.dual_measures == 0.25)


def test_rt_dual_interior_face_measure():
    mesh = build_cartesian(2, 2)
    rt = build_dual_rt(mesh)
    interior = np.nonzero(mesh.interior_face_mask)[0]
    assert np.all(rt.dual_measures[interior] == 1.0 / 8)
    # half-duals sum exactly to |P| on any quadrangle mesh
    pert = build_perturbed_quads(6, 6, amplitude=0.2, seed=5)
    rtp = build_dual_rt(pert)
    assert np.all(rtp.half_measures.sum(axis=1) == pert.cell_volumes)


def test_rt_dual_edges_and_two_hop_paths():
    mesh = build_perturbed_quads(4, 4, amplitude=0.15, seed=2)
    rt = build_dual_rt(mesh)
    assert len(rt.dual_edges_local) == 4
    legs = set()
    for a, b in rt.dual_edges_local:
        legs.add(frozenset((a, b)))
    for a, b, via in rt.opposite_pairs_local:
        assert frozenset((a, via)) in legs
        assert frozenset((via, b)) in legs
    assert rt.jump_weight_constant == 3
    assert rt.jump_multiplicity.max() == 3


def test_rt_rejects_1d():
    with pytest.raises(MeshConstructionError):
        build_dual_rt(build_intervals(4))


def test_mac_dual_measures_and_partition():
    mesh = build_cartesian(2, 2)
    mac = build_dual_mac(mesh)
    interior = np.nonzero(mesh.interior_face_mask)[0]
    assert np.all(mac.dual_measures[interior] == 0.25)
    boundary = np.nonzero(mesh.boundary_face_mask)[0]
    assert np.all(mac.dual_measures[boundary] == 0.125)
    omega = mesh.domain_measure()
    for i in (0, 1):
        tot = mac.dual_measures[mac.face_family == i].sum()
        assert abs(tot - omega) <= 1e-12 * omega


def test_mac_theta_4x2():
    mac = build_dual_mac(build_cartesian(4, 2))
    assert abs(mac.theta - 2.0) < 1e-14
    # oracle: enumerate face lengths per family
    mesh = mac.mesh
    h = [mesh.face_measures[mac.face_family == i] for i in (0, 1)]
    expect = max(h[0].max() / h[1].min(), h[1].max() / h[0].min())
    assert mac.theta == expect


def test_mac_delta_signs_match_normals():
    mesh = build_cartesian(3, 3)
    mac = build_dual_mac(mesh)
    for c in range(mesh.n_cells):
        for k in range(4):
            f = mesh.cell_faces[c, k]
            axis = mac.face_family[f]
            assert mac.cell_face_delta[c, k] == mesh.cell_face_normals[c, k, axis]
            assert mac.cell_face_delta[c, k] in (-1.0, 1.0)


def test_mac_rejects_non_rectangular():
    with pytest.raises(MeshConstructionError):
        build_dual_mac(build_perturbed_quads(4, 4, amplitude=0.1, seed=0))


# ---------------------------------------------------------------- time grids

def test_time_grid_uniform():
    grid = build_time_grid(1.0, 4)
    assert np.array_equal(grid.knots, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert grid.theta3 == 1.0


def test_time_grid_alternating():
    grid = build_time_grid(1.0, 4, pattern="alternating", ratio=2.0)
    steps = grid.steps
    # steps proportional to (1, 2, 1, 2)
    assert np.abs(steps - np.array([1, 2, 1, 2]) / 6.0).max() < 1e-15
    ratios = steps[1:] / steps[:-1]
    assert abs(grid.theta3 - max(ratios.max(), (1 / ratios).max())) < 1e-15
    assert abs(grid.theta3 - 2.0) < 1e-12


def test_time_grid_single_step_theta3():
    assert build_time_grid(1.0, 1).theta3 == 1.0


def test_time_grid_validation():
    with pytest.raises(ValueError):
        build_time_grid(1.0, 0)
    with pytest.raises(ValueError):
        build_time_grid(-1.0, 2)
    with pytest.raises(ValueError):
        build_time_grid(1.0, 2, pattern="alternating", ratio=0.0)
    with pytest.raises(ValueError, match="unknown time pattern 'zigzag'"):
        build_time_grid(1.0, 2, pattern="zigzag")


@pytest.mark.parametrize("knots", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                                   [0.0, 0.5, 0.5], [0.0, 0.5, 0.25]])
def test_time_grid_rejects_knots_not_finite_and_increasing(knots):
    # a NaN difference and an infinite last knot pass a `diff <= 0` test
    with pytest.raises(ValueError, match="time knots must be finite and "
                                         "strictly increasing"):
        TimeGrid(np.array(knots))


def test_subdivide_nodes_and_build_tensor():
    from fvlab.geometry import build_tensor, subdivide_nodes
    nodes = np.array([0.0, 0.4, 1.0])
    fine = subdivide_nodes(nodes, 2)
    assert np.array_equal(fine, np.array([0.0, 0.2, 0.4, 0.7, 1.0]))
    assert np.array_equal(subdivide_nodes(nodes, 1), nodes)
    mesh = build_tensor(fine, np.array([0.0, 0.5, 1.0]))
    assert mesh.n_cells == 8
    assert mesh.is_rectangular()
    assert check_mesh_identities(mesh) == []


def test_identity_messages_match_scalar_oracle():
    """A mesh corrupted in several places: the array checks report the
    same violations, in the same order, as the face-by-face oracle."""
    mesh = build_perturbed_quads(6, 6, amplitude=0.2, seed=3)
    rt = copy.copy(build_dual_rt(mesh))
    bad = copy.copy(mesh)
    normals = mesh.cell_face_normals.copy()
    measures = mesh.face_measures.copy()
    f1, f2, f3, f4 = np.flatnonzero(mesh.interior_face_mask)[[2, 17, 30, 41]]
    # two flipped normals, seen from each face's first cell
    for f in (f1, f2):
        p = mesh.face_cells[f, 0]
        normals[p, local_face_index(mesh, p, f)] *= -1.0
    # one broken closure: a wrong face measure
    measures[f3] *= 1.5
    # a rotated normal on both sides: antisymmetric, but not the geometry's
    turn = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
    p, q = mesh.face_cells[f4]
    kp, kq = local_face_index(mesh, p, f4), local_face_index(mesh, q, f4)
    normals[p, kp] = turn @ normals[p, kp]
    normals[q, kq] = -normals[p, kp]
    bad.cell_face_normals, bad.face_measures = normals, measures
    half = rt.half_measures.copy()
    half[5, 1] *= 2.0
    rt.half_measures = half
    problems = check_mesh_identities(bad, rt)
    assert problems == scalar_mesh_identities(bad, rt)
    assert [m for m in problems if "antisymmetric" in m] == [
        f"face {f}: normals not antisymmetric" for f in sorted((f1, f2))]
    for text in ("closure sum violated", f"face {f4}: stored normal differs",
                 "cell 5: RT half-dual"):
        assert any(text in m for m in problems), text


def test_identity_checks_fire_on_bad_cell_and_dual_measures():
    # each measure guard on its own, its sums printed as plain floats
    mesh = build_cartesian(4, 4)
    mac = build_dual_mac(mesh)
    assert check_mesh_identities(mesh, mac) == []
    # one cell of measure 0, its measure moved to a neighbour: the total
    # still covers the domain
    flat = copy.copy(mesh)
    vols = mesh.cell_volumes.copy()
    vols[6] += vols[5]
    vols[5] = 0.0
    flat.cell_volumes = vols
    assert check_mesh_identities(flat) == ["non-positive cell measure"]
    grown = copy.copy(mesh)
    grown.cell_volumes = mesh.cell_volumes * 1.5
    assert check_mesh_identities(grown) == [
        "cell measures sum to 1.5, expected 1.0"]
    wide = dataclasses.replace(mac, dual_measures=mac.dual_measures * 1.5)
    problems = check_mesh_identities(mesh, wide)
    assert problems == [
        f"MAC duals of direction {i} sum to 1.5, expected 1.0"
        for i in (1, 2)]
    for bad, dual in ((flat, None), (grown, None), (mesh, wide)):
        assert check_mesh_identities(bad, dual) == \
            scalar_mesh_identities(bad, dual)


def test_local_face_index_is_the_first_match():
    # the vectorised lookup behind the adopted normals and face_normals
    # against the scalar first match, over all cells at once; -1 where the
    # cell does not hold the face
    mesh = build_perturbed_quads(4, 4, amplitude=0.2, seed=1)
    cells = np.repeat(np.arange(mesh.n_cells), 4)
    faces = mesh.cell_faces.ravel()
    assert np.array_equal(mesh._local_index(cells, faces),
                          [local_face_index(mesh, c, f)
                           for c, f in zip(cells, faces)])
    for c in range(mesh.n_cells):
        for k, f in enumerate(mesh.cell_faces[c]):
            assert np.array_equal(mesh.cell_face_normals[c, k],
                                  scalar_outward_normal(mesh, c, f))
    outside = next(f for f in range(mesh.n_faces)
                   if f not in mesh.cell_faces[0])
    assert mesh._local_index(0, outside) == -1
    with pytest.raises(KeyError, match=f"face {outside} is not a face of cell 0"):
        local_face_index(mesh, 0, outside)
    # a cell list that holds a face twice resolves to its first position
    twice = copy.copy(mesh)
    twice.cell_faces = np.array([[4, 7, 4, 9]])
    assert twice._local_index(0, 4) == local_face_index(twice, 0, 4) == 0

"""Staggered discretisations: MAC and RT duals, fluxes and the discrete
convection operator.

Shows the dual-measure conventions (|P|/4 diamonds for RT, half rectangles
for MAC), assembles C(U) = d_t beta + (1/|P|) sum |zeta| F . n for sampled
fields, and demonstrates constant-state exactness and conservativity.
"""

import numpy as np

from fvlab import (BetaFamily, assemble_convection, build_cartesian,
                   build_dual_mac, build_dual_rt, build_time_grid, get_pair,
                   flux_staggered, sample_manufactured, telescoping_defect)

mesh = build_cartesian(8, 8)
grid = build_time_grid(T=0.5, N=8)
mac = build_dual_mac(mesh)
rt = build_dual_rt(mesh)

print("=== dual meshes ===")
print(f"RT: half-dual measures are |P|/4; sum over a cell equals |P|: "
      f"{bool(np.all(rt.half_measures.sum(axis=1) == mesh.cell_volumes))}")
for i in (0, 1):
    tot = mac.dual_measures[mac.face_family == i].sum()
    print(f"MAC direction {i + 1}: duals partition the domain, "
          f"sum = {tot:.15f}")
print(f"MAC quasi-uniformity theta = {mac.theta}")
print(f"RT dual-edge splitting constant C = {rt.jump_weight_constant}")

pair = get_pair("id")
q_smooth = lambda x, t: 1.0 + 0.4 * np.sin(np.pi * x[:, 0]) \
    * np.sin(np.pi * x[:, 1]) * np.cos(t)
v_smooth = lambda x, t: np.stack([1.0 + 0.3 * np.sin(np.pi * x[:, 0]),
                                  0.5 + 0.2 * np.cos(np.pi * x[:, 1])],
                                 axis=-1)

print("\n=== constant-state exactness ===")
q_const, v_const = sample_manufactured(
    lambda x, t: np.full(x.shape[0], 2.0),
    lambda x, t: np.broadcast_to(np.array([1.0, 0.5]), (x.shape[0], 2)).copy(),
    "mac", mesh, mac, grid)
for name in ("id", "square", "slogs"):
    p = get_pair(name)
    c = assemble_convection(BetaFamily.from_field(q_const, p),
                            flux_staggered(q_const, v_const, p))
    interior_zero = bool(np.all(c.values[:, mesh.interior_cell_mask] == 0.0))
    print(f"beta = g = {name}: every interior C(U)_P^n == 0.0 bitwise: "
          f"{interior_zero}")

print("\n=== conservativity (interior flux telescoping) ===")
for layout, dual in (("mac", mac), ("rt", rt)):
    q, v = sample_manufactured(q_smooth, v_smooth, layout, mesh, dual, grid)
    flux = flux_staggered(q, v, pair, scheme="upwind")
    defect, scale = telescoping_defect(flux)
    print(f"{layout}: max per-step defect / flux mass = "
          f"{(defect / scale).max():.3e}")

print("\n=== MAC vs RT with a constant velocity ===")
q1, v1 = sample_manufactured(q_smooth, lambda x, t: np.broadcast_to(
    np.array([1.0, 0.5]), (x.shape[0], 2)).copy(), "mac", mesh, mac, grid)
q2, v2 = sample_manufactured(q_smooth, lambda x, t: np.broadcast_to(
    np.array([1.0, 0.5]), (x.shape[0], 2)).copy(), "rt", mesh, rt, grid)
c1 = assemble_convection(BetaFamily.from_field(q1, pair),
                         flux_staggered(q1, v1, pair))
c2 = assemble_convection(BetaFamily.from_field(q2, pair),
                         flux_staggered(q2, v2, pair))
same = np.array_equal(c1.values, c2.values)
print(f"assemblies identical bitwise: {same}")

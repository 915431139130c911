"""First-order upwind transport in 1D and its weak consistency.

Runs the explicit upwind scheme for q_t + q_x = 0 at CFL 1/2, checks the
max principle and the mass ledger, and measures the flux-consistency
residual of the upwind flux: the defect |F - f(u)| is |u_P - u_{P-}| on
left faces and zero on right faces, so the residual reduces to
sum dt sum diam(P) |u_P - u_{P-}|, which decays like h for data of bounded
variation.

An explicit scheme satisfies C(U) = 0 identically, so the weak-form decay
is demonstrated on the operator applied to cell means of the exact shifted
solution instead.
"""

from fvlab import (SchemeConfig, StudyConfig, build_intervals, get_pair,
                   flux_colocated_upwind_1d, lp_distance, residual_flux,
                   run_study, run_upwind_1d)
from fvlab.study import manufactured_solution

q_exact = manufactured_solution("bump_advect_1d")["q"]
pair = get_pair("id")

print("=== upwind scheme runs, CFL = 1/2 ===")
for n in (32, 64, 128, 256):
    mesh = build_intervals(n)
    cfg = SchemeConfig(q0=lambda x: q_exact(x, 0.0), T=0.25, cfl=0.5)
    q, grid, ledger = run_upwind_1d(mesh, cfg)
    l1 = lp_distance(q, q_exact).distance
    r = residual_flux(flux_colocated_upwind_1d(q), q, None, pair, mesh, grid,
                      "colocated1d")
    print(f"n = {n:4d}: steps {grid.n_steps:3d}, "
          f"range [{q.values.min():.2e}, {q.values.max():.6f}], "
          f"mass defect {ledger.max_relative_defect():.1e}, "
          f"L1 error {l1:.3e}, flux residual {r:.3e}")

print("\n=== weak-form gap of the upwind operator on the exact solution ===")
study = run_study(StudyConfig(
    levels=4, nx0=32, layout="colocated1d", mesh_family="interval",
    domain=((0.0, 1.0),), solution="bump_advect_1d",
    field_source="manufactured", dt_over_h=0.5, T=0.25))
for r in study.reports:
    print(f"h = {r.h:.5f}: weak_gap = {r.weak_gap:.3e}, "
          f"res_flux = {r.res_flux:.3e}, R1 = {r.r1:.3e}")
print(f"weak_gap finest-pair slope: "
      f"{study.rates['weak_gap'].finest_pair:.2f}")

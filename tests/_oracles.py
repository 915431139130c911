"""Independent brute-force oracles shared by the unit and acceptance tests."""

import numpy as np

from fvlab.consistency import LOCAL_OPPOSITE
from fvlab.fields import _bump


def face_value(q, face: int, n: int, scheme: str = "centered",
               lam: float = 0.5, signal: float = 0.0) -> float:
    """Convex face value q_zeta^n of one interior face, by scalar
    arithmetic.

    ``signal`` is v_zeta^n . n_{P,zeta} seen from the first adjacent cell;
    upwinding picks the upstream side and falls back to the centered value
    when the signal vanishes.
    """
    p, qq = q.mesh.face_cells[face]
    if qq < 0:
        raise ValueError(f"face {face} is a boundary face; apply a boundary policy")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    first, second = q.values[n, p], q.values[n, qq]
    if scheme == "centered":
        return float(lam * first + (1.0 - lam) * second)
    if scheme != "upwind":
        raise ValueError(f"unknown face scheme {scheme!r}")
    if signal > 0.0:
        return float(first)
    if signal < 0.0:
        return float(second)
    return float(0.5 * first + 0.5 * second)


def separable_phi(phi, x, t, kind="value"):
    """phi.value/dt/grad at the points x, evaluated the direct way: the
    time factor on one time per point and every bump at every point, in
    the documented product order."""
    x = np.atleast_2d(x)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[0]).copy()
    tf = phi._time_factor(t, derivative=kind == "dt")
    bumps = [_bump(x[:, d], a, b) for d, (a, b) in enumerate(phi.support)]
    if kind != "grad":
        out = tf
        for b in bumps:
            out = out * b
        return out
    out = np.empty((x.shape[0], len(bumps)))
    for d, (a, b) in enumerate(phi.support):
        g = _bump(x[:, d], a, b, derivative=True) * tf
        for e, be in enumerate(bumps):
            if e != d:
                g = g * be
        out[:, d] = g
    return out


def brute_force_flux_residual(flux, q, v, pair, mesh, grid, layout, dual):
    """Enumerate the flux-residual term table with scalar arithmetic.

    Follows the documented (step, interior cell, local face, piece) layout
    and the same per-term operation order as ``residual_flux_terms``, so the
    two tables agree bit for bit.
    """
    n_steps = grid.n_steps
    interior = np.nonzero(mesh.interior_cell_mask)[0]
    nf = mesh.cell_faces.shape[1]
    npieces = {"rt": 4, "mac": 2, "colocated1d": 1}[layout]
    terms = np.empty((n_steps, interior.size, nf, npieces))
    for ni in range(n_steps):
        dt = grid.steps[ni]
        for ii, c in enumerate(interior):
            coef = mesh.cell_diameters[c] / mesh.cell_volumes[c]
            for k in range(nf):
                f = mesh.cell_faces[c, k]
                area = mesh.face_measures[f]
                if layout == "rt":
                    fdot = (flux.values[ni, f, 0] * mesh.cell_face_normals[c, k, 0]
                            + flux.values[ni, f, 1] * mesh.cell_face_normals[c, k, 1])
                elif layout == "mac":
                    fdot = flux.values[ni, f] * dual.cell_face_delta[c, k]
                else:
                    fdot = flux.values[ni, f] * mesh.cell_face_normals[c, k, 0]
                for p in range(npieces):
                    if layout == "rt":
                        fp = mesh.cell_faces[c, p]
                        gq = pair.g(q.values[ni, c])
                        piece = gq * (v.values[ni, fp, 0]
                                      * mesh.cell_face_normals[c, k, 0]
                                      + v.values[ni, fp, 1]
                                      * mesh.cell_face_normals[c, k, 1])
                        meas = 0.25 * mesh.cell_volumes[c]
                    elif layout == "mac":
                        kk = k if p == 0 else LOCAL_OPPOSITE[k]
                        fp = mesh.cell_faces[c, kk]
                        gq = pair.g(q.values[ni, c])
                        piece = gq * (v.values[ni, fp] * dual.cell_face_delta[c, k])
                        meas = 0.5 * mesh.cell_volumes[c]
                    else:
                        fq = pair.f(q.values[ni, c])
                        piece = fq * mesh.cell_face_normals[c, k, 0]
                        meas = mesh.cell_volumes[c]
                    t = dt * coef
                    t = t * area
                    t = t * meas
                    t = t * abs(fdot - piece)
                    terms[ni, ii, k, p] = t
    return terms

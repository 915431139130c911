"""The benchmark's workloads: their inputs, the timed call and the checks
that decide whether an operation's output is correct.

Every workload reaches fvlab through its public entry points only:
``fvlab.cli.main`` for the studies and the identity check, and the
``geometry``/``meshio`` builders for the mesh round trip.  The inputs
depend on the benchmark seed and nothing else; the seed feeds the mesh
perturbation of ``rt_perturbed`` and ``mesh_io``, and the other two
workloads are the same for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from pathlib import Path

import numpy as np

WORKLOADS = ("mac_refine", "rt_perturbed", "col1d_scheme", "mesh_io")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# report.csv columns of the reference studies must match within this share
# of the column's largest magnitude over the levels
REFERENCE_RTOL = 1e-9

# criterion-7 finest-pair slope floors
SLOPE_FLOORS = {"res_time": 0.7, "res_flux": 0.7, "R1": 0.7,
                "translate": 0.7, "res_init": 1.5}
WEAK_GAP_FLOOR = 0.7
RATE_SERIES = ("res_init", "res_time", "res_flux", "R1", "R2", "translate",
               "weak_gap")
MAX_PRINCIPLE_TOL = 1e-15
MASS_DEFECT_MAX = 1e-12


# (coarsest cells per side, levels) of the study workloads.  An operation
# takes 1.3 to 2 s on a 2-vCPU Xeon, so a 40-s run holds 16 or more: the
# fastest of many short operations is steadier on a shared host than the
# median of a few long ones
STUDY_SIZES = {"mac_refine": (8, 3), "rt_perturbed": (8, 3),
               "col1d_scheme": (32, 6)}
SMOKE_SIZES = {"mac_refine": (6, 3), "rt_perturbed": (6, 3),
               "col1d_scheme": (16, 3)}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _study_ini(name: str, seed: int, smoke: bool) -> tuple[str, int]:
    """INI text and thread count of a study workload."""
    n, levels = (SMOKE_SIZES if smoke else STUDY_SIZES)[name]
    if name == "mac_refine":
        return (f"[mesh]\nfamily = uniform\nnx = {n}\nny = {n}\n\n"
                "[time]\nT = 0.5\ndt_over_h = 0.5\n\n"
                f"[study]\nlevels = {levels}\nlayout = mac\nbeta = id\n"
                "g = id\nface_scheme = upwind\nsolution = sinsin_cos\n"
                "field_source = manufactured\n"), 1
    if name == "rt_perturbed":
        return (f"[mesh]\nfamily = perturbed\nnx = {n}\nny = {n}\n"
                f"amplitude = 0.2\nseed = {seed}\n\n"
                "[time]\nT = 0.5\ndt_over_h = 0.5\n\n"
                f"[study]\nlevels = {levels}\nlayout = rt\nbeta = square\n"
                "g = id\nface_scheme = upwind\nsolution = sinsin_shear\n"
                "field_source = manufactured\n"), study_threads()
    if name == "col1d_scheme":
        return (f"[mesh]\nfamily = interval\nnx = {n}\n\n"
                "[time]\nT = 0.25\n\n"
                f"[study]\nlevels = {levels}\nlayout = colocated1d\n"
                "solution = bump_advect_1d\nfield_source = scheme\n"
                "cfl = 0.5\n"), 1
    raise KeyError(name)


def study_threads() -> int:
    """Level-pool threads of ``rt_perturbed``: 2, or fewer on a machine
    with fewer usable cores."""
    return min(2, len(os.sched_getaffinity(0)))


MESH_IO_N = 128


class Workload:
    """One workload in one worker directory.

    ``prepare`` is set-up (it writes the configuration); ``run`` is the
    timed call; ``check`` raises ``CheckFailed`` on a wrong output.
    """

    def __init__(self, name: str, seed: int, workdir: Path, smoke: bool):
        if name not in WORKLOADS:
            raise KeyError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.config = self.workdir / "study.ini"
        self.out_dir = self.workdir / "out"
        self.mesh_path = self.workdir / "mesh.txt"
        self.exit_code = None
        self.stdout = ""
        self.built_mesh = None
        self.loaded_mesh = None

    # -- set-up ----------------------------------------------------------
    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.name == "mesh_io":
            text = (f"[mesh]\nfile = {self.mesh_path}\n\n"
                    "[study]\nlayout = rt\n")
            self.threads = 1
        else:
            text, self.threads = _study_ini(self.name, self.seed, self.smoke)
        self.config.write_text(text)

    # -- the timed call --------------------------------------------------
    def run(self, tracer=None):
        import fvlab.cli
        import fvlab.geometry
        import fvlab.meshio
        captured = io.StringIO()
        if self.name != "mesh_io":
            with contextlib.redirect_stdout(captured):
                self.exit_code = fvlab.cli.main(
                    ["run-study", "--config", str(self.config), "--out",
                     str(self.out_dir), "--threads", str(self.threads)])
            self.stdout = captured.getvalue()
            return
        build = fvlab.geometry.build_perturbed_quads
        save = fvlab.meshio.save_mesh
        if tracer is not None:
            from tracing import _mesh_counts, _saved_bytes
            build = tracer.traced_call(fvlab.geometry, "build_perturbed_quads",
                                       "geometry", _mesh_counts)
            save = tracer.traced_call(fvlab.meshio, "save_mesh", "meshio",
                                      _saved_bytes)
        n = 16 if self.smoke else MESH_IO_N
        self.built_mesh = build(n, n, amplitude=0.2, seed=self.seed)
        save(self.built_mesh, self.mesh_path)
        # keep what check-identities loaded, to compare it with the build
        load = fvlab.cli.load_mesh

        def keep(path):
            self.loaded_mesh = load(path)
            return self.loaded_mesh

        fvlab.cli.load_mesh = keep
        try:
            with contextlib.redirect_stdout(captured):
                self.exit_code = fvlab.cli.main(
                    ["check-identities", "--config", str(self.config)])
        finally:
            fvlab.cli.load_mesh = load
        self.stdout = captured.getvalue()

    # -- correctness -----------------------------------------------------
    def check(self):
        if self.exit_code != 0:
            raise CheckFailed(f"fvlab exited with {self.exit_code}")
        if self.name == "mesh_io":
            self._check_mesh_io()
            return
        report = _read_csv(self.out_dir / "report.csv")
        rates = _read_csv(self.out_dir / "rates.csv")
        if not rates:
            raise CheckFailed("rates.csv is empty")
        if self.name == "col1d_scheme":
            for row in report:
                if not (float(row["scheme_min"]) >= -MAX_PRINCIPLE_TOL
                        and float(row["scheme_max"])
                        <= math.exp(-1.0) + MAX_PRINCIPLE_TOL):
                    raise CheckFailed(
                        f"max principle broken at level {row['level']}")
                if not float(row["mass_defect"]) <= MASS_DEFECT_MAX:
                    raise CheckFailed(
                        f"mass defect {row['mass_defect']} at level "
                        f"{row['level']}")
        if self.smoke:
            return
        manufactured = self.name != "col1d_scheme"
        _check_slopes(report, manufactured)
        if self.name in ("mac_refine", "col1d_scheme"):
            _check_reference(report, REFERENCE_DIR / f"{self.name}.report.csv")

    def _check_mesh_io(self):
        if "all identities hold" not in self.stdout:
            raise CheckFailed("check-identities did not report success")
        built, loaded = self.built_mesh, self.loaded_mesh
        if loaded is None:
            raise CheckFailed("check-identities did not load the mesh file")
        if built.domain != loaded.domain:
            raise CheckFailed("loaded mesh has another domain")
        arrays = {k for k, v in vars(built).items()
                  if isinstance(v, np.ndarray)}
        if arrays != {k for k, v in vars(loaded).items()
                      if isinstance(v, np.ndarray)}:
            raise CheckFailed("loaded mesh has other arrays than the built one")
        for key in sorted(arrays):
            if not np.array_equal(getattr(built, key), getattr(loaded, key)):
                raise CheckFailed(f"loaded mesh differs in {key}")


def _read_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _finest_slope(report, name) -> float:
    r = [float(row[name]) for row in report[-2:]]
    x = [float(row["h"]) + float(row["dt"]) for row in report[-2:]]
    if min(r) <= 0:
        return math.nan
    return (math.log(r[1]) - math.log(r[0])) / (math.log(x[1]) - math.log(x[0]))


def _check_slopes(report, manufactured: bool):
    """Criterion-7 floors on the finest pair; positive series decrease.

    An explicit scheme's own weak gap is flat by design, so ``weak_gap`` is
    held to the floor and to monotone decay on manufactured fields only.
    """
    floors = dict(SLOPE_FLOORS)
    if manufactured:
        floors["weak_gap"] = WEAK_GAP_FLOOR
    for name, floor in floors.items():
        slope = _finest_slope(report, name)
        if not slope >= floor:
            raise CheckFailed(f"{name}: finest-pair slope {slope} < {floor}")
    for name in RATE_SERIES:
        if name == "weak_gap" and not manufactured:
            continue
        vals = np.array([float(row[name]) for row in report])
        if np.all(vals > 0) and not np.all(np.diff(vals) < 0):
            raise CheckFailed(f"{name} does not decrease over the levels")


def _check_reference(report, ref_path: Path):
    reference = _read_csv(ref_path)
    if len(report) != len(reference) or \
            list(report[0]) != list(reference[0]):
        raise CheckFailed("report.csv has another shape than the reference")
    for col in reference[0]:
        got = np.array([float(row[col]) for row in report])
        want = np.array([float(row[col]) for row in reference])
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            raise CheckFailed(f"report column {col}: NaN pattern differs")
        ok = ~np.isnan(want)
        scale = float(np.abs(want[ok]).max()) if ok.any() else 0.0
        err = float(np.abs(got[ok] - want[ok]).max()) if ok.any() else 0.0
        if err > REFERENCE_RTOL * scale:
            raise CheckFailed(
                f"report column {col} is off the reference by {err:.3e} "
                f"(scale {scale:.3e})")

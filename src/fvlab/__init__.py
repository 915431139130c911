"""fvlab: a finite-volume weak-consistency laboratory.

Builds colocated and staggered (RT and MAC) discretisations of nonlinear
convection operators, evaluates the consistency residuals of the weak
Lax-Wendroff machinery, and demonstrates their decay under mesh and time
refinement.
"""

from .consistency import (compute_X1, compute_X2, jump_sums,
                          measured_constant, residual_flux,
                          residual_flux_terms, residual_init, residual_time,
                          weak_form_gap, weak_lhs, weak_rhs)
from .fields import (CellScalarField, CellSlabField, FaceField,
                     SupportError, TestFunction, TranslateWeights,
                     default_translate_weights, generalize_weights,
                     interpolate_test, lp_distance, sample_cell_means,
                     translate_functional, translate_functional_general)
from .geometry import (DualMeshMAC, DualMeshRT, MeshConstructionError,
                       MeshRegularity, PrimalMesh, TimeGrid, build_cartesian,
                       build_dual_mac, build_dual_rt, build_intervals,
                       build_perturbed_quads, build_time_grid,
                       check_mesh_identities, regularity)
from .meshio import load_mesh, save_mesh
from .operators import (BetaFamily, FluxFamily, NonlinearityPair,
                        assemble_convection, dt_beta,
                        flux_colocated_upwind_1d, flux_divergence,
                        flux_staggered, get_pair, telescoping_defect)
from .quadrature import (DEFAULT_ORDER, ORACLE_ORDER, BoxQuadrature,
                         CellQuadrature, FaceQuadrature, SlabQuadrature)
from .schemes import (CFLError, MassLedger, SchemeConfig, run_upwind_1d,
                      sample_manufactured)
from .study import (ResidualReport, StudyConfig, StudyRegularityError,
                    StudyResult, run_study, write_report_csv, write_rates_csv)

__version__ = "0.1.0"

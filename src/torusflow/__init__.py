"""Pseudo-spectral periodic Navier-Stokes runs whose energy estimates and
stability bounds are checked, inequality by inequality, on the computed
trajectories."""

from .grid import TorusGrid, make_grid
from .field import (Field, divergence_linf, extrude_field, load_field, mean,
                    mean_free, physical_field, random_divfree_field,
                    save_field, spectral_derivative, spectral_field)
from .norms import (compute_norm_report, l2_norm_sq, lp_norm, poincare_ratio,
                    sobolev_norm_sq)
from .solver import (BlowUpError, ForcingSpec, SolverConfig, Trajectory,
                     load_trajectory, recover_pressure, run_2d_base,
                     run_full_3d, run_perturbation, save_trajectory,
                     taylor_green_exact)
from .estimates import (BConstants, CalibratedConstants, InequalityReport,
                        StabilityBudget, StabilitySeries, TwoDBudget,
                        calibrate_constants, check_stability_hypotheses,
                        compute_A_constants, compute_B_constants,
                        gronwall_envelope, stability_series,
                        verify_decay_2d, verify_l2_stability,
                        verify_stability_conclusion,
                        vorticity_cancellation_residual, w1sigma_monitor)
from .experiments import (ExperimentSpec, RunArtifacts, bundled_scenario,
                          emit_report, parse_config, run_experiment)

__version__ = "1.0.0"

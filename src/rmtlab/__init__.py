"""Random-matrix laboratory.

Tools for studying rank deficiency and small singular values of matrices
with independent, possibly heterogeneous subgaussian entries: entry-law
profiles and sampling, sphere decomposition diagnostics, lattice arithmetic
structure (denominator estimates, concentration functions, small-ball
bounds), randomized grid rounding with guarantee verification, restricted
invertibility column selection, and reproducible Monte Carlo campaigns with
exact oracles at toy scale.
"""

__version__ = "0.18.0"

from .errors import CampaignError, EstimationError, ResourceLimitError
from .ensembles import (DistributionLaw, EntryProfile, atom_moments, discrete, gaussian,
                        paley_zygmund_floor, parse_law_spec, profile_from_rules,
                        psi2_estimate, rademacher, sample_matrix, sparse_bernoulli,
                        uniform_scaled)
from .linalg import (SingularSpectrum, complement_projector, minmax_kth_smallest,
                     numerical_rank, rank_cutoff, read_matrix, singular_spectrum, write_matrix)
from .sphere import (SphereParams, almost_orthogonal_check, classify_vector, dist_to_sparse,
                     sampled_span_incompressible, spread_coordinates)
from .arithmetic import (RLCDEstimate, RLCDParams, count_lattice_points, dist_to_lattice,
                         esseen_bound_eval, expected_sq_dist_to_lattice, levy_estimate,
                         log_plus, matrix_lattice_distance, rlcd_estimate)
from .rounding import (PropertyCheck, RoundingParams, RoundingReport, annulus_check,
                       in_rounding_net, randomized_round, rounding_report,
                       sample_lattice_shell)
from .selection import SelectionCertificate, projection_deficit, ri_bound_rhs, ri_select
from .experiments import (ExperimentConfig, KernelEventParams, compressible_event_check,
                          kernel_complement_basis, kernel_rlcd_probe,
                          kernel_tuple_event_check, norm_concentration_mc,
                          rank_histogram_rademacher, rank_tail_counts,
                          rank_tail_exact_rademacher, rank_tail_from_table, rank_tail_mc,
                          run_trials, scaling_fit, singular_tail_from_table,
                          singular_tail_mc, tensorization_check, trial_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]

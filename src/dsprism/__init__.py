"""Exact minimization of a difference of two submodular set functions via a
prismatic branch-and-bound algorithm, with SSP/greedy baselines and a
benchmark harness."""

from .setfn import (SetFunction, lovasz, lovasz_subgradient,
                    brute_force_min, brute_force_ds_min, make_function,
                    modular, cardinality_concave, cut, nuclear, neg_residual,
                    gaussian_entropy, table, coverage, mask_of, set_of,
                    indicator, is_submodular, as_table)
from .geometry import (Simplex, Polyhedron, initial_simplex, barycentric,
                       bisect, add_cut, CutPointError, DegenerateSimplexError)
from .bound import VertexLevels, BoundResult, vertex_levels, solve_bound
from .solver import SolverConfig, SolveReport, solve, cutting_plane
from .baselines import modular_lower_bound, ssp, greedy
from .experiments import (FsInstanceSpec, gen_feature_selection, gen_random_ds,
                          run_bench, verify_corpus, load_instance, DsInstance)

__version__ = "0.1.0"

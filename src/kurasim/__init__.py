"""Kuramoto oscillators on finite graphs.

Numerical fixed-step integration of the sine-coupled model next to the
closed-form evaluation of its complex-valued linear counterpart through the
adjacency eigenspectrum, plus the comparison experiments between the two.
"""

__version__ = "0.1.0"

from .dynamics import (AmplitudeResult, IntegrationError, SimulationConfig,
                       Trajectory, analytic_amplitudes, analytic_trajectory,
                       initial_phases, integrate_numerical, km_rhs,
                       order_parameter, read_trajectory_csv, wrap_phase,
                       write_trajectory_csv)
from .experiments import (ComparisonReport, FigureOutput, SweepResult,
                          compare_trajectories, run_fig1, run_fig2, run_fig3,
                          run_fig4, write_pgm)
from .graphs import (AdjacencyMatrix, GeneratingVector, circulant,
                     gen_complete, gen_erdos_renyi, gen_ring,
                     gen_watts_strogatz, read_edge_list,
                     ring_generating_vector, write_edge_list)
from .seeding import rng_for
from .spectral import (EigenSystem, SpectralError, apply_propagator,
                       cdt_eigensystem, cdt_eigenvalues, cdt_fourier_matrix,
                       eigendecompose_symmetric, eigensystem_for,
                       eigenvalues_symmetric)

__all__ = [
    "__version__",
    "AdjacencyMatrix", "GeneratingVector", "circulant", "gen_complete",
    "gen_erdos_renyi", "gen_ring", "gen_watts_strogatz", "read_edge_list",
    "ring_generating_vector", "write_edge_list",
    "EigenSystem", "SpectralError", "apply_propagator", "cdt_eigensystem",
    "cdt_eigenvalues", "cdt_fourier_matrix", "eigendecompose_symmetric",
    "eigensystem_for", "eigenvalues_symmetric",
    "AmplitudeResult", "IntegrationError", "SimulationConfig", "Trajectory",
    "analytic_amplitudes", "analytic_trajectory", "initial_phases",
    "integrate_numerical", "km_rhs", "order_parameter", "read_trajectory_csv",
    "wrap_phase", "write_trajectory_csv",
    "ComparisonReport", "FigureOutput", "SweepResult", "compare_trajectories",
    "run_fig1", "run_fig2", "run_fig3", "run_fig4", "write_pgm",
    "rng_for",
]

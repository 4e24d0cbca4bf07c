"""Backstepping control kernels for ensembles of linear hyperbolic PDEs.

The package computes the kernel pair (k, kbar) of the ensemble kernel
equations either by truncated power series with least-squares coefficient
matching or, for separable problems, in closed form; samples the kernels
into state-feedback gain tables for large-scale n+1 systems; provides an
independent characteristics-based reference solver for the n+1 kernel
equations; and validates stabilization in a closed-loop method-of-lines
simulator.
"""

__version__ = "0.1.0"

from .closed_form import (ClosedFormError, ClosedFormKernel, NotApplicable,
                          SeparableProblem, build_f, compute_cx, sigma_coef,
                          solve_closed_form)
from .fd_kernels import (ConvergenceError, LsKernelSolution, TriGrid,
                         refine_study, solve_characteristics)
from .gains import (GainTable, continuum_residual, diff_solutions, gains,
                    largescale_residual, read_gain_csv, sample_gains,
                    write_gain_csv)
from .params import (ConfigError, ContinuumParams, FitResult, GridParams,
                     LargeScaleParams, Problem, fit_q, load_problem,
                     parse_problem_dict)
from .power_series import (LinearSystem, PsKernelSolution, SolverConfig,
                           assemble, count_unknowns, optimality_certificate,
                           solve_ls)
from .series import (AnalyticFactor, Cos, Exp, Polynomial, SeparableSum,
                     SeparableTerm, Sin, TruncatedSeries, Var)
from .simulate import SimConfig, SimReport, Simulator

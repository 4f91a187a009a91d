"""Yearly generation scheduling on scenario trees.

Space decomposition by dualizing the demand constraints, with optional
Value-at-Risk robustifications of the dual (demand ellipsoid, thermal
availability), a proximal bundle maximizer, Bellman water/contract
value tables built from the optimal multipliers, and Monte Carlo
dispatch simulation.
"""

from .bundle import BundleParams, BundleResult, maximize_dual
from .oracles import (DualEvaluation, RiskConfig, RunMode,
                      calibrate_tree_covariance, default_multiplier,
                      dual_oracle, evaluate_dual, theta_demand,
                      theta_demand_robust, theta_ejp, theta_hydro,
                      theta_thermal, theta_thermal_var)
from .reference import ReferenceSolution, solve_primal_reference
from .risk import CovarianceModel, calibrate_sigma, ellipsoid_support, kappa
from .simulate import (BellmanTable, CostReport, ReservoirStats,
                       compute_bellman, empirical_quantile, run_monte_carlo,
                       simulate_scenario)
from .synth import SynthConfig, generate_synthetic
from .tree import Node, Scenario, ScenarioTree, check_scenario, validate_tree
from .units import (AvailabilityModel, EjpContract, HydroUnit, ThermalUnit,
                    UnitSet)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

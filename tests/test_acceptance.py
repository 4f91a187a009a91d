"""Acceptance gate: one test and one printed pass/fail line per promise.

Run ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
lines; the two benchmark trend tests share a five-seed pipeline fixture
and together stay inside a ten minute budget on one core.
"""

import math
import time

import numpy as np
import pytest

from varsched import bench
from varsched.bundle import BundleParams, maximize_dual
from varsched.cli import main
from varsched.oracles import (RiskConfig, RunMode, calibrate_tree_covariance,
                              default_multiplier, dual_oracle, theta_ejp,
                              theta_hydro, theta_thermal, theta_thermal_var,
                              var_margin)
from varsched.reference import solve_primal_reference
from varsched.risk import ellipsoid_support, inverse_normal_cdf, kappa, normal_cdf
from varsched.simulate import compute_bellman, run_monte_carlo
from varsched.synth import generate_synthetic
from varsched.tree import Node, ScenarioTree
from varsched.units import (AvailabilityModel, EjpContract, HydroUnit,
                            ThermalUnit, binomial_rate_moments)

from conftest import chain_tree, small_synth, small_unit_set


def gate(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def binary_tree(depth, rng, num_thermal=1, num_hydro=1, inflow_max=0):
    nodes, prev = [], [None]
    nid = 0
    for t in range(depth):
        level = []
        for father in prev:
            for _ in range(1 if t == 0 else 2):
                nodes.append(Node(
                    id=nid, time=t, father=father,
                    trans_prob=1.0 if t == 0 else 0.5,
                    durations=np.array([8.0]),
                    demand=np.array([rng.uniform(0.0, 100.0)]),
                    inflows=np.full((num_hydro, 1),
                                    float(rng.integers(0, inflow_max + 1))),
                    thermal_programmed=np.ones(num_thermal),
                    hydro_programmed=np.ones(num_hydro)))
                level.append(nid)
                nid += 1
            if t == 0:
                break
        prev = level
    return ScenarioTree(nodes, num_posts=1)


# ------------------------------------------------------- strong duality


def test_dual_optimum_matches_primal_lp():
    rng = np.random.default_rng(11)
    shapes = [(5, (2, 4)), (4, (1, 3)), (6, (2, 4)), (5, (1, 3))]
    worst_gap, most_calls, biggest = 0.0, 0, 0
    statuses = set()
    for case in range(20):
        horizon, branch_days = shapes[case % len(shapes)]
        units = small_unit_set()
        tree, _ = small_synth(
            units, seed=int(rng.integers(1_000_000)), horizon=horizon,
            branch_days=branch_days,
            difficulty=float(rng.uniform(0.2, 0.7)),
            season_amplitude=float(rng.uniform(0.0, 0.25)),
            branch_spread=float(rng.uniform(0.02, 0.1)))
        assert tree.num_nodes <= 31
        biggest = max(biggest, tree.num_nodes)
        ref = solve_primal_reference(tree, units)
        oracle = dual_oracle(tree, units, RunMode())
        res = maximize_dual(oracle, default_multiplier(tree, units),
                            BundleParams(max_iter=2000, tol=1e-9))
        statuses.add(res.status)
        most_calls = max(most_calls, res.oracle_calls)
        worst_gap = max(worst_gap,
                        abs(res.theta - ref.cost) / abs(ref.cost))
    gate("strong duality on small instances",
         worst_gap <= 1e-4 and statuses == {"converged"}
         and most_calls <= 400,
         f"20 instances up to {biggest} nodes, max relative gap "
         f"{worst_gap:.2e} (tol 1e-4), statuses {sorted(statuses)} (need "
         f"converged), most oracle calls {most_calls} (cap 400)")


# ------------------------------------------------------ oracle exactness


def exhaustive_ejp(tree, contract, lam):
    r = (tree.cells(lam) * tree.durations).sum(axis=1) * contract.power
    vj = contract.value_table
    J = contract.days
    masks = []
    for leaf in tree.leaves:
        m, i = 0, int(leaf)
        while i >= 0:
            m |= 1 << i
            i = int(tree.father_index[i])
        masks.append(m)
    pleaf = tree.prob[tree.leaves]
    best = -np.inf
    for s in range(1 << tree.num_nodes):
        used = [(s & m).bit_count() for m in masks]
        if max(used) > J:
            continue
        val = sum(r[i] for i in range(tree.num_nodes) if s >> i & 1)
        val += sum(p * vj[J - u] for p, u in zip(pleaf, used))
        best = max(best, val)
    return -best


def grid_dp_hydro(tree, unit, lam, h=0):
    # integer 1 MWh stock grid; exact when bounds, caps and inflows are
    # whole so every kink falls on the grid
    G = np.arange(int(unit.x_min), int(unit.x_max) + 1, dtype=float)
    caps = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
    cells = tree.cells(lam)
    a = tree.inflows[h].sum(axis=1)
    vals = np.empty((tree.num_nodes, G.size))
    for i in range(tree.num_nodes - 1, -1, -1):
        sons = tree.sons[i]
        if sons.size == 0:
            cont = tree.prob[i] * unit.terminal_value(G)
        else:
            cont = vals[sons].sum(axis=0)
        order = np.argsort(-cells[i], kind="stable")
        bp = np.concatenate(([0.0], np.cumsum(caps[i][order])))
        rv = np.concatenate(([0.0], np.cumsum(cells[i][order] * caps[i][order])))
        for j, x in enumerate(G):
            res = x + a[i]
            u_hi = int(min(bp[-1], res - unit.x_min))
            best = -np.inf
            for u in range(u_hi + 1):
                y = min(res - u, unit.x_max)
                best = max(best, np.interp(u, bp, rv)
                           + cont[int(y - unit.x_min)])
            vals[i, j] = best
    return -vals[0, int(unit.x0 - unit.x_min)]


def test_subproblem_oracles_match_independent_searches():
    rng = np.random.default_rng(23)

    # thermal: closed forms against a grid sweep, one thousand cells
    cells_checked, worst_thermal = 0, 0.0
    ugrid = np.linspace(0.0, 1.0, 1025)
    while cells_checked < 1000:
        T = 25
        tree = chain_tree([[0.0]] * T,
                          durations=(float(rng.uniform(4.0, 12.0)),))
        unit = ThermalUnit("t", float(rng.uniform(5.0, 80.0)),
                           float(rng.uniform(50.0, 400.0)),
                           int(rng.integers(1, 30)),
                           float(rng.uniform(0.55, 0.98)))
        lam = rng.uniform(-40.0, 120.0, tree.dim)
        kap = float(rng.uniform(0.0, 3.0))
        coef = tree.prob[:, None] * unit.cost - tree.cells(lam)
        bound = tree.thermal_programmed[:, 0:1] * unit.p_max * tree.durations
        _, disp_n = theta_thermal(lam, tree, unit, 0)
        _, disp_v, factor = theta_thermal_var(lam, tree, unit, 0, kap)
        rho = var_margin(unit, kap)
        scale_v = max(0.0, 1.0 - rho) if rho < 1.0 else 0.0
        closed_n = coef * disp_n
        closed_v = scale_v * (coef * disp_v)
        grid_n = (coef[:, :, None] * (bound[:, :, None] * ugrid)).min(axis=2)
        grid_v = scale_v * grid_n
        tol = 1e-9 * np.maximum(1.0, np.abs(grid_n))
        worst_thermal = max(worst_thermal,
                            float((np.abs(closed_n - grid_n) / tol).max()),
                            float((np.abs(closed_v - grid_v) / tol).max()))
        assert factor == pytest.approx(scale_v)
        cells_checked += T

    # contract days: value recursion against exhaustive enumeration
    ejp_dev = 0.0
    for depth, J in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 2), (3, 1)):
        tree = binary_tree(depth, rng)
        table = tuple(np.sort(rng.uniform(0.0, 400.0, J + 1)))
        contract = EjpContract("c", J, float(rng.uniform(2.0, 10.0)), table)
        lam = rng.uniform(-5.0, 20.0, tree.dim)
        value, _ = theta_ejp(lam, tree, contract)
        ejp_dev = max(ejp_dev, abs(value - exhaustive_ejp(tree, contract, lam)))

    # reservoirs: forward sweep against a 1 MWh stock dynamic program
    hydro_dev, hydro_bound = 0.0, np.inf
    for _ in range(8):
        depth = int(rng.integers(2, 5))
        tree = binary_tree(depth, rng, inflow_max=2)
        x_max = int(rng.integers(6, 12))
        knee = int(rng.integers(1, x_max))
        unit = HydroUnit("r", 0.0, float(x_max), float(rng.integers(0, x_max)),
                         0.5, ((0.0, 0.0), (float(knee), 3.0 * knee),
                               (float(x_max), 3.0 * knee + (x_max - knee))))
        lam = rng.uniform(-2.0, 8.0, tree.dim)
        plan = theta_hydro(lam, tree, unit, 0)
        hydro_dev = max(hydro_dev,
                        abs(plan.value - grid_dp_hydro(tree, unit, lam)))
        hydro_bound = min(hydro_bound,
                          max(np.abs(tree.cells(lam)).max(), 3.0))
    gate("subproblem oracle exactness",
         worst_thermal <= 1.0 and ejp_dev <= 1e-9 and hydro_dev <= hydro_bound,
         f"{cells_checked} thermal cells within 1e-9 of grid optimum "
         f"(worst {worst_thermal:.3f}x tol); contract enumeration dev "
         f"{ejp_dev:.1e}; reservoir DP dev {hydro_dev:.2e} "
         f"(one-step bound {hydro_bound:.1f})")


# --------------------------------------------------- reduction identities


def run_cli_modes(inst, out, modes, eps1, eps2):
    flags = ["run", "--tree", str(inst / "tree.json"),
             "--units", str(inst / "units.json"),
             "--scenarios", str(inst / "scenarios.json"),
             "--max-iter", "80", "--out", str(out),
             "--eps1", str(eps1), "--eps2", str(eps2),
             "--kappa-mode", "gaussian"]
    for m in modes:
        flags += ["--mode", m]
    return main(flags)


REPORT_FILES = ("lambda.json", "dual.json", "trace.csv", "costs.csv",
                "stats.csv", "trajectory.csv", "weeks.csv")


def test_zero_kappa_robust_modes_reduce_to_nominal(tmp_path):
    inst = tmp_path / "inst"
    assert main(["generate", "--preset", "demo", "--out", str(inst)]) == 0
    out = tmp_path / "out"
    # eps 0.5 makes the gaussian quantile factor vanish for both the
    # demand ellipsoid and the availability margin
    assert run_cli_modes(inst, out, ("nominal", "var_fa", "var_benef", "mixt"),
                         eps1=0.5, eps2=0.5) == 0
    mismatches = []
    for kind in ("var_fa", "var_benef", "mixt"):
        for name in REPORT_FILES:
            a = (out / kind / name).read_bytes()
            b = (out / "nominal" / name).read_bytes()
            if a != b:
                mismatches.append(f"{kind}/{name}")
    gate("zero-kappa reduction identities", not mismatches,
         "all robust-mode reports byte-identical to nominal"
         if not mismatches else f"differs: {mismatches}")


# -------------------------------------------------------------- risk math


def test_quantile_factors_and_ellipsoid_support():
    k_err = abs(kappa(0.05, "gaussian") - 1.6449)

    ps = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    cdf_err = max(abs(normal_cdf(inverse_normal_cdf(p)) - p) for p in ps)

    rng = np.random.default_rng(31)
    dominated, tight = True, 0.0
    for seed in (1, 2, 3):
        tree, _ = small_synth(small_unit_set(), seed=seed)
        cov = calibrate_tree_covariance(tree)
        kap = kappa(0.05, "gaussian")
        lam = rng.uniform(-30.0, 90.0, cov.dim)
        value, _ = ellipsoid_support(lam, cov, kap)
        sigma = np.sqrt(cov.diag)
        g = rng.standard_normal((10_000, cov.dim))
        radii = rng.random(10_000) ** (1.0 / cov.dim)
        radii[:100] = 1.0                       # include boundary members
        xi = g * (kap * radii / np.linalg.norm(g, axis=1))[:, None]
        members = cov.d_bar + xi * sigma
        pairings = members @ lam
        scale = 1e-9 * max(1.0, abs(value))
        dominated &= bool((pairings >= value - scale).all())
        # the analytic minimizer attains the support value exactly
        q = cov.quad(lam)
        d_star = cov.d_bar - (kap / math.sqrt(q)) * (cov.diag * lam)
        tight = max(tight, abs(float(d_star @ lam) - value))
    gate("risk quantiles and demand ellipsoid",
         k_err <= 1e-4 and cdf_err <= 1e-9 and dominated and tight <= 1e-6,
         f"kappa(0.05) err {k_err:.1e}; quantile round-trip err {cdf_err:.1e};"
         f" support dominated by 3x10^4 sampled members, minimizer gap "
         f"{tight:.1e}")


# ----------------------------------------------------- availability model


def test_outage_chain_statistics_and_transients():
    alpha, n = 0.87, 25
    model = AvailabilityModel.from_alpha(alpha, persistence=0.0,
                                         check_interval=1)
    rng = np.random.default_rng(41)
    draws = 100_000
    rates = model.sample_rates(n, draws, rng)
    mean_ref, var_ref = binomial_rate_moments(n, alpha)
    se = math.sqrt(var_ref / draws)
    mean_dev = abs(rates.mean() - mean_ref)
    var_dev = abs(rates.var() - var_ref)

    chain = AvailabilityModel(beta1=0.7, beta2=0.9, p_work=0.35)
    P = np.array([[chain.beta1, 1.0 - chain.beta1],
                  [1.0 - chain.beta2, chain.beta2]])
    v0 = np.array([1.0 - chain.p_work, chain.p_work])
    mp_dev = max(abs(chain.availability(k)
                     - float((v0 @ np.linalg.matrix_power(P, k))[1]))
                 for k in range(61))
    gate("availability model",
         mean_dev <= 3.0 * se and var_dev <= 0.1 * var_ref
         and mp_dev <= 1e-12,
         f"fraction mean dev {mean_dev:.2e} (3se {3 * se:.2e}), variance dev "
         f"{var_dev:.2e} (10% {0.1 * var_ref:.2e}) at 1e5 draws; "
         f"matrix-power dev {mp_dev:.1e}")


# ------------------------------------------ supergradient and concavity


def test_supergradient_and_concavity_properties():
    rng = np.random.default_rng(53)
    setups = []
    for kind, with_ejp, seed in (("nominal", False, 1), ("var_fa", True, 2),
                                 ("var_benef", True, 3), ("mixt", False, 4)):
        units = small_unit_set(with_ejp=with_ejp)
        tree, _ = small_synth(units, seed=seed)
        risk = RiskConfig(eps_demand=0.1, eps_thermal=0.15)
        setups.append((tree, dual_oracle(tree, units,
                                         RunMode(kind=kind, risk=risk))))
    trials, grad_viol, conc_viol = 0, 0, 0
    while trials < 1000:
        tree, oracle = setups[trials % len(setups)]
        lam_a = rng.uniform(-20.0, 60.0, tree.dim)
        lam_b = rng.uniform(-20.0, 60.0, tree.dim)
        ea, eb = oracle(lam_a), oracle(lam_b)
        mid = 0.5 * (lam_a + lam_b)
        em = oracle(mid)
        tol = 1e-7 * (1.0 + abs(ea.theta) + abs(eb.theta))
        if eb.theta > ea.theta + ea.supergradient @ (lam_b - lam_a) + tol:
            grad_viol += 1
        if ea.theta > eb.theta + eb.supergradient @ (lam_a - lam_b) + tol:
            grad_viol += 1
        if em.theta < 0.5 * ea.theta + 0.5 * eb.theta - tol:
            conc_viol += 1
        trials += 1
    gate("supergradient and concavity",
         grad_viol == 0 and conc_viol == 0,
         f"1000 random multiplier pairs over all four modes: "
         f"{grad_viol} supergradient violations, {conc_viol} midpoint "
         f"concavity violations")


# ----------------------------------------------------------- determinism


def test_pipeline_is_byte_deterministic(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        inst = tmp_path / f"inst_{tag}"
        out = tmp_path / f"out_{tag}"
        assert main(["generate", "--preset", "demo", "--seed", "3",
                     "--out", str(inst)]) == 0
        assert run_cli_modes(inst, out, ("nominal", "var_benef"),
                             eps1=0.05, eps2=0.1) == 0
        blob = {}
        for name in ("tree.json", "units.json", "scenarios.json"):
            blob[name] = (inst / name).read_bytes()
        for kind in ("nominal", "var_benef"):
            for name in REPORT_FILES:
                blob[f"{kind}/{name}"] = (out / kind / name).read_bytes()
        blobs.append(blob)
    diffs = [k for k in blobs[0] if blobs[0][k] != blobs[1][k]]
    gate("pipeline determinism", not diffs,
         f"{len(blobs[0])} files byte-identical across two full runs"
         if not diffs else f"differs: {diffs}")


# ------------------------------------------------------ benchmark trends


@pytest.fixture(scope="module")
def benchmark_runs():
    units = bench.benchmark_units()
    assert len(units.thermal) == 11
    assert len(units.hydro) == 2
    assert units.hydro[0].x_max / units.hydro[1].x_max == pytest.approx(30.0)
    assert units.ejp[0].days == 22 and units.ejp[0].power == 2467.0
    risk = RiskConfig(eps_demand=0.05, eps_thermal=0.1, kappa_mode="general")
    rows = {"nominal": [], "var_benef": []}
    t0 = time.perf_counter()
    for seed in range(5):
        cfg = bench.benchmark_config(seed=seed)
        assert cfg.num_scenarios >= 100 and len(cfg.post_hours) == 3
        tree, scens = generate_synthetic(cfg)
        for kind in rows:
            oracle = dual_oracle(tree, units, RunMode(kind=kind, risk=risk))
            res = maximize_dual(oracle, default_multiplier(tree, units),
                                BundleParams(max_iter=200, tol=1e-5))
            assert np.isfinite(res.theta)
            tables = compute_bellman(tree, res.lam, units, grid_size=101)
            rep, stats, _ = run_monte_carlo(scens, tree, units, tables)
            rows[kind].append((rep.mean, rep.std, rep.var5,
                               float(stats.weeks_low[0][1])))
    return rows, time.perf_counter() - t0


def test_benchmark_cost_trend(benchmark_runs):
    rows, elapsed = benchmark_runs
    nom = np.array(rows["nominal"]).mean(axis=0)
    rob = np.array(rows["var_benef"]).mean(axis=0)
    ratio = rob[1] / nom[1]
    drift = abs(rob[0] - nom[0]) / abs(nom[0])
    gate("benchmark cost trend",
         ratio <= 0.9 and drift <= 0.05 and rob[2] <= nom[2]
         and elapsed <= 600.0,
         f"5 seeds x 100 scenarios: std ratio {ratio:.3f} (need <= 0.9), "
         f"mean drift {drift * 100:.2f}% (need <= 5%), tail-5% "
         f"{rob[2] / 1e6:.1f}M vs {nom[2] / 1e6:.1f}M, {elapsed:.0f}s "
         f"(budget 600s)")


def test_benchmark_reservoir_trend(benchmark_runs):
    rows, _ = benchmark_runs
    weeks_nom = np.array(rows["nominal"])[:, 3].mean()
    weeks_rob = np.array(rows["var_benef"])[:, 3].mean()
    gate("benchmark reservoir trend",
         weeks_rob <= 0.2 * weeks_nom,
         f"scenarios with a low-stock week: {weeks_rob:.1f} vs "
         f"{weeks_nom:.1f} per 100 (need <= 0.2x)")

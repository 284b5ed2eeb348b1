"""Warm-started QP solves: solver-level plumbing and closed-loop equivalence.

Warm starting is a pure performance device — it must change the number
of iterations, never the answer.  Both QP backends are strictly convex
here (P ≻ 0), so warm and cold solves share a unique optimum; these
tests pin (a) the new ``x0``/``working_set0``/``y0`` solver arguments,
(b) the ADMM factorization cache, (c) closed-loop trajectories over
a price-step day being equal warm vs cold, for both backends, and (d)
the working-set start under loads that move every period: equal to a
cold run, one phase-1 LP per span, and still fully cold after
``reset_warm_start()`` or on the fallback ladder's ``cold`` rung.

Tolerances: the active-set solver is exact, so its warm/cold gap is
float noise (~1e-11 on allocations).  ADMM stops at a residual
tolerance, so paths may differ by ~1e-3 req/s on ~1e4-scale
allocations.  Powers pass through the integer server count of eq. 35
(ceil), which can amplify an ~1e-8 allocation difference into one
server's 150 W at isolated periods — power comparisons must absorb one
quantization step.
"""

import numpy as np
import pytest

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.exceptions import DeadlineExceededError, InfeasibleProblemError
from repro.optim import ADMMFactorCache, KKTFactorCache, boxed_constraints, \
    solve_qp, solve_qp_admm
from repro.sim import paper_scenario, price_step_scenario, run_simulation
from repro.workload import PortalSet, PortalWorkload, epa_like_trace


def _small_qp():
    rng = np.random.default_rng(3)
    n = 12
    M = rng.normal(size=(n, n))
    P = M @ M.T + n * np.eye(n)
    q = rng.normal(size=n)
    A_in = rng.normal(size=(8, n))
    b_in = A_in @ rng.normal(size=n) + 1.0
    return P, q, A_in, b_in


def _small_qp_with_equalities():
    P, q, A_in, b_in = _small_qp()
    rng = np.random.default_rng(4)
    A_eq = rng.normal(size=(2, P.shape[0]))
    b_eq = rng.normal(size=2)
    return P, q, A_eq, b_eq, A_in, b_in


# ---------------------------------------------------------------------------
# Active-set solver plumbing
# ---------------------------------------------------------------------------
class TestActiveSetWarmStart:
    def test_result_reports_working_set(self):
        P, q, A_in, b_in = _small_qp()
        res = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        assert res.success
        assert res.working_set is not None
        slack = b_in - A_in @ res.x
        for i in res.working_set:
            assert slack[i] == pytest.approx(0.0, abs=1e-7)

    def test_warm_restart_from_optimum_is_instant(self):
        P, q, A_in, b_in = _small_qp()
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        warm = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in,
                        x0=cold.x, working_set0=cold.working_set)
        assert warm.success
        assert warm.iterations <= 2
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)
        assert warm.fun == pytest.approx(cold.fun, abs=1e-10)

    def test_infeasible_x0_falls_back_to_phase1(self):
        P, q, A_in, b_in = _small_qp()
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        # a grossly infeasible start must not break correctness
        bad = np.full(P.shape[0], 1e6)
        warm = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in, x0=bad)
        assert warm.success
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)

    def test_working_set_alone_starts_without_phase1(self):
        # Loads moved (new b_eq), no feasible x0: the previous working set
        # yields the start and the solve needs no phase-1 LP.
        P, q, A_eq, b_eq, A_in, b_in = _small_qp_with_equalities()
        prev = solve_qp(P, q, A_eq, b_eq, A_in, b_in)
        assert prev.meta["phase1_solves"] == 1
        b_new = b_eq + np.array([0.05, -0.03])
        cold = solve_qp(P, q, A_eq, b_new, A_in, b_in)
        ws = solve_qp(P, q, A_eq, b_new, A_in, b_in,
                      working_set0=prev.working_set)
        assert ws.success
        assert ws.meta["phase1_solves"] == 0
        assert cold.meta["phase1_solves"] == 1
        np.testing.assert_allclose(ws.x, cold.x, atol=1e-9)
        assert ws.fun == pytest.approx(cold.fun, abs=1e-9)
        assert ws.iterations < cold.iterations

    def test_infeasible_x0_with_working_set_skips_phase1(self):
        P, q, A_eq, b_eq, A_in, b_in = _small_qp_with_equalities()
        prev = solve_qp(P, q, A_eq, b_eq, A_in, b_in)
        b_new = b_eq + 0.02
        ws = solve_qp(P, q, A_eq, b_new, A_in, b_in,
                      x0=prev.x, working_set0=prev.working_set)
        assert ws.meta["phase1_solves"] == 0
        cold = solve_qp(P, q, A_eq, b_new, A_in, b_in)
        np.testing.assert_allclose(ws.x, cold.x, atol=1e-9)

    def test_unusable_working_set_falls_back_to_phase1(self):
        # min |x - (10, 10)|² with x1 <= 1 and x2 <= 1, each row stated
        # twice.  Seeding a duplicated pair is a dependent working set;
        # the equality-free fallback seed (the unconstrained minimiser)
        # violates all four rows, more than n = 2 can hold.  Both starts
        # fail, so the phase-1 LP runs — and the answer is unchanged.
        P = np.eye(2)
        q = -np.array([10.0, 10.0])
        A_in = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        b_in = np.ones(4)
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        for seed in ((0, 1), (0, 1, 2, 3)):
            res = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in,
                           working_set0=seed)
            assert res.meta["phase1_solves"] == 1
            np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
            assert res.fun == pytest.approx(cold.fun, abs=1e-9)

    def test_infeasible_problem_still_raises_with_working_set(self):
        P = np.eye(2)
        q = np.zeros(2)
        A_in = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b_in = np.array([-1.0, -1.0])  # x1 <= -1 and x1 >= 1
        with pytest.raises(InfeasibleProblemError):
            solve_qp(P, q, A_ineq=A_in, b_ineq=b_in, working_set0=(0,))

    def test_failed_solve_leaves_no_stale_cached_factors(self):
        # A working-set start that fails before an infeasible phase-1 LP
        # has already changed the cached factors' rows.  The next solve
        # whose working set equals the old cache key must not adopt them
        # (it would return the infeasible point (10, 1) here).
        P = np.eye(2)
        A_in = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b_ok = np.array([1.0, 1.0, 5.0, 5.0])
        cache = KKTFactorCache()
        first = solve_qp(P, -np.array([10.0, 10.0]), A_ineq=A_in,
                         b_ineq=b_ok, kkt_cache=cache)
        assert first.working_set == (0, 1)
        with pytest.raises(InfeasibleProblemError):
            solve_qp(P, -np.array([0.5, 10.0]), A_ineq=A_in,
                     b_ineq=np.array([1.0, 1.0, -2.0, 5.0]),
                     working_set0=first.working_set, kkt_cache=cache)
        again = solve_qp(P, -np.array([10.0, 10.0]), A_ineq=A_in,
                         b_ineq=b_ok, x0=first.x, kkt_cache=cache)
        np.testing.assert_allclose(again.x, [1.0, 1.0], atol=1e-12)

    def test_stale_working_set_is_filtered(self):
        P, q, A_in, b_in = _small_qp()
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        # claim every constraint is active: only the truly tight ones at
        # x0 may enter the working set, the rest must be dropped
        warm = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in,
                        x0=cold.x, working_set0=range(len(b_in)))
        assert warm.success
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)


# ---------------------------------------------------------------------------
# ADMM warm start and factorization cache
# ---------------------------------------------------------------------------
class TestADMMWarmStart:
    def test_warm_start_matches_cold(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        cold = solve_qp_admm(P, q, A, low, high)
        warm = solve_qp_admm(P, q, A, low, high, x0=cold.x, y0=cold.dual_ineq)
        assert warm.success
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-4)

    def test_factor_cache_hits_on_same_structure(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        cache = ADMMFactorCache()
        solve_qp_admm(P, q, A, low, high, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        # new q, same P/A: the O(n³) factorization must be reused
        res = solve_qp_admm(P, q * 2.0, A, low, high, cache=cache)
        assert res.success
        assert cache.hits == 1
        ref = solve_qp_admm(P, q * 2.0, A, low, high)
        np.testing.assert_allclose(res.x, ref.x, atol=1e-6)

    def test_factor_cache_invalidates_on_matrix_change(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        cache = ADMMFactorCache()
        solve_qp_admm(P, q, A, low, high, cache=cache)
        P2 = P + np.eye(P.shape[0])
        res = solve_qp_admm(P2, q, A, low, high, cache=cache)
        assert res.success
        assert cache.misses == 2
        ref = solve_qp_admm(P2, q, A, low, high)
        np.testing.assert_allclose(res.x, ref.x, atol=1e-6)

    def test_mismatched_y0_is_ignored(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        cold = solve_qp_admm(P, q, A, low, high)
        warm = solve_qp_admm(P, q, A, low, high, x0=cold.x,
                             y0=np.zeros(3))  # wrong length
        assert warm.success
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-4)


# ---------------------------------------------------------------------------
# Closed-loop equivalence: warm vs cold over a price-step day
# ---------------------------------------------------------------------------
def _closed_loop(backend, warm):
    sc = price_step_scenario(dt=30.0, duration=600.0)
    cfg = MPCPolicyConfig(dt=30.0, backend=backend,
                          warm_start_solver=warm)
    policy = CostMPCPolicy(sc.cluster, cfg)
    return run_simulation(sc, policy)


@pytest.mark.parametrize("backend,alloc_atol,cost_rel", [
    ("active_set", 1e-7, 1e-10),
    ("admm", 1e-2, 1e-6),
])
def test_closed_loop_warm_equals_cold(backend, alloc_atol, cost_rel):
    cold = _closed_loop(backend, warm=False)
    warm = _closed_loop(backend, warm=True)
    np.testing.assert_allclose(warm.allocations, cold.allocations,
                               atol=alloc_atol)
    assert warm.total_cost_usd == pytest.approx(cold.total_cost_usd,
                                                rel=cost_rel)
    # eq. 35's ceil may flip one server on an ~1e-8 allocation tie:
    # tolerate a single server's power, nothing structural
    assert np.max(np.abs(warm.powers_watts - cold.powers_watts)) <= 200.0


def test_warm_counters_engage_in_closed_loop():
    warm = _closed_loop("active_set", warm=True)
    counters = warm.perf["counters"]
    n = counters["qp_solves"]
    assert n > 1
    assert counters["warm_start_hits"] == n - 1
    assert counters["warm_start_misses"] == 0
    assert counters["constraint_cache_hits"] == n - 1
    # The incremental KKT path must carry the warm run: the cached
    # factorization makes refactorizations rare (ideally one for the
    # whole day), far below the iteration count.
    assert counters["kkt_refactorizations"] <= max(
        1, counters["qp_iterations"] // 5)

    cold = _closed_loop("active_set", warm=False)
    assert cold.perf["counters"]["warm_start_hits"] == 0


def test_cold_policy_config_disables_warm_start():
    sc = price_step_scenario(dt=30.0, duration=120.0)
    policy = CostMPCPolicy(
        sc.cluster, MPCPolicyConfig(dt=30.0, warm_start_solver=False))
    run_simulation(sc, policy)  # _mpc is built lazily on first decide()
    assert policy._mpc.warm_start is False


# ---------------------------------------------------------------------------
# Time-varying loads: the working-set start replaces the phase-1 LP
# ---------------------------------------------------------------------------
def _epa_scenario(seed):
    """06:00-07:30 of the paper plant at Ts = 300 s, EPA-shaped loads.

    Loads change every period, so no shifted plan stays feasible: every
    period after the first is a primal warm-start miss.
    """
    sc = paper_scenario(dt=300.0, duration=5400.0, start_hour=6.0)
    portals = sc.cluster.portals
    trace = epa_like_trace(rng=np.random.default_rng(seed))
    shape = trace[6 * 12:][:sc.n_periods]  # the trace has 12 samples/h
    loads = 0.6 * np.outer(shape / shape.mean(), portals.loads_at(0))
    sc.cluster.portals = PortalSet(portals=[
        PortalWorkload(name=name, trace=loads[:, i])
        for i, name in enumerate(portals.names)])
    return sc


def _epa_run(seed, policy_cls=CostMPCPolicy, **cfg):
    sc = _epa_scenario(seed)
    policy = policy_cls(sc.cluster, MPCPolicyConfig(dt=sc.dt, **cfg))
    return policy, run_simulation(sc, policy)


@pytest.mark.parametrize("seed", [0, 3])
def test_moving_loads_need_one_phase1_per_span(seed):
    _, warm = _epa_run(seed)
    _, cold = _epa_run(seed, warm_start_solver=False)
    np.testing.assert_allclose(warm.allocations, cold.allocations,
                               atol=1e-7)
    assert warm.total_cost_usd == pytest.approx(cold.total_cost_usd,
                                                rel=1e-9)
    counters = warm.perf["counters"]
    n = counters["qp_solves"]
    assert counters["warm_start_misses"] == n - 1  # loads move every period
    assert counters["phase1_solves"] == 1          # the first solve only
    assert counters["qp_iterations"] < cold.perf["counters"]["qp_iterations"]
    # warm_start_solver=False stays fully cold
    assert cold.perf["counters"]["phase1_solves"] == n


class _ResetAtPeriod4(CostMPCPolicy):
    def decide(self, obs):
        if obs.period == 4:
            self.reset_solver_state()
        return super().decide(obs)


def test_reset_warm_start_still_runs_phase1():
    _, run = _epa_run(0, policy_cls=_ResetAtPeriod4)
    assert run.perf["counters"]["phase1_solves"] == 2


def test_ladder_cold_rung_still_runs_phase1():
    calls = {"n": -1}

    def blow_fifth_solve(stage):
        if stage == "solve":
            calls["n"] += 1
            if calls["n"] == 5:
                raise DeadlineExceededError("injected blowout")

    sc = _epa_scenario(0)
    policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(
        dt=sc.dt, fallback_ladder=True, deadline_seconds=10.0))
    policy.solver_fault_hook = blow_fifth_solve
    counters = run_simulation(sc, policy).perf["counters"]
    assert counters["ladder_rung_cold"] == 1
    assert counters["phase1_solves"] == 2

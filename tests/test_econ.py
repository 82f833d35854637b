import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from qmcecon.distributions import DiscretizedDistribution
from qmcecon.econ import (
    APPS,
    BENCH_C1,
    BENCH_C2,
    BENCH_SIGMA,
    DEFAULT_STRESS,
    CLASSICAL_CHUNK,
    BankBalanceSheet,
    ModelDegeneracyError,
    NeoclassicalParams,
    SIMPLE_ANALYTIC_MEAN,
    StressTestParams,
    classical_mc,
    estimate,
    load_stress_config,
    neoclassical_closed_form,
    neoclassical_coeffs,
    neoclassical_qmc,
    neoclassical_shock_grid,
    neoclassical_workload,
    simple_problem_f,
    simple_problem_sampler,
    stress_coefficients,
    stress_combined_constant,
    stress_loss_rv,
    stress_qmc,
    stress_rv_grid,
    stress_theoretical_mean,
    workload,
)
from qmcecon.engine import denormalize_mu, normalize_rv
from qmcecon.sim import ResourceLimitError

from util import write_stress_config


class TestStressCoefficients:
    def test_reference_calibration_reproduces_reported_terms(self):
        co = stress_coefficients(DEFAULT_STRESS)
        assert round(co.gamma0, 4) == 0.0060
        assert round(co.gamma1, 4) == 0.0053
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        assert round(k, 4) == 0.0064

    def test_no_price_impact_kills_fire_sales(self):
        params = replace(DEFAULT_STRESS, alpha_price=1e-300)
        co = stress_coefficients(params)
        assert abs(co.g1) < 1e-250
        assert abs(co.gamma0) < 1e-250

    def test_symmetric_banks_equal_g(self):
        co = stress_coefficients(DEFAULT_STRESS)
        assert co.g1 == co.g2  # both banks hold the same securities book

    def test_degenerate_denominator(self):
        # (1-beta) alpha a_s = beta exactly
        beta = 0.03
        alpha = beta / ((1 - beta) * 50.0)
        params = replace(DEFAULT_STRESS, alpha_price=alpha)
        with pytest.raises(ModelDegeneracyError):
            stress_coefficients(params)

    def test_balance_sheet_validation(self):
        with pytest.raises(ValueError):
            BankBalanceSheet(100, 100, 100, 150, 4.5)
        with pytest.raises(ValueError):  # price sensitivity outside (0, 1)
            StressTestParams(DEFAULT_STRESS.banks, 1.5, 0.03, 0.005, 0.01)
        with pytest.raises(ValueError):  # starts below the leverage floor
            StressTestParams(
                (BankBalanceSheet(50, 50, 50, 150, 1.0), DEFAULT_STRESS.banks[1]),
                5e-5, 0.03, 0.005, 0.01)


class TestStressLoss:
    def test_zero_shock_value(self):
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        loss = stress_loss_rv(0.0, 0.0, co, DEFAULT_STRESS.beta_lev)
        assert loss == pytest.approx(2 * k)
        assert loss == pytest.approx(0.0128, rel=0.01)

    def test_full_shock_value(self):
        co = stress_coefficients(DEFAULT_STRESS)
        loss = stress_loss_rv(1.0, 1.0, co, DEFAULT_STRESS.beta_lev)
        assert loss == pytest.approx(0.0384, rel=0.01)

    def test_monotone_in_both_shocks(self):
        co = stress_coefficients(DEFAULT_STRESS)
        base = stress_loss_rv(0.2, 0.3, co, DEFAULT_STRESS.beta_lev)
        assert stress_loss_rv(0.25, 0.3, co, DEFAULT_STRESS.beta_lev) > base
        assert stress_loss_rv(0.2, 0.35, co, DEFAULT_STRESS.beta_lev) > base

    def test_gamma_form_equals_factored_form(self):
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        d = np.linspace(0, 1, 10)
        d1, d2 = np.meshgrid(d, d, indexing="ij")
        via_gamma = stress_loss_rv(d1.ravel(), d2.ravel(), co,
                                   DEFAULT_STRESS.beta_lev)
        factored = k * (1 + d1.ravel()) * (2 + d2.ravel())
        np.testing.assert_allclose(via_gamma, factored, rtol=1e-9)


# mean loss rate a / (a + b) of the default Beta(2, 10) shock
BETA_MEAN = DEFAULT_STRESS.shock_a / (DEFAULT_STRESS.shock_a + DEFAULT_STRESS.shock_b)


class TestStressMeans:
    def test_continuous_value_near_published(self):
        co = stress_coefficients(DEFAULT_STRESS)
        mean = stress_theoretical_mean(co, DEFAULT_STRESS.beta_lev, BETA_MEAN)
        assert abs(mean - 0.01618) / 0.01618 < 0.01

    def test_point_mass_grid(self):
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        masses = np.zeros(8)
        masses[0] = 1.0
        dist = DiscretizedDistribution(3, np.linspace(0, 1, 8), masses)
        mean = stress_theoretical_mean(co, DEFAULT_STRESS.beta_lev, dist.mean())
        assert mean == pytest.approx(2 * k)
        assert mean == pytest.approx(0.0128, rel=0.01)

    def test_grid_within_half_percent_of_continuous(self):
        co = stress_coefficients(DEFAULT_STRESS)
        cont = stress_theoretical_mean(co, DEFAULT_STRESS.beta_lev, BETA_MEAN)
        grid = stress_theoretical_mean(co, DEFAULT_STRESS.beta_lev,
                                       DEFAULT_STRESS.shock_distribution(5).mean())
        assert abs(grid - cont) / cont < 0.005

    def test_grid_oracle_consistency_with_encoding(self):
        # the encoded ancilla probability de-normalizes to the grid oracle
        m = 3
        dist = DEFAULT_STRESS.shock_distribution(m)
        rv = normalize_rv(stress_rv_grid(DEFAULT_STRESS, dist))
        result = stress_qmc(DEFAULT_STRESS, m, 2)
        mu_from_p1 = denormalize_mu(result.estimate.p1, rv)
        assert mu_from_p1 == pytest.approx(result.mu_grid_oracle, abs=1e-9)

    def test_thirteen_qubit_estimate_stays_small(self):
        # p1 comes from a 2**13-amplitude statevector; a dense 2**13 x 2**13
        # operator would take 1 GiB
        m = 6
        dist = DEFAULT_STRESS.shock_distribution(m)
        rv = normalize_rv(stress_rv_grid(DEFAULT_STRESS, dist))
        tracemalloc.start()
        try:
            result = stress_qmc(DEFAULT_STRESS, m, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        joint = np.outer(dist.masses, dist.masses).reshape(-1)
        assert result.estimate.p1 == pytest.approx(float(joint @ rv.values),
                                                   abs=1e-10)


class TestNeoclassical:
    def test_closed_form_values(self):
        r, s, q = neoclassical_closed_form(0.36, 0.96, 0.9)
        assert r == pytest.approx(0.36 / (1 - 0.3456))
        assert s == pytest.approx((1 + 0.96 * r) / (1 - 0.96 * 0.9))

    def test_zero_persistence(self):
        r, s, _ = neoclassical_closed_form(0.36, 0.96, 0.0)
        assert s == pytest.approx(1 + 0.96 * r)

    def test_small_discount_limit(self):
        r, s, _ = neoclassical_closed_form(0.36, 1e-9, 0.9)
        assert r == pytest.approx(0.36, rel=1e-6)
        assert s == pytest.approx(1.0, rel=1e-6)

    def test_singular_combinations(self):
        with pytest.raises(ValueError):
            neoclassical_closed_form(0.36, 0.96, 1 / 0.96)

    def test_residual_vanishes_at_optimum(self):
        r, s, q = neoclassical_closed_form(0.36, 0.96, 0.9)
        params = NeoclassicalParams(0.36, 0.96, 0.9, 0.02, s0=q, s1=r, s2=s)
        c1, c2 = neoclassical_coeffs(params)
        assert abs(c1 + c2 * 1.0) < 1e-6

    def test_c2_formula(self):
        r, s, q = neoclassicals = neoclassical_closed_form(0.36, 0.96, 0.9)
        params = NeoclassicalParams(0.36, 0.96, 0.9, 0.02, s0=q, s1=r, s2=30.2)
        _, c2 = neoclassical_coeffs(params)
        assert c2 == pytest.approx(-0.96 * 30.2)
        assert c2 == pytest.approx(-28.992)

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="s1"):
            NeoclassicalParams(0.36, 0.96, 0.9, 0.02, s0=0.0, s1=0.3, s2=1.0)

    def test_symmetric_grid_mean_exact(self):
        grid = neoclassical_shock_grid(5, symmetric=True)
        assert grid.mean() == pytest.approx(1.0, abs=1e-12)
        assert BENCH_C1 + BENCH_C2 * grid.mean() == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_grid_recovers_exact_mean(self):
        # grid symmetric about the mean: the phase sits exactly on the
        # half-turn and readout returns the oracle at any register size
        for n in (3, 6, 9):
            res = estimate(neoclassical_workload(symmetric=True), 4, n)
            assert res.abs_error_grid < 1e-9

    def test_benchmark_grid_estimate_converges(self):
        res = neoclassical_qmc(BENCH_C1, BENCH_C2, BENCH_SIGMA, 5, 12)
        assert res.abs_error_grid < 5e-3


class TestClassicalMc:
    def test_point_mass_exact(self):
        run = classical_mc(lambda rng, size: np.full(size, 2.5),
                           lambda x: x, 1, seed=0, oracle=2.5)
        assert run.estimate == 2.5
        assert run.abs_error == 0.0

    def test_deterministic_given_seed(self):
        a = classical_mc(simple_problem_sampler, simple_problem_f, 1000, seed=5)
        b = classical_mc(simple_problem_sampler, simple_problem_f, 1000, seed=5)
        assert a.estimate == b.estimate

    def test_unbiased(self):
        runs = [classical_mc(simple_problem_sampler, simple_problem_f, 1000,
                             seed=i, oracle=SIMPLE_ANALYTIC_MEAN)
                for i in range(200)]
        estimates = np.array([r.estimate for r in runs])
        stderr = estimates.std(ddof=1) / math.sqrt(len(runs))
        assert abs(estimates.mean() - SIMPLE_ANALYTIC_MEAN) < 4 * stderr

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            classical_mc(simple_problem_sampler, simple_problem_f, 0, seed=0)

    @staticmethod
    def one_shot_mean(w, n, seed):
        draws = w.sampler(np.random.default_rng(seed), n)
        return float(np.asarray(w.f(draws), dtype=float).mean())

    @pytest.mark.parametrize("app", APPS)
    def test_chunked_matches_one_shot(self, app):
        w, c = workload(app), CLASSICAL_CHUNK
        for n in (1, c - 1, c, c + 1, 3 * c + 5):
            for seed in (0, 388_034):
                run = classical_mc(w.sampler, w.f, n, seed, oracle=w.mean)
                assert run.estimate == self.one_shot_mean(w, n, seed), (n, seed)

    def test_out_buffer_longer_than_n(self):
        w, n = workload("stress"), CLASSICAL_CHUNK + 3
        out = np.full(n + 10, np.nan)
        run = classical_mc(w.sampler, w.f, n, 3, out=out)
        assert run.estimate == self.one_shot_mean(w, n, 3)
        draws = w.sampler(np.random.default_rng(3), n)
        np.testing.assert_array_equal(out[:n], w.f(draws))
        assert np.isnan(out[n:]).all()
        with pytest.raises(ValueError, match="out holds 5 values, need 6"):
            classical_mc(w.sampler, w.f, 6, 3, out=np.empty(5))

    @pytest.mark.parametrize("app", APPS)
    def test_peak_memory_is_one_values_array(self, app):
        w, n = workload(app), 1 << 20
        tracemalloc.start()
        try:
            classical_mc(w.sampler, w.f, n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n

    def test_values_budget_checked_before_sampling(self):
        def refuse(rng, size):
            raise AssertionError("sampled past the budget check")

        for n in (2**27 + 1, 10**12):
            with pytest.raises(ResourceLimitError,
                               match="exceeding the cap of 1073741824"):
                classical_mc(refuse, simple_problem_f, n, seed=0)
        # 2**27 values are exactly 1 GiB, which the cap admits; the short
        # buffer stops the run before it allocates or samples
        with pytest.raises(ValueError, match="out holds 1 values"):
            classical_mc(refuse, simple_problem_f, 2**27, seed=0, out=np.empty(1))


@pytest.mark.parametrize("app", APPS)
def test_workload_contract(app):
    """Each registry entry's grid, oracles, sampler and estimate agree."""
    w, m, n = workload(app), 3, 8
    dist = w.shock(m)
    values = np.asarray(w.values(dist))
    assert values.shape == (2 ** (w.dims * m),)
    # register 1 index most significant: kron orders the joint masses so
    joint = reduce(np.kron, [dist.masses] * w.dims)
    assert w.grid_mean(dist) == pytest.approx(float(joint @ values), rel=1e-12)

    samples = np.asarray(w.f(w.sampler(np.random.default_rng(0), 200_000)))
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - w.mean) < 5 * stderr

    # |theta_hat - theta| <= 2**-n and |d mu / d theta| <= pi/2 in [0, 1] units
    resolution = math.pi / 2 ** (n + 1) * (values.max() - values.min())
    assert estimate(w, m, n).abs_error_grid <= resolution


class TestScenarioConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        write_stress_config(path, DEFAULT_STRESS)
        loaded = load_stress_config(path)
        assert loaded == DEFAULT_STRESS

    @pytest.mark.parametrize("kept", [(), ("shock_beta_a",), ("shock_beta_b",)])
    def test_missing_shock_shape_keeps_default(self, tmp_path, kept):
        # a scenario with its own shape parameters, written without some
        params = replace(DEFAULT_STRESS, shock_a=3.0, shock_b=7.0)
        path = tmp_path / "scenario.ini"
        write_stress_config(path, params)
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("shock_beta_") or line.split()[0] in kept]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_stress_config(path)
        assert loaded.shock_a == (3.0 if "shock_beta_a" in kept
                                  else StressTestParams.shock_a)
        assert loaded.shock_b == (7.0 if "shock_beta_b" in kept
                                  else StressTestParams.shock_b)
        assert replace(loaded, shock_a=3.0, shock_b=7.0) == params

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_stress_config(tmp_path / "nope.ini")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[bank1]\nmortgages = 1\n")
        with pytest.raises(ValueError):
            load_stress_config(path)

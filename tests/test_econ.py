import math
import tracemalloc
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
import pytest

from qmcecon.distributions import (
    DiscretizedDistribution,
    VariationalAnsatz,
    discretize_beta,
)
from qmcecon.econ import (
    APPS,
    BENCH_C1,
    BENCH_C2,
    BENCH_SIGMA,
    DEFAULT_STRESS,
    CLASSICAL_CHUNK,
    BankBalanceSheet,
    ModelDegeneracyError,
    StressTestParams,
    classical_mc,
    estimate,
    load_stress_config,
    neoclassical_qmc,
    neoclassical_shock_grid,
    neoclassical_workload,
    simple_workload,
    stress_coefficients,
    stress_combined_constant,
    stress_qmc,
    stress_workload,
    workload,
)
from qmcecon.engine import denormalize_mu, normalize_rv

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
        for amounts in ((math.nan, 50, 50, 150, 4.5), (50, 50, 50, 150, math.inf),
                        (-500, 50, 50, 150, 4.5), (50, 50, 50, 150, -4.5),
                        (0, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="finite and non-negative, and "
                                                 "total assets positive"):
                BankBalanceSheet(*amounts)
        for changed, message in (({"alpha_price": math.nan}, "lie in \\(0, 1\\)"),
                                 ({"d0_m": math.nan}, "loss rates must be finite"),
                                 ({"d0_b": -0.01}, "loss rates must be finite"),
                                 ({"shock_b": math.inf}, "shapes must be finite"),
                                 ({"shock_a": 0.0}, "shapes must be finite"),
                                 ({"shock_b": -2.0}, "shapes must be finite")):
            with pytest.raises(ValueError, match=message):
                replace(DEFAULT_STRESS, **changed)
        with pytest.raises(ValueError):  # price sensitivity outside (0, 1)
            StressTestParams(DEFAULT_STRESS.banks, 1.5, 0.03, 0.005, 0.01)
        with pytest.raises(ValueError):  # starts below the leverage floor
            StressTestParams(
                (BankBalanceSheet(50, 50, 50, 150, 1.0), DEFAULT_STRESS.banks[1]),
                5e-5, 0.03, 0.005, 0.01)


def stress_loss(d1, d2):
    """The default scenario's loss at one draw, from its entry's f."""
    return float(stress_workload(DEFAULT_STRESS).f(np.array([[d1, d2]]))[0])


def stress_grid(m):
    return discretize_beta(m, DEFAULT_STRESS.shock_a, DEFAULT_STRESS.shock_b)


class TestStressLoss:
    def test_zero_shock_value(self):
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        loss = stress_loss(0.0, 0.0)
        assert loss == pytest.approx(2 * k)
        assert loss == pytest.approx(0.0128, rel=0.01)

    def test_full_shock_value(self):
        loss = stress_loss(1.0, 1.0)
        assert loss == pytest.approx(0.0384, rel=0.01)

    def test_monotone_in_both_shocks(self):
        base = stress_loss(0.2, 0.3)
        assert stress_loss(0.25, 0.3) > base
        assert stress_loss(0.2, 0.35) > base

    def test_gamma_form_equals_factored_form(self):
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        d = np.linspace(0, 1, 10)
        d1, d2 = np.meshgrid(d, d, indexing="ij")
        via_gamma = stress_workload(DEFAULT_STRESS).f(
            np.stack([d1.ravel(), d2.ravel()], axis=1))
        factored = k * (1 + d1.ravel()) * (2 + d2.ravel())
        np.testing.assert_allclose(via_gamma, factored, rtol=1e-9)

    def test_entry_grid_is_the_broadcast_loss(self):
        # the entry evaluates its f on the product grid, register 1 index
        # most significant, bit for bit as the broadcast loss over the grid
        dist = stress_grid(3)
        g = dist.grid
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        g1, g2 = 1.0 + g[:, None], 1.0 + g[None, :]
        broadcast = (k * (g1 + g1 * g2)).reshape(-1)
        assert np.array_equal(stress_workload(DEFAULT_STRESS).values(dist),
                              broadcast)


class TestStressMeans:
    def test_continuous_value_near_published(self):
        mean = stress_workload(DEFAULT_STRESS).mean
        assert abs(mean - 0.01618) / 0.01618 < 0.01

    def test_point_mass_grid(self):
        co = stress_coefficients(DEFAULT_STRESS)
        k = stress_combined_constant(co, DEFAULT_STRESS.beta_lev)
        masses = np.zeros(8)
        masses[0] = 1.0
        dist = DiscretizedDistribution(3, np.linspace(0, 1, 8), masses)
        mean = stress_workload(DEFAULT_STRESS).grid_mean(dist)
        assert mean == pytest.approx(2 * k)
        assert mean == pytest.approx(0.0128, rel=0.01)

    def test_grid_within_half_percent_of_continuous(self):
        w = stress_workload(DEFAULT_STRESS)
        cont, grid = w.mean, w.grid_mean(stress_grid(5))
        assert abs(grid - cont) / cont < 0.005

    def test_grid_oracle_consistency_with_encoding(self):
        # the encoded ancilla probability de-normalizes to the grid oracle
        m = 3
        dist = stress_grid(m)
        rv = normalize_rv(stress_workload(DEFAULT_STRESS).values(dist))
        result = stress_qmc(DEFAULT_STRESS, m, 2)
        mu_from_p1 = denormalize_mu(result.estimate.p1, rv)
        assert mu_from_p1 == pytest.approx(result.mu_grid_oracle, abs=1e-9)

    def test_auto_estimate_holds_no_outcome_array(self):
        # theta_hat comes from four outcomes, not 2**20
        tracemalloc.start()
        try:
            estimate(stress_workload(DEFAULT_STRESS), 5, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_thirteen_qubit_estimate_stays_small(self):
        # p1 comes from a 2**13-amplitude statevector; a dense 2**13 x 2**13
        # operator would take 1 GiB
        m = 6
        dist = stress_grid(m)
        rv = normalize_rv(stress_workload(DEFAULT_STRESS).values(dist))
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


# The closed-form neoclassical model.  Nothing in the package evaluates it:
# the benchmark workload takes its residual constants BENCH_C1 and BENCH_C2
# as set values (deriving C1 = 30 would need an off-optimum s0 tuned to the
# last ulp).  So the model lives beside its only callers, the tests below,
# which check the closed form and its linearized residual.


@dataclass
class NeoclassicalParams:
    alpha_cap: float   # capital share
    beta_disc: float   # discount factor
    rho: float         # log-productivity persistence
    sigma: float       # shock standard deviation
    s0: float          # value-function bias
    s1: float          # ln k weight
    s2: float          # ln z weight
    k: float = 1.0     # state at which the residual is evaluated
    z: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha_cap < 1 and 0 < self.beta_disc < 1):
            raise ValueError("need alpha_cap, beta_disc in (0, 1)")
        if not -1 < self.rho < 1:
            raise ValueError("need rho in (-1, 1)")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.k <= 0 or self.z <= 0:
            raise ValueError("states k, z must be positive")
        if self.s1 <= self.alpha_cap:
            raise ValueError(
                f"s1 must exceed alpha_cap={self.alpha_cap} for the residual "
                f"logs to exist, got s1={self.s1}"
            )


def neoclassical_closed_form(alpha_cap: float, beta_disc: float, rho: float):
    """Exact value-function coefficients for log utility, full depreciation.

    V(k, z) = R ln k + S ln z + Q with R = alpha/(1 - alpha beta),
    S = (1 + beta R)/(1 - beta rho), Q assembling the constants.
    """
    ab = alpha_cap * beta_disc
    if abs(1 - ab) < 1e-15 or abs(1 - beta_disc * rho) < 1e-15 or abs(1 - beta_disc) < 1e-15:
        raise ValueError("singular parameter combination for the closed form")
    r = alpha_cap / (1 - ab)
    s = (1 + beta_disc * r) / (1 - beta_disc * rho)
    q = math.log(1 - ab) / (1 - beta_disc) + beta_disc * r * math.log(ab) / (1 - beta_disc)
    return r, s, q


def neoclassical_coeffs(params: NeoclassicalParams) -> tuple[float, float]:
    """Constants of the linearized Bellman residual C1 + C2 * z'.

    Uses ln z' ~ z' - 1; at the closed-form optimum and E[z'] consistent with
    the linearization the residual vanishes identically.
    """
    a, b = params.alpha_cap, params.beta_disc
    s0, s1, s2 = params.s0, params.s1, params.s2
    ln_k, ln_z = math.log(params.k), math.log(params.z)
    c1 = (
        (s1 - a * (1 + b * s1)) * ln_k
        + (s2 - (1 + b * s1)) * ln_z
        + (1 - b) * s0
        - math.log(a / s1)
        - b * s1 * math.log(1 - a / s1)
        + b * s2
    )
    c2 = -b * s2
    return c1, c2


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

    def test_scalar_draw_through_entry(self):
        # one scalar draw of the entry's sampler and f, as the classical
        # timing loop takes it, is the residual of one standard normal draw
        entry = neoclassical_workload()
        draws, zs = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(100):
            z = zs.standard_normal()
            assert (entry.f(entry.sampler(draws, None))
                    == BENCH_C1 + BENCH_C2 * (1.0 + BENCH_SIGMA * z))

    def test_symmetric_grid_mean_exact(self):
        grid = neoclassical_shock_grid(5, symmetric=True)
        assert grid.mean() == pytest.approx(1.0, abs=1e-12)
        assert BENCH_C1 + BENCH_C2 * grid.mean() == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_grid_recovers_exact_mean(self):
        # grid symmetric about the mean: the phase sits exactly on the
        # half-turn and readout returns the oracle at any register size
        for n in (3, 6, 9):
            res = estimate(replace(neoclassical_workload(), shock=lambda m:
                                   neoclassical_shock_grid(m, symmetric=True)),
                           4, n)
            assert res.abs_error_grid < 1e-9

    def test_benchmark_grid_estimate_converges(self):
        res = neoclassical_qmc(BENCH_C1, BENCH_C2, BENCH_SIGMA, 5, 12)
        assert res.abs_error_grid < 5e-3

    def test_qmc_a_mode_agrees_with_ansatz(self):
        ansatz = VariationalAnsatz(3, 1, np.linspace(-1.0, 1.0, 9))
        args = (BENCH_C1, BENCH_C2, BENCH_SIGMA, 3, 5)
        trained = neoclassical_qmc(*args, r_mode="linear", a_mode="trained_ansatz",
                                   ansatz=ansatz)
        assert trained.estimate.p1 == estimate(neoclassical_workload(), 3, 5, "linear",
                                               ansatz).estimate.p1
        assert trained.estimate.p1 != neoclassical_qmc(*args, "linear").estimate.p1
        with pytest.raises(ValueError, match="'trained_ansatz' given with no ansatz"):
            neoclassical_qmc(*args, a_mode="trained_ansatz")
        with pytest.raises(ValueError, match="'exact_prep' given with an ansatz"):
            neoclassical_qmc(*args, ansatz=ansatz)


class TestClassicalMc:
    def test_point_mass_exact(self):
        point = replace(simple_workload(), mean=2.5, f=lambda x: x,
                        sampler=lambda rng, size: np.full(size, 2.5))
        run = classical_mc(point, 1, seed=0)
        assert run.estimate == 2.5
        assert run.abs_error == 0.0

    def test_deterministic_given_seed(self):
        a = classical_mc(simple_workload(), 1000, seed=5)
        b = classical_mc(simple_workload(), 1000, seed=5)
        assert a.estimate == b.estimate

    def test_unbiased(self):
        w = simple_workload()
        runs = [classical_mc(w, 1000, seed=i) for i in range(200)]
        estimates = np.array([r.estimate for r in runs])
        stderr = estimates.std(ddof=1) / math.sqrt(len(runs))
        assert abs(estimates.mean() - w.mean) < 4 * stderr

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            classical_mc(simple_workload(), 0, seed=0)

    @staticmethod
    def one_shot_mean(w, n, seed):
        draws = w.sampler(np.random.default_rng(seed), n)
        return float(np.asarray(w.f(draws), dtype=float).mean())

    @pytest.mark.parametrize("app", APPS)
    def test_chunked_matches_one_shot(self, app):
        # leaf sizes inside and at the chunk, and runs on both sides of the
        # tree's splits: 2c splits into two leaves of c, 2c + 16 into two
        # runs of c + 8, 2c + 1 and 2c + 15 split at c
        w, c = workload(app), CLASSICAL_CHUNK
        for n in (1, 7, 8, 9, 127, 128, 129, c - 1, c, c + 1, 2 * c - 1, 2 * c,
                  2 * c + 1, 2 * c + 15, 2 * c + 16, 2 * c + 17, 3 * c + 5,
                  4 * c - 1, 4 * c, 4 * c + 1, 10**6):
            for seed in (0, 388_034):
                run = classical_mc(w, n, seed)
                assert run.estimate == self.one_shot_mean(w, n, seed), (n, seed)

    @pytest.mark.parametrize("app", APPS)
    def test_peak_memory_is_one_values_array(self, app):
        # one leaf's draws and values at a time, whatever the run's size
        w, n = workload(app), 1 << 20
        tracemalloc.start()
        try:
            classical_mc(w, n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_large_run_reaches_sampler(self):
        # 2**27 + 1 samples are 8 B past the memory budget as one float64
        # array, but no array spans a run, so the first leaf is drawn
        class Reached(Exception):
            pass

        sizes = []

        def stop(rng, size):
            sizes.append(size)
            raise Reached

        with pytest.raises(Reached):
            classical_mc(replace(simple_workload(), sampler=stop), 2**27 + 1, seed=0)
        assert sizes == [CLASSICAL_CHUNK]


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

    @pytest.mark.parametrize("added,unknown", [
        ("[bank3]\nequity = 1.0", "section [bank3]"),
        ("[system]\nshok_beta_a = 3.0", "key 'shok_beta_a' in [system]"),
        ("[bank2]\nshock_beta_a = 3.0", "key 'shock_beta_a' in [bank2]"),
        ("[DEFAULT]\nshock_beta_a = 3.0",
         "key 'shock_beta_a' in [bank1], key 'shock_beta_a' in [bank2]")],
        ids=["section", "misspelt-key", "key-of-another-section", "default-key"])
    def test_unread_entries_refused(self, tmp_path, added, unknown):
        path = tmp_path / "scenario.ini"
        write_stress_config(path, DEFAULT_STRESS)
        section = added.partition("\n")[0]
        text = path.read_text()
        if section in text:     # the line goes into the file's own section
            text = text.replace(section + "\n", added + "\n")
        else:
            text = added + "\n" + text
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_stress_config(path)
        assert str(exc.value) == f"scenario file {path} has unknown {unknown}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_stress_config(tmp_path / "nope.ini")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[bank1]\nmortgages = 1\n")
        with pytest.raises(ValueError):
            load_stress_config(path)

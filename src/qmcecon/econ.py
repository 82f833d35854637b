"""Economics workloads, each defined once in a registry.

A ``Workload`` is one expectation problem: a discretized shock per register
and a variable on their product grid, whose mean ``estimate`` reads back by
amplitude estimation, with its closed-form grid mean, its mean under the
continuous shock, and the sampler of the seeded classical Monte Carlo
baseline.  ``workload(app)`` returns one of:

* ``simple``: E[sin^2 x] for a standard normal x.
* ``stress``: a two-bank, two-period stress test.  Each period the banks
  take random credit losses, fall below their regulatory leverage ratio, and
  sell securities; the simultaneous sales depress the price and feed back as
  mark-to-market losses.  The model is linear enough that the total expected
  system-wide loss reduces to the expectation of ``K * (1 + d1) * (2 + d2)``
  over i.i.d. Beta-distributed loss rates, with K built from the
  balance-sheet calibration.
* ``neoclassical``: a log-utility investment model whose value function is
  known in closed form.  Linearizing the Bellman residual around the optimum
  turns the training loss into the expectation of ``C1 + C2 * z'`` over a
  normal productivity shock, a one-dimensional benchmark with a known answer.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .distributions import DiscretizedDistribution, discretize_beta, discretize_normal
from .engine import (
    PhaseEstimate,
    QMCConfig,
    normalize_rv,
    run_qmc,
)
from .sim import check_memory


class ModelDegeneracyError(ValueError):
    """A calibration hits a vanishing denominator in the closed forms."""


# ---------------------------------------------------------------------------
# Stress test
# ---------------------------------------------------------------------------


@dataclass
class BankBalanceSheet:
    mortgages: float
    business_loans: float
    securities: float
    total_assets: float
    equity: float

    def __post_init__(self):
        if self.mortgages + self.business_loans + self.securities > self.total_assets + 1e-9:
            raise ValueError("asset classes exceed total assets")


@dataclass
class StressTestParams:
    banks: tuple[BankBalanceSheet, BankBalanceSheet]
    alpha_price: float          # price impact per unit of securities sold
    beta_lev: float             # required equity / total assets
    d0_m: float                 # benchmark mortgage loss rate
    d0_b: float                 # benchmark business-loan loss rate
    shock_a: float = 2.0        # Beta shape parameters of the loss-rate shock
    shock_b: float = 10.0

    def __post_init__(self):
        if not (0 < self.alpha_price < 1 and 0 < self.beta_lev < 1):
            raise ValueError("alpha_price and beta_lev must lie in (0, 1)")
        for bank in self.banks:
            if bank.equity + 1e-12 < self.beta_lev * bank.total_assets:
                raise ValueError("bank starts below the leverage requirement")

    def shock_distribution(self, m: int) -> DiscretizedDistribution:
        return discretize_beta(m, self.shock_a, self.shock_b)


# Reference two-bank calibration.  Reproduces the published coefficient chain
# (fire-sales term 0.0060, credit-risk term 0.0053, combined constant 0.0064,
# expected two-period loss near 1.62% of system assets).
DEFAULT_STRESS = StressTestParams(
    banks=(
        BankBalanceSheet(50.0, 50.0, 50.0, 150.0, 4.5),
        BankBalanceSheet(30.0, 70.0, 50.0, 150.0, 4.5),
    ),
    alpha_price=5e-5,
    beta_lev=0.03,
    d0_m=0.005,
    d0_b=0.010,
)


@dataclass
class StressCoefficients:
    g1: float
    g2: float
    gamma0: float   # fire-sales amplification
    gamma1: float   # benchmark credit loss over system assets


def stress_coefficients(params: StressTestParams) -> StressCoefficients:
    """Closed-form fire-sale multipliers from the balance-sheet calibration.

    For bank i, g_i = alpha (1-beta) a_s_i / ((1-beta) alpha a_s_i - beta)
    relates one bank's securities sales to the other's; gamma0 aggregates the
    price-impact feedback and gamma1 is the benchmark one-period credit loss
    as a fraction of system assets.
    """
    alpha, beta = params.alpha_price, params.beta_lev
    b1, b2 = params.banks
    gs = []
    for bank in (b1, b2):
        den = (1 - beta) * alpha * bank.securities - beta
        if abs(den) < 1e-15:
            raise ModelDegeneracyError(
                "leverage exactly offsets price impact: (1-beta) alpha a_s = beta"
            )
        gs.append(alpha * (1 - beta) * bank.securities / den)
    g1, g2 = gs
    if abs(1 - g1 * g2) < 1e-15:
        raise ModelDegeneracyError("fire-sale feedback is singular: g1 g2 = 1")
    gamma0 = alpha * (1 - g1) * (1 - g2) / (1 - g1 * g2) * (b1.securities + b2.securities)
    gamma1 = (
        (b1.business_loans + b2.business_loans) * params.d0_b
        + (b1.mortgages + b2.mortgages) * params.d0_m
    ) / (b1.total_assets + b2.total_assets)
    return StressCoefficients(g1, g2, gamma0, gamma1)


def stress_combined_constant(coeffs: StressCoefficients, beta_lev: float) -> float:
    """K = gamma1 (1 + gamma0 (1-beta)/beta): per-period loss per unit
    cumulative default growth."""
    return coeffs.gamma1 * (1.0 + coeffs.gamma0 * (1.0 - beta_lev) / beta_lev)


def stress_loss_rv(d1, d2, coeffs: StressCoefficients, beta_lev: float):
    """Two-period system-wide loss fraction for loss-rate draws (d1, d2).

    K * [(1 + d1) + (1 + d1)(1 + d2)], which factors as K (1 + d1)(2 + d2).
    Accepts scalars or arrays.
    """
    k = stress_combined_constant(coeffs, beta_lev)
    growth1 = 1.0 + np.asarray(d1, dtype=float)
    growth2 = 1.0 + np.asarray(d2, dtype=float)
    out = k * (growth1 + growth1 * growth2)
    return float(out) if np.isscalar(d1) else out


def stress_theoretical_mean(coeffs: StressCoefficients, beta_lev: float,
                            mean_d: float) -> float:
    """Expected two-period loss fraction K (1 + E)(2 + E) for i.i.d. loss
    rates of mean E = ``mean_d``.

    Independence factorizes the expectation.  With E = a/(a+b) of the Beta
    shock it is the continuous mean; with the mean of the discretized masses
    it is the grid oracle the quantum estimate is judged against.
    """
    k = stress_combined_constant(coeffs, beta_lev)
    return k * (1.0 + mean_d) * (2.0 + mean_d)


def stress_rv_grid(params: StressTestParams, dist: DiscretizedDistribution) -> np.ndarray:
    """Loss values on the 2D product grid, register-1 index most significant."""
    coeffs = stress_coefficients(params)
    d1 = dist.grid[:, None]
    d2 = dist.grid[None, :]
    return stress_loss_rv(d1, d2, coeffs, params.beta_lev).reshape(-1)


def stress_qmc(params: StressTestParams, m: int, n: int,
               method: str = "auto") -> WorkloadEstimate:
    """Run the two-register estimation of the expected stress loss."""
    return estimate(stress_workload(params), m, n, method=method)


# ---------------------------------------------------------------------------
# Neoclassical investment model
# ---------------------------------------------------------------------------


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


# Benchmark residual constants: plausible mid-training values for the
# linear value-function fit; chosen jointly with the N(1, 0.02) shock.
BENCH_C1 = 30.0
BENCH_C2 = -29.0
BENCH_SIGMA = 0.02

# Benchmark shock grid, in standard deviations around the mean.  A grid
# symmetric about the mean puts the encoded expectation exactly on the
# degenerate half-turn phase (the estimator then reads it perfectly at every
# register size and no scaling law is visible), so the lower tail is extended
# past three sigma; 3.62 sigma keeps the grid effectively covering the shock
# (tail mass < 2e-4) while placing the phase in generic position.
BENCH_GRID_LO_SIGMAS = 3.62
BENCH_GRID_HI_SIGMAS = 3.0
# Discretization register size of the scaling benchmark.
BENCH_M = 7


def neoclassical_shock_grid(m: int, sigma: float = BENCH_SIGMA,
                            symmetric: bool = False) -> DiscretizedDistribution:
    """Discretized N(1, sigma) productivity shock on 2**m points.

    The default asymmetric span keeps the encoded phase away from the
    degenerate half-turn (see BENCH_GRID_LO_SIGMAS); ``symmetric=True``
    centers the grid on the mean, spanning [1 - 3 sigma, 1 + 3 sigma].
    """
    if symmetric:
        x_min, x_max = 1.0 - 3.0 * sigma, 1.0 + 3.0 * sigma
    else:
        x_min = 1.0 - BENCH_GRID_LO_SIGMAS * sigma
        x_max = 1.0 + BENCH_GRID_HI_SIGMAS * sigma
    return discretize_normal(m, 1.0, sigma, x_min, x_max)


def neoclassical_qmc(c1: float, c2: float, sigma: float, m: int, n: int,
                     r_mode: str = "exact", a_mode: str = "exact_prep",
                     ansatz=None) -> WorkloadEstimate:
    """Estimate E[C1 + C2 z'] over the discretized shock.  ``r_mode`` selects
    the exact rotation encoding or the rescaled linear cascade."""
    return estimate(neoclassical_workload(c1, c2, sigma), m, n, r_mode, a_mode,
                    ansatz)


# ---------------------------------------------------------------------------
# Classical Monte Carlo baseline
# ---------------------------------------------------------------------------


@dataclass
class MCRun:
    num_samples: int
    seed: int
    estimate: float
    abs_error: float
    wall_time: float


# Samples drawn and evaluated per step of a classical run: the draws and the
# temporaries of f for 2**13 samples stay in L2.
CLASSICAL_CHUNK = 1 << 13


def classical_mc(sampler, f, num_samples: int, seed: int,
                 oracle: float | None = None,
                 out: np.ndarray | None = None) -> MCRun:
    """Plain Monte Carlo mean of f over draws from ``sampler``.

    ``sampler(rng, size)`` returns draws, ``f`` maps them to values.  The
    values fill one float64 array ``CLASSICAL_CHUNK`` samples at a time, so
    the draws and f's temporaries never span the whole run; the estimate is
    the array's mean, bit-identical to ``f(sampler(rng, N)).mean()``.  That
    array is the first ``num_samples`` entries of ``out`` when given, else
    a new one; its 8 bytes per sample are checked against the memory budget
    before anything is allocated.
    Runs on the calling thread and is deterministic for a given seed; wall
    time covers sampling and evaluation (the benchmark's time-per-sample
    primitive).
    """
    if num_samples < 1:
        raise ValueError(f"need at least one sample, got {num_samples}")
    check_memory(f"a classical run of {num_samples} samples", 8 * num_samples)
    if out is not None and out.shape[0] < num_samples:
        raise ValueError(f"out holds {out.shape[0]} values, need {num_samples}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    values = np.empty(num_samples) if out is None else out[:num_samples]
    for lo in range(0, num_samples, CLASSICAL_CHUNK):
        hi = min(lo + CLASSICAL_CHUNK, num_samples)
        values[lo:hi] = f(sampler(rng, hi - lo))
    estimate = float(values.mean())
    elapsed = time.perf_counter() - start
    err = abs(estimate - oracle) if oracle is not None else math.nan
    return MCRun(num_samples, seed, estimate, err, elapsed)


def simple_problem_sampler(rng, size):
    return rng.standard_normal(size)


def simple_problem_f(x):
    return np.sin(x) ** 2


SIMPLE_ANALYTIC_MEAN = math.sinh(1.0) / math.e


def neoclassical_single_draw(rng) -> float:
    """One scalar draw of the benchmark residual, for loop-timing."""
    return BENCH_C1 + BENCH_C2 * (1.0 + BENCH_SIGMA * rng.standard_normal())


# ---------------------------------------------------------------------------
# Workload registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One expectation problem with its oracles and classical baseline.

    ``shock(m)`` discretizes the shock of each of the ``dims`` registers on
    2**m points; ``values(dist)`` is the variable on the ``dims``-fold
    product grid (register 1 index most significant) and ``grid_mean(dist)``
    its exact mean there.  ``mean`` is the expectation under the continuous
    shock, which the classical estimate of ``f(sampler(rng, size))`` targets.
    ``classical_mc`` draws in chunks, so ``f`` must be elementwise and the
    sampler's stream must not depend on how the size is split: two calls of
    sizes a and b give the draws of one call of size a + b.
    """

    dims: int
    m: int                                    # default register size
    shock: Callable[[int], DiscretizedDistribution]
    values: Callable[[DiscretizedDistribution], np.ndarray]
    grid_mean: Callable[[DiscretizedDistribution], float]
    mean: float
    sampler: Callable                         # (rng, size) -> draws
    f: Callable                               # draws -> variable values
    # Which mean the error sweeps score against.  The stress sweep keeps the
    # discretization bias in its error, so the error levels off at the grid
    # bias once the readout resolves it (the Fig. 7 plateau); the other
    # sweeps show the estimator's own scaling against the grid mean.
    sweep_against_continuous: bool = False


def simple_workload() -> Workload:
    """E[sin^2 x] for a standard normal x, gridded over [-pi, pi]."""
    return Workload(
        dims=1, m=5,
        shock=lambda m: discretize_normal(m, 0.0, 1.0, -math.pi, math.pi),
        values=lambda dist: simple_problem_f(dist.grid),
        grid_mean=lambda dist: float(np.dot(dist.masses, simple_problem_f(dist.grid))),
        mean=SIMPLE_ANALYTIC_MEAN,
        sampler=simple_problem_sampler, f=simple_problem_f)


def stress_workload(params: StressTestParams) -> Workload:
    """Expected two-period system-wide loss fraction of the scenario."""
    coeffs = stress_coefficients(params)
    beta, a, b = params.beta_lev, params.shock_a, params.shock_b
    return Workload(
        dims=2, m=5, shock=params.shock_distribution,
        values=lambda dist: stress_rv_grid(params, dist),
        grid_mean=lambda dist: stress_theoretical_mean(coeffs, beta, dist.mean()),
        mean=stress_theoretical_mean(coeffs, beta, a / (a + b)),
        sampler=lambda rng, size: rng.beta(a, b, size=(size, 2)),
        f=lambda d: stress_loss_rv(d[:, 0], d[:, 1], coeffs, beta),
        sweep_against_continuous=True)


def neoclassical_workload(c1: float = BENCH_C1, c2: float = BENCH_C2,
                          sigma: float = BENCH_SIGMA,
                          symmetric: bool = False) -> Workload:
    """Expected linearized Bellman residual C1 + C2 z' over z' ~ N(1, sigma)."""
    return Workload(
        dims=1, m=BENCH_M,
        shock=lambda m: neoclassical_shock_grid(m, sigma, symmetric=symmetric),
        values=lambda dist: c1 + c2 * dist.grid,
        grid_mean=lambda dist: c1 + c2 * dist.mean(),
        mean=c1 + c2 * 1.0,
        sampler=lambda rng, size: 1.0 + sigma * rng.standard_normal(size),
        f=lambda z: c1 + c2 * z)


APPS = ("simple", "stress", "neoclassical")


def workload(app: str, scenario: StressTestParams | None = None) -> Workload:
    """The registry: the workload behind each app name.

    The stress test runs ``scenario``, ``DEFAULT_STRESS`` when None.
    """
    if app == "simple":
        return simple_workload()
    if app == "stress":
        return stress_workload(DEFAULT_STRESS if scenario is None else scenario)
    if app == "neoclassical":
        return neoclassical_workload()
    raise ValueError(f"unknown app {app!r}")


@dataclass
class WorkloadEstimate:
    """A quantum estimate with the workload's grid and continuous means."""

    estimate: PhaseEstimate
    mu_grid_oracle: float
    mu_continuous: float

    @property
    def abs_error_grid(self) -> float:
        return abs(self.estimate.mu - self.mu_grid_oracle)

    @property
    def fractional_error(self) -> float:
        return abs(self.estimate.mu - self.mu_continuous) / self.mu_continuous


def estimate(workload: Workload, m: int, n: int, r_mode: str = "exact",
             a_mode: str = "exact_prep", ansatz=None,
             method: str = "auto") -> WorkloadEstimate:
    """Amplitude-estimate the workload's mean: m qubits per register, n
    estimation qubits.  ``a_mode="trained_ansatz"`` prepares every register
    with ``ansatz``."""
    # the config checks its memory before the 2**(dims m) grid is built
    config = QMCConfig(dims=workload.dims, m=m, n=n, r_mode=r_mode,
                       a_mode=a_mode, method=method)
    dist = workload.shock(m)
    rv = normalize_rv(workload.values(dist))
    est = run_qmc(config, [dist] * workload.dims, rv, ansatz=ansatz)
    return WorkloadEstimate(est, workload.grid_mean(dist), workload.mean)


# ---------------------------------------------------------------------------
# Scenario configuration files
# ---------------------------------------------------------------------------

def load_stress_config(path) -> StressTestParams:
    """Read a stress scenario from an INI file with [bank1]/[bank2]/[system]."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read scenario file {path}")
    banks = []
    for section in ("bank1", "bank2"):
        if section not in parser:
            raise ValueError(f"scenario file misses [{section}]")
        sec = parser[section]
        values = {}
        for key in (f.name for f in fields(BankBalanceSheet)):
            if key not in sec:
                raise ValueError(f"[{section}] misses key {key!r}")
            values[key] = sec.getfloat(key)
        banks.append(BankBalanceSheet(**values))
    if "system" not in parser:
        raise ValueError("scenario file misses [system]")
    sys_sec = parser["system"]
    # a shock shape the file leaves out keeps StressTestParams' default
    shock = {name: sys_sec.getfloat(key)
             for name, key in (("shock_a", "shock_beta_a"),
                               ("shock_b", "shock_beta_b"))
             if key in sys_sec}
    return StressTestParams(
        banks=(banks[0], banks[1]),
        alpha_price=sys_sec.getfloat("price_sensitivity"),
        beta_lev=sys_sec.getfloat("leverage_ratio"),
        d0_m=sys_sec.getfloat("benchmark_mortgage_loss"),
        d0_b=sys_sec.getfloat("benchmark_business_loss"),
        **shock,
    )

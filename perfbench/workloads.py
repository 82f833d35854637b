"""The benchmark's parts and workloads: inputs, one timed pass, and checks.

A part is one of the four workloads the benchmark was specified with; a
workload, as the benchmark command names it, is a pass over two parts (see
``WORKLOADS``).  Each part calls qmcecon's public API through module
attributes only (``econ.stress_qmc``, never a name imported from a layer),
so a traced run that rebinds those attributes sees every call.  Importing
this module imports every qmcecon module, ``cli`` included: that import is
part of set-up.

A *result* is one checked output of a pass: an estimate, a table row, a sweep
point, a fitted slope, a training run.  It fails if the call that produced it
raised or if it misses its reference.  References hold for any workload seed:
the quantum inputs are fixed by the paper's calibration, and the seed only
feeds the classical Monte Carlo seeds and the ansatz initialisation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qmcecon import bench, circuits, cli, distributions, econ, engine, sim  # noqa: F401

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

LAYERS = {"sim": sim, "circuits": circuits, "distributions": distributions,
          "engine": engine, "econ": econ, "bench": bench}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Failure:
    """Stands in for the output of a call that raised."""

    error: str


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is counted, not fatal
        return Failure(f"{type(exc).__name__}: {exc}")


def verdict(name: str, output, conditions: Callable[[], dict[str, bool]],
            detail: Callable[[], str] = lambda: "") -> Check:
    if isinstance(output, Failure):
        return Check(name, False, output.error)
    try:
        failed = [label for label, ok in conditions().items() if not ok]
        text = detail()
    except Exception as exc:  # malformed output: a miss, not a crash
        return Check(name, False, f"unreadable output: {type(exc).__name__}: {exc}")
    return Check(name, not failed, ("missed " + ", ".join(failed) + "; " if failed
                                    else "") + text)


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def readout_tolerance(n: int) -> float:
    """Bound on |mu_norm - p1| from the phase readout.

    The checks require |theta_hat - theta| <= 2**-n, and
    |d mu / d theta| = (pi/2) sin(pi theta) <= pi/2.
    """
    return math.pi / 2 ** (n + 1)


def linear_ramp(m: int, n: int) -> tuple[float, float, float]:
    """(c_s, a, b) of the decreasing linear encoding at oracle budget 2**n.

    The neoclassical residual C1 + C2 z' has C2 < 0, so it decreases along
    the grid and the ramp is mirrored: a < 0, b = +c_s.
    """
    c_s = (3.0 * math.pi / 2**n) ** (1.0 / 3.0)
    return c_s, -2.0 * c_s / (2**m - 1), c_s


def linear_p1(masses: np.ndarray, n: int) -> float:
    """P(ancilla = 1) = sum_i p(i) sin^2(pi/4 + b + a i)."""
    _, a, b = linear_ramp(int(math.log2(masses.size)), n)
    return float(masses @ np.sin(math.pi / 4 + b + a * np.arange(masses.size)) ** 2)


def linear_mu_tolerance(m: int, n: int, value_range: float) -> float:
    """Readout plus linearisation bound on |mu - E[value]| for the linear
    encoding: |sin(2x)/2 - x| <= (2/3)|x|^3 <= (2/3) c_s^3 = 2 pi / 2**n for
    |x| <= c_s, and one unit of encoded mean spans value_range / (2 c_s)."""
    c_s, _, _ = linear_ramp(m, n)
    return (readout_tolerance(n) + 2 * math.pi / 2**n) * value_range / (2 * c_s)


def phase_of(p1: float) -> float:
    return math.acos(1.0 - 2.0 * p1) / math.pi


def beta_grid_mean(m: int, a: float, b: float) -> float:
    """Mean loss rate on the 2**m-point Beta(a, b) grid, from the
    unnormalised density x**(a-1) (1-x)**(b-1)."""
    x = np.linspace(0.0, 1.0, 1 << m)
    w = x ** (a - 1) * (1 - x) ** (b - 1)
    return float(w @ x / w.sum())


def shock_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The neoclassical benchmark shock grid and its normal point masses."""
    sigma = econ.BENCH_SIGMA
    x = np.linspace(1.0 - econ.BENCH_GRID_LO_SIGMAS * sigma,
                    1.0 + econ.BENCH_GRID_HI_SIGMAS * sigma, 1 << m)
    w = np.exp(-0.5 * ((x - 1.0) / sigma) ** 2)
    return x, w / w.sum()


def residual(x):
    return econ.BENCH_C1 + econ.BENCH_C2 * x


# ---------------------------------------------------------------------------
# stress-estimate
# ---------------------------------------------------------------------------

# (m, n) per register pair.  m >= 7 is left out on purpose: the dense F of
# 2*7+1 qubits needs 16 GiB and nothing checks that before allocating.
STRESS_SIZES = {"full": [(4, 10), (5, 10), (5, 20)], "tiny": [(2, 4)]}
CROSS_CHECK = (2, 4)


def check_stress(params, m: int, n: int, res) -> Check:
    """p1 against the normalised grid mean, theta_hat against the seed value,
    mu against the grid oracle within the readout resolution.

    The loss K (1 + d1)(2 + d2) spans [2K, 6K] on the grid, so the normalised
    grid mean is ((1 + E)(2 + E) - 2) / 4 with E the grid mean loss rate.
    """
    mean_d = beta_grid_mean(m, params.shock_a, params.shock_b)
    growth = (1 + mean_d) * (2 + mean_d)
    k = econ.stress_combined_constant(econ.stress_coefficients(params), params.beta_lev)
    est = res.estimate if not isinstance(res, Failure) else None
    return verdict(
        f"stress m={m} n={n}", res,
        lambda: {
            "p1": abs(est.p1 - (growth - 2) / 4) <= 1e-10,
            "theta_hat": est.theta_hat == REFERENCE["stress_theta_hat"][f"{m},{n}"],
            "grid oracle": abs(res.mu_grid_oracle - k * growth) <= 1e-12 * k * growth,
            "mu": abs(est.mu - k * growth) <= readout_tolerance(n) * 4 * k,
        },
        lambda: f"theta_hat={est.theta_hat!r} p1={est.p1:.15f} mu={est.mu:.8f}",
    )


def stress_setup(seed: int, size: str) -> dict:
    return {"params": econ.DEFAULT_STRESS, "sizes": STRESS_SIZES[size]}


def stress_run(inputs: dict) -> dict:
    return {(m, n): attempt(econ.stress_qmc, inputs["params"], m, n, method="auto")
            for m, n in inputs["sizes"]}


def stress_check(inputs: dict, outputs: dict) -> list[Check]:
    return [check_stress(inputs["params"], m, n, res) for (m, n), res in outputs.items()]


def stress_once(inputs: dict) -> list[Check]:
    """`auto` must reproduce the gate-by-gate circuit simulation."""
    m, n = CROSS_CHECK
    auto = attempt(econ.stress_qmc, inputs["params"], m, n, method="auto")
    ref = attempt(econ.stress_qmc, inputs["params"], m, n, method="circuit")
    if isinstance(ref, Failure):
        return [Check("auto vs circuit", False, "circuit reference: " + ref.error)]
    gap = lambda: float(np.max(np.abs(auto.estimate.distribution
                                      - ref.estimate.distribution)))
    return [verdict(f"auto vs circuit m={m} n={n}", auto,
                    lambda: {"distribution": gap() <= 1e-10,
                             "p1": abs(auto.estimate.p1 - ref.estimate.p1) <= 1e-10},
                    lambda: f"max |auto - circuit| = {gap():.1e}")]


# ---------------------------------------------------------------------------
# resource-table
# ---------------------------------------------------------------------------

RESOURCE_N = {"full": range(3, 11), "tiny": range(3, 5)}
RESOURCE_KEYS = ("total_gates", "rx", "ry", "rz", "cnot", "depth", "num_qubits")


def resource_setup(seed: int, size: str) -> dict:
    return {"n_values": RESOURCE_N[size]}


def resource_run(inputs: dict) -> dict:
    return {"rows": attempt(bench.resource_rows, 5, inputs["n_values"], layers=10)}


def resource_check(inputs: dict, outputs: dict) -> list[Check]:
    rows = outputs["rows"]
    checks = []
    for i, n in enumerate(inputs["n_values"]):
        ref = REFERENCE["resource_rows"][str(n)]
        checks.append(verdict(
            f"resources n={n}", rows,
            lambda: {key: rows[i][key] == ref[key] for key in RESOURCE_KEYS},
            lambda: f"total_gates={rows[i]['total_gates']} depth={rows[i]['depth']}"))
    return checks


# ---------------------------------------------------------------------------
# neoclassical-scaling
# ---------------------------------------------------------------------------

NEO_N = {"full": range(4, 13), "tiny": range(4, 7)}
CLASSICAL_N = [10**k for k in range(2, 7)]
CLASSICAL_REPEATS = 50
# Acceptance criterion 5 bands on the log-log slopes.
SLOPE_BANDS = {"qmc_exact": (-1.1, -0.9), "qmc_linear": (-0.77, -0.57),
               "classical": (-0.55, -0.45)}
# The mean of 50 absolute errors of a normal sample mean is
# sqrt(2/pi) sigma/sqrt(N) = 0.80 sigma/sqrt(N), with a standard deviation of
# sqrt(1 - 2/pi)/sqrt(50) = 0.085 in the same unit: this band is more than
# 4.5 standard deviations wide on each side.
CLASSICAL_ERROR_BAND = (0.4, 1.25)


def neo_setup(seed: int, size: str) -> dict:
    n_values = list(NEO_N[size])
    return {
        "seed": seed,
        "quantum": [bench.SweepSpec("neoclassical", est, n_values)
                    for est in ("qmc_exact", "qmc_linear")],
        "classical": bench.SweepSpec("neoclassical", "classical", CLASSICAL_N,
                                     repeats=CLASSICAL_REPEATS, seed=seed),
        # the quantum slopes are only meaningful over the paper's full range
        "slopes": list(SLOPE_BANDS) if size == "full" else ["classical"],
    }


def neo_run(inputs: dict) -> dict:
    out = {spec.estimator: attempt(bench.error_sweep, spec) for spec in inputs["quantum"]}
    out["classical"] = attempt(bench.error_sweep, inputs["classical"])
    for est in inputs["slopes"]:
        rows = out[est]
        out["fit " + est] = rows if isinstance(rows, Failure) else attempt(
            bench.loglog_fit, [(r["N"], r["error"]) for r in rows])
    out["tau"] = attempt(bench.time_per_sample, seed=inputs["seed"])
    return out


def neo_check(inputs: dict, outputs: dict) -> list[Check]:
    checks = []
    m = econ.BENCH_M
    x, _ = shock_grid(m)
    value_range = abs(econ.BENCH_C2) * (x[-1] - x[0])
    for spec in inputs["quantum"]:
        rows, est = outputs[spec.estimator], spec.estimator
        for i, n in enumerate(spec.range):
            tol = (readout_tolerance(n) * value_range if est == "qmc_exact"
                   else linear_mu_tolerance(m, n, value_range))
            ref = REFERENCE["neoclassical_error"][est][str(n)]
            checks.append(verdict(
                f"{est} n={n}", rows,
                lambda: {"N": rows[i]["N"] == 2**n - 1,
                         "seed value": abs(rows[i]["error"] - ref) <= 1e-12,
                         "resolution": rows[i]["error"] <= tol},
                lambda: f"error={rows[i]['error']:.6e} (bound {tol:.3e})"))
    rows = outputs["classical"]
    sigma_f = abs(econ.BENCH_C2) * econ.BENCH_SIGMA
    lo, hi = CLASSICAL_ERROR_BAND
    for i, n_samples in enumerate(CLASSICAL_N):
        scaled = lambda: rows[i]["error"] * math.sqrt(n_samples) / sigma_f
        checks.append(verdict(
            f"classical N={n_samples}", rows,
            lambda: {f"error in [{lo}, {hi}] sigma/sqrt(N)": lo <= scaled() <= hi},
            lambda: f"error={rows[i]['error']:.4e} = {scaled():.3f} sigma/sqrt(N)"))
    for est in inputs["slopes"]:
        fit = outputs["fit " + est]
        lo, hi = SLOPE_BANDS[est]
        checks.append(verdict(f"slope {est}", fit,
                              lambda: {f"in [{lo}, {hi}]": lo <= fit.slope <= hi},
                              lambda: f"slope={fit.slope:.4f}"))
    tau = outputs["tau"]
    checks.append(verdict("time_per_sample", tau,
                          lambda: {"positive": math.isfinite(tau) and tau > 0},
                          lambda: f"tau={tau * 1e9:.1f} ns"))
    return checks


def neo_once(inputs: dict) -> list[Check]:
    """p1 of both encodings against the grid references, at the smallest n."""
    m, n = econ.BENCH_M, 4
    x, p = shock_grid(m)
    v = residual(x)
    refs = {"exact": float(p @ ((v - v.min()) / (v.max() - v.min()))),
            "linear": linear_p1(p, n)}
    checks = []
    for mode, p1_ref in refs.items():
        res = attempt(econ.neoclassical_qmc, econ.BENCH_C1, econ.BENCH_C2,
                      econ.BENCH_SIGMA, m, n, r_mode=mode)
        est = None if isinstance(res, Failure) else res.estimate
        checks.append(verdict(
            f"neoclassical p1 {mode} m={m} n={n}", res,
            lambda: {"p1": abs(est.p1 - p1_ref) <= 1e-10,
                     "theta_hat": est.theta_hat
                     == REFERENCE["neoclassical_theta_hat"][f"{mode},{m},{n}"]},
            lambda: f"p1={est.p1:.15f} theta_hat={est.theta_hat!r}"))
    return checks


# ---------------------------------------------------------------------------
# ansatz-train
# ---------------------------------------------------------------------------

ANSATZ_EPOCHS = {"full": 400, "tiny": 20}
ANSATZ_LR = 0.01
ANSATZ_M, ANSATZ_LAYERS, TRAINED_N = 5, 10, 8
# Training is deterministic for a seed, so seeds in the reference table must
# reproduce the seed code's final cost.  A relative 1e-6 admits rounding
# differences (1e-16 per step from a change of summation order or BLAS kernel
# would have to grow ten-billion-fold over 400 steps to reach it) but not a
# change in what is trained.  Other seeds must at least halve the cost: on
# seeds 0-15 the seed code cut it to 5-30 % of its initial value.
TRAINING_RTOL = 1e-6
TRAINING_MAX_SHARE = 0.5


def ansatz_setup(seed: int, size: str) -> dict:
    epochs = ANSATZ_EPOCHS[size]
    return {
        "target": distributions.discretize_normal(ANSATZ_M, 1.0, econ.BENCH_SIGMA,
                                                  0.94, 1.06),
        "schedule": distributions.TrainingSchedule([(epochs, ANSATZ_LR)], seed=seed),
        "epochs": epochs,
        "seed": seed,
    }


def ansatz_run(inputs: dict) -> dict:
    trained = attempt(distributions.train_ansatz, inputs["target"], ANSATZ_LAYERS,
                      inputs["schedule"])
    run = trained if isinstance(trained, Failure) else attempt(
        econ.neoclassical_qmc, econ.BENCH_C1, econ.BENCH_C2, econ.BENCH_SIGMA,
        ANSATZ_M, TRAINED_N, r_mode="linear", a_mode="trained_ansatz",
        ansatz=trained[0])
    return {"trained": trained, "run": run}


def ansatz_check(inputs: dict, outputs: dict) -> list[Check]:
    trained, run = outputs["trained"], outputs["run"]
    table = REFERENCE["training_final_cost"].get(str(inputs["epochs"]), {})
    ref = table.get(str(inputs["seed"]))

    def training_conditions():
        cost = trained[1]
        out = {"epochs": cost.size == inputs["epochs"], "decreases": cost[-1] < cost[0]}
        if ref is not None:
            out["seed value"] = abs(cost[-1] - ref) <= TRAINING_RTOL * ref
        elif inputs["epochs"] == ANSATZ_EPOCHS["full"]:
            out[f"final <= {TRAINING_MAX_SHARE} initial"] = (
                cost[-1] <= TRAINING_MAX_SHARE * cost[0])
        return out

    checks = [verdict("train_ansatz", trained, training_conditions,
                      lambda: f"cost {trained[1][0]:.4f} -> {trained[1][-1]:.6f}"
                      + ("" if ref is None else f" (seed code {ref:.6f})"))]

    def run_conditions():
        # The trained distribution comes from the gate-by-gate simulator.  Its
        # encoded phase sits near the half-turn (the target is symmetric), and
        # theta_side="left" reads it folded into [0, 1/2]: the reference for
        # theta_hat and mu is that folded readout of the reference p1.
        state = sim.dense_unitary(distributions.ansatz_circuit(trained[0]))[:, 0]
        q = np.abs(state) ** 2
        p1_ref = linear_p1(q, TRAINED_N)
        left = min(p1_ref, 1.0 - p1_ref)
        c_s, a, b = linear_ramp(ANSATZ_M, TRAINED_N)
        x, _ = shock_grid(ANSATZ_M)
        v = residual(x)
        mu_ref = v[0] + (left - 0.5 - b) / (a * (q.size - 1)) * (v[-1] - v[0])
        tol = readout_tolerance(TRAINED_N) * abs(v[-1] - v[0]) / (2 * c_s)
        est = run.estimate
        return {"p1": abs(est.p1 - p1_ref) <= 1e-10,
                "theta_hat": abs(est.theta_hat - phase_of(left)) <= 2.0**-TRAINED_N,
                "mu": abs(est.mu - mu_ref) <= tol}

    checks.append(verdict(f"trained neoclassical n={TRAINED_N}", run, run_conditions,
                          lambda: f"p1={run.estimate.p1:.12f} "
                                  f"theta_hat={run.estimate.theta_hat!r} "
                                  f"mu={run.estimate.mu:.6f}"))
    return checks


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass
class Part:
    why: str
    setup: Callable[[int, str], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[Check]]
    once: Callable[[dict], list[Check]] = lambda inputs: []


PARTS = {
    "stress-estimate": Part(
        "the headline two-bank estimate under auto: engine-bound, dense operator "
        "cache-sized at 9+10 qubits, not at 11+10, spectral at 11+20",
        stress_setup, stress_run, stress_check, stress_once),
    "neoclassical-scaling": Part(
        "Fig. 6 sweeps: 8-qubit system with up to 12 estimation qubits, plus the "
        "classical Monte Carlo baseline",
        neo_setup, neo_run, neo_check, neo_once),
    "resource-table": Part(
        "Fig. 8 gate counts and depth to n=10: circuits lowering and counting, "
        "no simulation",
        resource_setup, resource_run, resource_check),
    "ansatz-train": Part(
        "Fig. 11 ansatz training, then one trained-ansatz estimate: "
        "distributions-bound",
        ansatz_setup, ansatz_run, ansatz_check),
}

# The benchmark's workloads, each a pass over two parts in this order.  On a
# 2-vCPU host whose speed swings by about 1.5x in phases of 3-20 s, a time is
# only steady when measured over about a minute; the run budget allows that
# for two workloads, not four.  The pairs keep the engine-bound parts apart
# from the parts that bypass the engine.  The part with the smaller memory
# high-water mark runs first, so the peak RSS after each part is its own.
WORKLOADS = {
    "estimates": ("neoclassical-scaling", "stress-estimate"),
    "circuits-training": ("ansatz-train", "resource-table"),
}

"""Command-line front door for runs, sweeps, resources, and benchmarks.

Exit codes: 0 success, 1 argument/usage errors, 2 a request over the memory
budget.
CSV is the primary output format; ``--format json`` serializes the same rows
losslessly.  Wall-time columns are tagged non-deterministic in the header
comment; everything else is byte-identical across runs at a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, econ
from .distributions import (
    APPENDIX_SCHEDULE,
    TrainingSchedule,
    discretize_normal,
    load_ansatz,
    save_ansatz,
    train_ansatz,
    ansatz_probs,
)
from .sim import ResourceLimitError, check_memory

NONDETERMINISTIC_COLUMNS = ("wall_time_s",)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_rows(rows: list[dict], out: str | None, fmt: str) -> None:
    if not rows:
        return
    header = list(rows[0].keys())
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        tagged = [c for c in header if c in NONDETERMINISTIC_COLUMNS]
        if tagged:
            buf.write(f"# nondeterministic-columns: {','.join(tagged)}\n")
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_stages(text: str) -> list[tuple[int, float]]:
    stages = []
    for part in text.split(","):
        epochs, _, lr = part.partition(":")
        stages.append((int(epochs), float(lr)))
    return stages


def _positive_seconds(text: str) -> float:
    """argparse type: a finite number of seconds above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _check_shock_grid(m: int) -> None:
    # the grid of 2**m points with its masses and temporaries: 33 B per point
    # traced for a normal grid, 41 B for the stress oracle
    check_memory(f"a shock grid of 2**{m} points", 48 * 2**m)


def _stress_params(args) -> econ.StressTestParams:
    if getattr(args, "config", None):
        return econ.load_stress_config(args.config)
    return econ.DEFAULT_STRESS


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_train_a(args) -> int:
    _check_shock_grid(args.m)
    target = discretize_normal(args.m, args.mean, args.sigma, args.x_min, args.x_max)
    schedule = TrainingSchedule(_parse_stages(args.stages), seed=args.seed)
    ansatz, trace = train_ansatz(target, args.layers, schedule)
    final_cost = float(trace[-1])
    save_ansatz(args.params_out, ansatz, args.seed, final_cost)
    print(f"trained m={args.m} layers={args.layers} epochs={trace.size} "
          f"final_cost={final_cost:.6e} -> {args.params_out}")
    if args.out:
        rows = [{"epoch": i, "cost": float(c)} for i, c in enumerate(trace)]
        _write_rows(rows, args.out, args.format)
    return 0


def _cmd_run(args) -> int:
    ansatz = None
    if args.a_mode == "trained_ansatz":
        if not args.params:
            raise ValueError("trained_ansatz mode needs --params FILE")
        ansatz, _ = load_ansatz(args.params)
    elif args.params:
        raise ValueError("--params needs --a-mode trained_ansatz")
    workload = econ.workload(args.app, _stress_params(args))
    m = workload.m if args.m is None else args.m
    if ansatz is not None and ansatz.m != m:
        raise ValueError(f"{args.params} has m={ansatz.m}, but --m is {m}")
    if args.distribution_out:
        # a dict per outcome and the text: up to 843 B each traced (JSON)
        check_memory(f"--distribution-out of {args.n} estimation qubits",
                     1024 * (1 << args.n))
    result = econ.estimate(workload, m, args.n, r_mode=args.r_mode,
                           a_mode=args.a_mode, ansatz=ansatz, method=args.method)
    est, abs_error = result.estimate, result.abs_error_grid
    print(f"app={args.app} m={m} n={args.n} N_oracle={est.oracle_calls}")
    print(f"theta_hat={est.theta_hat:.6f} mu_normalized={est.mu_normalized:.6f}")
    print(f"mu={est.mu:.6g} oracle={result.mu_grid_oracle:.6g} "
          f"abs_error={abs_error:.3e}")
    rows = [{"app": args.app, "m": m, "n": args.n,
             "N_oracle": est.oracle_calls, "theta_hat": est.theta_hat,
             "mu_normalized": est.mu_normalized, "mu": est.mu,
             "abs_error": abs_error}]
    if args.out:
        _write_rows(rows, args.out, args.format)
    if args.distribution_out:
        dist_rows = [{"theta": i / est.distribution.size, "probability": float(p)}
                     for i, p in enumerate(est.distribution)]
        _write_rows(dist_rows, args.distribution_out, args.format)
    return 0


def _cmd_sweep(args) -> int:
    if args.estimator == "classical":
        if not args.n_samples:
            raise ValueError("classical sweeps need --n-samples LIST")
        rng_points = [int(x) for x in args.n_samples.split(",")]
    else:
        rng_points = list(range(args.n_min, args.n_max + 1))
    spec = bench.SweepSpec(app=args.app, estimator=args.estimator,
                           range=rng_points, repeats=args.repeats,
                           seed=args.seed, m=args.m,
                           scenario=_stress_params(args))
    rows = bench.error_sweep(spec)
    _write_rows(rows, args.out, args.format)
    return 0


def _cmd_resources(args) -> int:
    rows = bench.resource_rows(args.m, range(args.n_min, args.n_max + 1),
                               layers=args.layers)
    _write_rows(rows, args.out, args.format)
    if args.gate_time is not None:
        for row in rows:
            print(f"n={row['n']}: depth={row['depth']} "
                  f"runtime={row['depth'] * args.gate_time:.3e} s")
    return 0


def _cmd_oracle(args) -> int:
    params = _stress_params(args)
    workload = econ.workload(args.app, params)
    m = workload.m if args.m is None else args.m
    _check_shock_grid(m)
    cont, grid = workload.mean, workload.grid_mean(workload.shock(m))
    if args.app == "stress":
        coeffs = econ.stress_coefficients(params)
        print(f"gamma0={coeffs.gamma0:.4f} gamma1={coeffs.gamma1:.4f} "
              f"combined={econ.stress_combined_constant(coeffs, params.beta_lev):.4f}")
        print(f"continuous loss fraction: {cont:.6f} ({cont:.3%})")
        print(f"m={m} grid loss fraction: {grid:.6f} ({grid:.3%})")
    else:
        print(f"analytic mean: {cont:.6f}")
        print(f"m={m} grid mean: {grid:.6f}")
    return 0


# ---------------------------------------------------------------------------
# bench: figure-by-figure plot data
# ---------------------------------------------------------------------------


def _bench_fig3(args, out_dir):
    est = econ.estimate(econ.simple_workload(), 5, 6).estimate
    rows = [{"theta": i / est.distribution.size, "probability": float(p)}
            for i, p in enumerate(est.distribution)]
    _write_rows(rows, str(out_dir / "fig3_phase_distribution.csv"), args.format)


def _bench_fig6(args, out_dir):
    rows = []
    for estimator in ("qmc_exact", "qmc_linear"):
        spec = bench.SweepSpec("neoclassical", estimator, list(range(4, 13)),
                               seed=args.seed)
        rows.extend(bench.error_sweep(spec))
    spec = bench.SweepSpec("neoclassical", "classical",
                           [10**k for k in range(2, 7)], repeats=50,
                           seed=args.seed)
    rows.extend(bench.error_sweep(spec))
    _write_rows(rows, str(out_dir / "fig6_neoclassical_scaling.csv"), args.format)
    return rows


def _bench_fig7(args, out_dir):
    workload = econ.stress_workload(_stress_params(args))
    rows = []
    for n in range(2, 23):
        res = econ.estimate(workload, 5, n)
        rows.append({"n": n, "N": 2**n - 1,
                     "fractional_error": res.fractional_error,
                     "grid_abs_error": res.abs_error_grid,
                     "discretization_bias": abs(res.mu_grid_oracle - res.mu_continuous)
                     / res.mu_continuous})
    _write_rows(rows, str(out_dir / "fig7_stress_error.csv"), args.format)


def _bench_fig8(args, out_dir):
    rows = bench.resource_rows(5, range(3, 11))
    _write_rows(rows, str(out_dir / "fig8_resources.csv"), args.format)


def _bench_crossover(args, out_dir, measured_tau, fig6_rows=None,
                     hypothetical=False):
    if fig6_rows is None:
        fig6_rows = _bench_fig6(args, out_dir)
    linear = [(r["N"], r["error"]) for r in fig6_rows
              if r["estimator"] == "qmc_linear"]
    classical = [(r["N"], r["error"]) for r in fig6_rows
                 if r["estimator"] == "classical"]
    qfit = bench.loglog_fit(linear)
    cfit = bench.loglog_fit(classical)
    if hypothetical:
        qfit = replace(qfit, slope=-1.0)
    dfit = bench.depth_fit(bench.resource_rows(econ.BENCH_M, range(3, 11)))
    rows = bench.runtime_extrapolate(qfit, dfit, cfit,
                                     bench.REFERENCE_SECONDS_PER_SAMPLE)
    name = "fig10_crossover_ideal_slope.csv" if hypothetical else "fig9_crossover.csv"
    _write_rows(rows, str(out_dir / name), args.format)
    print(f"{name}: classical tau measured={measured_tau * 1e9:.0f} ns/sample, "
          f"crossovers use reference "
          f"tau={bench.REFERENCE_SECONDS_PER_SAMPLE * 1e9:.0f} ns/sample")
    return fig6_rows


def _bench_fig11(args, out_dir):
    target = econ.neoclassical_shock_grid(5, symmetric=True)
    schedule = replace(APPENDIX_SCHEDULE, seed=args.seed if args.seed else 1)
    ansatz, trace = train_ansatz(target, 10, schedule)
    probs = ansatz_probs(ansatz)
    rows = [{"x": float(x), "target_mass": float(t), "trained_mass": float(p)}
            for x, t, p in zip(target.grid, target.masses, probs)]
    _write_rows(rows, str(out_dir / "fig11_trained_distribution.csv"), args.format)
    save_ansatz(out_dir / "fig11_trained_params.txt", ansatz, schedule.seed,
                float(trace[-1]))


def _cmd_bench(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = (["fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"]
               if args.target == "all" else [args.target])
    fig6_rows = None
    # host information only: the crossovers use the reference tau
    measured_tau = (bench.time_per_sample(seed=args.seed)
                    if {"fig9", "fig10"} & set(targets) else None)
    for target in targets:
        if target == "fig3":
            _bench_fig3(args, out_dir)
        elif target == "fig6":
            fig6_rows = _bench_fig6(args, out_dir)
        elif target == "fig7":
            _bench_fig7(args, out_dir)
        elif target == "fig8":
            _bench_fig8(args, out_dir)
        elif target == "fig9":
            fig6_rows = _bench_crossover(args, out_dir, measured_tau, fig6_rows)
        elif target == "fig10":
            fig6_rows = _bench_crossover(args, out_dir, measured_tau, fig6_rows,
                                         hypothetical=True)
        elif target == "fig11":
            _bench_fig11(args, out_dir)
        print(f"bench {target}: done")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qmcecon",
                     description="Amplitude-estimation Monte Carlo engine "
                                 "and benchmarks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="stress scenario INI file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-a", help="train the state-preparation ansatz")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--layers", type=_positive_int, default=10)
    p.add_argument("--mean", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=econ.BENCH_SIGMA)
    p.add_argument("--x-min", type=float, default=1.0 - 3.0 * econ.BENCH_SIGMA)
    p.add_argument("--x-max", type=float, default=1.0 + 3.0 * econ.BENCH_SIGMA)
    p.add_argument("--stages", default=",".join(
        f"{epochs}:{lr}" for epochs, lr in APPENDIX_SCHEDULE.stages))
    p.add_argument("--params-out", default="trained_params.txt")
    p.set_defaults(func=_cmd_train_a)

    p = sub.add_parser("run", help="single estimation run")
    p.add_argument("app", choices=econ.APPS)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--r-mode", choices=("exact", "linear"), default="exact")
    p.add_argument("--a-mode", choices=("exact_prep", "trained_ansatz"),
                   default="exact_prep")
    p.add_argument("--params", help="trained parameter file")
    p.add_argument("--method", default="auto", choices=("auto", "circuit"),
                   help="auto: spectral readout of F's encoded probability; "
                        "circuit: gate-by-gate phase-estimation reference")
    p.add_argument("--distribution-out",
                   help="sidecar file for the full outcome distribution")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="error-vs-N sweep")
    p.add_argument("--app", required=True, choices=econ.APPS)
    p.add_argument("--estimator", required=True,
                   choices=("qmc_exact", "qmc_linear", "classical"))
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--n-samples", help="comma list of classical sample counts")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("resources", help="decomposed gate counts and depth")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--layers", type=_positive_int, default=10)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--gate-time", type=_positive_seconds, default=None,
                   help="seconds per gate: also print runtimes")
    p.set_defaults(func=_cmd_resources)

    p = sub.add_parser("oracle", help="print reference values")
    p.add_argument("app", choices=econ.APPS)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="emit plot data for the report figures")
    p.add_argument("target", choices=("fig3", "fig6", "fig7", "fig8", "fig9",
                                      "fig10", "fig11", "all"))
    p.add_argument("--out-dir", default="bench_out")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Write the deterministic outputs of a fixed list of qmcecon CLI commands.

Usage: PYTHONPATH=<tree>/src python tools/cli_outputs.py OUT_DIR

Each command runs through ``qmcecon.cli.main`` in OUT_DIR with ``--out
<name>.csv``.  Its exit code and stdout (not bench's, which has the host's
seconds per sample) go to ``<name>.txt``, and its stderr, where a refusal or
an argument error is printed, to ``<name>.err`` when it is not empty.  The
commands run with ``COLUMNS=80``, so argparse wraps its usage line alike on
every terminal; the variable is restored afterwards.
``cli.NONDETERMINISTIC_COLUMNS`` leave every CSV.  ``diff -r`` two trees'
directories to check byte identity.

The committed tree ``tests/golden/cli_outputs`` is this script's output, and
``tests/test_golden.py`` regenerates and compares it.  A change that moves an
output on purpose regenerates it in the same commit:

    rm -r tests/golden/cli_outputs
    PYTHONPATH=src python tools/cli_outputs.py tests/golden/cli_outputs
    python -c "import numpy; print(numpy.__version__)" > tests/golden/NUMPY_VERSION
"""

import contextlib
import csv
import io
import os
import sys
from pathlib import Path
from unittest import mock

from qmcecon import cli


def commands():
    yield "train", ["--seed", "1", "train-a", "--m", "5", "--layers", "2",
                    "--stages", "20:0.05", "--params-out", "trained.txt"]
    for app in ("simple", "stress", "neoclassical"):
        yield f"run_{app}", ["run", app]
        yield f"oracle_{app}", ["oracle", app]
        for est in ("qmc_exact", "qmc_linear"):
            yield f"sweep_{app}_{est}", ["sweep", "--app", app, "--estimator", est]
        yield f"sweep_{app}_classical", [
            "--seed", "3", "sweep", "--app", app, "--estimator", "classical",
            "--n-samples", "100,1000,10000", "--repeats", "3"]
    # chunk boundaries crossed, with repeats that do not divide among workers
    yield "sweep_neoclassical_classical_chunks", [
        "--seed", "3", "sweep", "--app", "neoclassical", "--estimator",
        "classical", "--n-samples", "20000,100000", "--repeats", "5"]
    yield "sweep_classical_zero_samples", [
        "sweep", "--app", "simple", "--estimator", "classical", "--n-samples",
        "0,100"]
    # 16 TB of per-repeat errors and wall times: refused before the first run
    yield "sweep_classical_repeats_over_memory", [
        "sweep", "--app", "simple", "--estimator", "classical", "--n-samples",
        "1", "--repeats", "1000000000000"]
    # a readout of 2**26 outcomes at the largest n: refused before n = 18 runs
    yield "sweep_qmc_over_memory", [
        "sweep", "--app", "simple", "--estimator", "qmc_exact", "--n-min", "18",
        "--n-max", "26"]
    # n up to 3e6 and 1e12: refused from the largest n's exponent, with the
    # range not listed and no 2**n built
    for name, n_max in (("3e6", "3000000"), ("1e12", "1000000000000")):
        yield f"sweep_range_to_{name}", [
            "sweep", "--app", "simple", "--estimator", "qmc_exact", "--n-min",
            "4", "--n-max", n_max]
    linear = ["run", "neoclassical", "--r-mode", "linear", "--m", "5", "--n", "8"]
    yield "run_linear", linear
    yield "run_linear_trained", [*linear, "--params", "trained.txt"]
    # a parameter file for m=5 on a register of 3 qubits
    yield "run_params_m_mismatch", ["run", "neoclassical", "--r-mode", "linear",
                                    "--m", "3", "--n", "8", "--params",
                                    "trained.txt"]
    # the reference path: the Grover operator and the inverse QFT simulated
    # gate by gate
    yield "run_stress_circuit", ["run", "stress", "--m", "3", "--n", "6",
                                 "--method", "circuit"]
    # the reference path with a long Grover operator, applied 2**n - 1 times
    # on F's wires
    yield "run_linear_trained_circuit", [
        "run", "neoclassical", "--r-mode", "linear", "--m", "5", "--n", "6",
        "--params", "trained.txt", "--method", "circuit"]
    # 30 qubits, five 16 GiB statevectors: refused before Q is built
    yield "run_stress_circuit_over_memory", ["run", "stress", "--m", "5", "--n",
                                             "19", "--method", "circuit"]
    yield "resources_m3_layers2", ["resources", "--m", "3", "--layers", "2",
                                   "--n-min", "3", "--n-max", "6"]
    # 31 wires and no statevector: counted
    yield "resources_m5_n21", ["resources", "--m", "5", "--n-min", "21",
                               "--n-max", "21"]
    # 36 wires: counting allocates no readout of 2**26 outcomes
    yield "resources_m5_n26", ["resources", "--m", "5", "--n-min", "26",
                               "--n-max", "26"]
    # 2.7e18 lowered gates, past the 2**61 that int64 depths hold: refused
    # once block 0 is lowered, before any depth is carried
    yield "resources_past_int64", ["resources", "--m", "5", "--n-min", "51",
                                   "--n-max", "51"]
    # 2**1000 - 1 controlled-Q blocks: refused before any is built
    yield "resources_m5_n1000", ["resources", "--m", "5", "--n-min", "1000",
                                 "--n-max", "1000"]
    # n = 62 past the int64 depths: refused before n = 40..61 are counted
    yield "resources_range_past_int64", ["resources", "--m", "5", "--n-min",
                                         "40", "--n-max", "62"]
    # n up to 1e12: refused from the last n, before the range is listed
    yield "resources_range_to_1e12", ["resources", "--m", "3", "--n-min", "3",
                                      "--n-max", "1000000000000"]
    # 9e9 ansatz angles and 4 TB of gates: refused before they are drawn
    yield "resources_huge_layers", ["resources", "--m", "3", "--layers",
                                    "1000000000", "--n-min", "3", "--n-max", "3"]
    yield "resources_layers_zero", ["resources", "--m", "3", "--layers", "0",
                                    "--n-min", "3", "--n-max", "3"]
    yield "resources_m5_n20", ["resources", "--m", "5", "--n-min", "20",
                               "--n-max", "20"]
    yield "resources_empty_range", ["resources", "--m", "3", "--layers", "2",
                                    "--n-min", "5", "--n-max", "3"]
    gate_time = ["resources", "--m", "3", "--layers", "2", "--n-min", "3",
                 "--n-max", "4", "--gate-time"]
    yield "resources_gate_time", [*gate_time, "1e-8"]
    yield "resources_gate_time_zero", [*gate_time, "0"]
    yield "train_nan_rate", ["train-a", "--m", "3", "--layers", "1", "--stages",
                             "5:nan", "--params-out", "nan.txt"]
    # 65 stored states and 5 temporaries of 2**20 amplitudes: refused before
    # training starts.
    # Code without that check tries to allocate about 120 GiB here.
    yield "train_over_memory", ["train-a", "--m", "20", "--layers", "64",
                                "--stages", "1:0.1", "--params-out", "big.txt"]
    # A cost trace of 8 TB: refused before it is allocated.
    yield "train_many_epochs", ["train-a", "--m", "3", "--layers", "1", "--stages",
                                "1000000000000:0.1", "--params-out", "many.txt"]
    # 2**25 stress grid points at 48 B each: refused before the grid is built
    yield "oracle_stress_over_memory", ["oracle", "stress", "--m", "25"]
    yield "oracle_stress_m_negative", ["oracle", "stress", "--m", "-1"]
    # a shock grid of 2**1e9 points: refused from the exponent, before 2**m
    # is built, by the oracle, the table and training alike
    yield "oracle_simple_m1e9", ["oracle", "simple", "--m", "1000000000"]
    yield "resources_m1e9", ["resources", "--m", "1000000000"]
    yield "train_m1e9", ["train-a", "--m", "1000000000", "--params-out",
                         "huge.txt"]
    yield "run_simple_n0", ["run", "simple", "--n", "0"]
    # a 25-qubit F and a 26-qubit readout: refused before their grids
    yield "run_f_over_memory", ["run", "stress", "--m", "12"]
    yield "run_readout_over_memory", ["run", "simple", "--n", "26"]
    # a byte count of 6,000 digits: refused, and named as a power of two
    yield "run_readout_n20000", ["run", "simple", "--n", "20000"]
    # a readout and an F register of 1e9 qubits: refused from the exponent,
    # before an integer of 1e9 bits is built
    yield "run_readout_n1e9", ["run", "simple", "--n", "1000000000"]
    yield "run_f_m1e9", ["run", "simple", "--m", "1000000000"]
    # 2**21 outcome rows of about 1 KB each: refused before the estimate
    yield "run_distribution_over_memory", ["run", "simple", "--n", "21",
                                           "--distribution-out", "dist.csv"]
    yield "bench", ["bench", "all", "--out-dir", "bench"]


def drop_nondeterministic(path: Path) -> None:
    rows = list(csv.reader(x for x in path.read_text().splitlines() if x[:1] != "#"))
    keep = [i for i, col in enumerate(rows[0]) if col not in cli.NONDETERMINISTIC_COLUMNS]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([row[i] for i in keep] for row in rows)


def run(name: str, argv: list[str]) -> None:
    with (contextlib.redirect_stdout(io.StringIO()) as stdout,
          contextlib.redirect_stderr(io.StringIO()) as stderr):
        try:
            code = cli.main(["--out", f"{name}.csv", *argv])
        except SystemExit as exc:   # argparse rejected an argument
            code = exc.code
    Path(f"{name}.txt").write_text(
        f"exit {code}\n" + ("" if name == "bench" else stdout.getvalue()))
    if stderr.getvalue():
        Path(f"{name}.err").write_text(stderr.getvalue())


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for name, argv in commands():
            run(name, argv)
    for path in sorted(Path().rglob("*.csv")):
        drop_nondeterministic(path)


if __name__ == "__main__":
    main(Path(sys.argv[1]))

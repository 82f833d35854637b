"""Write the deterministic outputs of a fixed list of qmcecon CLI commands.

Usage: PYTHONPATH=<tree>/src python tools/cli_outputs.py OUT_DIR

Each command runs through ``qmcecon.cli.main`` in OUT_DIR with ``--out
<name>.csv``.  Its exit code and stdout (not bench's, which has the host's
seconds per sample) go to ``<name>.txt``; ``cli.NONDETERMINISTIC_COLUMNS``
leave every CSV.  ``diff -r`` two trees' directories to check byte identity.
"""

import contextlib
import csv
import io
import os
import sys
from pathlib import Path

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
    # 8 TB of values: refused before the first buffer is allocated
    yield "sweep_classical_over_memory", [
        "sweep", "--app", "neoclassical", "--estimator", "classical",
        "--n-samples", "1000000000000"]
    linear = ["run", "neoclassical", "--r-mode", "linear", "--m", "5", "--n", "8"]
    yield "run_linear", linear
    yield "run_linear_trained", [*linear, "--a-mode", "trained_ansatz",
                                 "--params", "trained.txt"]
    yield "resources_m3_layers2", ["resources", "--m", "3", "--layers", "2",
                                   "--n-min", "3", "--n-max", "6"]
    yield "resources_over_cap", ["resources", "--m", "5", "--n-min", "21",
                                 "--n-max", "21"]
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
    # 65 stored states of 2**20 amplitudes: refused before training starts.
    # Code without that check tries to allocate about 120 GiB here.
    yield "train_over_memory", ["train-a", "--m", "20", "--layers", "64",
                                "--stages", "1:0.1", "--params-out", "big.txt"]
    # A cost trace of 8 TB: refused before it is allocated.
    yield "train_many_epochs", ["train-a", "--m", "3", "--layers", "1", "--stages",
                                "1000000000000:0.1", "--params-out", "many.txt"]
    yield "run_simple_n0", ["run", "simple", "--n", "0"]
    yield "bench", ["bench", "all", "--out-dir", "bench"]


def drop_nondeterministic(path: Path) -> None:
    rows = list(csv.reader(x for x in path.read_text().splitlines() if x[:1] != "#"))
    keep = [i for i, col in enumerate(rows[0]) if col not in cli.NONDETERMINISTIC_COLUMNS]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([row[i] for i in keep] for row in rows)


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name, argv in commands():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            try:
                code = cli.main(["--out", f"{name}.csv", *argv])
            except SystemExit as exc:   # argparse rejected an argument
                code = exc.code
        Path(f"{name}.txt").write_text(
            f"exit {code}\n" + ("" if name == "bench" else stdout.getvalue()))
    for path in sorted(Path().rglob("*.csv")):
        drop_nondeterministic(path)


if __name__ == "__main__":
    main(Path(sys.argv[1]))

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qmcecon import bench, cli, distributions, econ, engine
from qmcecon.cli import main
from qmcecon.distributions import VariationalAnsatz, save_ansatz
from qmcecon.econ import DEFAULT_STRESS, neoclassical_workload, stress_qmc

from util import write_stress_config


class Reached(AssertionError):
    """An allocation that a memory check should guard was reached."""


def refuse_simulation(monkeypatch):
    """Raise Reached once the engine allocates a statevector or simulates."""
    def refuse(*a, **k):
        raise Reached("state simulated")

    monkeypatch.setattr(engine, "init_state", refuse)
    monkeypatch.setattr(engine, "apply_segments", refuse)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodes:
    def test_unknown_subcommand_usage_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "simple", "--warp", "9"])
        assert exc.value.code == 1

    def test_jobs_option_gone(self):
        # sweeps run their points in order; no option spreads them over threads
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", "sweep", "--app", "simple", "--estimator",
                  "qmc_exact", "--n-min", "3", "--n-max", "4"])
        assert exc.value.code == 1

    def test_classical_sweep_needs_repeats(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--app", "neoclassical", "--estimator", "classical",
             "--n-samples", "100", "--repeats", "0"], capsys)
        assert code == 1
        assert "repeats" in err

    @pytest.mark.parametrize("n_samples", ["0", "0,100", "-5"])
    def test_classical_sweep_needs_positive_samples(self, tmp_path, capsys,
                                                    n_samples):
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(
            ["--out", str(out), "sweep", "--app", "simple", "--estimator",
             "classical", "--n-samples", n_samples], capsys)
        assert code == 1
        assert "classical sweeps need sample counts >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["resources", "--m", "3", "--n-min", "3", "--n-max", "3"],
        ["train-a", "--m", "3", "--stages", "1:0.1", "--params-out", "p.txt"]],
        ids=["resources", "train-a"])
    def test_layers_below_one_exit_1_before_running(self, tmp_path, capsys,
                                                     monkeypatch, command, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--out", "rows.csv", *command, "--layers", value])
        assert exc.value.code == 1
        assert "--layers: must be an integer >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_resource_cap_exit_2(self, capsys):
        code, _, err = run_cli(
            ["run", "stress", "--m", "5", "--n", "25", "--method", "circuit"],
            capsys)
        assert code == 2
        assert "resource" in err.lower()

    @pytest.mark.parametrize("args,allocator", [
        (["stress", "--m", "15"], "stress_rv_grid"),   # 2**30 grid values
        (["simple", "--n", "31"], "run_qmc"),          # 2**31 outcomes
        (["stress", "--m", "12"], "stress_rv_grid"),   # 25-qubit F
        (["simple", "--n", "26"], "run_qmc")])         # 26 estimation qubits
    def test_oversized_register_exit_2_before_allocating(self, capsys,
                                                         monkeypatch, args,
                                                         allocator):
        def refuse(*a, **k):
            raise AssertionError(f"{allocator} reached before the cap check")

        monkeypatch.setattr(cli.econ, "stress_rv_grid", refuse)
        monkeypatch.setattr(cli.econ, "run_qmc", refuse)
        code, _, err = run_cli(["run", *args], capsys)
        assert code == 2
        assert "exceeding the cap" in err

    @pytest.mark.parametrize("args,allocator", [
        (["stress", "--m", "11"], "stress_rv_grid"),   # 23-qubit F: 1 GiB
        (["simple", "--n", "25"], "run_qmc")])         # 2**25 outcomes: 1 GiB
    def test_largest_registers_reach_allocator(self, monkeypatch, args,
                                               allocator):
        def refuse(*a, **k):
            raise Reached(allocator)

        monkeypatch.setattr(cli.econ, allocator, refuse)
        with pytest.raises(Reached):
            main(["run", *args])

    def test_resource_count_over_cap_exit_2_before_building(self, capsys,
                                                             monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("circuit lowered before the integer bound")

        # 4396 lowered gates at most per controlled-Q block of m = 5, so
        # 2**49 - 1 blocks could pass the 2**61 that int64 depths hold
        with monkeypatch.context() as patch:
            patch.setattr(bench, "lower_gates", refuse)
            code, _, err = run_cli(["resources", "--m", "5", "--n-min", "49",
                                    "--n-max", "49"], capsys)
        assert code == 2
        assert ("counting n=49 at m=5 may reach 2474727995240090511 gates, "
                "past the 2**61 that int64 depths hold") in err
        # 6 F wires + 26 estimation wires + 4 work wires = 36 qubits: counting
        # allocates no readout of 2**26 outcomes, so nothing refuses it
        code, out, _ = run_cli(["resources", "--m", "5", "--n-min", "26",
                                "--n-max", "26"], capsys)
        assert code == 0
        [row] = csv.DictReader(out.splitlines())
        assert row["n"] == "26" and row["num_qubits"] == "36"

    def test_resources_huge_layers_exit_2_before_allocating(self, capsys,
                                                            monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("ansatz drawn before the memory check")

        monkeypatch.setattr(bench, "_bench_ansatz", refuse)
        code, _, err = run_cli(["resources", "--m", "3", "--layers",
                                "1000000000", "--n-min", "3", "--n-max", "3"],
                               capsys)
        assert code == 2
        assert ("counting 1000000000 ansatz layers at n=3 needs 7112001049600 "
                "bytes, exceeding the cap of 1073741824") in err

    @pytest.mark.parametrize("args,message", [
        (["run", "stress", "--m", "5", "--n", "19", "--method", "circuit"],
         "phase estimation on 30 qubits needs 85900529408 bytes, "
         "exceeding the cap of 1073741824"),
        (["run", "neoclassical", "--m", "16", "--n", "9", "--method", "circuit"],
         "phase estimation on 26 qubits needs 5378189984 bytes, "
         "exceeding the cap of 1073741824")],
        ids=["run-30-qubits", "run-large-F"])
    def test_circuit_method_over_cap_exit_2_before_building(
            self, capsys, monkeypatch, args, message):
        # refused from F's length and angles alone: no block (and no inverse
        # of F's 2**s angles) is built first
        def refuse(*a, **k):
            raise Reached("segments built before the memory check")

        refuse_simulation(monkeypatch)
        monkeypatch.setattr(engine, "phase_estimation", refuse)
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert message in err

    def test_circuit_method_fits_23_qubits(self, capsys, monkeypatch):
        # five statevectors of 16 * 2**q bytes: 24 qubits need 1.25 GiB
        refuse_simulation(monkeypatch)
        base = ["run", "stress", "--m", "5", "--method", "circuit"]
        code, _, err = run_cli([*base, "--n", "13"], capsys)
        assert code == 2
        assert ("phase estimation on 24 qubits needs 1343338976 bytes, "
                "exceeding the cap of 1073741824") in err
        with pytest.raises(Reached):
            main([*base, "--n", "12"])

    @pytest.mark.parametrize("n", [16, 17])
    def test_long_blocks_reach_simulation(self, tmp_path, monkeypatch, n):
        # A trained-ansatz F of 11 gates per layer makes each controlled-Q
        # block long; each is stored once and repeated in place, so only the
        # state term, 80 * 2**(4 + n) bytes, bounds the request
        refuse_simulation(monkeypatch)
        params = tmp_path / "layers42.txt"
        save_ansatz(params, VariationalAnsatz(3, 42, np.zeros(9 * 42)),
                    seed=0, final_cost=0.0)
        with pytest.raises(Reached):
            main(["run", "neoclassical", "--m", "3", "--n", str(n), "--r-mode",
                  "linear", "--a-mode", "trained_ansatz", "--method", "circuit",
                  "--params", str(params)])

    def test_distribution_out_over_cap_exit_2_before_estimating(
            self, tmp_path, capsys, monkeypatch):
        # one dict per outcome and the whole text, checked as 1024 B per
        # outcome: 2**21 outcomes need 2 GiB
        def refuse(*a, **k):
            raise Reached("estimated before the memory check")

        monkeypatch.setattr(econ, "estimate", refuse)
        code, _, err = run_cli(["run", "simple", "--n", "21",
                                "--distribution-out", str(tmp_path / "d.csv")],
                               capsys)
        assert code == 2
        assert ("--distribution-out of 21 estimation qubits needs 2147483648 "
                "bytes, exceeding the cap of 1073741824") in err
        assert not (tmp_path / "d.csv").exists()

    def test_train_zero_qubits_exit_1_before_writing(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        code, _, err = run_cli(["train-a", "--m", "0", "--layers", "1",
                                "--stages", "1:0.1", "--params-out", str(params)],
                               capsys)
        assert code == 1
        assert "need m >= 1" in err
        assert not params.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_train_non_finite_rate_exit_1_before_training(self, tmp_path, capsys,
                                                          monkeypatch, rate):
        def refuse(*a, **k):
            raise AssertionError("training reached with a non-finite rate")

        monkeypatch.setattr(cli, "train_ansatz", refuse)
        params = tmp_path / "params.txt"
        code, _, err = run_cli(["train-a", "--m", "3", "--layers", "1",
                                "--stages", f"5:{rate}", "--params-out", str(params)],
                               capsys)
        assert code == 1
        assert "bad schedule stage" in err
        assert not params.exists()

    def test_train_over_memory_exit_2_before_allocating(self, tmp_path, capsys,
                                                        monkeypatch):
        class Reached(Exception):
            pass

        def refuse(*a, **k):
            raise Reached

        monkeypatch.setattr(distributions, "_cost_and_gradient", refuse)
        params = tmp_path / "params.txt"
        base = ["train-a", "--m", "20", "--stages", "1:0.1",
                "--params-out", str(params)]
        # 65 stored states of 2**20 amplitudes are 1040 MiB
        code, _, err = run_cli([*base, "--layers", "64"], capsys)
        assert code == 2
        assert "exceeding the cap of 1073741824" in err
        assert not params.exists()
        # 64 states are exactly 1 GiB, which the cap admits
        with pytest.raises(Reached):
            main([*base, "--layers", "63"])

    def test_train_huge_epoch_count_exit_2_before_allocating(self, tmp_path, capsys,
                                                             monkeypatch):
        class Reached(Exception):
            pass

        def refuse(*a, **k):
            raise Reached

        monkeypatch.setattr(distributions, "_cost_and_gradient", refuse)
        params = tmp_path / "params.txt"
        base = ["train-a", "--m", "3", "--layers", "1", "--params-out", str(params)]
        # 8 B of cost trace per epoch: 2**27 epochs are exactly 1 GiB
        for stages in ("134217729:0.1", "1000000000000:0.1", "134217728:0.1,1:0.1"):
            code, _, err = run_cli([*base, "--stages", stages], capsys)
            assert code == 2
            assert "cost trace" in err and "exceeding the cap of 1073741824" in err
            assert not params.exists()
        with pytest.raises(Reached):
            main([*base, "--stages", "134217728:0.1"])

    @pytest.mark.parametrize("command", [
        ["oracle", "simple"], ["oracle", "stress"], ["oracle", "neoclassical"],
        ["train-a", "--layers", "1", "--stages", "1:0.1", "--params-out", "p.txt"]],
        ids=["oracle-simple", "oracle-stress", "oracle-neoclassical", "train-a"])
    def test_shock_grid_over_memory_exit_2_before_building(self, tmp_path, capsys,
                                                           monkeypatch, command):
        def refuse(*a, **k):
            raise Reached("shock grid built")

        for module, name in ((econ, "discretize_normal"), (econ, "discretize_beta"),
                             (cli, "discretize_normal")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.chdir(tmp_path)
        # 48 B per grid point: 2**24 points fit, 2**25 do not
        code, out, err = run_cli([*command, "--m", "25"], capsys)
        assert code == 2
        assert "a shock grid of 2**25 points" in err
        assert out == "" and not any(tmp_path.iterdir())
        with pytest.raises(Reached):
            main([*command, "--m", "24"])

    def test_params_without_trained_mode_exit_1(self, tmp_path, capsys):
        params = tmp_path / "zero.txt"
        save_ansatz(params, VariationalAnsatz(3, 1, np.zeros(9)), 0, 0.0)
        code, out, err = run_cli(["run", "simple", "--m", "3", "--n", "5",
                                  "--params", str(params)], capsys)
        assert code == 1
        assert "--params needs --a-mode trained_ansatz" in err
        assert out == ""

    @pytest.mark.parametrize("m_args,m", [(["--m", "3"], 3),
                                          ([], neoclassical_workload().m)],
                             ids=["given", "default"])
    def test_params_for_another_m_exit_1(self, tmp_path, capsys, m_args, m):
        params = tmp_path / "five.txt"
        save_ansatz(params, VariationalAnsatz(5, 1, np.zeros(15)), 0, 0.0)
        code, out, err = run_cli(["run", "neoclassical", "--r-mode", "linear",
                                  *m_args, "--n", "4", "--a-mode", "trained_ansatz",
                                  "--params", str(params)], capsys)
        assert code == 1
        assert f"{params} has m=5, but --m is {m}" in err
        assert out == ""

    @pytest.mark.parametrize("missing", ["m", "layers"])
    def test_params_header_without_size_exit_1(self, tmp_path, capsys, missing):
        params = tmp_path / "params.txt"
        header = {"m": 3, "layers": 1, "seed": 1}
        del header[missing]
        params.write_text("# " + " ".join(f"{k}={v}" for k, v in header.items())
                          + "\n" + "0.0\n" * 9)
        code, out, err = run_cli(["run", "simple", "--m", "3", "--n", "5",
                                  "--a-mode", "trained_ansatz",
                                  "--params", str(params)], capsys)
        assert code == 1
        assert f"header has no {missing}= entry" in err
        assert out == ""

    def test_classical_over_memory_exit_2_before_allocating(self, tmp_path,
                                                             capsys, monkeypatch):
        def refuse(rng, size):
            raise AssertionError("sampled before the values budget check")

        registry = econ.workload
        monkeypatch.setattr(econ, "workload", lambda app, scenario=None: replace(
            registry(app, scenario), sampler=refuse))
        out = tmp_path / "rows.csv"
        # 8 B of values per sample: 2**27 samples are exactly 1 GiB
        for n_samples, need in (("1000000000000", 8 * 10**12),
                                ("3000000000", 24 * 10**9),
                                ("100,134217729", 2**30 + 8)):
            code, _, err = run_cli(["--out", str(out), "sweep", "--app",
                                    "neoclassical", "--estimator", "classical",
                                    "--n-samples", n_samples], capsys)
            assert code == 2
            assert f"needs {need} bytes, exceeding the cap of 1073741824" in err
            assert not out.exists()

    def test_resources_empty_range_exit_1(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code, _, err = run_cli(["--out", str(out), "resources", "--m", "3",
                                "--layers", "2", "--n-min", "5", "--n-max", "3"],
                               capsys)
        assert code == 1
        assert "range must be non-empty and increasing" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "nan"])
    def test_bad_gate_time_exit_1_before_writing(self, tmp_path, value):
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), "resources", "--m", "3", "--layers", "2",
                  "--n-min", "3", "--n-max", "3", "--gate-time", value])
        assert exc.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["run", "simple", "--n", "0"],
        ["run", "simple", "--n", "-1"],
        ["run", "simple", "--m", "0"],
        ["sweep", "--app", "simple", "--estimator", "qmc_exact", "--n-min", "0",
         "--n-max", "2"]],
        ids=["run-n0", "run-n-1", "run-m0", "sweep-n0"])
    def test_empty_register_exit_1(self, tmp_path, capsys, args):
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(["--out", str(out), *args], capsys)
        assert code == 1
        assert "need m >= 1 and n >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["sweep", "--app", "simple", "--estimator", "qmc_linear",
          "--n-min", "3", "--n-max", "4", "--m", "3"],
         "linear encoding requires a variable linear in the grid"),
        (["run", "stress", "--r-mode", "linear", "--m", "3", "--n", "3"],
         "the linear encoding handles one dimension only")],
        ids=["sweep-simple", "run-stress"])
    def test_unsupported_linear_encoding_exit_1(self, tmp_path, capsys, args,
                                                 message):
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(["--out", str(out), *args], capsys)
        assert code == 1
        assert message in err
        assert not out.exists()


class TestOracle:
    def test_stress_values(self, capsys):
        code, out, _ = run_cli(["oracle", "stress"], capsys)
        assert code == 0
        cont = float(out.split("continuous loss fraction:")[1].split()[0])
        assert abs(cont - 0.01618) / 0.01618 < 0.01
        assert "grid loss fraction" in out

    def test_simple_values(self, capsys):
        code, out, _ = run_cli(["oracle", "simple"], capsys)
        assert code == 0
        assert "0.4323" in out

    def test_neoclassical_default_m_is_the_workloads(self, capsys):
        code, out, _ = run_cli(["oracle", "neoclassical"], capsys)
        assert code == 0
        workload = neoclassical_workload()
        assert workload.m == 7
        assert (f"m=7 grid mean: {workload.grid_mean(workload.shock(7)):.6f}"
                in out)


class TestRun:
    def test_simple_run_prints_estimates(self, capsys):
        code, out, _ = run_cli(["run", "simple", "--m", "5", "--n", "6"], capsys)
        assert code == 0
        theta = float(out.split("theta_hat=")[1].split()[0])
        mu = float(out.split("mu=")[1].split()[0])
        assert abs(theta - 0.453125) < 1e-9
        assert abs(mu - 0.432) < 0.01

    def test_distribution_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "dist.csv"
        code, _, _ = run_cli(
            ["run", "simple", "--m", "3", "--n", "4",
             "--distribution-out", str(sidecar)], capsys)
        assert code == 0
        rows = list(csv.DictReader(
            line for line in sidecar.read_text().splitlines()
            if not line.startswith("#")))
        assert len(rows) == 16
        total = sum(float(r["probability"]) for r in rows)
        assert abs(total - 1.0) < 1e-9

    def test_run_with_scenario_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        write_stress_config(path, DEFAULT_STRESS)
        code, out, _ = run_cli(
            ["--config", str(path), "run", "stress", "--m", "3", "--n", "3"],
            capsys)
        assert code == 0
        assert "theta_hat" in out


    @pytest.mark.parametrize("app,exact_prep", [("simple", 0.450991),
                                                ("stress", 0.146447)])
    def test_trained_ansatz_prepares_every_register(self, tmp_path, capsys, app,
                                                    exact_prep):
        # all-zero angles prepare |000> on each register: the lowest grid
        # value, whose normalized mean is 0
        params = tmp_path / "zero.txt"
        save_ansatz(params, VariationalAnsatz(3, 1, np.zeros(9)), 0, 0.0)
        base = ["run", app, "--m", "3", "--n", "5"]
        code, out, _ = run_cli([*base, "--a-mode", "trained_ansatz",
                                "--params", str(params)], capsys)
        assert code == 0
        assert "mu_normalized=0.000000" in out
        code, out, _ = run_cli(base, capsys)
        assert code == 0
        assert f"mu_normalized={exact_prep:.6f}" in out


class TestSweepOutput:
    def test_csv_deterministic_excluding_wall_time(self, tmp_path, capsys):
        args = ["--seed", "7", "--out", None, "sweep", "--app", "neoclassical",
                "--estimator", "classical", "--n-samples", "100,1000",
                "--repeats", "3"]
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            args[3] = str(path)
            code, _, _ = run_cli(list(args), capsys)
            assert code == 0
            outputs.append(path.read_text())
        header_a, *lines_a = outputs[0].splitlines()
        header_b, *lines_b = outputs[1].splitlines()
        assert header_a == "# nondeterministic-columns: wall_time_s"
        assert header_a == header_b
        reader_a = list(csv.DictReader(lines_a))
        reader_b = list(csv.DictReader(lines_b))
        for ra, rb in zip(reader_a, reader_b):
            for key in ra:
                if key != "wall_time_s":
                    assert ra[key] == rb[key]

    def test_stress_sweep_reads_scenario(self, tmp_path, capsys):
        alt = replace(DEFAULT_STRESS, alpha_price=1e-4)
        config = tmp_path / "scenario.ini"
        write_stress_config(config, alt)
        errors = {}
        for name, scenario in (("default", []), ("alt", ["--config", str(config)])):
            path = tmp_path / f"{name}.csv"
            code, _, _ = run_cli(
                [*scenario, "--out", str(path), "sweep", "--app", "stress",
                 "--estimator", "qmc_exact", "--n-min", "4", "--n-max", "4",
                 "--m", "3"], capsys)
            assert code == 0
            rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
            errors[name] = float(rows[0]["error"])
        r = stress_qmc(alt, 3, 4)
        assert errors["alt"] == abs(r.estimate.mu - r.mu_continuous)
        assert errors["alt"] != errors["default"]

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        code, _, _ = run_cli(
            ["--out", str(path), "--format", "json", "sweep", "--app", "simple",
             "--estimator", "qmc_exact", "--n-min", "3", "--n-max", "4",
             "--m", "3"], capsys)
        assert code == 0
        rows = json.loads(path.read_text())
        assert [row["N"] for row in rows] == [7, 15]


class TestResourcesCommand:
    def test_rows_and_runtime(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        code, out, _ = run_cli(
            ["--out", str(path), "resources", "--m", "3", "--layers", "2",
             "--n-min", "3", "--n-max", "4", "--gate-time", "1e-9"], capsys)
        assert code == 0
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert [r["n"] for r in rows] == ["3", "4"]
        assert "runtime=" in out

    def test_width_cap_counted_without_building(self, tmp_path, capsys,
                                                monkeypatch):
        # 6 F wires + 20 estimation wires + 4 work wires = 30 qubits, and
        # 2**20 - 1 controlled-Q blocks: counted once each, never listed
        refuse_simulation(monkeypatch)
        path = tmp_path / "res.csv"
        code, _, _ = run_cli(["--out", str(path), "resources", "--m", "5",
                              "--n-min", "20", "--n-max", "20"], capsys)
        assert code == 0
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert rows == [{"n": "20", "total_gates": "1254096942",
                         "rx": "25165800", "ry": "306184002", "rz": "597688460",
                         "cnot": "325058680", "depth": "507510377",
                         "num_qubits": "30"}]


class TestCrossoverOutput:
    # synthetic fig6 rows: quantum error ~ N^-0.6, classical error ~ N^-0.5
    FIG6_ROWS = (
        [{"estimator": "qmc_linear", "N": 2**n - 1,
          "error": 0.3 * (2**n - 1) ** -0.6} for n in range(4, 9)]
        + [{"estimator": "classical", "N": 10**k,
            "error": 0.5 * 10 ** (-0.5 * k)} for k in range(2, 6)])

    @pytest.fixture(autouse=True)
    def synthetic_depths(self, monkeypatch):
        monkeypatch.setattr(
            bench, "resource_rows",
            lambda m, n_values, layers=10: [{"n": n, "depth": 400 * 2**n}
                                            for n in n_values])

    @pytest.mark.parametrize("hypothetical,name", [
        (False, "fig9_crossover.csv"),
        (True, "fig10_crossover_ideal_slope.csv")])
    def test_csv_independent_of_measured_tau(self, tmp_path, capsys,
                                             hypothetical, name):
        args = argparse.Namespace(seed=0, format="csv")
        outputs = []
        for tau in (1e-7, 1e-5):
            out_dir = tmp_path / f"tau{tau:g}"
            out_dir.mkdir()
            cli._bench_crossover(args, out_dir, tau, list(self.FIG6_ROWS),
                                 hypothetical=hypothetical)
            out = capsys.readouterr().out
            assert f"measured={tau * 1e9:.0f} ns/sample" in out
            reference = bench.REFERENCE_SECONDS_PER_SAMPLE * 1e9
            assert f"reference tau={reference:.0f} ns/sample" in out
            outputs.append((out_dir / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_tau_measured_once_for_fig9_and_fig10(self, tmp_path, capsys,
                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "time_per_sample",
                            lambda seed=0: calls.append(seed) or 3e-7)
        monkeypatch.setattr(cli, "_bench_fig6",
                            lambda args, out_dir: list(self.FIG6_ROWS))
        for target in ("fig3", "fig7", "fig8", "fig11"):
            monkeypatch.setattr(cli, f"_bench_{target}", lambda args, out_dir: None)
        code, out, _ = run_cli(["bench", "all", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert calls == [0]
        assert out.count("measured=300 ns/sample") == 2
        assert (tmp_path / "fig9_crossover.csv").exists()
        assert (tmp_path / "fig10_crossover_ideal_slope.csv").exists()


class TestTrainCommand:
    def test_train_writes_reloadable_params(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        code, out, _ = run_cli(
            ["--seed", "1", "train-a", "--m", "3", "--layers", "1",
             "--stages", "30:0.05", "--params-out", str(params)], capsys)
        assert code == 0
        assert "final_cost" in out
        from qmcecon.distributions import load_ansatz

        ansatz, meta = load_ansatz(params)
        assert ansatz.m == 3 and ansatz.layers == 1
        assert meta["seed"] == "1"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qmcecon.cli", "oracle", "simple"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "grid mean" in proc.stdout


def test_import_loads_no_scipy():
    # Importing scipy.stats took about 1 s of every start; numpy is the only
    # third-party module the package needs.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import qmcecon.cli, qmcecon.bench, sys; print(sorted(name for name in "
            "sys.modules if name == 'scipy' or name.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

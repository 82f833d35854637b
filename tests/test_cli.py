import argparse
import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
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
    monkeypatch.setattr(engine, "apply_circuit", refuse)


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

    @pytest.mark.parametrize("args", [
        ["run", "simple", "--a-mode", "trained_ansatz"],
        ["train-a", "--x-min", "0.9"]], ids=["run", "train-a"])
    def test_removed_options_exit_1(self, capsys, args):
        # --params alone selects trained preparation, and train-a always
        # trains on the Fig. 11 grid
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in (
            capsys.readouterr().err)

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
        (["stress", "--m", "15"], "values"),    # 2**30 grid values
        (["simple", "--n", "31"], "run_qmc"),   # 2**31 outcomes
        (["stress", "--m", "12"], "values"),    # 25-qubit F
        (["simple", "--n", "26"], "run_qmc")])  # 26 estimation qubits
    def test_oversized_register_exit_2_before_allocating(self, capsys,
                                                         monkeypatch, args,
                                                         allocator):
        def refuse(*a, **k):
            raise AssertionError(f"{allocator} reached before the cap check")

        monkeypatch.setattr(econ.Workload, "values", refuse)
        monkeypatch.setattr(cli.econ, "run_qmc", refuse)
        code, _, err = run_cli(["run", *args], capsys)
        assert code == 2
        assert "exceeding the cap" in err

    @pytest.mark.parametrize("args,allocator", [
        (["stress", "--m", "11"], "values"),    # 23-qubit F: 1 GiB
        (["simple", "--n", "25"], "run_qmc")])  # 2**25 outcomes: 1 GiB
    def test_largest_registers_reach_allocator(self, monkeypatch, args,
                                               allocator):
        def refuse(*a, **k):
            raise Reached(allocator)

        # the grid values are the workload entry's; run_qmc is econ's import
        owner = econ.Workload if allocator == "values" else cli.econ
        monkeypatch.setattr(owner, allocator, refuse)
        with pytest.raises(Reached):
            main(["run", *args])

    def test_resource_count_over_cap_exit_2_before_building(self, capsys,
                                                             monkeypatch):
        # 1196 lowered gates per controlled-Q block of m = 5, so 2**51 - 1
        # blocks pass the 2**61 that int64 depths hold
        code, _, err = run_cli(["resources", "--m", "5", "--n-min", "51",
                                "--n-max", "51"], capsys)
        assert code == 2
        assert ("counting n=51 at m=5 makes 2693152577167562203 gates, "
                "past the 2**61 that int64 depths hold") in err

        # from n = 62 on, 2**n - 1 blocks of one gate or more pass it, and
        # nothing is built
        def refuse(*a, **k):
            raise AssertionError("circuit built past the integer bound")

        for n in (1000, 2000):
            with monkeypatch.context() as patch:
                patch.setattr(bench, "grover_operator", refuse)
                start = time.perf_counter()
                code, out, err = run_cli(["resources", "--m", "5", "--n-min",
                                          str(n), "--n-max", str(n)], capsys)
                assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err == (f"resource error: counting n={n} at m=5 makes at "
                           f"least 2**{n} - 1 gates, past the 2**61 that int64 "
                           f"depths hold\n")
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
        assert ("counting 1000000000 ansatz layers at n=3 needs 4296001054208 "
                "bytes, exceeding the cap of 1073741824") in err

    @pytest.mark.parametrize("args,message", [
        (["run", "stress", "--m", "5", "--n", "19", "--method", "circuit"],
         "phase estimation on 30 qubits needs 85900473504 bytes, "
         "exceeding the cap of 1073741824"),
        (["run", "neoclassical", "--m", "16", "--n", "9", "--method", "circuit"],
         "phase estimation on 26 qubits needs 5378152832 bytes, "
         "exceeding the cap of 1073741824")],
        ids=["run-30-qubits", "run-large-F"])
    def test_circuit_method_over_cap_exit_2_before_building(
            self, capsys, monkeypatch, args, message):
        # refused from F's length and angles alone: Q (and the inverse of
        # F's 2**s angles in it) is not built first
        def refuse(*a, **k):
            raise Reached("Q built before the memory check")

        refuse_simulation(monkeypatch)
        monkeypatch.setattr(engine, "grover_operator", refuse)
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert message in err

    def test_circuit_method_fits_23_qubits(self, capsys, monkeypatch):
        # five statevectors of 16 * 2**q bytes: 24 qubits need 1.25 GiB
        refuse_simulation(monkeypatch)
        base = ["run", "stress", "--m", "5", "--method", "circuit"]
        code, _, err = run_cli([*base, "--n", "13"], capsys)
        assert code == 2
        assert ("phase estimation on 24 qubits needs 1343301696 bytes, "
                "exceeding the cap of 1073741824") in err
        with pytest.raises(Reached):
            main([*base, "--n", "12"])

    @pytest.mark.parametrize("n", [16, 17])
    def test_long_blocks_reach_simulation(self, tmp_path, monkeypatch, n):
        # A trained-ansatz F of 11 gates per layer makes the Grover operator
        # long; it is stored once and applied 2**n - 1 times, so only the
        # state term, 80 * 2**(4 + n) bytes, bounds the request
        refuse_simulation(monkeypatch)
        params = tmp_path / "layers42.txt"
        save_ansatz(params, VariationalAnsatz(3, 42, np.zeros(9 * 42)),
                    seed=0, final_cost=0.0)
        with pytest.raises(Reached):
            main(["run", "neoclassical", "--m", "3", "--n", str(n), "--r-mode",
                  "linear", "--method", "circuit", "--params", str(params)])

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

    def test_stress_two_point_grid_exit_1(self, capsys):
        code, out, err = run_cli(["oracle", "stress", "--m", "1"], capsys)
        assert code == 1 and out == ""
        assert ("Beta(2.0,10.0) has zero density at both points of the 2**1-point "
                "grid {0, 1}; shapes both above 1 need m >= 2") in err

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
        # 58 + 1 stored states and 5 temporaries of 2**20 amplitudes are
        # 1 GiB before the chunk matrices, overlap blocks and trace
        code, _, err = run_cli([*base, "--layers", "58"], capsys)
        assert code == 2
        assert "training m=20 with 58 layers" in err
        assert "exceeding the cap of 1073741824" in err
        assert not params.exists()
        # 57 layers count 1008 MiB of states and 9 MiB more, which the cap admits
        with pytest.raises(Reached):
            main([*base, "--layers", "57"])

    def test_train_huge_epoch_count_exit_2_before_allocating(self, tmp_path, capsys,
                                                             monkeypatch):
        class Reached(Exception):
            pass

        def refuse(*a, **k):
            raise Reached

        monkeypatch.setattr(distributions, "_cost_and_gradient", refuse)
        params = tmp_path / "params.txt"
        base = ["train-a", "--m", "3", "--layers", "1", "--params-out", str(params)]
        # 8 B of cost trace per epoch beside 2944 B of states and blocks and
        # 1 MiB: 134086288 epochs are exactly 1 GiB, and 2**27 are refused
        for stages in ("134086289:0.1", "134217728:0.1", "1000000000000:0.1",
                       "134086288:0.1,1:0.1"):
            code, _, err = run_cli([*base, "--stages", stages], capsys)
            assert code == 2
            assert "training m=3 with 1 layers" in err
            assert "exceeding the cap of 1073741824" in err
            assert not params.exists()
        with pytest.raises(Reached):
            main([*base, "--stages", "134086288:0.1"])

    @pytest.mark.parametrize("command", [
        ["oracle", "simple"], ["oracle", "stress"], ["oracle", "neoclassical"],
        ["train-a", "--layers", "1", "--stages", "1:0.1", "--params-out", "p.txt"]],
        ids=["oracle-simple", "oracle-stress", "oracle-neoclassical", "train-a"])
    def test_shock_grid_over_memory_exit_2_before_building(self, tmp_path, capsys,
                                                           monkeypatch, command):
        def refuse(*a, **k):
            raise Reached("shock grid built")

        for name in ("discretize_normal", "discretize_beta"):
            monkeypatch.setattr(econ, name, refuse)
        monkeypatch.chdir(tmp_path)
        # 48 B per grid point: 2**24 points fit, 2**25 do not
        code, out, err = run_cli([*command, "--m", "25"], capsys)
        assert code == 2
        assert "a shock grid of 2**25 points" in err
        assert out == "" and not any(tmp_path.iterdir())
        with pytest.raises(Reached):
            main([*command, "--m", "24"])

    @pytest.mark.parametrize("m_args,m", [(["--m", "3"], 3),
                                          ([], neoclassical_workload().m)],
                             ids=["given", "default"])
    def test_params_for_another_m_exit_1(self, tmp_path, capsys, m_args, m):
        params = tmp_path / "five.txt"
        save_ansatz(params, VariationalAnsatz(5, 1, np.zeros(15)), 0, 0.0)
        code, out, err = run_cli(["run", "neoclassical", "--r-mode", "linear",
                                  *m_args, "--n", "4", "--params", str(params)],
                                 capsys)
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
                                  "--params", str(params)], capsys)
        assert code == 1
        assert f"header has no {missing}= entry" in err
        assert out == ""

    def test_classical_large_samples_reach_sampler(self, tmp_path, capsys,
                                                   monkeypatch):
        # a run holds one leaf of samples at a time, so no sample count is
        # refused for memory; only the repeats' 16 B each are checked
        def stop(rng, size):
            raise Reached("sampled")

        registry = econ.workload
        monkeypatch.setattr(econ, "workload", lambda app, scenario=None: replace(
            registry(app, scenario), sampler=stop))
        out = tmp_path / "rows.csv"
        for n_samples in ("1000000000000", "3000000000", "100,134217729"):
            with pytest.raises(Reached, match="sampled"):
                run_cli(["--out", str(out), "sweep", "--app", "neoclassical",
                         "--estimator", "classical", "--n-samples", n_samples],
                        capsys)
            assert not out.exists()

    def test_classical_repeats_over_memory_exit_2_before_running(
            self, tmp_path, capsys, monkeypatch):
        # 16 B per repeat for its error and wall time: 10**12 repeats are
        # refused before the first run, not with a MemoryError
        def refuse(*a, **k):
            raise Reached("classical run started before the repeats' check")

        monkeypatch.setattr(econ, "classical_mc", refuse)
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(["--out", str(out), "sweep", "--app", "simple",
                                "--estimator", "classical", "--n-samples", "1",
                                "--repeats", "1000000000000"], capsys)
        assert code == 2
        assert ("1000000000000 classical runs of 1 samples needs 16000000000000 "
                "bytes, exceeding the cap of 1073741824") in err
        assert not out.exists()

    @pytest.mark.parametrize("args,per_point,message", [
        (["sweep", "--app", "simple", "--estimator", "qmc_exact", "--n-min",
          "18", "--n-max", "26"], "_quantum_point",
         "a readout of 26 estimation qubits needs 2147483648 bytes"),
        (["resources", "--m", "5", "--n-min", "40", "--n-max", "62"],
         "_segment_costs", "counting n=62 at m=5 makes at least 2**62 - 1"),
        (["resources", "--m", "5", "--n-min", "3", "--n-max", "1000"],
         "_segment_costs", "counting n=1000 at m=5 makes at least 2**1000 - 1"),
        (["resources", "--m", "5", "--n-min", "40", "--n-max", "51"],
         "maxplus_squarings",
         "counting n=51 at m=5 makes 2693152577167562203 gates")],
        ids=["sweep-qmc", "resources-n62", "resources-n1000", "resources-n51"])
    def test_range_refused_at_largest_point_before_any_runs(
            self, tmp_path, capsys, monkeypatch, args, per_point, message):
        def refuse(*a, **k):
            raise Reached(f"{per_point} ran before the largest point's check")

        monkeypatch.setattr(bench, per_point, refuse)
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(["--out", str(out), *args], capsys)
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["sweep", "--app", "simple", "--estimator", "qmc_exact", "--n-min", "4",
          "--n-max", "3000000"],
         "a readout of 3000000 estimation qubits needs at least 2**3000005"),
        (["sweep", "--app", "simple", "--estimator", "qmc_exact", "--n-min", "4",
          "--n-max", "1000000000000"], "a readout of 1000000000000 estimation "
         "qubits needs at least 2**1000000000005"),
        (["run", "simple", "--n", "1000000000"],
         "a readout of 1000000000 estimation qubits needs at least 2**1000000005"),
        (["run", "simple", "--m", "1000000000"],
         "an F register of 1000000001 qubits needs at least 2**1000000008"),
        (["oracle", "simple", "--m", "1000000000"],
         "a shock grid of 2**1000000000 points needs at least 2**1000000005"),
        (["resources", "--m", "1000000000"],
         "counting 10 ansatz layers at n=10 needs at least 2**1000000007"),
        # exact digits below 2**128; past m = 128 the bytes beyond the grid's
        # are counted in units of 2**(m - 128), which keeps the bit length
        (["resources", "--m", "120"], "counting 10 ansatz layers at n=10 needs "
         "170141183460469231731687303715887091584"),
        (["resources", "--m", "129"],
         "counting 10 ansatz layers at n=10 needs at least 2**136"),
        (["train-a", "--m", "1000000000"],
         "a shock grid of 2**1000000000 points needs at least 2**1000000005")],
        ids=["sweep-n3e6", "sweep-n1e12", "run-n", "run-m", "oracle-m",
             "resources-m", "resources-m120", "resources-m129", "train-a-m"])
    def test_huge_request_refused_from_its_exponent(
            self, tmp_path, capsys, monkeypatch, args, message):
        # a sweep's range is not listed, and no integer of 10**9 bits or
        # more is built before the refusal
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run_cli(["--out", "rows.csv", *args], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        assert code == 2 and out == ""
        assert err == (f"resource error: {message} bytes, exceeding the cap of "
                       "1073741824\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("broken,message", [
        ("benchmark_business_loss", "[system] misses key 'benchmark_business_loss'"),
        ("[bank1]", "section 'bank1' already exists"),
        ("mortgages = nan", "balance-sheet amounts must be finite and non-negative"),
        ("equity = inf", "balance-sheet amounts must be finite and non-negative"),
        ("mortgages = -500", "balance-sheet amounts must be finite and non-negative"),
        ("total_assets = 0", "and total assets positive"),
        ("benchmark_mortgage_loss = -0.01",
         "benchmark loss rates must be finite and non-negative"),
        ("shock_beta_a = 0", "Beta shock shapes must be finite and positive")],
        ids=["system-key-missing", "bank-repeated", "mortgages-nan", "equity-inf",
             "mortgages-negative", "total-assets-zero", "loss-rate-negative",
             "shock-shape-zero"])
    def test_broken_scenario_file_exit_1(self, tmp_path, capsys, broken, message):
        path = tmp_path / "scenario.ini"
        write_stress_config(path, DEFAULT_STRESS)
        lines = path.read_text().splitlines()
        key, _, value = broken.partition(" = ")
        if broken.startswith("["):      # the section again, at the end
            lines += [broken, "mortgages = 1.0"]
        elif value:                     # the key's value replaced
            lines = [broken if line.startswith(key + " ") else line
                     for line in lines]
        else:                           # the key left out
            lines = [line for line in lines if not line.startswith(broken)]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["--config", str(path), "oracle", "stress"],
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_scenario_with_large_beta_shapes(self, tmp_path, capsys):
        # exp of the shock's log-density underflows at every grid point
        path = tmp_path / "scenario.ini"
        write_stress_config(path, replace(DEFAULT_STRESS, shock_a=1e6, shock_b=1e6))
        code, out, err = run_cli(["--config", str(path), "oracle", "stress"],
                                 capsys)
        assert code == 0 and err == ""
        loss = out.splitlines()[-1].split(": ")[1].split()[0]
        assert np.isfinite(float(loss))

    def test_scenario_with_overflowing_beta_normaliser(self, tmp_path, capsys):
        # log B(a, b) overflows, and the shock still has well-defined masses
        path = tmp_path / "scenario.ini"
        write_stress_config(path, replace(DEFAULT_STRESS, shock_a=1e306))
        code, out, err = run_cli(["--config", str(path), "oracle", "stress"],
                                 capsys)
        assert code == 0 and err == ""
        loss = out.splitlines()[-1].split(": ")[1].split()[0]
        assert np.isfinite(float(loss))

    def test_unread_scenario_entries_exit_1(self, tmp_path, capsys):
        # a misspelt shape would silently keep the default of 2.0
        path = tmp_path / "scenario.ini"
        write_stress_config(path, replace(DEFAULT_STRESS, shock_a=3.0))
        text = path.read_text().replace("shock_beta_a", "shok_beta_a")
        path.write_text("[DEFAULT]\nequity = 4.5\n" + text
                        + "[bank3]\nmortgages = 1.0\n")
        code, out, err = run_cli(["--config", str(path), "oracle", "stress"],
                                 capsys)
        assert code == 1 and out == ""
        assert err == (f"error: scenario file {path} has unknown section "
                       "[bank3], key 'shok_beta_a' in [system], key 'equity' "
                       "in [system]\n")

    def test_params_without_layers_exit_1(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("# m=5 layers=0 seed=0 final_cost=0\n")
        code, out, err = run_cli(["run", "neoclassical", "--r-mode", "linear",
                                  "--m", "5", "--n", "8", "--params",
                                  str(params)], capsys)
        assert code == 1 and out == ""
        assert "an ansatz needs layers >= 1, got 0" in err

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
        code, out, _ = run_cli([*base, "--params", str(params)], capsys)
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
            dfit = bench.depth_fit(bench.resource_rows(5, range(3, 11)))
            cli._bench_crossover(args, out_dir, tau, dfit, list(self.FIG6_ROWS),
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

    def test_depth_fit_computed_once_for_fig9_and_fig10(self, tmp_path, capsys,
                                                        monkeypatch):
        calls = []
        synthetic = bench.resource_rows
        monkeypatch.setattr(bench, "resource_rows", lambda m, n_values, layers=10:
                            calls.append(m) or synthetic(m, n_values, layers))
        monkeypatch.setattr(bench, "time_per_sample", lambda seed=0: 3e-7)
        monkeypatch.setattr(cli, "_bench_fig6",
                            lambda args, out_dir: list(self.FIG6_ROWS))
        for target in ("fig3", "fig7", "fig8", "fig11"):
            monkeypatch.setattr(cli, f"_bench_{target}", lambda args, out_dir: None)
        code, _, _ = run_cli(["bench", "all", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert calls == [7]


class TestBenchTargets:
    GOLDEN_BENCH = Path(__file__).parent / "golden" / "cli_outputs" / "bench"

    FILES = {"fig3": {"fig3_phase_distribution.csv"},
             "fig6": {"fig6_neoclassical_scaling.csv"},
             "fig7": {"fig7_stress_error.csv"},
             "fig8": {"fig8_resources.csv"},
             "fig9": {"fig6_neoclassical_scaling.csv", "fig9_crossover.csv"},
             "fig10": {"fig6_neoclassical_scaling.csv",
                       "fig10_crossover_ideal_slope.csv"},
             "fig11": {"fig11_trained_distribution.csv",
                       "fig11_trained_params.txt"}}

    @pytest.fixture(autouse=True)
    def quick_seams(self, monkeypatch):
        # the slow parts made small: the classical sweep, the measured tau and
        # the 3,000 training epochs
        sweep = bench.error_sweep
        monkeypatch.setattr(bench, "error_sweep", lambda spec: sweep(
            replace(spec, range=spec.range[:3], repeats=2)
            if spec.estimator == "classical" else spec))
        monkeypatch.setattr(bench, "time_per_sample", lambda seed=0: 3e-7)
        monkeypatch.setattr(cli, "APPENDIX_SCHEDULE",
                            distributions.TrainingSchedule([(2, 0.01)]))

    @pytest.mark.parametrize("target", [*cli.BENCH_TARGETS, "all"])
    def test_target_writes_exactly_its_files(self, tmp_path, capsys, target):
        code, out, _ = run_cli(["bench", target, "--out-dir", str(tmp_path)],
                               capsys)
        assert code == 0
        done = cli.BENCH_TARGETS if target == "all" else (target,)
        assert ({path.name for path in tmp_path.iterdir()}
                == set().union(*(self.FILES[name] for name in done)))
        assert ([line for line in out.splitlines() if line.endswith(": done")]
                == [f"bench {name}: done" for name in done])

    def test_all_files_are_the_golden_bench_tree(self):
        assert (set().union(*self.FILES.values())
                == {path.name for path in self.GOLDEN_BENCH.iterdir()})


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

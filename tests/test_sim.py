import ast
import math
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qmcecon import bench, cli, distributions, econ, engine, sim
from qmcecon.sim import (
    Circuit,
    Gate,
    ResourceLimitError,
    apply_circuit,
    dense_unitary,
    init_state,
    probabilities,
)

from util import X, controlled_oracle, phase_aligned_distance, random_circuit


class TestInitState:
    def test_single_qubit_zero_state(self):
        st = init_state(1)
        np.testing.assert_allclose(st.amplitudes, [1, 0])

    def test_three_qubits(self):
        st = init_state(3)
        assert st.amplitudes.shape == (8,)
        assert st.amplitudes[0] == 1.0
        assert np.all(st.amplitudes[1:] == 0)

    def test_cap_exceeded_names_memory(self):
        with pytest.raises(ResourceLimitError, match="bytes"):
            init_state(31)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            init_state(0)


class TestApplyGate:
    """Single gates applied through apply_circuit."""

    def test_hadamard_on_zero(self):
        st = apply_circuit(init_state(1), Circuit(1).h(0))
        np.testing.assert_allclose(st.amplitudes, [1, 1] / np.sqrt(2))

    def test_cnot_on_10(self):
        # control qubit 0 set: |10> -> |11>
        st = apply_circuit(init_state(2), Circuit(2).add(Gate("x", (0,))))
        st = apply_circuit(st, Circuit(2).cnot(0, 1))
        np.testing.assert_allclose(st.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_ry_pi_is_half_turn(self):
        st = apply_circuit(init_state(1), Circuit(1).ry(0, math.pi))
        assert abs(abs(st.amplitudes[1]) - 1.0) < 1e-12

    def test_input_state_untouched(self):
        st = init_state(1)
        apply_circuit(st, Circuit(1).h(0))
        np.testing.assert_allclose(st.amplitudes, [1, 0])

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="exceeds register"):
            Circuit(1).h(1)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("cnot", (0,), (0,))  # overlap
        with pytest.raises(ValueError):
            Gate("ry", (0,), angle=math.nan)
        with pytest.raises(ValueError):
            Gate("ry", (0,))  # missing angle
        with pytest.raises(ValueError):
            Gate("warp", (0,))


class TestApplyCircuit:
    def test_empty_circuit_identity(self):
        st = apply_circuit(init_state(2), Circuit(2).h(0))
        out = apply_circuit(st, Circuit(2))
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)

    def test_double_hadamard(self):
        circ = Circuit(1).h(0).h(0)
        out = apply_circuit(init_state(1), circ)
        np.testing.assert_allclose(out.amplitudes, [1, 0], atol=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="circuit has 3 qubits, state has 2"):
            apply_circuit(init_state(2), Circuit(3).h(0))
        with pytest.raises(ValueError, match="circuit has 2 qubits, state has 3"):
            apply_circuit(init_state(3), Circuit(2))

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            nq = int(rng.integers(2, 6))
            circ = random_circuit(nq, 30, rng)
            st = apply_circuit(init_state(nq), circ)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-10

    def test_reversibility(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            nq = int(rng.integers(2, 6))
            circ = random_circuit(nq, 25, rng)
            start = apply_circuit(init_state(nq), random_circuit(nq, 5, rng))
            roundtrip = apply_circuit(apply_circuit(start, circ), circ.inverse())
            fidelity = abs(np.vdot(start.amplitudes, roundtrip.amplitudes)) ** 2
            assert fidelity > 1 - 1e-9


class TestProbabilities:
    def test_plus_state(self):
        st = apply_circuit(init_state(1), Circuit(1).h(0))
        np.testing.assert_allclose(probabilities(st, [0]), [0.5, 0.5])

    def test_bell_marginal(self):
        circ = Circuit(2).h(0).cnot(0, 1)
        st = apply_circuit(init_state(2), circ)
        np.testing.assert_allclose(probabilities(st, [0]), [0.5, 0.5], atol=1e-12)

    def test_ordering_first_listed_is_msb(self):
        st = apply_circuit(init_state(2), Circuit(2).add(Gate("x", (1,))))  # |01>
        np.testing.assert_allclose(probabilities(st, [0, 1]), [0, 1, 0, 0])
        np.testing.assert_allclose(probabilities(st, [1, 0]), [0, 0, 1, 0])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            probabilities(init_state(2), [0, 0])

    def test_marginal_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            nq = 5
            st = apply_circuit(init_state(nq), random_circuit(nq, 30, rng))
            full = probabilities(st).reshape((2,) * nq)
            subset = [0, 3]
            marg = probabilities(st, subset)
            direct = full.sum(axis=(1, 2, 4)).reshape(-1)
            np.testing.assert_allclose(marg, direct, atol=1e-12)
            assert abs(marg.sum() - 1.0) < 1e-10


class TestDenseUnitary:
    def test_hadamard_matrix(self):
        u = dense_unitary(Circuit(1).h(0))
        np.testing.assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_cnot_permutation(self):
        u = dense_unitary(Circuit(2).cnot(0, 1))
        expect = np.eye(4)[:, [0, 1, 3, 2]]
        np.testing.assert_allclose(u, expect)

    def test_unitarity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            nq = int(rng.integers(2, 6))
            u = dense_unitary(random_circuit(nq, 25, rng))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << nq), atol=1e-9)

    def test_matches_statevector_on_basis_states(self):
        rng = np.random.default_rng(23)
        nq = 4
        circ = random_circuit(nq, 20, rng)
        u = dense_unitary(circ)
        for basis in (0, 3, 9, 15):
            st = init_state(nq)
            st.amplitudes[0] = 0.0
            st.amplitudes[basis] = 1.0
            out = apply_circuit(st, circ)
            np.testing.assert_allclose(u[:, basis], out.amplitudes, atol=1e-10)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            dense_unitary(Circuit(13).h(0))


# ---------------------------------------------------------------------------
# Every gate kind against its textbook matrix, built without the simulator
# ---------------------------------------------------------------------------

Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1])


def turn(pauli):
    return lambda t: math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * pauli


# kind -> (controls it takes, None for one or more; its 2x2 U, or U as a
# function of the angle)
TEXTBOOK = {
    "rx": (0, turn(X)), "ry": (0, turn(Y)), "rz": (0, turn(Z)),
    "h": (0, np.array([[1, 1], [1, -1]]) / math.sqrt(2)), "x": (0, X),
    "z": (0, Z), "cnot": (1, X), "cz": (1, Z), "cry": (1, turn(Y)),
    "cphase": (1, lambda t: np.diag([1, np.exp(1j * t)])), "mcx": (None, X)}

# (wires, controls, target): the target below, between and above its controls
PLACES = [(3, (), 0), (4, (), 2), (3, (2,), 0), (4, (0,), 3), (4, (3,), 1),
          (3, (1, 2), 0), (3, (2, 0), 1), (4, (0, 1), 3), (4, (3, 0, 2), 1)]


def place_id(wires, controls, target):
    return f"{wires}w-c{''.join(map(str, controls))}-t{target}"


@pytest.mark.parametrize("kind,wires,controls,target", [
    pytest.param(kind, *place, id=f"{kind}-{place_id(*place)}")
    for kind, (takes, _) in TEXTBOOK.items() for place in PLACES
    if len(place[1]) == takes or (takes is None and place[1])])
def test_kind_matches_textbook(kind, wires, controls, target):
    # U on the target where every control is |1>, and U^+ for the inverse
    u = TEXTBOOK[kind][1]
    angle = 1.234 if callable(u) else None
    gate = Gate(kind, (target,), controls, angle)
    expect = controlled_oracle(wires, controls, target,
                               u(angle) if callable(u) else u)
    np.testing.assert_allclose(dense_unitary(Circuit(wires).add(gate)), expect,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(dense_unitary(Circuit(wires).add(gate.inverse())),
                               expect.conj().T, rtol=0, atol=1e-15)
    assert (gate.inverse() is gate) == (angle is None)


# one wire and no control: a statevector's target-free view is 0-d
@pytest.mark.parametrize("wires,controls,target", [
    pytest.param(*place, id=place_id(*place)) for place in [(1, (), 0), *PLACES]])
def test_ucry_matches_textbook(wires, controls, target):
    # RY(angle[i]) on the target where the controls read i
    angles = tuple(np.linspace(-2.5, 3.0, 1 << len(controls)).tolist())
    gate = Gate("ucry", (target,), controls, angles)
    expect = np.eye(1 << wires)
    for i, angle in enumerate(angles):
        expect = controlled_oracle(wires, controls, target, turn(Y)(angle), i) @ expect
    np.testing.assert_allclose(dense_unitary(Circuit(wires).add(gate)), expect,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        apply_circuit(init_state(wires), Circuit(wires).add(gate)).amplitudes,
        expect[:, 0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(dense_unitary(Circuit(wires).add(gate.inverse())),
                               expect.conj().T, rtol=0, atol=1e-15)


def test_global_phase_helper_sane():
    u = dense_unitary(Circuit(1).h(0))
    assert phase_aligned_distance(u, np.exp(0.7j) * u) < 1e-12


# ---------------------------------------------------------------------------
# The memory budget
# ---------------------------------------------------------------------------


def test_one_memory_budget():
    """ResourceLimitError has one raise site for memory, and no module has a
    cap of its own.  The one other site refuses resource counts past the
    int64 range of their depths, which bounds no allocation."""
    sites, caps = [], []
    for path in sorted((Path(sim.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            sites += [(path.stem, owner) for node in ast.walk(top)
                      if isinstance(node, ast.Raise) and node.exc is not None
                      and "ResourceLimitError" in ast.unparse(node.exc)]
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            caps += [f"{path.stem}.{target.id}" for target in targets
                     if isinstance(target, ast.Name) and target.id.endswith("_CAP")]
    assert sites == [("bench", "resource_rows"), ("sim", "check_memory")], sites
    assert caps == []


def test_refusal_names_any_size():
    # exact digits up to 2**128; past it, a power of two, since str() refuses
    # an integer of over 4300 digits
    for nbytes, size in (((1 << 128) - 1, str((1 << 128) - 1)),
                         (1 << 128, "at least 2**128"),
                         (3 << 20000, "at least 2**20001")):
        with pytest.raises(ResourceLimitError) as refused:
            sim.check_memory("a request", nbytes)
        assert str(refused.value) == (f"a request needs {size} bytes, "
                                      "exceeding the cap of 1073741824")


@pytest.mark.parametrize("build,fits,allocator", [
    (init_state, 26, "zeros"),                      # 16 B per amplitude
    (lambda q: dense_unitary(Circuit(q)), 12, "eye")],  # 64 B per entry
    ids=["init_state", "dense_unitary"])
def test_budget_boundary(monkeypatch, build, fits, allocator):
    class Reached(Exception):
        pass

    def refuse(*a, **k):
        raise Reached

    monkeypatch.setattr(sim, "np", SimpleNamespace(complex128=np.complex128,
                                                   **{allocator: refuse}))
    with pytest.raises(ResourceLimitError, match="exceeding the cap of 1073741824"):
        build(fits + 1)
    with pytest.raises(Reached):
        build(fits)


@pytest.fixture
def checked(monkeypatch):
    """(what, nbytes) of every memory check made while the test runs."""
    calls = []
    check = sim.check_memory

    def record(what, nbytes, log2=0):
        calls.append((what, nbytes * 2**log2))
        check(what, nbytes, log2)

    for module in (sim, engine, distributions, cli):
        monkeypatch.setattr(module, "check_memory", record)
    return calls


def checked_bytes(calls, what):
    [nbytes] = [b for w, b in calls if w.startswith(what)]
    return nbytes


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_multiplexor_applies_in_place():
    # controls that do not lead, out of wire order: the matrix and the two
    # half-matrix temporaries every gate takes, with no copy of the matrix
    circ = Circuit(10).ucry((9, 3, 5, 7), 0, np.linspace(-2.5, 3.0, 16))
    assert traced_peak(lambda: dense_unitary(circ)) <= 2.1 * (16 << 20)


class TestFormulasCoverPeaks:
    """A request's traced peak stays within the bytes its check counted."""

    @pytest.mark.parametrize("app,m", [("simple", 14), ("stress", 7),
                                       ("neoclassical", 12)])
    def test_f_path(self, checked, app, m):
        peak = traced_peak(lambda: econ.estimate(econ.workload(app), m, 1))
        assert peak <= checked_bytes(checked, "an F register")

    @pytest.mark.parametrize("n", [12, 16])
    def test_readout(self, checked, n):
        # auto builds the 2**n outcomes only when they are read
        peak = traced_peak(lambda: econ.estimate(econ.workload("simple"), 1, n)
                           .estimate.distribution)
        assert peak <= checked_bytes(checked, "a readout")

    def test_readout_after_f_is_freed(self, monkeypatch):
        # the F path's and the readout's bytes are checked apart, so F's
        # gates and state must be gone before the readout allocates
        built, states = [], []
        assemble_f, spectral = engine.assemble_f, engine.spectral_distribution
        apply_circuit = engine.apply_circuit

        def assemble(*args, **kwargs):
            f = assemble_f(*args, **kwargs)
            built.append(weakref.ref(f))
            return f

        def simulate(*args):
            state = apply_circuit(*args)
            states.append(weakref.ref(state.amplitudes))
            return state

        def readout(p1, n):
            assert built[0]() is None, "F still alive at the readout"
            assert len(states) == 1 and states[0]() is None, \
                "F's statevector still alive at the readout"
            return spectral(p1, n)

        monkeypatch.setattr(engine, "assemble_f", assemble)
        monkeypatch.setattr(engine, "apply_circuit", simulate)
        monkeypatch.setattr(engine, "spectral_distribution", readout)
        econ.estimate(econ.workload("stress"), 3, 4).estimate.distribution

    @pytest.mark.parametrize("m,layers", [(16, 31), (18, 7)])
    def test_training(self, checked, m, layers):
        # one epoch: the stored states, the epoch's temporaries and blocks
        target = distributions.discretize_normal(m, 0.0, 1.0, -3.0, 3.0)
        schedule = distributions.TrainingSchedule([(1, 0.1)])
        peak = traced_peak(lambda: distributions.train_ansatz(target, layers, schedule))
        assert peak <= checked_bytes(checked, "training")

    @pytest.mark.parametrize("app,m,n", [("stress", 6, 1), ("simple", 12, 2),
                                         ("neoclassical", 13, 2),
                                         ("neoclassical", 15, 1)],
                             ids=["14-qubits", "15-qubits", "16-qubits",
                                  "17-qubits-large-F"])
    def test_circuit_method(self, checked, app, m, n):
        peak = traced_peak(lambda: econ.estimate(econ.workload(app), m, n,
                                                 method="circuit"))
        assert peak <= checked_bytes(checked, "phase estimation")

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_circuit_method_counts_before_building(self, checked, monkeypatch, n):
        # the stored gates are reckoned from F's length, before Q is
        # built, and equal those of F and the two circuits
        rng = np.random.default_rng(n)
        f = random_circuit(5, 40, rng)
        f.ucry([0, 1, 2], 4, rng.uniform(-3, 3, 8))
        config = engine.QMCConfig(m=4, n=n, method="circuit")
        build, checks_before = engine.grover_operator, []

        def circuits(*args):
            checks_before.append(len(checked))
            return build(*args)

        checked.clear()
        monkeypatch.setattr(engine, "grover_operator", circuits)
        engine._simulate_distribution(config, f, n)
        stored = len(f) + len(build(f)) + n * (n + 1) // 2
        assert checks_before == [1]
        assert checked[0] == (f"phase estimation on {5 + n} qubits",
                              80 * (1 << 5 + n) + 32 * stored + 64 * 8 + (1 << 20))

    def test_circuit_method_gate_list(self, checked):
        # a trained-ansatz F of 11 gates per layer makes the stored Grover
        # operator long, and it runs 2**n - 1 times
        m, n = 3, 2
        config = engine.QMCConfig(m=m, n=n, r_mode="linear", method="circuit")
        dist = econ.neoclassical_shock_grid(m)
        rv = engine.normalize_rv(dist.grid)
        f = engine.assemble_f([dist], rv, bench._bench_ansatz(m, 30),
                              engine.LinearRParams.for_oracle_budget(rv, n))
        peak = traced_peak(lambda: engine._simulate_distribution(config, f, n))
        assert peak <= checked_bytes(checked, "phase estimation")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_distribution_out(self, checked, capsys, tmp_path, fmt):
        argv = ["--format", fmt, "run", "simple", "--n", "12",
                "--distribution-out", str(tmp_path / f"dist.{fmt}")]
        peak = traced_peak(lambda: cli.main(argv))
        assert peak <= checked_bytes(checked, "--distribution-out")

    @pytest.mark.parametrize("command", [
        ["oracle", "simple"], ["oracle", "stress"], ["oracle", "neoclassical"],
        ["train-a", "--layers", "1", "--params-out", "unused.txt"]],
        ids=["oracle-simple", "oracle-stress", "oracle-neoclassical", "train-a"])
    @pytest.mark.parametrize("m", [16, 18])
    def test_shock_grid(self, checked, monkeypatch, capsys, command, m):
        def stop(*args):
            raise ValueError("the training states are checked on their own")

        monkeypatch.setattr(cli, "train_ansatz", stop)
        peak = traced_peak(lambda: cli.main([*command, "--m", str(m)]))
        assert peak <= checked_bytes(checked, "a shock grid")

    @pytest.mark.parametrize("q", [8, 9])
    def test_dense_unitary(self, checked, q):
        rng = np.random.default_rng(q)
        circ = random_circuit(q, 30, rng)
        for k in range(4):
            circ.ucry(range(k), q - 1, rng.uniform(-3, 3, 1 << k))
        peak = traced_peak(lambda: dense_unitary(circ))
        assert peak <= checked_bytes(checked, "a dense unitary")

    # the last two: the 2**m shock grid dominates
    @pytest.mark.parametrize("m,n,layers", [(3, 3, 100), (5, 6, 20), (3, 30, 200),
                                            (14, 3, 1), (16, 3, 1)])
    def test_resource_count(self, checked, m, n, layers):
        peak = traced_peak(lambda: bench.resource_rows(m, [n], layers))
        assert peak <= checked_bytes(checked, "counting")

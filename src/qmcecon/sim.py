"""Dense statevector simulation of qubit circuits.

Conventions used throughout the package:

* Qubit 0 is the **most significant bit** of the basis-state index, so for a
  3-qubit register the basis state |q0 q1 q2> = |110> has index 6.
* Global phase is unobservable; equivalence checks elsewhere compare states up
  to one complex unit scalar, or compare probability vectors.
* Amplitudes are stored as ``complex128`` and are never renormalised while a
  circuit runs.  Norm drift stays below 1e-10 for the circuit sizes handled
  here and is monitored by the test suite rather than corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Hard cap for statevector allocation (2**q complex amplitudes): 30 qubits
# already mean 16 GiB.
QUBIT_CAP = 30

# dense_unitary builds a 2**q x 2**q matrix; 12 qubits -> 256 MiB.
DENSE_UNITARY_CAP = 12


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed simulator memory limits."""


# gate kind -> (num targets, num controls, takes angle)
_GATE_SIGNATURES = {
    "rx": (1, 0, True),
    "ry": (1, 0, True),
    "rz": (1, 0, True),
    "h": (1, 0, False),
    "x": (1, 0, False),
    "cnot": (1, 1, False),
    "cz": (1, 1, False),
    "cry": (1, 1, True),
    "cphase": (1, 1, True),
    "mcx": (1, None, False),  # any number of controls
}

_SELF_INVERSE = {"h", "x", "cnot", "cz", "mcx"}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate acting on named qubit indices.

    ``targets`` and ``controls`` must be disjoint; rotation kinds carry a
    finite ``angle`` in radians.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _GATE_SIGNATURES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_t, n_c, has_angle = _GATE_SIGNATURES[self.kind]
        if len(self.targets) != n_t:
            raise ValueError(f"{self.kind} expects {n_t} target(s), got {self.targets}")
        if n_c is not None and len(self.controls) != n_c:
            raise ValueError(f"{self.kind} expects {n_c} control(s), got {self.controls}")
        if self.kind == "mcx" and len(self.controls) < 1:
            raise ValueError("mcx needs at least one control")
        qubits = self.targets + self.controls
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"targets/controls overlap in {self.kind}: {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index in {self.kind}: {qubits}")
        if has_angle:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE:
            return self
        return Gate(self.kind, self.targets, self.controls, -self.angle)


@dataclass
class Circuit:
    """Ordered gate sequence over ``num_qubits`` named qubits."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, gate: Gate) -> "Circuit":
        if max(gate.qubits) >= self.num_qubits:
            raise ValueError(
                f"gate {gate.kind} on qubits {gate.qubits} exceeds register "
                f"of {self.num_qubits} qubits"
            )
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        source = gates.gates if isinstance(gates, Circuit) else gates
        for g in source:
            self.add(g)
        return self

    # -- convenience builders ------------------------------------------------
    def rx(self, q, angle):
        return self.add(Gate("rx", (q,), angle=angle))

    def ry(self, q, angle):
        return self.add(Gate("ry", (q,), angle=angle))

    def rz(self, q, angle):
        return self.add(Gate("rz", (q,), angle=angle))

    def h(self, q):
        return self.add(Gate("h", (q,)))

    def x(self, q):
        return self.add(Gate("x", (q,)))

    def cnot(self, control, target):
        return self.add(Gate("cnot", (target,), (control,)))

    def cz(self, control, target):
        return self.add(Gate("cz", (target,), (control,)))

    def cry(self, control, target, angle):
        return self.add(Gate("cry", (target,), (control,), angle))

    def cphase(self, control, target, angle):
        return self.add(Gate("cphase", (target,), (control,), angle))

    def mcx(self, controls, target):
        return self.add(Gate("mcx", (target,), tuple(controls)))

    def inverse(self) -> "Circuit":
        inv = Circuit(self.num_qubits)
        inv.gates = [g.inverse() for g in reversed(self.gates)]
        return inv

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class StateVector:
    """2**num_qubits complex amplitudes of a pure state."""

    num_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


def init_state(num_qubits: int) -> StateVector:
    """Return |0...0> on ``num_qubits`` qubits.

    Raises ResourceLimitError above ``QUBIT_CAP`` qubits, naming the memory a
    dense statevector of that size would need.
    """
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > QUBIT_CAP:
        need = 16 * (1 << num_qubits)
        raise ResourceLimitError(
            f"{num_qubits} qubits exceed the cap of {QUBIT_CAP}: a dense "
            f"statevector would need {need} bytes ({need / 2**30:.1f} GiB)"
        )
    amp = np.zeros(1 << num_qubits, dtype=np.complex128)
    amp[0] = 1.0
    return StateVector(num_qubits, amp)


# ---------------------------------------------------------------------------
# Gate matrices
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=np.complex128)
    raise ValueError(f"not a rotation kind: {kind}")


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "h":
        return _H
    if gate.kind == "x":
        return _X
    return rotation_matrix(gate.kind, gate.angle)


# ---------------------------------------------------------------------------
# In-place application on a tensor whose first ``nq`` axes are qubit axes.
# Trailing axes (used by dense_unitary) broadcast through untouched.
# ---------------------------------------------------------------------------

def _control_view(tensor: np.ndarray, controls: tuple[int, ...], nq: int):
    """View of the subspace where every control qubit is |1>.

    Returns the view and a map from original qubit index to axis position
    inside the view (control axes are collapsed away).
    """
    index = [slice(None)] * tensor.ndim
    for c in controls:
        index[c] = 1
    view = tensor[tuple(index)]
    ctrl = set(controls)
    axis_of = {}
    pos = 0
    for q in range(nq):
        if q in ctrl:
            continue
        axis_of[q] = pos
        pos += 1
    return view, axis_of


def _apply_matrix_axis(view: np.ndarray, mat: np.ndarray, axis: int) -> None:
    moved = np.moveaxis(view, axis, 0)
    a0 = moved[0].copy()
    a1 = moved[1]
    moved[0] = mat[0, 0] * a0 + mat[0, 1] * a1
    moved[1] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_gate_tensor(tensor: np.ndarray, gate: Gate, nq: int) -> None:
    kind = gate.kind
    if kind in ("rx", "ry", "rz", "h", "x"):
        _apply_matrix_axis(tensor, _single_qubit_matrix(gate), gate.targets[0])
        return
    view, axis_of = _control_view(tensor, gate.controls, nq)
    t_axis = axis_of[gate.targets[0]]
    if kind in ("cnot", "mcx"):
        moved = np.moveaxis(view, t_axis, 0)
        tmp = moved[0].copy()
        moved[0] = moved[1]
        moved[1] = tmp
    elif kind == "cz":
        moved = np.moveaxis(view, t_axis, 0)
        moved[1] *= -1.0
    elif kind == "cphase":
        moved = np.moveaxis(view, t_axis, 0)
        moved[1] *= np.exp(1j * gate.angle)
    elif kind == "cry":
        _apply_matrix_axis(view, rotation_matrix("ry", gate.angle), t_axis)
    else:  # pragma: no cover - signature table keeps this unreachable
        raise ValueError(f"cannot simulate gate kind {kind!r}")


def _check_gate_fits(gate: Gate, num_qubits: int) -> None:
    if max(gate.qubits) >= num_qubits:
        raise ValueError(
            f"gate {gate.kind} on qubits {gate.qubits} does not fit a "
            f"{num_qubits}-qubit state"
        )


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state transformed by one gate (input is left untouched)."""
    _check_gate_fits(gate, state.num_qubits)
    amp = state.amplitudes.copy()
    tensor = amp.reshape((2,) * state.num_qubits)
    _apply_gate_tensor(tensor, gate, state.num_qubits)
    return StateVector(state.num_qubits, amp)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply all gates of ``circuit`` in order, returning a new state."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    amp = state.amplitudes.copy()
    tensor = amp.reshape((2,) * state.num_qubits)
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate, state.num_qubits)
    return StateVector(state.num_qubits, amp)


def probabilities(state: StateVector, qubits=None) -> np.ndarray:
    """Marginal outcome distribution of the listed qubits.

    The first listed qubit is the most significant bit of the outcome index.
    With ``qubits=None`` the full distribution over all qubits is returned.
    """
    nq = state.num_qubits
    probs = np.abs(state.amplitudes) ** 2
    if qubits is None:
        return probs
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {qubits}")
    if any(q < 0 or q >= nq for q in qubits):
        raise ValueError(f"qubit index out of range in {qubits}")
    tensor = probs.reshape((2,) * nq)
    others = tuple(q for q in range(nq) if q not in qubits)
    marg = tensor.sum(axis=others) if others else tensor
    kept_sorted = sorted(qubits)
    perm = [kept_sorted.index(q) for q in qubits]
    return np.transpose(marg, perm).reshape(-1)


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**q x 2**q matrix of a circuit (q <= DENSE_UNITARY_CAP)."""
    q = circuit.num_qubits
    if q > DENSE_UNITARY_CAP:
        raise ResourceLimitError(
            f"dense unitary for {q} qubits exceeds the {DENSE_UNITARY_CAP}-qubit cap"
        )
    dim = 1 << q
    mat = np.eye(dim, dtype=np.complex128)
    tensor = mat.reshape((2,) * q + (dim,))
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate, q)
    return tensor.reshape(dim, dim)

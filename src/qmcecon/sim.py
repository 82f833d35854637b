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

# Bytes that one request may allocate at its peak.  Read at call time as
# ``sim.MEMORY_BUDGET``, so setting it moves every check at once.
MEMORY_BUDGET = 1 << 30


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed the memory budget."""


def check_memory(what: str, nbytes: int) -> None:
    """Refuse a request whose peak allocation ``nbytes`` exceeds the budget.

    Every request sized by a register or by a count from the command line
    calls this once, before it allocates, with ``what`` naming it.
    """
    if nbytes > MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs {nbytes} bytes, exceeding the cap of {MEMORY_BUDGET}")


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
    "ucry": (1, None, True),  # any number of controls; a tuple of 2**k angles
}

_SELF_INVERSE = {"h", "x", "cnot", "cz", "mcx"}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate acting on named qubit indices.

    ``targets`` and ``controls`` must be disjoint; rotation kinds carry a
    finite ``angle`` in radians.

    ``ucry`` is the uniformly controlled RY (a multiplexor): it rotates the
    target by ``angle[i]`` when the k controls hold the bits of i, the first
    control the most significant.  Its ``angle`` is a tuple of 2**k finite
    floats, so the gate stays hashable and comparable like every other.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | tuple[float, ...] | None = None

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
        if self.kind == "ucry":
            need = 1 << len(self.controls)
            if not isinstance(self.angle, tuple) or len(self.angle) != need:
                raise ValueError(f"ucry with {len(self.controls)} controls needs a "
                                 f"tuple of {need} angles")
            if not all(map(math.isfinite, self.angle)):
                raise ValueError("ucry needs finite angles")
        elif has_angle:
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
        if self.kind == "ucry":
            return Gate("ucry", self.targets, self.controls,
                        tuple(-a for a in self.angle))
        return Gate(self.kind, self.targets, self.controls, -self.angle)


@dataclass
class Circuit:
    """Ordered gate sequence over ``num_qubits`` named qubits."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

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

    def ucry(self, controls, target, angles):
        angles = tuple(np.asarray(angles, dtype=float).tolist())
        return self.add(Gate("ucry", (target,), tuple(controls), angles))

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


def init_state(num_qubits: int) -> StateVector:
    """Return |0...0> on ``num_qubits`` qubits.

    The state is 16 * 2**num_qubits bytes of complex128 amplitudes, checked
    against the memory budget before it is allocated (26 qubits fit).
    """
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    check_memory(f"a statevector of {num_qubits} qubits", 16 * (1 << num_qubits))
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
# In-place application on a tensor whose leading axes are the qubit axes.
# Trailing axes (used by dense_unitary) broadcast through untouched.
# ---------------------------------------------------------------------------

def _control_view(tensor: np.ndarray, controls: tuple[int, ...], target: int):
    """View of the subspace where every control qubit is |1>, and the
    target's axis in it: the control axes are collapsed away, so the target
    moves down by one axis per control below it.
    """
    index = [slice(None)] * tensor.ndim
    for c in controls:
        index[c] = 1
    return tensor[tuple(index)], target - sum(c < target for c in controls)


def _apply_matrix_axis(view: np.ndarray, mat: np.ndarray, axis: int) -> None:
    moved = np.moveaxis(view, axis, 0)
    a0 = moved[0].copy()
    a1 = moved[1]
    moved[0] = mat[0, 0] * a0 + mat[0, 1] * a1
    moved[1] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_ucry(tensor: np.ndarray, gate: Gate) -> None:
    """Rotate the target by angle[i] in the block where the controls read i.

    The control axes and then the target axis move to the front, so the
    tensor reads as (2**k, 2, rest) and row i turns by its own RY: one
    vectorised pass, however many controls there are.
    """
    k = len(gate.controls)
    half = np.asarray(gate.angle) / 2
    cos, sin = np.cos(half)[:, None], np.sin(half)[:, None]
    moved = np.moveaxis(tensor, gate.controls + gate.targets, range(k + 1))
    rows = moved.reshape(1 << k, 2, -1)    # a copy unless the axes lead
    top, bottom = rows[:, 0], rows[:, 1]
    old_top = top.copy()
    # in place: one half-state temporary at a time besides old_top
    top *= cos
    top -= sin * bottom
    bottom *= cos
    bottom += sin * old_top
    if not np.may_share_memory(rows, tensor):
        moved[...] = rows.reshape(moved.shape)


def _apply_gate_tensor(tensor: np.ndarray, gate: Gate) -> None:
    kind = gate.kind
    if kind in ("rx", "ry", "rz", "h", "x"):
        _apply_matrix_axis(tensor, _single_qubit_matrix(gate), gate.targets[0])
        return
    if kind == "ucry":
        _apply_ucry(tensor, gate)
        return
    view, t_axis = _control_view(tensor, gate.controls, gate.targets[0])
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


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply all gates of ``circuit`` in order, returning a new state."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, "
                         f"state has {state.num_qubits}")
    amp = state.amplitudes.copy()
    tensor = amp.reshape((2,) * state.num_qubits)
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate)
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
    """Full 2**q x 2**q matrix of a circuit.

    Checked as four complex128 matrices, 64 * 4**q bytes (12 qubits fit):
    a 2x2 gate's temporaries bring the peak to 2.5 of them, and a
    multiplexor's working copy to 3.0-3.3.
    """
    q = circuit.num_qubits
    check_memory(f"a dense unitary of {q} qubits", 64 * (1 << 2 * q))
    dim = 1 << q
    mat = np.eye(dim, dtype=np.complex128)
    tensor = mat.reshape((2,) * q + (dim,))
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate)
    return tensor.reshape(dim, dim)

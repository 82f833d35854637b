"""Circuit construction and lowering utilities.

Provides the inverse quantum Fourier transform, multi-controlled X builders,
a decomposition pass into the elementary gate set {RX, RY, RZ, CNOT}, and
resource accounting (gate counts, ASAP depth) used by the runtime benchmarks.

The inverse QFT here carries no SWAP network; the bit reversal it would
implement is handled classically when reading out phase-estimation results
(each SWAP would cost 3 CNOTs for no physical benefit).
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

from .sim import Circuit, Gate

ELEMENTARY_KINDS = ("rx", "ry", "rz", "cnot")


# ---------------------------------------------------------------------------
# Inverse QFT (no SWAPs)
# ---------------------------------------------------------------------------

def _qft_core(qubits: list[int]) -> list[Gate]:
    """Textbook QFT cascade without the final SWAP network."""
    n = len(qubits)
    gates = []
    for j in range(n):
        gates.append(Gate("h", (qubits[j],)))
        for k in range(j + 1, n):
            angle = math.pi / 2 ** (k - j)
            gates.append(Gate("cphase", (qubits[j],), (qubits[k],), angle))
    return gates


def inverse_qft(qubits) -> Circuit:
    """Inverse QFT on the listed qubits (first qubit = most significant bit).

    The returned circuit equals bit_reversal . DFT_inverse as a matrix: a
    state holding Fourier phases of x comes out as the basis state with the
    bits of x reversed.  Callers undo the reversal by re-indexing outcomes.
    """
    qs = list(qubits)
    if not qs:
        raise ValueError("inverse_qft needs at least one qubit")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubit in {qs}")
    circ = Circuit(max(qs) + 1)
    # Mirrored forward cascade, inverted: yields bitrev . DFT^{-1} without SWAPs.
    for gate in reversed(_qft_core(qs[::-1])):
        circ.add(gate.inverse())
    return circ


def bit_reversal_permutation(n_bits: int):
    """Index array r with r[i] = bit-reversed i over n_bits."""
    import numpy as np

    idx = np.arange(1 << n_bits)
    rev = np.zeros_like(idx)
    for b in range(n_bits):
        rev |= ((idx >> b) & 1) << (n_bits - 1 - b)
    return rev


# ---------------------------------------------------------------------------
# Multi-controlled X
# ---------------------------------------------------------------------------

def mcx(controls, target: int, work=()) -> Circuit:
    """Multi-controlled X as a circuit of Toffoli-level gates.

    With ``len(work) >= len(controls) - 2`` clean work qubits the linear-cost
    ladder of 2k-3 Toffolis is used and the work qubits are returned to |0>.
    With too few work qubits the construction falls back to an ancilla-free
    gray-code cascade (exact but much costlier); the fallback is flagged in
    ``circuit.metadata["mcx_fallback"]``.
    """
    controls = list(controls)
    work = list(work)
    all_qubits = controls + [target] + work
    if len(set(all_qubits)) != len(all_qubits):
        raise ValueError(f"controls/target/work overlap: {all_qubits}")
    circ = Circuit(max(all_qubits) + 1)
    k = len(controls)
    if k == 0:
        return circ.x(target)
    if k == 1:
        return circ.cnot(controls[0], target)
    if k == 2:
        return circ.mcx(controls, target)
    if len(work) >= k - 2:
        ladder = [Gate("mcx", (work[0],), (controls[0], controls[1]))]
        for i in range(2, k - 1):
            ladder.append(Gate("mcx", (work[i - 1],), (controls[i], work[i - 2])))
        for g in ladder:
            circ.add(g)
        circ.add(Gate("mcx", (target,), (controls[k - 1], work[k - 3])))
        for g in reversed(ladder):
            circ.add(g)
        return circ
    warnings.warn(
        f"mcx with {k} controls got {len(work)} work qubits (< {k - 2}); "
        "using the ancilla-free gray-code construction"
    )
    circ.metadata["mcx_fallback"] = True
    for g in _mcx_graycode(controls, target):
        circ.add(g)
    return circ


def _gray_codes(n: int):
    return [i ^ (i >> 1) for i in range(1 << n)]


def _mcx_graycode(controls: list[int], target: int):
    """Ancilla-free multi-controlled X via a gray-code phase cascade.

    H on the target turns the problem into a multi-controlled Z, which is a
    product of two-qubit controlled phases of +-pi/2**(k-1) walked along a
    gray code, with CNOTs among the controls tracking parities.
    """
    k = len(controls)
    lam = math.pi / 2 ** (k - 1)
    yield Gate("h", (target,))
    last = 0
    for code in _gray_codes(k)[1:]:  # skip the all-zero pattern
        # bit b of `code` refers to controls[b], bit 0 = leftmost control
        bits = [(code >> (k - 1 - b)) & 1 for b in range(k)]
        lm = bits.index(1)
        changed = code ^ last
        pos = next(b for b in range(k) if (changed >> (k - 1 - b)) & 1)
        if pos != lm:
            yield Gate("cnot", (controls[lm],), (controls[pos],))
        else:
            for b in range(lm + 1, k):
                if bits[b]:
                    yield Gate("cnot", (controls[lm],), (controls[b],))
        sign = 1.0 if sum(bits) % 2 else -1.0
        yield Gate("cphase", (target,), (controls[lm],), sign * lam)
        last = code
    yield Gate("h", (target,))


# ---------------------------------------------------------------------------
# Decomposition into {RX, RY, RZ, CNOT}
# ---------------------------------------------------------------------------

def _lower_h(q: int):
    # H = i * RY(pi/2) RZ(pi)  (RZ applied first)
    yield Gate("rz", (q,), angle=math.pi)
    yield Gate("ry", (q,), angle=math.pi / 2)


def _lower_toffoli(a: int, b: int, t: int):
    """Standard 6-CNOT Toffoli with T gates expressed as RZ(+-pi/4)."""
    tq = math.pi / 4
    yield from _lower_h(t)
    yield Gate("cnot", (t,), (b,))
    yield Gate("rz", (t,), angle=-tq)
    yield Gate("cnot", (t,), (a,))
    yield Gate("rz", (t,), angle=tq)
    yield Gate("cnot", (t,), (b,))
    yield Gate("rz", (t,), angle=-tq)
    yield Gate("cnot", (t,), (a,))
    yield Gate("rz", (b,), angle=tq)
    yield Gate("rz", (t,), angle=tq)
    yield from _lower_h(t)
    yield Gate("cnot", (b,), (a,))
    yield Gate("rz", (a,), angle=tq)
    yield Gate("rz", (b,), angle=-tq)
    yield Gate("cnot", (b,), (a,))


def _lower_gate(gate: Gate):
    kind = gate.kind
    if kind in ELEMENTARY_KINDS or kind == "barrier":
        yield gate
        return
    if kind == "h":
        yield from _lower_h(gate.targets[0])
    elif kind == "x":
        yield Gate("rx", gate.targets, angle=math.pi)
    elif kind == "cz":
        t = gate.targets[0]
        yield from _lower_h(t)
        yield Gate("cnot", (t,), gate.controls)
        yield from _lower_h(t)
    elif kind == "cry":
        c, t, phi = gate.controls[0], gate.targets[0], gate.angle
        yield Gate("ry", (t,), angle=phi / 2)
        yield Gate("cnot", (t,), (c,))
        yield Gate("ry", (t,), angle=-phi / 2)
        yield Gate("cnot", (t,), (c,))
    elif kind == "cphase":
        c, t, phi = gate.controls[0], gate.targets[0], gate.angle
        yield Gate("rz", (c,), angle=phi / 2)
        yield Gate("rz", (t,), angle=phi / 2)
        yield Gate("cnot", (t,), (c,))
        yield Gate("rz", (t,), angle=-phi / 2)
        yield Gate("cnot", (t,), (c,))
    elif kind == "mcx":
        n_ctrl = len(gate.controls)
        if n_ctrl == 1:
            yield Gate("cnot", gate.targets, gate.controls)
        elif n_ctrl == 2:
            a, b = gate.controls
            yield from _lower_toffoli(a, b, gate.targets[0])
        else:
            # no work qubits referenced by the gate itself: gray-code cascade
            for sub in _mcx_graycode(list(gate.controls), gate.targets[0]):
                yield from _lower_gate(sub)
    else:
        raise ValueError(f"no decomposition rule for gate kind {kind!r}")


def lower_gates(gates):
    """Stream the elementary-gate lowering of an iterable of gates."""
    for gate in gates:
        yield from _lower_gate(gate)


def decompose(circuit: Circuit) -> Circuit:
    """Rewrite a circuit into {RX, RY, RZ, CNOT} (barriers pass through).

    The result equals the input up to global phase; the randomized test suite
    checks this against dense unitaries.
    """
    out = Circuit(circuit.num_qubits, metadata=dict(circuit.metadata))
    for gate in lower_gates(circuit.gates):
        out.add(gate)
    return out


# ---------------------------------------------------------------------------
# Resource accounting
# ---------------------------------------------------------------------------

@dataclass
class ResourceReport:
    """Gate counts and ASAP-scheduled depth of a decomposed circuit."""

    counts: dict[str, int]
    total_gates: int
    depth: int
    num_qubits: int

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)


@dataclass
class GateTimeModel:
    """Uniform seconds-per-elementary-gate timing model."""

    gate_time: float

    def __post_init__(self):
        if not self.gate_time > 0:
            raise ValueError(f"gate_time must be positive, got {self.gate_time}")


def count_stream(gates, num_qubits: int) -> ResourceReport:
    """Count elementary gates and ASAP depth from a gate stream.

    Every gate occupies one time step on each qubit it touches; a gate is
    scheduled at 1 + the latest finish layer among its qubits.  Barriers
    synchronise their qubits (all of them when given none) without counting.
    """
    counts: Counter = Counter()
    frontier = [0] * num_qubits
    depth = 0
    for gate in gates:
        if gate.kind == "barrier":
            qs = gate.targets if gate.targets else tuple(range(num_qubits))
            sync = max(frontier[q] for q in qs)
            for q in qs:
                frontier[q] = sync
            continue
        if gate.kind not in ELEMENTARY_KINDS:
            raise ValueError(
                f"count_resources expects elementary gates, got {gate.kind!r}; "
                "run decompose first"
            )
        counts[gate.kind] += 1
        layer = 1 + max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = layer
        if layer > depth:
            depth = layer
    return ResourceReport(dict(counts), sum(counts.values()), depth, num_qubits)


def count_resources(circuit: Circuit) -> ResourceReport:
    return count_stream(circuit.gates, circuit.num_qubits)

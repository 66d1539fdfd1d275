"""Multi-party session: the protocol as explicit parties, messages, and resources.

Party 1 measures and broadcasts the two-bit outcome; parties 2..N apply their
correction only after their message is delivered.  The message log is the
only shared structure, is append-only, and each entry carries a total-order
step.  Delivery is reliable, ordered, and loss-free; permuting the delivery
order cannot change the final state because the corrections act on distinct
qubits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, PureState, apply_gate, partial_trace
from .measures import concurrence, eof_from_concurrence, splitting_entropy
from .protocol import (
    BELL_VECTORS,
    BellOutcome,
    CobwebState,
    CorrectionRule,
    Transcript,
    bell_measurement,
    correction_for,
    draw_outcome,
    joint_state,
    normalization_constants,
)
from .states import UnknownQubit, ZsaAmplitudes, one_hot_index, roots_of_unity_zsa


@dataclass
class Party:
    """One node: party 1 measures; remote parties hold one qubit and one pending correction."""

    id: int
    local_qubits: tuple[int, ...]
    pending_correction: CorrectionRule | None = None
    corrections_applied: int = 0


@dataclass(frozen=True)
class ClassicalMessage:
    """Two classical bits from the measuring party to one remote party."""

    step: int
    sender: int
    recipient: int
    payload: int

    def __post_init__(self):
        if self.payload not in (0, 1, 2, 3):
            raise ValueError(f"payload must encode two bits, got {self.payload!r}")


@dataclass(frozen=True)
class ResourceLedger:
    """Quantum and classical cost of one session."""

    ebits_consumed: float
    cbits_total: int
    parties: int


@dataclass(frozen=True, eq=False)
class SessionResult:
    transcript: Transcript
    ledger: ResourceLedger
    messages: tuple[ClassicalMessage, ...]


@dataclass(frozen=True, eq=False)
class BaselineReport:
    """Negative control: the same message flow over a classically correlated state."""

    outcome: BellOutcome
    max_coherence: float
    max_marginal_coherence: float
    entanglement_of_formation: float
    ledger: ResourceLedger
    messages: tuple[ClassicalMessage, ...]


def session_joint_state(q: UnknownQubit, z: ZsaAmplitudes) -> PureState:
    """The joint state a session starts from; fewer than three parties are refused as a session."""
    if z.num_parties < 3:
        raise ValueError("a session needs at least three parties")
    return joint_state(q, z)


def run_session(
    q: UnknownQubit,
    z: ZsaAmplitudes,
    outcome: BellOutcome | None = None,
    seed=None,
    delivery_order=None,
) -> SessionResult:
    """Run the protocol as N communicating parties.

    ``delivery_order`` permutes which remote party's message lands first;
    the default is ascending party id, which reproduces run_protocol bit for
    bit under the same seed.
    """
    n = z.num_parties
    outcome, prob, residual = bell_measurement(session_joint_state(q, z), outcome, seed)

    parties = {k: Party(id=k, local_qubits=(k,)) for k in range(2, n + 1)}
    messages = tuple(
        ClassicalMessage(step=i + 1, sender=1, recipient=k, payload=outcome.payload)
        for i, k in enumerate(range(2, n + 1))
    )

    order = tuple(delivery_order) if delivery_order is not None else tuple(range(2, n + 1))
    if sorted(order) != list(range(2, n + 1)):
        raise ValueError(f"delivery order must be a permutation of 2..{n}, got {order!r}")

    state = residual
    for recipient in order:
        message = messages[recipient - 2]
        party = parties[recipient]
        # A remote party sees nothing but the two-bit payload.
        party.pending_correction = correction_for(BellOutcome(message.payload))
        state = apply_gate(state, [recipient - 1], party.pending_correction.gate)
        party.pending_correction = None
        party.corrections_applied += 1

    reference_bit = correction_for(outcome).reference_bit
    n_alpha, n_beta = normalization_constants(q, z)
    final = CobwebState(
        reference_bit=reference_bit,
        zsa=z,
        qubit=q,
        vector=state,
        norm_constant=n_beta if reference_bit else n_alpha,
    )
    transcript = Transcript(
        outcome=outcome,
        outcome_probability=prob,
        cbits_sent=2,
        parties_notified=n - 1,
        final=final,
    )
    ledger = ResourceLedger(
        ebits_consumed=splitting_entropy(z, 1),
        cbits_total=2 * (n - 1),
        parties=n,
    )
    return SessionResult(transcript=transcript, ledger=ledger, messages=messages)


def classical_only_baseline(
    q: UnknownQubit,
    seed=None,
    outcome: BellOutcome | None = None,
    zsa: ZsaAmplitudes | None = None,
) -> BaselineReport:
    """Run the message flow with a diagonal classically correlated shared state.

    The shared state keeps the ZSA populations |c_k|^2 on the one-hot strings
    but no coherences, so it is separable; local corrections plus classical
    messages then cannot create entanglement, and the report's coherence and
    entanglement-of-formation figures must all be zero.
    """
    z = zsa if zsa is not None else roots_of_unity_zsa(3)
    if z.num_parties != 3:
        raise ValueError("the baseline analyzes a two-party output, so it needs three parties")

    shared = np.zeros((8, 8), dtype=complex)
    for k in range(1, 4):
        shared[one_hot_index(3, k), one_hot_index(3, k)] = abs(z.coeffs[k - 1]) ** 2
    rho = np.kron(np.outer(q.vector(), q.vector().conj()), shared)
    rho_t = rho.reshape(4, 4, 4, 4)  # axes: (a1 row, 23 row, a1 col, 23 col)

    probs = {}
    branches = {}
    for o in BellOutcome:
        b = BELL_VECTORS[o]
        block = np.einsum("i,irjs,j->rs", b.conj(), rho_t, b)
        p = float(np.trace(block).real)
        probs[o] = p
        branches[o] = block
    if outcome is None:
        outcome = draw_outcome(probs, seed)

    messages = tuple(
        ClassicalMessage(step=i + 1, sender=1, recipient=k, payload=outcome.payload)
        for i, k in enumerate(range(2, 4))
    )
    gate = correction_for(outcome).gate.entries
    pair_gate = np.kron(gate, gate)
    out = pair_gate @ (branches[outcome] / probs[outcome]) @ pair_gate.conj().T
    out_dm = DensityMatrix(2, out)

    off_diag = np.abs(out - np.diag(np.diag(out)))
    marginal_coherences = [
        float(np.abs(partial_trace(out_dm, [qubit]).entries[0, 1]))
        for qubit in (1, 2)
    ]
    ledger = ResourceLedger(ebits_consumed=0.0, cbits_total=4, parties=3)
    return BaselineReport(
        outcome=outcome,
        max_coherence=float(off_diag.max()),
        max_marginal_coherence=max(marginal_coherences),
        entanglement_of_formation=eof_from_concurrence(concurrence(out_dm)),
        ledger=ledger,
        messages=messages,
    )


def messages_to_jsonl(messages) -> str:
    """One JSON object per line: {step, from, to, payload}."""
    return "\n".join(
        json.dumps({"step": m.step, "from": m.sender, "to": m.recipient, "payload": m.payload})
        for m in messages
    )

import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

from qcobweb import session
from qcobweb.measures import cobweb_spectrum, splitting_entropy
from qcobweb.linalg import DensityMatrix, PureState, apply_gate
from qcobweb.protocol import (
    BELL_VECTORS,
    BellOutcome,
    bell_table,
    run_protocol,
)
from qcobweb.session import (
    ClassicalMessage,
    classical_only_baseline,
    message_log,
    run_session,
)
from qcobweb.states import UnknownQubit, random_zsa, roots_of_unity_zsa, slot_positions

from _helpers import random_qubit
from oracles import CORRECTION_GATES, bell_projection, cobweb_state

CUBE = roots_of_unity_zsa(3)


def test_session_reproduces_protocol_bitwise():
    rng = np.random.default_rng(42)
    for seed in range(20):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        session = run_session(q, z, seed=seed)
        protocol = run_protocol(q, z, seed=seed)
        assert session.transcript.outcome is protocol.outcome
        assert session.transcript.outcome_probability == protocol.outcome_probability
        np.testing.assert_array_equal(
            session.transcript.final.vector.amplitudes, protocol.final.vector.amplitudes
        )


def test_message_log_shape():
    result = run_session(UnknownQubit(0.9, 0.3), roots_of_unity_zsa(5), seed=7)
    messages = result.messages
    assert len(messages) == 4
    assert [m.recipient for m in messages] == [2, 3, 4, 5]
    assert all(m.sender == 1 for m in messages)
    payloads = {m.payload for m in messages}
    assert payloads == {result.transcript.outcome.payload}
    assert [m.step for m in messages] == [1, 2, 3, 4]


def test_message_log_serialization():
    result = run_session(UnknownQubit(1.2), CUBE, seed=3)
    lines = message_log(3, result.transcript.outcome.payload).splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        doc = json.loads(line)
        assert set(doc) == {"step", "from", "to", "payload"}
        assert doc["step"] == i
        assert doc["from"] == 1
        assert doc["payload"] in (0, 1, 2, 3)


def test_message_log_text_matches_json_dumps():
    """The log rendered from (N, payload) is, line for line, `json.dumps` of each message a session sends."""
    for n in range(3, 21):
        for payload in range(4):
            messages = [ClassicalMessage(step=k - 1, sender=1, recipient=k, payload=payload) for k in range(2, n + 1)]
            expected = "".join(
                json.dumps({"step": m.step, "from": m.sender, "to": m.recipient, "payload": m.payload}) + "\n"
                for m in messages
            )
            assert message_log(n, payload) == expected, (n, payload)
    result = run_session(UnknownQubit(0.9, 0.3), roots_of_unity_zsa(6), seed=7)
    assert message_log(6, result.transcript.outcome.payload) == "".join(
        json.dumps({"step": m.step, "from": m.sender, "to": m.recipient, "payload": m.payload}) + "\n"
        for m in result.messages
    )


def test_delivery_order_does_not_matter():
    """The remote corrections act on distinct qubits, so any delivery order gives the session's state."""
    rng = np.random.default_rng(5)
    for z in (CUBE, random_zsa(5, rng)):
        q = random_qubit(rng)
        remote = list(range(1, z.num_parties))
        for outcome in BellOutcome:
            reference = run_session(q, z, outcome=outcome).transcript.final.vector.amplitudes
            prob, slots = bell_projection(q, z, outcome)
            residual = np.zeros(2 ** (z.num_parties - 1), dtype=complex)
            residual[slot_positions(z.num_parties - 1, 0)] = slots
            residual = PureState(z.num_parties - 1, residual / np.sqrt(prob))
            gate = CORRECTION_GATES[outcome]
            for order in itertools.permutations(remote):
                state = residual
                for qubit in order:
                    state = apply_gate(state, [qubit], gate)
                np.testing.assert_array_equal(state.amplitudes, reference)


def test_ledger_values():
    result = run_session(UnknownQubit(0.5), CUBE, seed=1)
    assert result.ledger.cbits_total == 4
    assert result.ledger.parties == 3
    assert result.ledger.ebits_consumed == pytest.approx(0.9182958340544896, abs=1e-12)
    for n in (4, 6):
        z = roots_of_unity_zsa(n)
        res = run_session(UnknownQubit(0.5), z, seed=1)
        assert res.ledger.cbits_total == 2 * (n - 1)
        assert res.ledger.ebits_consumed == pytest.approx(splitting_entropy(z, 1), abs=1e-14)
    # per-recipient count stays 2 regardless of N
    assert result.transcript.cbits_sent == 2


def test_remote_parties_see_only_two_bits():
    result = run_session(UnknownQubit(0.7, 1.9), CUBE, seed=13)
    for message in result.messages:
        doc = asdict(message)
        assert set(doc) == {"step", "sender", "recipient", "payload"}
        assert doc["payload"] in (0, 1, 2, 3)
    with pytest.raises(ValueError):
        ClassicalMessage(step=1, sender=1, recipient=2, payload=4)


def test_sampling_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        run_session(UnknownQubit(1.0), CUBE)


# --- classical-correlated negative control ------------------------------------


def test_baseline_produces_no_entanglement():
    for seed in range(8):
        report = classical_only_baseline(UnknownQubit(1.2, 0.4), seed=seed)
        assert report.max_coherence < 1e-12
        assert report.max_marginal_coherence < 1e-12
        assert report.entanglement_of_formation == 0.0


def test_baseline_against_quantum_run():
    q = UnknownQubit(np.pi / 2, 0.0)
    baseline = classical_only_baseline(q, outcome=BellOutcome.PSI_MINUS)
    assert baseline.entanglement_of_formation == 0.0
    quantum = cobweb_spectrum(cobweb_state(q, CUBE, 0))
    assert quantum["entanglement_bits"] > 0.5
    # classical cost alone does not separate the two runs
    session = run_session(q, CUBE, outcome=BellOutcome.PSI_MINUS)
    assert baseline.ledger.cbits_total == session.ledger.cbits_total
    assert len(baseline.messages) == len(session.messages)


def test_baseline_respects_populations():
    rng = np.random.default_rng(17)
    z = random_zsa(3, rng)
    report = classical_only_baseline(UnknownQubit(0.9, 0.1), seed=2, zsa=z)
    assert report.max_coherence < 1e-12
    assert report.entanglement_of_formation == 0.0


def _density_matrix_control(q, z, outcome):
    """The control simulated on density matrices: the oracle the thin control is checked against.

    The joint state |psi><psi| (x) sum_k |c_k|^2 |x_k><x_k| is projected on
    each Bell vector of (a, 1); the drawn block is normalized and conjugated
    by the correction gate on both remote qubits.  Returns the four branch
    probabilities and the output matrix.
    """
    shared = np.zeros((8, 8), dtype=complex)
    for k in range(1, 4):
        shared[slot_positions(3, 0)[k], slot_positions(3, 0)[k]] = abs(z.coeffs[k - 1]) ** 2
    rho = np.kron(np.outer(q.vector(), q.vector().conj()), shared).reshape(4, 4, 4, 4)  # (a1, 23, a1, 23)
    blocks = {o: np.einsum("i,irjs,j->rs", b.conj(), rho, b) for o, b in BELL_VECTORS.items()}
    probs = {o: float(np.trace(block).real) for o, block in blocks.items()}
    gate = CORRECTION_GATES[outcome]
    pair_gate = np.kron(gate, gate)
    return probs, pair_gate @ (blocks[outcome] / probs[outcome]) @ pair_gate.conj().T


def _control_output(monkeypatch, q, z, outcome) -> np.ndarray:
    """The two-qubit matrix the control builds its report from, caught where it becomes a DensityMatrix."""
    built = []

    def spy(num_qubits, entries):
        built.append(np.array(entries))
        return DensityMatrix(num_qubits, entries)

    with monkeypatch.context() as patch:
        patch.setattr(session, "DensityMatrix", spy)
        classical_only_baseline(q, outcome=outcome, zsa=z)
    (out,) = built
    return out


def test_baseline_matches_density_matrix_simulation(monkeypatch):
    rng = np.random.default_rng(20261018)
    # every |c_k| is at least 1e-3, so every branch has probability at least 5e-7, poles included
    for z in (CUBE, *(random_zsa(3, rng) for _ in range(40))):
        for theta in (0.0, np.pi, *np.arccos(1.0 - 2.0 * rng.random(2))):
            q = UnknownQubit(float(theta), float(2.0 * np.pi * rng.random()))
            probs = bell_table(q, z).probabilities
            for outcome in BellOutcome:
                oracle_probs, oracle_out = _density_matrix_control(q, z, outcome)
                assert abs(probs[outcome.value] - oracle_probs[outcome]) <= 1e-15
                out = _control_output(monkeypatch, q, z, outcome)
                assert np.max(np.abs(out - oracle_out)) <= 1e-15


def test_baseline_draws_the_protocols_outcome():
    rng = np.random.default_rng(8)
    for z in (CUBE, random_zsa(3, rng), random_zsa(3, rng)):
        q = random_qubit(rng)
        for seed in range(200):
            assert classical_only_baseline(q, seed=seed, zsa=z).outcome is run_protocol(q, z, seed=seed).outcome

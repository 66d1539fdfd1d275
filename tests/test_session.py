import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

from qcobweb.measures import cobweb_spectrum, splitting_entropy
from qcobweb.linalg import apply_gate
from qcobweb.protocol import (
    BellOutcome,
    bell_measurement,
    cobweb_state,
    correction_for,
    joint_state,
    run_protocol,
)
from qcobweb.session import (
    ClassicalMessage,
    classical_only_baseline,
    messages_to_jsonl,
    run_session,
)
from qcobweb.states import UnknownQubit, random_zsa, roots_of_unity_zsa

from _helpers import random_qubit

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
    lines = messages_to_jsonl(result.messages).splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        doc = json.loads(line)
        assert set(doc) == {"step", "from", "to", "payload"}
        assert doc["step"] == i
        assert doc["from"] == 1
        assert doc["payload"] in (0, 1, 2, 3)


def test_delivery_order_does_not_matter():
    """The remote corrections act on distinct qubits, so any delivery order gives the session's state."""
    rng = np.random.default_rng(5)
    for z in (CUBE, random_zsa(5, rng)):
        q = random_qubit(rng)
        remote = list(range(1, z.num_parties))
        for outcome in BellOutcome:
            reference = run_session(q, z, outcome=outcome).transcript.final.vector.amplitudes
            _, _, residual = bell_measurement(joint_state(q, z), outcome)
            gate = correction_for(outcome).gate
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
    assert quantum.entanglement > 0.5
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

import json

import numpy as np
import pytest

from qcobweb.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PureState,
    basis_state,
    equal_up_to_global_phase,
    is_product_state,
    state_fidelity,
    tensor,
)
from qcobweb.protocol import (
    BELL_VECTORS,
    I_SIGMA_Y,
    BellOutcome,
    DegenerateBranch,
    bell_measurement,
    branch_probabilities,
    cobweb_state,
    correction_for,
    draw_outcome,
    generalized_target,
    joint_state,
    normalization_constants,
    run_protocol,
    target_vector,
)
from qcobweb.states import UnknownQubit, one_hot_index, random_zsa, roots_of_unity_zsa

from _helpers import random_qubit

CUBE = roots_of_unity_zsa(3)


def normalized(state: PureState) -> PureState:
    return PureState(state.num_qubits, state.amplitudes / np.linalg.norm(state.amplitudes))


# --- joint state -------------------------------------------------------------


def test_joint_state_product_structure():
    rng = np.random.default_rng(2)
    z = random_zsa(4, rng)
    joint = joint_state(UnknownQubit(0.0), z)
    assert joint.num_qubits == 5
    assert abs(np.vdot(joint.amplitudes, joint.amplitudes) - 1) < 1e-12
    for k in range(1, 5):
        # particle a in |0>: amplitude of |0>_a |x_k> is c_k
        assert joint.amplitudes[one_hot_index(5, k + 1)] == pytest.approx(z.coeffs[k - 1])


def test_joint_state_needs_three_parties():
    from qcobweb.states import epr_zsa

    with pytest.raises(ValueError):
        joint_state(UnknownQubit(1.0), epr_zsa())


def test_bell_resolution_matches_gate_twisted_targets():
    # Each projected branch equals (up to a branch-local phase) the state with
    # the corresponding correction gate pre-applied to |psi> at every slot.
    rng = np.random.default_rng(4)
    for _ in range(25):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        joint = joint_state(q, z)
        for outcome in BellOutcome:
            gate = correction_for(outcome).gate
            twisted = target_vector(gate.entries.conj().T @ q.vector(), z, 0)
            _, prob, residual = bell_measurement(joint, outcome)
            assert prob == pytest.approx(np.vdot(twisted, twisted).real / 2, abs=1e-12)
            assert equal_up_to_global_phase(
                residual, PureState(2, twisted / np.linalg.norm(twisted)), 1e-10
            )


# --- branch probabilities ------------------------------------------------------


def test_branch_probabilities_sum_and_pairing():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        probs = branch_probabilities(joint_state(q, z))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert probs[BellOutcome.PHI_PLUS] == pytest.approx(probs[BellOutcome.PHI_MINUS], abs=1e-12)
        assert probs[BellOutcome.PSI_PLUS] == pytest.approx(probs[BellOutcome.PSI_MINUS], abs=1e-12)


def test_psi_branch_probability_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(200):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        _, c2, c3 = z.coeffs
        closed = (
            abs(c2) ** 2 + abs(c3) ** 2 + 2 * q.alpha**2 * (np.conj(c2) * c3).real
        ) / 2
        probs = branch_probabilities(joint_state(q, z))
        assert probs[BellOutcome.PSI_MINUS] == pytest.approx(closed, abs=1e-12)
        n_alpha, _ = normalization_constants(q, z)
        assert probs[BellOutcome.PSI_MINUS] == pytest.approx(1 / (2 * n_alpha**2), abs=1e-12)


# --- correction table -----------------------------------------------------------


def test_correction_table():
    rules = {o: correction_for(o) for o in BellOutcome}
    np.testing.assert_array_equal(rules[BellOutcome.PHI_PLUS].gate.entries, I_SIGMA_Y.entries)
    np.testing.assert_array_equal(rules[BellOutcome.PHI_MINUS].gate.entries, PAULI_X.entries)
    np.testing.assert_array_equal(rules[BellOutcome.PSI_PLUS].gate.entries, PAULI_Z.entries)
    np.testing.assert_array_equal(rules[BellOutcome.PSI_MINUS].gate.entries, IDENTITY_2.entries)
    assert [rules[o].reference_bit for o in BellOutcome] == [1, 1, 0, 0]
    # bijection onto (gate, reference bit) pairs
    pairs = {(r.gate.entries.tobytes(), r.reference_bit) for r in rules.values()}
    assert len(pairs) == 4


def test_i_sigma_y_convention():
    # i*sigma_y|0> = -|1>, i*sigma_y|1> = |0>
    np.testing.assert_array_equal(I_SIGMA_Y.entries @ [1, 0], [0, -1])
    np.testing.assert_array_equal(I_SIGMA_Y.entries @ [0, 1], [1, 0])


def test_payload_encoding():
    assert [o.payload for o in BellOutcome] == [0, 1, 2, 3]
    assert BellOutcome.from_label("PsiMinus") is BellOutcome.PSI_MINUS
    with pytest.raises(ValueError):
        BellOutcome.from_label("PsiZero")


# --- targets ---------------------------------------------------------------------


def test_generalized_target_tripartite():
    rng = np.random.default_rng(12)
    z = random_zsa(3, rng)
    q = random_qubit(rng)
    target = generalized_target(q, z, 0)
    _, c2, c3 = z.coeffs
    expected = np.zeros(4, dtype=complex)
    expected += c2 * np.kron(q.vector(), [1, 0])  # c2 |psi>|0>
    expected += c3 * np.kron([1, 0], q.vector())  # c3 |0>|psi>
    np.testing.assert_allclose(target.amplitudes, expected, atol=1e-14)


def test_generalized_target_all_ones_input():
    rng = np.random.default_rng(14)
    z = random_zsa(5, rng)
    target = generalized_target(UnknownQubit(np.pi), z, 1)
    # q = |1> collapses the reference-1 target onto -c1 |1111>
    expected = np.zeros(16, dtype=complex)
    expected[15] = -z.coeffs[0]
    np.testing.assert_allclose(target.amplitudes, expected, atol=1e-12)


def test_reference0_target_support():
    rng = np.random.default_rng(16)
    z = random_zsa(4, rng)
    target = generalized_target(random_qubit(rng), z, 0)
    for idx in range(8):
        if bin(idx).count("1") >= 2:
            assert target.amplitudes[idx] == 0.0


# --- end-to-end ------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_protocol_output_matches_target(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        for outcome in BellOutcome:
            transcript = run_protocol(q, z, outcome=outcome)
            target = normalized(generalized_target(q, z, transcript.final.reference_bit))
            assert state_fidelity(transcript.final.vector, target) >= 1 - 1e-10
            assert transcript.cbits_sent == 2
            assert transcript.parties_notified == n - 1
            # the stored constant matches the branch norm: p = 1/(2 N^2)
            assert transcript.outcome_probability == pytest.approx(
                1 / (2 * transcript.final.norm_constant**2), abs=1e-12
            )


def test_pole_input_reference0_is_product():
    transcript = run_protocol(UnknownQubit(0.0), CUBE, outcome=BellOutcome.PSI_MINUS)
    assert transcript.final.reference_bit == 0
    assert is_product_state(transcript.final.vector)
    assert state_fidelity(transcript.final.vector, basis_state(2, 0)) >= 1 - 1e-12


def test_pole_input_reference1_is_entangled():
    transcript = run_protocol(UnknownQubit(0.0), CUBE, outcome=BellOutcome.PHI_PLUS)
    assert transcript.final.reference_bit == 1
    assert not is_product_state(transcript.final.vector)
    # |0> in: expected output has |psi>=|0> sitting next to reference 1 bits
    w = np.exp(2j * np.pi / 3)
    expected = np.zeros(4, dtype=complex)
    expected[1], expected[2] = w, w.conjugate()  # literal cube-roots assignment
    expected /= np.linalg.norm(expected)
    assert equal_up_to_global_phase(transcript.final.vector, PureState(2, expected), 1e-10)


def test_universal_output_form_cube_roots():
    q = UnknownQubit(1.1, 2.2)
    transcript = run_protocol(q, CUBE, outcome=BellOutcome.PSI_MINUS)
    w = np.exp(2j * np.pi / 3)
    expected = w * np.kron(q.vector(), [1, 0]) + w.conjugate() * np.kron([1, 0], q.vector())
    expected /= np.linalg.norm(expected)
    assert equal_up_to_global_phase(transcript.final.vector, PureState(2, expected), 1e-10)


def test_universality_over_angle_grid():
    # output fidelity against the target must not depend on (theta, phi)
    worst = 1.0
    for theta in np.linspace(0, np.pi, 20):
        for phi in np.linspace(0, 2 * np.pi, 20, endpoint=False):
            q = UnknownQubit(theta, phi)
            for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS):
                transcript = run_protocol(q, CUBE, outcome=outcome)
                target = normalized(generalized_target(q, CUBE, transcript.final.reference_bit))
                worst = min(worst, state_fidelity(transcript.final.vector, target))
    assert 1 - worst < 1e-10


def test_q_one_symmetric_statement():
    # |1> in: reference-1 output is a product state, reference-0 output entangled
    q = UnknownQubit(np.pi)
    product = run_protocol(q, CUBE, outcome=BellOutcome.PHI_MINUS)
    assert product.final.reference_bit == 1
    assert is_product_state(product.final.vector)
    entangled = run_protocol(q, CUBE, outcome=BellOutcome.PSI_PLUS)
    assert not is_product_state(entangled.final.vector)


# --- normalization constants ------------------------------------------------------


def test_normalization_pole_identity():
    rng = np.random.default_rng(18)
    for _ in range(50):
        z = random_zsa(3, rng)
        n_alpha, _ = normalization_constants(UnknownQubit(0.0), z)
        assert 1 / n_alpha**2 == pytest.approx(abs(z.coeffs[0]) ** 2, abs=1e-12)


def test_normalization_cube_roots_equator():
    n_alpha, _ = normalization_constants(UnknownQubit(np.pi / 2), CUBE)
    assert 1 / n_alpha**2 == pytest.approx(0.5, abs=1e-12)


def test_normalization_symmetry_at_equator():
    rng = np.random.default_rng(20)
    z = random_zsa(3, rng)
    n_alpha, n_beta = normalization_constants(UnknownQubit(np.pi / 2, 1.3), z)
    assert n_alpha == pytest.approx(n_beta, abs=1e-14)


def test_normalization_matches_vector_norms():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        n_alpha, n_beta = normalization_constants(q, z)
        norm0 = np.linalg.norm(generalized_target(q, z, 0).amplitudes)
        norm1 = np.linalg.norm(generalized_target(q, z, 1).amplitudes)
        assert n_alpha == pytest.approx(1 / norm0, abs=1e-12)
        assert n_beta == pytest.approx(1 / norm1, abs=1e-12)


def test_tripartite_printed_norm_form():
    # for three parties: 1/N(alpha)^2 = |c2|^2 + |c3|^2 + 2 alpha^2 Re(c2* c3)
    rng = np.random.default_rng(24)
    for _ in range(100):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        _, c2, c3 = z.coeffs
        printed = abs(c2) ** 2 + abs(c3) ** 2 + 2 * q.alpha**2 * (np.conj(c2) * c3).real
        n_alpha, _ = normalization_constants(q, z)
        assert 1 / n_alpha**2 == pytest.approx(printed, abs=1e-12)


# --- sampling and transcripts --------------------------------------------------------


def test_sampling_reproducibility():
    q = UnknownQubit(1.0, 0.4)
    first = run_protocol(q, CUBE, seed=2024)
    second = run_protocol(q, CUBE, seed=2024)
    assert first.outcome is second.outcome
    assert first.outcome_probability == second.outcome_probability
    np.testing.assert_array_equal(first.final.vector.amplitudes, second.final.vector.amplitudes)
    outcomes = {run_protocol(q, CUBE, seed=s).outcome for s in range(30)}
    assert len(outcomes) > 1


def test_sampling_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        run_protocol(UnknownQubit(1.0), CUBE)


def test_sampling_frequencies():
    q = UnknownQubit(np.pi / 3, 0.2)
    joint = joint_state(q, CUBE)
    probs = branch_probabilities(joint)
    rng = np.random.default_rng(777)
    counts = {o: 0 for o in BellOutcome}
    trials = 4000
    for _ in range(trials):
        counts[draw_outcome(branch_probabilities(joint), rng)] += 1
    for o in BellOutcome:
        sigma = np.sqrt(trials * probs[o] * (1 - probs[o]))
        assert abs(counts[o] - trials * probs[o]) <= 3 * sigma


def test_degenerate_branch_guard():
    crafted = tensor(PureState(2, BELL_VECTORS[BellOutcome.PHI_PLUS]), basis_state(1, 0))
    with pytest.raises(DegenerateBranch):
        bell_measurement(crafted, BellOutcome.PSI_PLUS)


def test_transcript_serialization():
    transcript = run_protocol(UnknownQubit(0.7, 0.1), CUBE, outcome=BellOutcome.PHI_MINUS)
    doc = json.loads(transcript.to_json())
    assert doc["outcome"] == "PhiMinus"
    assert doc["payload"] == 1
    assert doc["cbits_sent"] == 2
    assert doc["parties_notified"] == 2
    assert doc["reference_bit"] == 1
    amps = np.array([complex(re, im) for re, im in doc["final_state"]])
    np.testing.assert_array_equal(amps, transcript.final.vector.amplitudes)


def test_cobweb_state_constructor_consistency():
    rng = np.random.default_rng(26)
    z = random_zsa(4, rng)
    q = random_qubit(rng)
    for ref in (0, 1):
        cw = cobweb_state(q, z, ref)
        target = normalized(generalized_target(q, z, ref))
        assert state_fidelity(cw.vector, target) >= 1 - 1e-12
        raw_norm = np.linalg.norm(generalized_target(q, z, ref).amplitudes)
        assert cw.norm_constant * raw_norm == pytest.approx(1.0, abs=1e-12)


def test_protocol_scales_to_larger_registers():
    # headroom check: a ten-party run touches an 11-qubit joint vector
    rng = np.random.default_rng(1001)
    z = random_zsa(10, rng)
    q = random_qubit(rng)
    transcript = run_protocol(q, z, outcome=BellOutcome.PHI_MINUS)
    target = normalized(generalized_target(q, z, 1))
    assert state_fidelity(transcript.final.vector, target) >= 1 - 1e-10
    assert transcript.parties_notified == 9

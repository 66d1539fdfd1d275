import json
import math

import numpy as np
import pytest

from qcobweb.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_gate,
    hermitian_eigenvalues,
    project,
    state_fidelity,
)
from qcobweb.protocol import (
    BELL_VECTORS,
    I_SIGMA_Y,
    DEGENERATE_PROBABILITY,
    BellOutcome,
    DegenerateBranch,
    bell_projection,
    branch_probabilities,
    cobweb_state,
    correction_for,
    draw_outcome_block,
    normalization_constants,
    run_protocol,
    target_vector,
)
from qcobweb.cli import DRAW_BLOCK
from qcobweb.states import (
    MAX_DENSE_QUBITS,
    UnknownQubit,
    ZsaAmplitudes,
    random_zsa,
    roots_of_unity_zsa,
    slot_positions,
)

from _helpers import random_qubit
from oracles import basis_state, equal_up_to_global_phase, is_product_state, joint_state, pure_marginal

CUBE = roots_of_unity_zsa(3)
TINY_C1_COEFFS = [1e-8, 2**-0.5 - 5e-9, -(2**-0.5 + 5e-9)]


def normalized_target(q: UnknownQubit, z, reference_bit: int) -> PureState:
    """The protocol target of ``reference_bit``, normalized: the state `run_protocol` must leave."""
    raw = target_vector(q.vector(), z, reference_bit)
    return PureState(z.num_parties - 1, raw / np.linalg.norm(raw))


# --- joint state -------------------------------------------------------------


def test_joint_state_product_structure():
    rng = np.random.default_rng(2)
    z = random_zsa(4, rng)
    joint = joint_state(UnknownQubit(0.0), z)
    assert joint.num_qubits == 5
    assert abs(np.vdot(joint.amplitudes, joint.amplitudes) - 1) < 1e-12
    for k in range(1, 5):
        # particle a in |0>: amplitude of |0>_a |x_k> is c_k
        assert joint.amplitudes[slot_positions(5, 0)[k + 1]] == pytest.approx(z.coeffs[k - 1])


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
        for outcome in BellOutcome:
            gate = correction_for(outcome).gate
            twisted = target_vector(gate.entries.conj().T @ q.vector(), z, 0)
            prob, slots = bell_projection(q, z, outcome)
            residual = np.zeros(4, dtype=complex)
            residual[slot_positions(2, 0)] = slots
            residual = PureState(2, residual / np.sqrt(prob))
            assert prob == pytest.approx(np.vdot(twisted, twisted).real / 2, abs=1e-12)
            assert equal_up_to_global_phase(
                residual, PureState(2, twisted / np.linalg.norm(twisted)), 1e-10
            )


# --- one-hot branches against the dense oracle -----------------------------------


def _real_zsa(n: int, rng: np.random.Generator):
    c = rng.standard_normal(n)
    c -= c.mean()
    return ZsaAmplitudes(c / np.linalg.norm(c))


def _assert_branches_match_dense_oracle(q: UnknownQubit, z) -> None:
    """Every Bell branch of (q, z) against the dense projection of `joint_state` and a gate per qubit.

    The oracle probability is the correctly rounded sum of the dense residual's squared parts, which must equal
    the slot sum bit for bit; the BLAS ``vdot`` of the same residual must agree with it within a few ULP.
    """
    n = z.num_parties
    for outcome in BellOutcome:
        dense_prob, residual = project(joint_state(q, z), (1, 2), BELL_VECTORS[outcome])
        oracle_prob = math.fsum((residual.view(np.float64) ** 2).tolist())  # the zero cells add exactly
        prob, slots = bell_projection(q, z, outcome)
        assert slots.shape == (n,)  # N slots at every N, not a 2^(N-1) residual
        assert slots.tolist() == residual[slot_positions(n - 1, 0)].tolist()
        assert prob == oracle_prob
        assert abs(dense_prob - oracle_prob) <= 8 * np.spacing(oracle_prob), (q.theta, q.phi, outcome)
        if oracle_prob < DEGENERATE_PROBABILITY:
            continue
        oracle = PureState(n - 1, residual / np.sqrt(oracle_prob))
        for qubit in range(1, n):
            oracle = apply_gate(oracle, [qubit], correction_for(outcome).gate)
        transcript = run_protocol(q, z, outcome=outcome)
        assert transcript.outcome_probability == oracle_prob
        assert "vector" not in vars(transcript.final)  # the dense view is built only when asked for
        cells = transcript.final.vector.amplitudes.view(np.float64)
        assert not np.signbit(cells[cells == 0.0]).any()
        expected = (oracle.amplitudes + 0.0).view(np.float64)  # the oracle's zeros made +0.0
        assert cells.view(np.int64).tolist() == expected.view(np.int64).tolist(), (q.theta, q.phi, outcome)


@pytest.mark.parametrize("n", [*range(3, 18), MAX_DENSE_QUBITS])
def test_one_hot_branches_match_dense_oracle_bitwise(n):
    """Production branches against the dense projection of `joint_state` and a gate per qubit, bit for bit.

    Zero cells may differ only in sign at the oracle; the production output
    must hold no ``-0.0``.  Real states at phi = 0 and the poles are where the
    oracle leaves ``-0.0`` cells.  Past 16 parties, where the dense oracle
    takes about a second a state, one interior qubit on the roots of unity
    checks the widest slot positions.
    """
    rng = np.random.default_rng(1000 + n)
    if n > 16:
        _assert_branches_match_dense_oracle(UnknownQubit(*rng.uniform(0.2, 2.9, 2)), roots_of_unity_zsa(n))
        return
    for z in [roots_of_unity_zsa(n), _real_zsa(n, rng), random_zsa(n, rng), random_zsa(n, rng)]:
        for theta in [0.0, np.pi, *rng.uniform(0.0, np.pi, 2)]:
            for phi in [0.0, rng.uniform(0.0, 2.0 * np.pi)]:
                _assert_branches_match_dense_oracle(UnknownQubit(theta, phi), z)


def _assert_product_flag_matches_dense_oracle(q: UnknownQubit, z) -> None:
    """The slot product flag against `is_product_state` of the dense view, and each small eigenvalue against
    ``eigvalsh`` of its dense marginal.  Near 1/2 both are ill-conditioned, so larger ones go unbounded."""
    probs = branch_probabilities(q, z)
    for outcome in BellOutcome:
        if probs[outcome] < DEGENERATE_PROBABILITY:
            continue
        final = run_protocol(q, z, outcome=outcome).final
        assert final.is_product() == is_product_state(final.vector), (q.theta, outcome)
        closed = final.min_marginal_eigenvalues()
        dense = [hermitian_eigenvalues(pure_marginal(final.vector, [j]))[0] for j in range(1, z.num_parties)]
        small = (closed < 1e-3) | (np.array(dense) < 1e-3)
        assert np.abs(closed - dense)[small].max(initial=0.0) <= 1e-15, (q.theta, outcome)


# theta from 1e-7 to 1e-1 away from each pole, and the poles.  Near a pole the smallest eigenvalue goes as
# theta^4, so for these states the flag turns over, at 1e-9, between theta = 1e-3 and 1e-1.
_NEAR_POLES = [0.0, np.pi, *(t for d in np.geomspace(1e-7, 1e-1, 13) for t in (d, np.pi - d))]


@pytest.mark.parametrize("n", range(3, 17))
def test_product_flag_matches_dense_oracle_near_the_poles(n):
    rng = np.random.default_rng(3000 + n)
    for z in [roots_of_unity_zsa(n), random_zsa(n, rng)]:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        for theta in _NEAR_POLES:
            _assert_product_flag_matches_dense_oracle(UnknownQubit(theta, phi), z)


def test_product_flag_matches_dense_oracle_at_twenty_parties():
    z = roots_of_unity_zsa(MAX_DENSE_QUBITS)
    for theta in [0.0, 1e-6, np.pi - 1e-4, 1.3]:
        _assert_product_flag_matches_dense_oracle(UnknownQubit(theta, 0.7), z)


# --- branch probabilities ------------------------------------------------------


def test_branch_probabilities_sum_and_pairing():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        probs = branch_probabilities(q, z)
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
        probs = branch_probabilities(q, z)
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
    target = target_vector(q.vector(), z, 0)
    _, c2, c3 = z.coeffs
    expected = np.zeros(4, dtype=complex)
    expected += c2 * np.kron(q.vector(), [1, 0])  # c2 |psi>|0>
    expected += c3 * np.kron([1, 0], q.vector())  # c3 |0>|psi>
    np.testing.assert_allclose(target, expected, atol=1e-14)


def test_generalized_target_all_ones_input():
    rng = np.random.default_rng(14)
    z = random_zsa(5, rng)
    target = target_vector(UnknownQubit(np.pi).vector(), z, 1)
    # q = |1> collapses the reference-1 target onto -c1 |1111>
    expected = np.zeros(16, dtype=complex)
    expected[15] = -z.coeffs[0]
    np.testing.assert_allclose(target, expected, atol=1e-12)


def test_reference0_target_support():
    rng = np.random.default_rng(16)
    z = random_zsa(4, rng)
    target = target_vector(random_qubit(rng).vector(), z, 0)
    for idx in range(8):
        if bin(idx).count("1") >= 2:
            assert target[idx] == 0.0


# --- end-to-end ------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_protocol_output_matches_target(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        for outcome in BellOutcome:
            transcript = run_protocol(q, z, outcome=outcome)
            target = normalized_target(q, z, transcript.final.reference_bit)
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
                target = normalized_target(q, CUBE, transcript.final.reference_bit)
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
        norm0 = np.linalg.norm(target_vector(q.vector(), z, 0))
        norm1 = np.linalg.norm(target_vector(q.vector(), z, 1))
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


def test_sampled_outcome_is_generator_choice():
    """A sampled run draws its outcome as ``Generator.choice`` does on ``default_rng(seed)``, seed by seed."""
    q = UnknownQubit(1.0, 0.4)
    probs = branch_probabilities(q, CUBE)
    w = np.array([probs[o] for o in BellOutcome])
    for seed in [*range(2000), *BLOCK_SEEDS]:
        expected = int(np.random.default_rng(seed).choice(4, p=w / w.sum()))
        assert run_protocol(q, CUBE, seed=seed).outcome.value == expected, seed


def test_sampling_frequencies():
    q = UnknownQubit(np.pi / 3, 0.2)
    probs = branch_probabilities(q, CUBE)
    rng = np.random.default_rng(777)
    counts = {o: 0 for o in BellOutcome}
    trials = 4000
    for _ in range(trials):
        counts[run_protocol(q, CUBE, seed=rng).outcome] += 1
    for o in BellOutcome:
        sigma = np.sqrt(trials * probs[o] * (1 - probs[o]))
        assert abs(counts[o] - trials * probs[o]) <= 3 * sigma


# Seeds of one to five 32-bit entropy words (2^100 and 2^128 + 3 fill SeedSequence's pool of four and run
# past it), and block sizes around the CLI's.
BLOCK_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100, 2**128 + 3]
BLOCK_COUNTS = [0, 1, DRAW_BLOCK - 1, 3 * DRAW_BLOCK]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_block_uniforms_match_default_rng(seed):
    """A block of ``count`` trials takes exactly ``count`` doubles of its generator, so the next block starts
    where ``PCG64(seed).advance(t)`` does: trial t draws from the t-th double of ``default_rng(seed)``."""
    probs = dict(zip(BellOutcome, [0.25] * 4))
    rng, done = np.random.default_rng(seed), 0
    for count in BLOCK_COUNTS:
        draw_outcome_block(probs, rng, count)
        done += count
        assert rng.bit_generator.state == np.random.PCG64(seed).advance(done).state, (seed, count)


@pytest.mark.parametrize("weights", [
    [0.5, 0.0, 0.3, 0.2],  # a zero branch
    [1e-15, 0.4, 0.3, 0.3 - 1e-15],  # a branch of 1e-15
    [0.25, 0.25, 0.3, 0.2],  # two equal branches
    [0.0, 1.0, 0.0, 0.0],  # every draw on one branch
    [0.3, 0.2, 0.1, 0.9],  # unnormalized: the block divides by the sum first
], ids=["zero", "tiny", "equal", "certain", "unnormalized"])
def test_draw_outcome_block_matches_draw_outcome(weights):
    """Blocks of any size, drawn in turn from one generator, equal outcomes drawn one at a time on another by
    numpy's own ``Generator.choice``, draw by draw."""
    probs, w = dict(zip(BellOutcome, weights)), np.array(weights)
    p = w / w.sum()
    for seed in BLOCK_SEEDS:
        oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in BLOCK_COUNTS:
            expected = [int(oracle.choice(4, p=p)) for _ in range(count)]
            assert draw_outcome_block(probs, rng, count).tolist() == expected, (seed, count)


def test_draw_outcome_block_ties_go_right():
    """A draw equal to a CDF step lands past it, as in `Generator.choice`'s ``searchsorted(side="right")``."""
    u = np.random.default_rng(5).random(4)[3]
    probs = dict(zip(BellOutcome, [u, 0.0, (1.0 - u) / 2, (1.0 - u) / 2]))  # CDF [u, u, ..., 1], exactly
    oracle, rng = np.random.default_rng(5), np.random.default_rng(5)
    w = np.array(list(probs.values()))
    p = w / w.sum()
    assert [int(oracle.choice(4, p=p)) for _ in range(4)][3] == BellOutcome.PSI_PLUS.value  # past both steps at u
    assert draw_outcome_block(probs, rng, 4).tolist()[3] == BellOutcome.PSI_PLUS.value


def test_degenerate_branch_guard():
    # a valid ZSA state with c_1 = 1e-8: at theta = 0 the Psi branches have probability |c_1|^2 / 2
    tiny_c1 = ZsaAmplitudes(TINY_C1_COEFFS)
    with pytest.raises(DegenerateBranch):
        run_protocol(UnknownQubit(0.0), tiny_c1, outcome=BellOutcome.PSI_PLUS)


def test_transcript_serialization():
    transcript = run_protocol(UnknownQubit(0.7, 0.1), CUBE, outcome=BellOutcome.PHI_MINUS)
    doc = json.loads(json.dumps(transcript.to_dict()))
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
        raw = target_vector(q.vector(), z, ref)  # the dense view is the normalized target, bit for bit
        assert cw.vector.amplitudes.tobytes() == (raw / np.linalg.norm(raw)).tobytes()
        assert state_fidelity(cw.vector, normalized_target(q, z, ref)) >= 1 - 1e-12
        raw_norm = np.linalg.norm(raw)
        assert cw.norm_constant * raw_norm == pytest.approx(1.0, abs=1e-12)


def test_protocol_scales_to_larger_registers():
    # headroom check: a ten-party run touches an 11-qubit joint vector
    rng = np.random.default_rng(1001)
    z = random_zsa(10, rng)
    q = random_qubit(rng)
    transcript = run_protocol(q, z, outcome=BellOutcome.PHI_MINUS)
    target = normalized_target(q, z, 1)
    assert state_fidelity(transcript.final.vector, target) >= 1 - 1e-10
    assert transcript.parties_notified == 9

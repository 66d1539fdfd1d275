import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from qcobweb.linalg import (
    PureState,
    apply_gate,
    hermitian_eigenvalues,
    project,
    state_fidelity,
)
from qcobweb import protocol
from qcobweb.protocol import (
    BELL_VECTORS,
    CORRECTIONS,
    DEGENERATE_PROBABILITY,
    BellOutcome,
    DegenerateBranch,
    bell_table,
    draw_outcome,
    draw_outcome_block,
    normalization_constants,
    outcome_cdf,
    run_protocol,
)
from qcobweb.cli import DRAW_BLOCK, _flatten, _measures_report
from qcobweb.states import (
    MAX_DENSE_QUBITS,
    UnknownQubit,
    ZsaAmplitudes,
    random_zsa,
    roots_of_unity_zsa,
    slot_positions,
)

from _helpers import near_pole_sweep, random_qubit
from oracles import (
    CORRECTION_GATES,
    EXACT_BOUND,
    I_SIGMA_Y,
    basis_state,
    bell_projection,
    cobweb_state,
    equal_up_to_global_phase,
    exact_branch_probabilities,
    exact_norm_constants,
    is_product_state,
    joint_state,
    min_marginal_eigenvalues,
    numpy_bell_table,
    pure_marginal,
    relative_error,
    target_vector,
)

CUBE = roots_of_unity_zsa(3)
TINY_C1_COEFFS = [1e-8, 2**-0.5 - 5e-9, -(2**-0.5 + 5e-9)]


def _bits(values) -> bytes:
    """The bytes of a float, a bool or a `BellTable` row as float64: equal only when equal bit for bit."""
    return np.array(values, dtype=np.float64).tobytes()


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
        probs = bell_table(q, z).probabilities
        for outcome in BellOutcome:
            twisted = target_vector(CORRECTION_GATES[outcome].conj().T @ q.vector(), z, 0)
            prob, (_, slots) = probs[outcome.value], bell_projection(q, z, outcome)
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
    table = bell_table(q, z)
    assert [len(row) for row in table.rows] == [2 * n] * len(BellOutcome)  # N slots a branch, not a 2^(N-1) residual
    for outcome in BellOutcome:
        dense_prob, residual = project(joint_state(q, z), (1, 2), BELL_VECTORS[outcome])
        oracle_prob = math.fsum((residual.view(np.float64) ** 2).tolist())  # the zero cells add exactly
        assert table.probabilities[outcome.value] == oracle_prob
        assert abs(dense_prob - oracle_prob) <= 8 * np.spacing(oracle_prob), (q.theta, q.phi, outcome)
        if oracle_prob < DEGENERATE_PROBABILITY:
            continue
        oracle = PureState(n - 1, residual / np.sqrt(oracle_prob))
        for qubit in range(1, n):
            oracle = apply_gate(oracle, [qubit], CORRECTION_GATES[outcome])
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


def _corrected_dense_oracle(q: UnknownQubit, z, outcome: BellOutcome) -> tuple[float, PureState]:
    """One branch the dense way: `bell_projection`, normalized, then the outcome's Pauli gate on every qubit."""
    prob, slots = bell_projection(q, z, outcome)
    residual = np.zeros(2 ** (z.num_parties - 1), dtype=complex)
    residual[slot_positions(z.num_parties - 1, 0)] = slots
    oracle = PureState(z.num_parties - 1, residual / np.sqrt(prob))
    for qubit in range(1, z.num_parties):
        oracle = apply_gate(oracle, [qubit], CORRECTION_GATES[outcome])
    return prob, oracle


@pytest.mark.parametrize("n", range(3, MAX_DENSE_QUBITS + 1))
def test_bell_branches_match_the_dense_per_outcome_oracle(n, monkeypatch):
    """One `bell_table` call against four dense per-outcome branches, normalized and corrected gate by gate.

    Bit for bit: every probability, and every slot's real and imaginary part against the oracle's cell at that
    slot's basis position, its ``-0.0`` made ``0.0``.  Each product flag equals `is_product_state` of the oracle,
    and each norm constant is the closed form's, within 1e-12 of the dense target's inverse norm.  A reference bit
    whose built row's Bell-vector entries are made zero has two branches of probability 0 and a zero row, raises no
    warning, and has them refused by `BellTable.transcript`; its norm constant stays finite and within `EXACT_BOUND`
    of the exact one, and the other reference bit's rows and constant stay bit for bit as they were.
    """
    rng = np.random.default_rng(4000 + n)
    q, z = random_qubit(rng), random_zsa(n, rng)
    table = bell_table(q, z)
    assert table.norm_constants == normalization_constants(q, z)
    for outcome in BellOutcome:
        oracle_prob, oracle = _corrected_dense_oracle(q, z, outcome)
        reference_bit = CORRECTIONS[outcome][0]
        expected = oracle.amplitudes[slot_positions(n - 1, reference_bit)] + 0.0
        assert table.probabilities[outcome.value] == oracle_prob
        assert _bits(table.rows[outcome.value]) == expected.tobytes(), outcome
        assert table.products[outcome.value] == is_product_state(oracle), outcome
        inverse_norm = 1.0 / np.linalg.norm(target_vector(q.vector(), z, reference_bit))
        assert table.norm_constants[reference_bit] == pytest.approx(inverse_norm, rel=1e-12)

    ref = int(rng.integers(2))
    dropped = _reference_pair(ref)
    factors = list(protocol._ROW_FACTORS)
    factors[ref] = (0.0, 0.0)  # both Bell-vector entries of its row; the partner's row is derived from it
    monkeypatch.setattr(protocol, "_ROW_FACTORS", tuple(factors))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        degenerate = bell_table(q, z)
    for outcome in dropped:
        assert degenerate.probabilities[outcome.value] == 0.0
        assert _bits(degenerate.rows[outcome.value]) == bytes(16 * n)  # every part +0.0
        with pytest.raises(DegenerateBranch):
            degenerate.transcript(outcome)
    assert math.isfinite(degenerate.norm_constants[ref])
    assert relative_error(degenerate.norm_constants[ref], exact_norm_constants(q, z)[ref]) <= EXACT_BOUND
    assert degenerate.norm_constants[1 - ref] == table.norm_constants[1 - ref]
    for outcome in set(BellOutcome) - set(dropped):
        for field in ("probabilities", "rows", "products"):
            assert _bits(getattr(degenerate, field)[outcome.value]) == _bits(getattr(table, field)[outcome.value])


def _reference_pair(ref: int) -> tuple[BellOutcome, BellOutcome]:
    """The two outcomes whose corrections land on reference bit ``ref``."""
    return tuple(outcome for outcome in BellOutcome if CORRECTIONS[outcome][0] == ref)


def _assert_table_is_numpys(table, probs: np.ndarray, slots: np.ndarray, products: np.ndarray) -> None:
    assert _bits(table.probabilities) == probs.tobytes()
    assert _bits(table.rows) == slots.tobytes()  # each row's parts in slot order, as the complex slots lie in memory
    assert table.products == tuple(products.tolist())


@pytest.mark.parametrize("n", range(3, MAX_DENSE_QUBITS + 1))
def test_bell_table_matches_the_numpy_contraction_bitwise(n, monkeypatch):
    """The plain-float table against `numpy_bell_table`, the numpy contraction it replaced, bit for bit: every
    probability, row part and product flag of every outcome.  The flag, taken from the largest d_j alone, meets
    `min_marginal_eigenvalues` of every qubit there.  The roots of unity, a real state and two seeded random states,
    each with qubits at and near both poles, where the flags turn over, and at three seeded angles, at phi = 0 and at
    a seeded phi; then one reference bit's two rows made zero in both, which leaves them degenerate and the other rows
    as they were."""
    rng = np.random.default_rng(9000 + n)
    flags = set()
    for z in [roots_of_unity_zsa(n), _real_zsa(n, rng), random_zsa(n, rng), random_zsa(n, rng)]:
        for theta in [*_NEAR_POLES, *rng.uniform(0.0, np.pi, 3)]:
            for phi in [0.0, rng.uniform(0.0, 2.0 * np.pi)]:
                q = UnknownQubit(theta, phi)
                table = bell_table(q, z)
                _assert_table_is_numpys(table, *numpy_bell_table(q, z))
                flags.update(table.products)
    assert flags == {False, True}
    ref = int(rng.integers(2))
    dropped = _reference_pair(ref)
    factors = list(protocol._ROW_FACTORS)
    factors[ref] = (0.0, 0.0)
    monkeypatch.setattr(protocol, "_ROW_FACTORS", tuple(factors))
    table = bell_table(q, z)
    assert [table.probabilities[outcome.value] for outcome in dropped] == [0.0, 0.0]
    _assert_table_is_numpys(table, *numpy_bell_table(q, z, dropped))


def _assert_product_flag_matches_dense_oracle(q: UnknownQubit, z) -> None:
    """The slot product flag against `is_product_state` of the dense view, and each small eigenvalue against
    ``eigvalsh`` of its dense marginal.  Near 1/2 both are ill-conditioned, so larger ones go unbounded."""
    table = bell_table(q, z)
    for outcome in BellOutcome:
        if table.probabilities[outcome.value] < DEGENERATE_PROBABILITY:
            continue
        final = run_protocol(q, z, outcome=outcome).final
        assert table.products[outcome.value] == is_product_state(final.vector), (q.theta, outcome)
        closed = min_marginal_eigenvalues(np.array(final.slots).view(complex))
        dense = [hermitian_eigenvalues(pure_marginal(final.vector, [j]).entries)[0] for j in range(1, z.num_parties)]
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


@pytest.mark.parametrize("n", range(3, MAX_DENSE_QUBITS + 1))
def test_corrected_branches_land_on_two_outputs_bitwise(n):
    """The paper's two types of reference state: once corrected, the four branches hold two outputs.

    Psi+ and Psi- differ only in the sign of the flipped slots, which sigma_z undoes, so their rows agree in slots,
    probability and product flag.  Phi+ and Phi- differ in the sign of the all-r slot; i*sigma_y and sigma_x then
    leave Phi+ as (-1)^N times Phi-.  Each holds bit for bit, for the roots of unity and four seeded random states,
    each with qubits at both poles and six seeded random ones.
    """
    rng = np.random.default_rng(7000 + n)
    phi_plus, phi_minus, psi_plus, psi_minus = (outcome.value for outcome in BellOutcome)
    for z in [roots_of_unity_zsa(n), *(random_zsa(n, rng) for _ in range(4))]:
        for q in [UnknownQubit(0.0), UnknownQubit(np.pi, rng.uniform(0.0, 2.0 * np.pi)),
                  *(random_qubit(rng) for _ in range(6))]:
            table = bell_table(q, z)
            assert _bits(table.rows[psi_plus]) == _bits(table.rows[psi_minus])
            assert _bits(table.probabilities[psi_plus]) == _bits(table.probabilities[psi_minus])
            assert table.products[psi_plus] == table.products[psi_minus]
            if table.probabilities[phi_plus] >= DEGENERATE_PROBABILITY:
                # + 0.0, as in `bell_table`: a zero part of Phi- times -1 is -0.0, which the table never holds
                assert ((-1) ** n * np.array(table.rows[phi_minus]) + 0.0).tobytes() == _bits(table.rows[phi_plus])


# --- branch probabilities ------------------------------------------------------


def test_branch_probabilities_sum_and_pairing():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        q = random_qubit(rng)
        phi_plus, phi_minus, psi_plus, psi_minus = bell_table(q, z).probabilities
        assert phi_plus + phi_minus + psi_plus + psi_minus == pytest.approx(1.0, abs=1e-12)
        assert phi_plus == pytest.approx(phi_minus, abs=1e-12)
        assert psi_plus == pytest.approx(psi_minus, abs=1e-12)


def test_psi_branch_probability_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(200):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        _, c2, c3 = z.coeffs
        closed = (
            abs(c2) ** 2 + abs(c3) ** 2 + 2 * q.alpha**2 * (np.conj(c2) * c3).real
        ) / 2
        psi_minus = bell_table(q, z).probabilities[BellOutcome.PSI_MINUS.value]
        assert psi_minus == pytest.approx(closed, abs=1e-12)
        n_alpha, _ = normalization_constants(q, z)
        assert psi_minus == pytest.approx(1 / (2 * n_alpha**2), abs=1e-12)


# --- correction table -----------------------------------------------------------


def test_correction_table():
    """Each (r, e_r, e_f) row is its outcome's dense gate: it takes |0> to e_r |r> and |1> to e_f |1 - r>."""
    assert list(CORRECTIONS) == list(BellOutcome)
    assert [CORRECTIONS[o][0] for o in BellOutcome] == [1, 1, 0, 0]
    assert len(set(CORRECTIONS.values())) == 4  # a bijection onto the rows
    zero, one = np.eye(2)
    for outcome, (r, e_ref, e_flip) in CORRECTIONS.items():
        gate = CORRECTION_GATES[outcome]
        np.testing.assert_array_equal(gate @ zero, e_ref * np.eye(2)[r], err_msg=outcome.label)
        np.testing.assert_array_equal(gate @ one, e_flip * np.eye(2)[1 - r], err_msg=outcome.label)


def test_i_sigma_y_convention():
    # i*sigma_y|0> = -|1>, i*sigma_y|1> = |0>
    np.testing.assert_array_equal(I_SIGMA_Y @ [1, 0], [0, -1])
    np.testing.assert_array_equal(I_SIGMA_Y @ [0, 1], [1, 0])


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


# --- rounding error against exact arithmetic -------------------------------------------


def _worst(errors):
    """The largest (relative error, qubit, shared state) of a sweep, with its inputs spelled out for a failure."""
    error, q, z = max(errors, key=lambda entry: entry[0])
    return error, f"{error!r} at theta = {q.theta!r}, phi = {q.phi!r}, coeffs = {list(z.coeffs)!r}"


def test_branch_probabilities_against_the_exact_oracle():
    """Every branch probability of `bell_table` over the near-pole sweep, against its 60-digit value: the table's
    plain-float products, its Bell factors and the `fsum` of the squared parts stay within `EXACT_BOUND`."""
    error, where = _worst((relative_error(p, exact), q, z) for q, z in near_pole_sweep()
                          for p, exact in zip(bell_table(q, z).probabilities, exact_branch_probabilities(q, z)))
    assert error <= EXACT_BOUND, where


def _cancellation_free_norm_constants(q: UnknownQubit, z: ZsaAmplitudes) -> tuple[float, float]:
    """1/N(alpha)^2 = |beta|^2 (1 - |c_1|^2) + alpha^2 |c_1|^2, and N(beta) with alpha and |beta| swapped, with
    |c_1|^2 from numpy's ``abs``: the printed form on another rounding of |c_1|^2."""
    a1 = float(abs(z.coeffs[0]) ** 2)
    weights = (q.alpha**2, abs(q.beta) ** 2)
    return tuple(1.0 / math.sqrt(off * (1.0 - a1) + on * a1) for on, off in (weights, weights[::-1]))


@pytest.mark.parametrize("constants", [
    pytest.param(lambda q, z: bell_table(q, z).norm_constants, id="printed"),
    pytest.param(_cancellation_free_norm_constants, id="cancellation-free"),
])
def test_norm_constants_against_the_exact_oracle(constants):
    """Both norm constants of each table over the near-pole sweep, a reference bit whose rows are degenerate
    included, against one over the 60-digit norm of its unnormalized output."""
    error, where = _worst((relative_error(value, exact), q, z) for q, z in near_pole_sweep()
                          for value, exact in zip(constants(q, z), exact_norm_constants(q, z)))
    assert error <= EXACT_BOUND, where


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
    w = np.array(bell_table(q, CUBE).probabilities)
    for seed in [*range(2000), *BLOCK_SEEDS]:
        expected = int(np.random.default_rng(seed).choice(4, p=w / w.sum()))
        assert run_protocol(q, CUBE, seed=seed).outcome.value == expected, seed


def test_sampling_frequencies():
    q = UnknownQubit(np.pi / 3, 0.2)
    probs = bell_table(q, CUBE).probabilities
    rng = np.random.default_rng(777)
    counts = {o: 0 for o in BellOutcome}
    trials = 4000
    for _ in range(trials):
        counts[run_protocol(q, CUBE, seed=rng).outcome] += 1
    for o in BellOutcome:
        p = probs[o.value]
        sigma = np.sqrt(trials * p * (1 - p))
        assert abs(counts[o] - trials * p) <= 3 * sigma


# Seeds of one to five 32-bit entropy words (2^100 and 2^128 + 3 fill SeedSequence's pool of four and run
# past it), and block sizes around the CLI's.
BLOCK_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100, 2**128 + 3]
BLOCK_COUNTS = [0, 1, DRAW_BLOCK - 1, 3 * DRAW_BLOCK]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_block_uniforms_match_default_rng(seed):
    """A block of ``count`` trials takes exactly ``count`` doubles of its generator, so the next block starts
    where ``PCG64(seed).advance(t)`` does: trial t draws from the t-th double of ``default_rng(seed)``."""
    cdf = outcome_cdf([0.25] * len(BellOutcome))
    rng, done = np.random.default_rng(seed), 0
    for count in BLOCK_COUNTS:
        draw_outcome_block(cdf, rng, count)
        done += count
        assert rng.bit_generator.state == np.random.PCG64(seed).advance(done).state, (seed, count)


@pytest.mark.parametrize("weights", [
    [0.5, 0.0, 0.3, 0.2],  # a zero branch
    [1e-15, 0.4, 0.3, 0.3 - 1e-15],  # a branch of 1e-15
    [0.25, 0.25, 0.3, 0.2],  # two equal branches
    [0.0, 1.0, 0.0, 0.0],  # every draw on one branch
    [0.3, 0.2, 0.1, 0.9],  # unnormalized: the CDF divides by the sum first
], ids=["zero", "tiny", "equal", "certain", "unnormalized"])
def test_draw_outcome_block_matches_draw_outcome(weights):
    """Blocks of any size, drawn in turn from one generator, equal outcomes drawn one at a time on another by
    numpy's own ``Generator.choice``, draw by draw, all on one `outcome_cdf`."""
    w = np.array(weights)
    p, cdf = w / w.sum(), outcome_cdf(weights)
    for seed in BLOCK_SEEDS:
        oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in BLOCK_COUNTS:
            expected = [int(oracle.choice(4, p=p)) for _ in range(count)]
            assert draw_outcome_block(cdf, rng, count).tolist() == expected, (seed, count)


def test_outcome_cdf_is_numpys_bit_for_bit():
    """`outcome_cdf` against the CDF ``Generator.choice`` inverts, ``(w / w.sum()).cumsum()`` divided by its last
    entry, on 100000 seeded weight vectors: each weight scaled by 10^u, u uniform in [-3, 3], and one vector in five
    with one to three zero weights."""
    rng = np.random.default_rng(20261020)
    weights = rng.random((100_000, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (100_000, 4))
    zeroed = rng.random((100_000, 4)) < 0.25
    zeroed[zeroed.all(axis=1)] = False
    weights[(rng.random(100_000) < 0.2)[:, None] & zeroed] = 0.0
    assert (weights == 0.0).any(axis=1).sum() > 10_000
    for w in weights:
        expected = (w / w.sum()).cumsum()
        expected /= expected[-1]
        assert np.array(outcome_cdf(w.tolist())).tobytes() == expected.tobytes(), w.tolist()


def test_draw_outcome_block_ties_go_right():
    """A draw equal to a CDF step lands past it, as in `Generator.choice`'s ``searchsorted(side="right")``."""
    u = np.random.default_rng(5).random(4)[3]
    w = np.array([u, 0.0, (1.0 - u) / 2, (1.0 - u) / 2])  # CDF [u, u, ..., 1], exactly
    oracle, rng = np.random.default_rng(5), np.random.default_rng(5)
    p = w / w.sum()
    assert [int(oracle.choice(4, p=p)) for _ in range(4)][3] == BellOutcome.PSI_PLUS.value  # past both steps at u
    assert outcome_cdf(w.tolist())[:2] == [u, u]
    assert draw_outcome_block(outcome_cdf(w.tolist()), rng, 4).tolist()[3] == BellOutcome.PSI_PLUS.value


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_draw_outcome_is_a_block_of_one(seed):
    """The scalar draw against ``draw_outcome_block(cdf, rng, 1)[0]`` on another generator of the same seed: the same
    outcome, draw after draw, and the same state after, so the next five doubles agree.  Seeded CDFs with zero and
    tiny weights, and the tie of `test_draw_outcome_block_ties_go_right`, where a double equals a CDF step."""
    rng = np.random.default_rng(seed + 1)
    u = np.random.default_rng(5).random(4)[3]
    tie = [u, 0.0, (1.0 - u) / 2, (1.0 - u) / 2]
    weights = [tie, [0.5, 0.0, 0.3, 0.2], [1e-15, 0.4, 0.3, 0.3 - 1e-15]]
    for _ in range(20):
        w = rng.random(4) * (rng.random(4) < 0.75)
        w[int(rng.integers(4))] = 1.0 - rng.random()  # one weight in (0, 1], so the CDF is defined
        weights.append(w.tolist())
    for w in weights:
        cdf = outcome_cdf(w)
        for start in (5, seed):  # the tie falls on the fourth double of default_rng(5)
            scalar, block = np.random.default_rng(start), np.random.default_rng(start)
            for _ in range(6):
                value = draw_outcome(cdf, scalar)
                assert type(value) is int
                assert value == int(draw_outcome_block(cdf, block, 1)[0]), (w, start)
            assert scalar.random(5).tolist() == block.random(5).tolist()
    tied = np.random.default_rng(5)
    assert [draw_outcome(outcome_cdf(tie), tied) for _ in range(4)][3] == BellOutcome.PSI_PLUS.value


def test_degenerate_branch_guard():
    # a valid ZSA state with c_1 = 1e-8: at theta = 0 the Psi branches have probability |c_1|^2 / 2
    tiny_c1 = ZsaAmplitudes(TINY_C1_COEFFS)
    with pytest.raises(DegenerateBranch):
        run_protocol(UnknownQubit(0.0), tiny_c1, outcome=BellOutcome.PSI_PLUS)


@pytest.mark.parametrize("theta", [0.0, np.pi])
def test_a_dead_reference_bit_takes_a_finite_norm_constant(theta):
    """|c_1|^2 = 6.8e-22: at a pole both rows of one reference bit are degenerate, and its 1/N^2 is about |c_1|^2.
    Its constant is finite, as is the other's, and both are within `EXACT_BOUND` of the exact ones: the closed form
    adds two nonnegative terms, so nothing cancels to zero."""
    z = ZsaAmplitudes([2.6019241460158823e-11, -0.614122056339072 + 0.35050549201667086j,
                       0.6141220563130528 - 0.35050549201667086j])
    q = UnknownQubit(theta)
    table = bell_table(q, z)
    dead = 1 if theta else 0  # Phi (bit 1) dies at pi, Psi (bit 0) at 0
    degenerate = [o for o in BellOutcome if table.probabilities[o.value] < DEGENERATE_PROBABILITY]
    assert [CORRECTIONS[o][0] for o in degenerate] == [dead, dead]
    assert table.norm_constants == normalization_constants(q, z)
    assert all(map(math.isfinite, table.norm_constants))
    assert table.norm_constants[dead] > 1e10
    assert table.norm_constants[1 - dead] == 1.0
    for value, exact in zip(table.norm_constants, exact_norm_constants(q, z)):
        assert relative_error(value, exact) <= EXACT_BOUND


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


def test_an_output_holds_its_table_row_and_no_array():
    """Each output's ``slots`` is its `bell_table` row itself, the one copy of its amplitudes, and no field of a
    `CobwebState` is a numpy array: the dense form is `CobwebState.vector` alone, built from the row."""
    rng = np.random.default_rng(27)
    for z in (roots_of_unity_zsa(3), roots_of_unity_zsa(4), random_zsa(7, rng)):
        table = bell_table(UnknownQubit(1.1, 0.3), z)
        for outcome in BellOutcome:
            final = table.transcript(outcome).final
            assert final.slots is table.rows[outcome.value]
            assert not any(isinstance(getattr(final, f.name), np.ndarray) for f in dataclasses.fields(final))
            dense = final.vector.amplitudes[slot_positions(z.num_parties - 1, final.reference_bit)]
            assert dense.tobytes() == np.array(final.slots).tobytes()


def test_relabeling_parties_permutes_the_output_slots():
    """Relabeling parties 2..N by a permutation pi permutes the output's flipped-qubit slots by pi, bit for bit.

    Everything else is unchanged bit for bit: the probability is a correctly rounded sum of the slots' squared
    parts, and the norm constant and the all-r slot depend on c_1 and the qubit alone.
    """
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        z = random_zsa(int(rng.integers(3, MAX_DENSE_QUBITS + 1)), rng)
        pi = rng.permutation(z.num_parties - 1)
        relabeled = ZsaAmplitudes(np.concatenate([z.coeffs[:1], np.array(z.coeffs[1:])[pi]]))
        q = random_qubit(rng)
        for outcome in BellOutcome:
            base = run_protocol(q, z, outcome=outcome)
            moved = run_protocol(q, relabeled, outcome=outcome)
            assert moved.outcome_probability == base.outcome_probability
            assert moved.final.norm_constant == base.final.norm_constant
            moved_slots, base_slots = (np.array(t.final.slots).view(complex) for t in (moved, base))
            assert moved_slots[:1].tobytes() == base_slots[:1].tobytes()
            assert moved_slots[1:].tobytes() == base_slots[1:][pi].tobytes(), (z.num_parties, outcome)


def test_a_global_phase_on_the_shared_state_changes_only_the_rows_phase():
    """Multiplying every c_k by e^{i chi} keeps the state ZSA and is unobservable: each `bell_table` row picks up the
    phase, and its probability, product flag and norm constant, and every `measures` field, stay put within 1e-13.
    The report fields left out echo the coefficients or hold a state vector, which carry the phase.  Across 600 seeded
    states of N = 3..8, theta at either pole or between them in turn, the largest gap was 4.2e-15 (5.9e-15 relative
    for the norm constants) on x86-64 with numpy 2.4.6."""
    rng = np.random.default_rng(20261020)
    echoed = ("coefficients", "obstruction.coeffs", "recovery.success_state")
    for i in range(600):
        z = random_zsa(3 + i % 6, rng)
        q = UnknownQubit((0.0, math.pi, rng.uniform(0.0, math.pi))[i % 3], rng.uniform(0.0, 2.0 * math.pi))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        shifted = ZsaAmplitudes(np.array(z.coeffs) * phase)
        base, moved = bell_table(q, z), bell_table(q, shifted)
        assert moved.products == base.products, (i, q)
        np.testing.assert_allclose(moved.probabilities, base.probabilities, rtol=0, atol=1e-13)
        np.testing.assert_allclose(moved.norm_constants, base.norm_constants, rtol=1e-13, atol=0)
        for row, base_row in zip(moved.rows, base.rows):
            np.testing.assert_allclose(np.array(row).view(complex), np.array(base_row).view(complex) * phase,
                                       rtol=0, atol=1e-13)
        report, moved_report = dict(_flatten(_measures_report(z, q))), dict(_flatten(_measures_report(shifted, q)))
        assert moved_report.keys() == report.keys()
        for key, value in report.items():
            if key.startswith(echoed):
                continue
            if isinstance(value, bool):
                assert moved_report[key] is value, (i, key)
            else:
                assert abs(moved_report[key] - value) <= 1e-13, (i, key, value, moved_report[key])


def test_protocol_scales_to_larger_registers():
    # headroom check: a ten-party run touches an 11-qubit joint vector
    rng = np.random.default_rng(1001)
    z = random_zsa(10, rng)
    q = random_qubit(rng)
    transcript = run_protocol(q, z, outcome=BellOutcome.PHI_MINUS)
    target = normalized_target(q, z, 1)
    assert state_fidelity(transcript.final.vector, target) >= 1 - 1e-10
    assert transcript.parties_notified == 9

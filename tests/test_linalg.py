import math

import numpy as np
import pytest

from qcobweb.linalg import (
    ENTROPY_CUTOFF,
    DensityMatrix,
    PureState,
    apply_gate,
    binary_entropy,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    project,
    state_fidelity,
    two_level_spectrum,
)

from qcobweb.disentangle import CNOT
from qcobweb.measures import PAULI_Y

from _helpers import near_pole_sweep, random_density_matrix, random_pure_state, random_unitary
from oracles import (
    CORRECTION_GATES,
    EXACT_BOUND,
    IDENTITY_2,
    I_SIGMA_Y,
    PAULI_X,
    PAULI_Z,
    basis_state,
    equal_up_to_global_phase,
    exact_binary_entropy,
    exact_two_level_spectrum,
    is_product_state,
    outer,
    pure_marginal,
    relative_error,
    tensor,
    von_neumann_entropy,
)

SINGLET = PureState(2, np.array([0, -1, 1, 0]) / np.sqrt(2))


def cube_roots_state() -> PureState:
    w = np.exp(2j * np.pi / 3)
    amp = np.zeros(8, dtype=complex)
    amp[4] = 1.0 / np.sqrt(3)          # |100>
    amp[2] = w / np.sqrt(3)            # |010>
    amp[1] = w.conjugate() / np.sqrt(3)  # |001>
    return PureState(3, amp)


# --- construction checks ----------------------------------------------------


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        PureState(1, np.array([np.nan, 0.0]))


def test_pure_state_is_immutable():
    state = basis_state(1, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize("bad", [
    complex(np.nan, 0.0), complex(0.0, np.nan),
    complex(np.inf, 0.0), complex(-np.inf, 0.0), complex(0.0, np.inf), complex(0.0, -np.inf),
], ids=["nan-re", "nan-im", "inf-re", "-inf-re", "inf-im", "-inf-im"])
def test_non_finite_entries_rejected_in_either_part(bad):
    with pytest.raises(ValueError, match="entries must be finite"):
        PureState(1, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="entries must be finite"):
        DensityMatrix(1, np.array([[1.0, 0.0], [0.0, bad]]))


# --- gate constants ----------------------------------------------------------------


GATE_CONSTANTS = {"CNOT": CNOT, "PAULI_Y": PAULI_Y, **{o.label: g for o, g in CORRECTION_GATES.items()}}


@pytest.mark.parametrize("name", GATE_CONSTANTS)
def test_gate_constants_are_exactly_unitary(name):
    gate = GATE_CONSTANTS[name]
    assert gate.dtype == complex
    assert np.array_equal(gate.conj().T @ gate, np.eye(gate.shape[0]))


@pytest.mark.parametrize("gate", [CNOT, PAULI_Y], ids=["CNOT", "PAULI_Y"])
def test_package_gate_constants_are_read_only(gate):
    with pytest.raises(ValueError, match="read-only"):
        gate[0, 0] = 0.0


# --- tensor -------------------------------------------------------------------


def test_tensor_basis_states():
    out = tensor(basis_state(1, 0), basis_state(1, 1))
    np.testing.assert_array_equal(out.amplitudes, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_identity_operators():
    np.testing.assert_array_equal(tensor(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_tensor_i_sigma_y_pair():
    # hand oracle: kron([[0,1],[-1,0]], [[0,1],[-1,0]]) applied to (1,0,0,0)
    pair = tensor(I_SIGMA_Y, I_SIGMA_Y)
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    np.testing.assert_array_equal(pair, expected)
    out = pair @ basis_state(2, 0).amplitudes
    np.testing.assert_array_equal(out, np.array([0, 0, 0, 1], dtype=complex))  # +|11>


def test_tensor_associativity_and_dims():
    rng = np.random.default_rng(7)
    a, b, c = (random_pure_state(k, rng) for k in (1, 2, 1))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.num_qubits == right.num_qubits == 4
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-15)
    u, v = (random_unitary(2, rng) for _ in range(2))
    assert tensor(u, v).shape == (4, 4)


def test_tensor_type_mismatch():
    with pytest.raises(TypeError):
        tensor(basis_state(1, 0), IDENTITY_2)


# --- partial trace --------------------------------------------------------------


def test_partial_trace_product_state():
    rho = outer(basis_state(2, 0))  # |00><00|
    reduced = partial_trace(rho, [1])
    np.testing.assert_allclose(reduced.entries, np.diag([1.0, 0.0]), atol=1e-15)


def test_partial_trace_product_inputs_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho_a = random_density_matrix(1, rng)
        rho_b = random_density_matrix(1, rng)
        prod = DensityMatrix(2, np.kron(rho_a.entries, rho_b.entries))
        reduced = partial_trace(prod, [1])
        assert np.max(np.abs(reduced.entries - rho_a.entries)) < 1e-13


def test_partial_trace_singlet_marginal():
    rho = outer(SINGLET)
    for keep in ([1], [2]):
        np.testing.assert_allclose(partial_trace(rho, keep).entries, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_cube_roots():
    rho = outer(cube_roots_state())
    reduced = partial_trace(rho, [1])
    np.testing.assert_allclose(reduced.entries, np.diag([2 / 3, 1 / 3]), atol=1e-15)


def test_partial_trace_matches_pure_marginal():
    rng = np.random.default_rng(5)
    state = random_pure_state(4, rng)
    rho = outer(state)
    for keep in ([1], [2, 4], [1, 3]):
        np.testing.assert_allclose(
            partial_trace(rho, keep).entries, pure_marginal(state, keep).entries, atol=1e-13
        )


def test_partial_trace_errors():
    rho = outer(basis_state(2, 0))
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [3])


# --- partial transpose ------------------------------------------------------------


def test_partial_transpose_product_stays_positive():
    rng = np.random.default_rng(13)
    rho_a = random_density_matrix(1, rng)
    rho_b = random_density_matrix(1, rng)
    prod = DensityMatrix(2, np.kron(rho_a.entries, rho_b.entries))
    pt = partial_transpose(prod.entries, 2)
    np.testing.assert_allclose(pt, np.kron(rho_a.entries, rho_b.entries.T), atol=1e-15)
    assert hermitian_eigenvalues(pt)[0] > -1e-12


def test_partial_transpose_singlet_min_eigenvalue():
    pt = partial_transpose(outer(SINGLET).entries, 2)
    assert abs(hermitian_eigenvalues(pt)[0] - (-0.5)) < 1e-12


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        pt = partial_transpose(rho.entries, 2)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        assert abs(np.trace(pt) - 1.0) < 1e-12
        back = partial_transpose(pt, 2)  # involution, exact
        np.testing.assert_array_equal(back, rho.entries)
        assert abs(hermitian_eigenvalues(pt).sum() - 1.0) < 1e-10


# --- eigenvalues and entropies --------------------------------------------------


def test_hermitian_eigenvalues_basic():
    np.testing.assert_allclose(hermitian_eigenvalues(np.diag([2 / 3, 1 / 3])), [1 / 3, 2 / 3], atol=1e-15)
    np.testing.assert_allclose(hermitian_eigenvalues(PAULI_X), [-1.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]]))


def test_hermitian_eigenvalues_coherence_block():
    # 4x4 block with populations 1/3 and a modulus-1/3 coherence in the corner:
    # spectrum is {1/3, 1/3, (1 +- sqrt5)/6}
    w = np.exp(2j * np.pi / 3)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[2, 2] = 1 / 3
    m[0, 3] = w / 3
    m[3, 0] = w.conjugate() / 3
    eigs = hermitian_eigenvalues(m)
    expected = np.sort([(1 - np.sqrt(5)) / 6, 1 / 3, 1 / 3, (1 + np.sqrt(5)) / 6])
    np.testing.assert_allclose(eigs, expected, atol=1e-12)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(outer(basis_state(2, 1))) == 0.0
    assert abs(von_neumann_entropy(DensityMatrix(1, np.eye(2) / 2)) - 1.0) < 1e-15
    mixed = DensityMatrix(1, np.diag([2 / 3, 1 / 3]))
    assert abs(von_neumann_entropy(mixed) - 0.9182958340544896) < 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(23)
    for num_qubits in (1, 2, 3):
        rho = random_density_matrix(num_qubits, rng, rank=4)
        s0 = von_neumann_entropy(rho)
        for _ in range(5):
            u = random_unitary(2**num_qubits, rng)
            rotated = DensityMatrix(num_qubits, u @ rho.entries @ u.conj().T)
            assert abs(von_neumann_entropy(rotated) - s0) < 1e-9


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(1 / 3) - binary_entropy(2 / 3)) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def _log1p_binary_entropy(p: float) -> float:
    """H2(p) with log2 (1 - p) taken as log1p(-p) / ln 2, so the rounding of 1 - p is never taken a logarithm of."""
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / math.log(2.0))


@pytest.mark.parametrize("entropy", [
    pytest.param(binary_entropy, id="binary_entropy"),
    pytest.param(_log1p_binary_entropy, id="log1p"),
])
def test_binary_entropy_against_the_exact_oracle(entropy):
    """The entropy of each |c_k|^2 of the near-pole sweep, as `splitting_entropy` computes it, against its 60-digit
    value, within `EXACT_BOUND`.  Where p or 1 - p is at most `ENTROPY_CUTOFF`, `binary_entropy` is exactly 0.0 by
    the package's convention, so the sweep takes only p strictly inside (ENTROPY_CUTOFF, 1 - ENTROPY_CUTOFF), and
    the first doubles on either side of each cutoff are checked apart: 0.0 at and past it, the bound inside."""
    probabilities = {abs(c) ** 2 for _, z in near_pole_sweep() for c in z.coeffs}
    errors = [(relative_error(entropy(p), exact_binary_entropy(p)), p)
              for p in sorted(probabilities) if ENTROPY_CUTOFF < p < 1.0 - ENTROPY_CUTOFF]
    top = 1.0 - ENTROPY_CUTOFF  # then the smallest double p with 1 - p <= ENTROPY_CUTOFF; 1 - p is exact here
    while 1.0 - top > ENTROPY_CUTOFF:
        top = math.nextafter(top, 2.0)
    inside = (math.nextafter(ENTROPY_CUTOFF, 1.0), math.nextafter(top, 0.0))
    errors += [(relative_error(entropy(p), exact_binary_entropy(p)), p) for p in inside]
    error, p = max(errors)
    assert error <= EXACT_BOUND, f"{error!r} at p = {p!r}"
    if entropy is binary_entropy:
        for p in (0.0, 5e-324, 1e-300, math.nextafter(ENTROPY_CUTOFF, 0.0), ENTROPY_CUTOFF,
                  top, math.nextafter(top, 2.0), math.nextafter(1.0, 0.0), 1.0):
            assert math.copysign(1.0, entropy(p)) == 1.0 and entropy(p) == 0.0, p  # 0.0, never -0.0


def test_two_level_spectrum_against_the_exact_oracle():
    """Both roots within `EXACT_BOUND` of their 60-digit values where the package takes them: trace 1 with a
    determinant from 1e-300 to 1/4 (the output marginals, the entanglement of formation and the product flag) and a
    trace from 1e-15 to 1 with a negative determinant (the partial transpose).  At trace 1 the smaller root is
    d / (1/2 + sqrt(1/4 - d)) bit for bit, the expression `bell_table`'s product flag was pinned with."""
    assert two_level_spectrum(1.0, 0.25000000000000017) == (0.5, 0.5)  # a determinant rounded past 1/4
    rng = np.random.default_rng(1403)
    cases = [(1.0, float(d)) for d in 0.25 * 10.0 ** -rng.uniform(0, 300, 2000)] + [(1.0, 0.25), (1.0, 0.0)]
    traces, dets = 10.0 ** -rng.uniform(0, 15, 2000), 10.0 ** -rng.uniform(0, 300, 2000)
    cases += [(float(t), -float(d)) for t, d in zip(traces, dets)]
    errors = []
    for trace, det in cases:
        roots = two_level_spectrum(trace, det)
        if trace == 1.0:
            assert roots[0] == det / (0.5 + math.sqrt(max(0.25 - det, 0.0))), det
        assert roots[0] <= roots[1], (trace, det)
        errors += [(relative_error(value, exact), trace, det)
                   for value, exact in zip(roots, exact_two_level_spectrum(trace, det)) if exact]
    error, *where = max(errors, key=lambda entry: entry[0])
    assert error <= EXACT_BOUND, (error, *where)


# --- comparisons and gates -------------------------------------------------------


def test_equal_up_to_global_phase():
    zero = basis_state(1, 0)
    phased = PureState(1, np.exp(1j * np.pi / 7) * zero.amplitudes)
    assert equal_up_to_global_phase(zero, phased)
    assert not equal_up_to_global_phase(zero, basis_state(1, 1))
    with pytest.raises(ValueError):
        equal_up_to_global_phase(zero, basis_state(2, 0))


def test_state_fidelity():
    assert state_fidelity(SINGLET, SINGLET) == pytest.approx(1.0, abs=1e-15)
    plus = PureState(1, np.array([1, 1]) / np.sqrt(2))
    assert state_fidelity(plus, basis_state(1, 0)) == pytest.approx(0.5, abs=1e-15)


def test_apply_gate_single_qubit():
    out = apply_gate(basis_state(2, 0), [2], PAULI_X)
    np.testing.assert_array_equal(out.amplitudes, basis_state(2, 1).amplitudes)
    out = apply_gate(basis_state(2, 0), [1], PAULI_Z)
    np.testing.assert_array_equal(out.amplitudes, basis_state(2, 0).amplitudes)


def test_apply_gate_matches_full_matrix():
    rng = np.random.default_rng(29)
    state = random_pure_state(3, rng)
    u = random_unitary(4, rng)
    out = apply_gate(state, [1, 3], u)
    # oracle: permute qubit 3 next to qubit 1, apply kron, permute back
    psi = state.amplitudes.reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    expected = (np.kron(u, np.eye(2)) @ psi).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)


def test_project():
    plus = np.array([1, 1]) / np.sqrt(2)
    prob, residual = project(basis_state(2, 0), [1], plus)
    assert prob == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(residual, np.array([1 / np.sqrt(2), 0]), atol=1e-15)
    with pytest.raises(ValueError):
        project(basis_state(1, 0), [1], plus)  # nothing would remain


def test_is_product_state():
    assert is_product_state(basis_state(3, 5))
    assert not is_product_state(SINGLET)
    prod = tensor(PureState(1, np.array([1, 1j]) / np.sqrt(2)), basis_state(1, 0))
    assert is_product_state(prod)


def test_is_product_state_matches_marginal_oracle():
    rng = np.random.default_rng(59)
    states = [random_pure_state(3, rng) for _ in range(20)]
    states += [tensor(random_pure_state(1, rng), random_pure_state(2, rng)) for _ in range(5)]
    states += [tensor(tensor(random_pure_state(1, rng), random_pure_state(1, rng)), random_pure_state(1, rng))]
    for state in states:
        oracle = all(
            float(np.linalg.eigvalsh(pure_marginal(state, [q]).entries)[0]) <= 1e-9 for q in (1, 2, 3)
        )
        assert is_product_state(state) == oracle


def test_is_product_state_one_eigensolve_per_marginal(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert not is_product_state(SINGLET)
    assert calls == [(2, 2)]  # the first marginal is already mixed
    calls.clear()
    assert is_product_state(basis_state(3, 5))
    assert calls == [(2, 2)] * 3


def test_partial_transpose_rejects_non_qubit_matrices():
    with pytest.raises(ValueError, match="does not act on qubits"):
        partial_transpose(np.eye(3), 1)
    with pytest.raises(ValueError, match="does not act on qubits"):
        partial_transpose(np.ones((4, 2)), 1)
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(np.eye(4), 3)


def test_partial_transpose_general_register():
    # three qubits: transposing the middle factor of A (x) B (x) C gives
    # A (x) B^T (x) C
    rng = np.random.default_rng(43)
    parts = [random_density_matrix(1, rng).entries for _ in range(3)]
    rho = DensityMatrix(3, np.kron(np.kron(parts[0], parts[1]), parts[2]))
    pt = partial_transpose(rho.entries, 2)
    expected = np.kron(np.kron(parts[0], parts[1].T), parts[2])
    np.testing.assert_allclose(pt, expected, atol=1e-15)

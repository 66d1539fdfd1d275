import math

import numpy as np
import pytest

from qcobweb.linalg import (
    DensityMatrix,
    binary_entropy,
    entropy_of_eigenvalues,
    hermitian_eigenvalues,
    single_qubit_spectra,
)
from qcobweb.measures import (
    cobweb_spectrum,
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    ppt_report,
    scaling_curve,
    splitting_entropy,
)
from qcobweb.protocol import cobweb_state
from qcobweb.states import (
    UnknownQubit,
    ZsaAmplitudes,
    build_state,
    random_zsa,
    reduced_pair,
    reduced_single,
    roots_of_unity_zsa,
)

from _helpers import random_qubit
from oracles import pure_marginal, von_neumann_entropy

CUBE = roots_of_unity_zsa(3)
ENTROPY_THIRD = 0.9182958340544896  # H2(1/3)
EOF_CUBE = 0.5500477595827576  # H2((1 + sqrt5/3)/2)
LAMBDA4_CUBE = (1 - math.sqrt(5)) / 6


# --- PPT ---------------------------------------------------------------------


def test_ppt_report_cube_roots():
    report = ppt_report(CUBE, reduced_pair(CUBE))
    expected = np.sort([1 / 3, 1 / 3, (1 + math.sqrt(5)) / 6, LAMBDA4_CUBE])
    np.testing.assert_allclose(np.sort(report.eigenvalues), expected, atol=1e-12)
    assert report.eigenvalues[3] == pytest.approx(LAMBDA4_CUBE, abs=1e-12)
    assert report.eigenvalues[3] < 0
    assert not report.separable


def test_ppt_matrix_structure():
    # transposing the second pair qubit moves the |10><01| coherence into the
    # |00><11| corner: [[|c1|^2, 0, 0, c2* c3], [0, |c3|^2, 0, 0],
    # [0, 0, |c2|^2, 0], [c2 c3*, 0, 0, 0]]
    rng = np.random.default_rng(59)
    for _ in range(50):
        z = random_zsa(3, rng)
        c1, c2, c3 = z.coeffs
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = abs(c1) ** 2
        expected[1, 1] = abs(c3) ** 2
        expected[2, 2] = abs(c2) ** 2
        expected[0, 3] = np.conj(c2) * c3
        expected[3, 0] = c2 * np.conj(c3)
        np.testing.assert_allclose(ppt_report(z, reduced_pair(z)).matrix.entries, expected, atol=1e-14)


def test_ppt_closed_form_vs_eigensolver():
    rng = np.random.default_rng(61)
    for _ in range(300):
        z = random_zsa(3, rng)
        report = ppt_report(z, reduced_pair(z))
        oracle = hermitian_eigenvalues(report.matrix)
        assert np.max(np.abs(np.sort(report.eigenvalues) - oracle)) < 1e-10
        a1, a2, a3 = (abs(c) ** 2 for c in z.coeffs)
        assert report.eigenvalues[0] == pytest.approx(a2, abs=1e-10)
        assert report.eigenvalues[1] == pytest.approx(a3, abs=1e-10)
        assert report.eigenvalues[2] * report.eigenvalues[3] < 0
        assert sum(report.eigenvalues) == pytest.approx(1.0, abs=1e-12)


def test_ppt_report_serialization():
    doc = ppt_report(CUBE, reduced_pair(CUBE)).to_dict()
    assert doc["max_abs_difference"] < 1e-10
    assert doc["min_eigenvalue"] < -0.2
    assert doc["separable"] is False


def test_ppt_report_requires_three_parties():
    with pytest.raises(ValueError):
        ppt_report(roots_of_unity_zsa(4), reduced_pair(CUBE))


# --- entanglement of formation ----------------------------------------------------


def test_eof_cube_roots_both_routes():
    closed = entanglement_of_formation(CUBE)
    assert closed == pytest.approx(EOF_CUBE, abs=1e-12)
    route = eof_from_concurrence(concurrence(reduced_pair(CUBE)))
    assert route == pytest.approx(EOF_CUBE, abs=1e-10)


def test_eof_routes_agree_on_random_states():
    rng = np.random.default_rng(67)
    for _ in range(300):
        z = random_zsa(3, rng)
        closed = entanglement_of_formation(z)
        route = eof_from_concurrence(concurrence(reduced_pair(z)))
        assert abs(closed - route) < 1e-10


def test_eof_limits():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0  # |c2|^2|c3|^2 = 1/4 would give C = 1


def test_concurrence_reference_values():
    singlet = DensityMatrix(2, np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2)
    assert concurrence(singlet) == pytest.approx(1.0, abs=1e-12)
    product = DensityMatrix(2, np.diag([1.0, 0, 0, 0]))
    assert concurrence(product) == 0.0
    rng = np.random.default_rng(71)
    for _ in range(100):
        z = random_zsa(3, rng)
        expected = 2 * abs(z.coeffs[1] * z.coeffs[2])
        assert concurrence(reduced_pair(z)) == pytest.approx(expected, abs=1e-10)


# --- splitting entropy ---------------------------------------------------------------


def test_splitting_entropy_cube_roots():
    for k in (1, 2, 3):
        assert splitting_entropy(CUBE, k) == pytest.approx(ENTROPY_THIRD, abs=1e-12)
    # the rounded reference figure
    assert abs(splitting_entropy(CUBE, 1) - 0.9) < 0.05


def test_splitting_entropy_equals_marginal_entropy():
    rng = np.random.default_rng(73)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        psi = build_state(z)
        for k in range(1, n + 1):
            closed = splitting_entropy(z, k)
            assert abs(closed - von_neumann_entropy(reduced_single(z, k))) < 1e-11
            assert abs(closed - von_neumann_entropy(pure_marginal(psi, [k]))) < 1e-11


def test_splitting_entropy_half():
    a = 0.5
    z = ZsaAmplitudes(
        [1 / math.sqrt(2), complex(-a, a) / math.sqrt(2), complex(-a, -a) / math.sqrt(2)]
    )
    assert abs(z.coeffs[0]) ** 2 == pytest.approx(0.5, abs=1e-15)
    assert splitting_entropy(z, 1) == pytest.approx(1.0, abs=1e-12)


def test_splitting_entropy_nth_roots_matches_curve():
    curve = dict(scaling_curve(8))
    for n in (4, 6, 8):
        z = roots_of_unity_zsa(n)
        assert splitting_entropy(z, 2) == pytest.approx(curve[n], abs=1e-12)


# --- cobweb spectrum ------------------------------------------------------------------


def test_cobweb_spectrum_pole_is_product():
    cw = cobweb_state(UnknownQubit(0.0), CUBE, 0)
    spectrum = cobweb_spectrum(cw)
    assert spectrum.epsilon == 0.0
    assert (spectrum.eta_plus, spectrum.eta_minus) == (1.0, 0.0)
    assert spectrum.entanglement == 0.0


def test_cobweb_spectrum_cube_equator():
    cw = cobweb_state(UnknownQubit(np.pi / 2), CUBE, 0)
    spectrum = cobweb_spectrum(cw)
    assert spectrum.epsilon == pytest.approx(1 / 9, abs=1e-12)
    oracle = single_qubit_spectra(cw.vector)[0]
    np.testing.assert_allclose([spectrum.eta_minus, spectrum.eta_plus], oracle, atol=1e-10)
    assert spectrum.entanglement == pytest.approx(
        von_neumann_entropy(pure_marginal(cw.vector, [1])), abs=1e-10
    )


def test_cobweb_spectrum_schmidt_equality_random():
    rng = np.random.default_rng(79)
    for _ in range(300):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        ref = int(rng.integers(0, 2))
        cw = cobweb_state(q, z, ref)
        spectrum = cobweb_spectrum(cw)
        closed = np.array([spectrum.eta_minus, spectrum.eta_plus])
        for oracle in single_qubit_spectra(cw.vector):
            assert np.max(np.abs(closed - oracle)) < 1e-10
        assert spectrum.eta_plus + spectrum.eta_minus == pytest.approx(1.0, abs=1e-14)
        assert spectrum.eta_plus * spectrum.eta_minus == pytest.approx(spectrum.epsilon, abs=1e-12)


def test_cobweb_spectrum_factor_four_variant_fails_oracle():
    cw = cobweb_state(UnknownQubit(np.pi / 2), CUBE, 0)
    spectrum = cobweb_spectrum(cw)
    determinant = float(np.prod(single_qubit_spectra(cw.vector)[0]))
    assert abs(spectrum.epsilon - determinant) < 1e-10
    assert abs(4 * spectrum.epsilon - determinant) > 0.3  # the 4x variant misses by 1/3 here


def _assert_spectra_match_marginals_bitwise(state):
    spectra = single_qubit_spectra(state)
    assert spectra.shape == (state.num_qubits, 2)
    for q in range(1, state.num_qubits + 1):
        rho = pure_marginal(state, [q])
        assert np.array_equal(spectra[q - 1], hermitian_eigenvalues(rho))
        assert entropy_of_eigenvalues(spectra[q - 1]) == von_neumann_entropy(rho)


@pytest.mark.parametrize("n", range(2, 21))
def test_single_qubit_spectra_match_pure_marginal_bitwise(n):
    """The stacked eigensolve is the per-qubit dense oracle bit for bit, on the shared ZSA states."""
    rng = np.random.default_rng(1600 + n)
    _assert_spectra_match_marginals_bitwise(build_state(random_zsa(n, rng)))
    _assert_spectra_match_marginals_bitwise(build_state(roots_of_unity_zsa(n)))


def test_single_qubit_spectra_match_pure_marginal_bitwise_on_cobwebs():
    rng = np.random.default_rng(1603)
    for _ in range(200):
        z, q = random_zsa(3, rng), random_qubit(rng)
        for ref in (0, 1):
            _assert_spectra_match_marginals_bitwise(cobweb_state(q, z, ref).vector)


def test_cobweb_spectrum_requires_three_parties():
    rng = np.random.default_rng(83)
    cw = cobweb_state(random_qubit(rng), random_zsa(4, rng), 0)
    with pytest.raises(ValueError):
        cobweb_spectrum(cw)


# --- scaling ---------------------------------------------------------------------------


def test_scaling_reference_values():
    curve = dict(scaling_curve(4))
    assert curve[2] == pytest.approx(1.0, abs=1e-12)
    assert curve[3] == pytest.approx(0.9182958340544896, abs=1e-12)
    assert curve[4] == pytest.approx(0.8112781244591328, abs=1e-12)


def test_scaling_strictly_decreasing_and_vanishing():
    curve = scaling_curve(64)
    values = [e for _, e in curve]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.12


def test_scaling_asymptotics():
    # ratio to log2(N)/N behaves like 1 + 1/ln N; the refined form
    # (log2 N + log2 e)/N matches the curve to ~1e-4 at N = 1024
    big_n = 1024
    e_big = binary_entropy(1.0 / big_n)
    loose_ratio = big_n * e_big / math.log2(big_n)
    assert 1.10 < loose_ratio < 1.20  # exceeds a 10% band by construction
    refined_ratio = big_n * e_big / (math.log2(big_n) + math.log2(math.e))
    assert abs(refined_ratio - 1.0) < 1e-3
    huge = 2**20
    e_huge = binary_entropy(1.0 / huge)
    assert huge * e_huge / math.log2(huge) < loose_ratio  # converging toward 1 from above


def test_scaling_curve_validation():
    with pytest.raises(ValueError):
        scaling_curve(2)

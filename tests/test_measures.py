import math

import numpy as np
import pytest

from qcobweb.linalg import (
    ENTROPY_CUTOFF,
    DensityMatrix,
    binary_entropy,
    hermitian_eigenvalues,
    partial_transpose,
)
from qcobweb.measures import (
    cobweb_spectrum,
    concurrence,
    eof_from_concurrence,
    marginal_spectrum,
    ppt_report,
    scaling_curve,
    splitting_entropy,
)
from qcobweb.protocol import DEGENERATE_PROBABILITY, BellOutcome, bell_table
from qcobweb.states import (
    UnknownQubit,
    ZsaAmplitudes,
    build_state,
    random_zsa,
    reduced_pair,
    reduced_single,
    roots_of_unity_zsa,
)

from _helpers import near_pole_sweep, random_qubit, reference_0_output
from oracles import (
    EXACT_BOUND,
    cobweb_state,
    entropy_of_eigenvalues,
    exact_eof,
    exact_marginal_spectrum,
    exact_ppt_spectrum,
    exact_two_level_entropy,
    exact_two_level_spectrum,
    pure_marginal,
    relative_error,
    single_qubit_spectra,
    spectrum_entropies,
    von_neumann_entropy,
)

CUBE = roots_of_unity_zsa(3)
ENTROPY_THIRD = 0.9182958340544896  # H2(1/3)
EOF_CUBE = 0.5500477595827576  # H2((1 + sqrt5/3)/2)
LAMBDA4_CUBE = (1 - math.sqrt(5)) / 6


# --- PPT ---------------------------------------------------------------------


def test_ppt_report_cube_roots():
    report = ppt_report(CUBE, reduced_pair(CUBE))
    eigenvalues = report["closed_form_eigenvalues"]
    expected = np.sort([1 / 3, 1 / 3, (1 + math.sqrt(5)) / 6, LAMBDA4_CUBE])
    np.testing.assert_allclose(np.sort(eigenvalues), expected, atol=1e-12)
    assert eigenvalues[3] == pytest.approx(LAMBDA4_CUBE, abs=1e-12)
    assert eigenvalues[3] < 0
    assert report["separable"] is False


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
        parts = np.array(ppt_report(z, reduced_pair(z))["matrix"])  # [row, column, (re, im)]
        np.testing.assert_allclose(parts[..., 0] + 1j * parts[..., 1], expected, atol=1e-14)


def test_ppt_closed_form_vs_eigensolver():
    rng = np.random.default_rng(61)
    for _ in range(300):
        z = random_zsa(3, rng)
        report = ppt_report(z, reduced_pair(z))
        eigenvalues = report["closed_form_eigenvalues"]
        oracle = hermitian_eigenvalues(partial_transpose(reduced_pair(z).entries, 2))
        assert report["oracle_eigenvalues"] == oracle.tolist()
        assert np.max(np.abs(np.sort(eigenvalues) - oracle)) < 1e-10
        a1, a2, a3 = (abs(c) ** 2 for c in z.coeffs)
        assert eigenvalues[0] == pytest.approx(a2, abs=1e-10)
        assert eigenvalues[1] == pytest.approx(a3, abs=1e-10)
        assert eigenvalues[2] * eigenvalues[3] < 0
        assert sum(eigenvalues) == pytest.approx(1.0, abs=1e-12)


def test_ppt_report_serialization():
    doc = ppt_report(CUBE, reduced_pair(CUBE))
    assert list(doc) == ["closed_form_eigenvalues", "oracle_eigenvalues", "max_abs_difference", "min_eigenvalue",
                         "separable", "matrix"]
    assert doc["max_abs_difference"] < 1e-10
    assert doc["min_eigenvalue"] < -0.2
    assert doc["separable"] is False


def test_ppt_smaller_eigenvalue_against_the_exact_oracle():
    """The negative PPT eigenvalue within `EXACT_BOUND` of its 60-digit value over the three-party states of the
    near-pole sweep, each with its amplitudes cycled so that the tiny one is c_3.  Taken as (|c_1|^2 - sqrt(|c_1|^4 +
    4|c_2|^2|c_3|^2))/2 it cancels and loses every digit there."""
    errors = []
    for _, z in near_pole_sweep():
        if z.num_parties == 3:
            cycled = ZsaAmplitudes(np.roll(z.coeffs, -1))
            small = ppt_report(cycled, reduced_pair(cycled))["closed_form_eigenvalues"][3]
            errors.append((relative_error(small, exact_ppt_spectrum(cycled)[0]), list(cycled.coeffs)))
    error, where = max(errors, key=lambda entry: entry[0])
    assert len(errors) > 100
    assert error <= EXACT_BOUND, (error, where)


def test_ppt_report_requires_three_parties():
    with pytest.raises(ValueError):
        ppt_report(roots_of_unity_zsa(4), reduced_pair(CUBE))


# --- entanglement of formation ----------------------------------------------------


def test_eof_cube_roots_both_routes():
    closed = eof_from_concurrence(2 * abs(CUBE.coeffs[1]) * abs(CUBE.coeffs[2]))
    assert closed == pytest.approx(EOF_CUBE, abs=1e-12)
    route = eof_from_concurrence(concurrence(reduced_pair(CUBE)))
    assert route == pytest.approx(EOF_CUBE, abs=1e-10)


def test_eof_routes_agree_on_random_states():
    rng = np.random.default_rng(67)
    for _ in range(300):
        z = random_zsa(3, rng)
        closed = eof_from_concurrence(2 * abs(z.coeffs[1]) * abs(z.coeffs[2]))
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
    assert spectrum == {"epsilon": 0.0, "eta_plus": 1.0, "eta_minus": 0.0, "entanglement_bits": 0.0}
    assert list(spectrum) == ["epsilon", "eta_plus", "eta_minus", "entanglement_bits"]


def test_cobweb_spectrum_cube_equator():
    cw = cobweb_state(UnknownQubit(np.pi / 2), CUBE, 0)
    spectrum = cobweb_spectrum(cw)
    assert spectrum["epsilon"] == pytest.approx(1 / 9, abs=1e-12)
    oracle = single_qubit_spectra(cw.vector)[0]
    np.testing.assert_allclose([spectrum["eta_minus"], spectrum["eta_plus"]], oracle, atol=1e-10)
    assert spectrum["entanglement_bits"] == pytest.approx(
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
        closed = np.array([spectrum["eta_minus"], spectrum["eta_plus"]])
        for oracle in single_qubit_spectra(cw.vector):
            assert np.max(np.abs(closed - oracle)) < 1e-10
        assert spectrum["eta_plus"] + spectrum["eta_minus"] == pytest.approx(1.0, abs=1e-14)
        assert spectrum["eta_plus"] * spectrum["eta_minus"] == pytest.approx(spectrum["epsilon"], abs=1e-12)


def test_cobweb_spectrum_against_the_exact_oracle():
    """eta_minus and eta_plus, in ascending order even where epsilon rounds past 1/4, within `EXACT_BOUND` of the
    60-digit roots of trace 1 and determinant epsilon, for the cube at theta = 1e-6 and every live output of the
    three-party states of the near-pole sweep.  Taken as (1 - sqrt(1 - 4 epsilon))/2, eta_minus reads 0.0 for the
    cube, where epsilon is 6.25e-26."""
    outputs = [reference_0_output(UnknownQubit(1e-6), CUBE)]
    for q, z in near_pole_sweep():
        if z.num_parties == 3:
            table = bell_table(q, z)
            outputs += [table.transcript(o).final for o in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS)
                        if table.probabilities[o.value] >= DEGENERATE_PROBABILITY]
    errors = []
    for cw in outputs:
        spectrum = cobweb_spectrum(cw)
        assert spectrum["eta_minus"] <= spectrum["eta_plus"], (cw.qubit.theta, list(cw.zsa.coeffs))
        exact = exact_two_level_spectrum(1.0, spectrum["epsilon"])
        errors += [(relative_error(spectrum[key], value), key, cw.qubit.theta, list(cw.zsa.coeffs))
                   for key, value in zip(("eta_minus", "eta_plus"), exact) if value]
    assert cobweb_spectrum(outputs[0])["eta_minus"] > 0.0
    error, *where = max(errors, key=lambda entry: entry[0])
    assert error <= EXACT_BOUND, (error, *where)


def _two_level_entropy_error(value: float, exact: tuple) -> float:
    """The relative error of a two-level entropy against its exact (smaller root, H2) pair; where that root is at most
    `ENTROPY_CUTOFF`, 0.0 if ``value`` is exactly 0.0, else inf."""
    small, entropy = exact
    if small <= ENTROPY_CUTOFF:
        return 0.0 if value == 0.0 and math.copysign(1.0, value) == 1.0 else math.inf
    return relative_error(value, entropy)


def test_two_level_entropies_against_the_exact_oracle():
    """`entanglement_bits` and the EoF closed form within `EXACT_BOUND` of the 60-digit H2 of the exact smaller root
    of their spectrum, and exactly 0.0 where that root is at most `ENTROPY_CUTOFF`: every live output of the
    near-pole sweep's three-party states and the cube at theta = 0.01, 1e-3 and 0.3, and the EoF at each of those
    states' C = 2|c2||c3| and at 400 log-spaced C from 1e-7 to 1.  Taken as H2 of the larger root, 1 - small
    rounded, the output entropy was 1.5e-3 off at theta = 2.3e-7 and the EoF 5.9e-3 at C = 2.4e-7."""
    outputs = [reference_0_output(UnknownQubit(theta), CUBE) for theta in (0.01, 1e-3, 0.3)]
    concurrences = np.logspace(-7.0, 0.0, 400).tolist()
    for q, z in near_pole_sweep():
        if z.num_parties == 3:
            table = bell_table(q, z)
            outputs += [table.transcript(o).final for o in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS)
                        if table.probabilities[o.value] >= DEGENERATE_PROBABILITY]
            concurrences.append(2.0 * abs(z.coeffs[1]) * abs(z.coeffs[2]))
    errors = []
    for cw in outputs:
        spectrum = cobweb_spectrum(cw)
        exact = exact_two_level_entropy(spectrum["epsilon"])
        errors.append((_two_level_entropy_error(spectrum["entanglement_bits"], exact), cw.qubit.theta,
                       list(cw.zsa.coeffs)))
    errors += [(_two_level_entropy_error(eof_from_concurrence(con), exact_eof(con)), con) for con in concurrences]
    error, *where = max(errors, key=lambda entry: entry[0])
    assert error <= EXACT_BOUND, (error, *where)


def test_cobweb_spectrum_factor_four_variant_fails_oracle():
    cw = cobweb_state(UnknownQubit(np.pi / 2), CUBE, 0)
    spectrum = cobweb_spectrum(cw)
    determinant = float(np.prod(single_qubit_spectra(cw.vector)[0]))
    assert abs(spectrum["epsilon"] - determinant) < 1e-10
    assert abs(4 * spectrum["epsilon"] - determinant) > 0.3  # the 4x variant misses by 1/3 here


def _assert_spectra_match_marginals_bitwise(state):
    spectra = single_qubit_spectra(state)
    assert spectra.shape == (state.num_qubits, 2)
    entropies = spectrum_entropies(spectra)
    for q in range(1, state.num_qubits + 1):
        rho = pure_marginal(state, [q])
        assert np.array_equal(spectra[q - 1], hermitian_eigenvalues(rho.entries))
        assert entropies[q - 1] == von_neumann_entropy(rho)


@pytest.mark.parametrize("n", range(2, 21))
def test_single_qubit_spectra_match_pure_marginal_bitwise(n):
    """The stacked eigensolve is the per-qubit dense oracle bit for bit, on the shared ZSA states."""
    rng = np.random.default_rng(1600 + n)
    _assert_spectra_match_marginals_bitwise(build_state(random_zsa(n, rng)))
    _assert_spectra_match_marginals_bitwise(build_state(roots_of_unity_zsa(n)))


def test_single_qubit_spectra_match_pure_marginal_bitwise_on_cobwebs():
    """Also: the shared state and both outputs in one call give each state's own rows, in order, bit for bit."""
    rng = np.random.default_rng(1603)
    for _ in range(200):
        z, q = random_zsa(3, rng), random_qubit(rng)
        outputs = [cobweb_state(q, z, ref).vector for ref in (0, 1)]
        for output in outputs:
            _assert_spectra_match_marginals_bitwise(output)
        states = [build_state(z), *outputs]
        assert np.array_equal(single_qubit_spectra(*states), np.concatenate([single_qubit_spectra(s) for s in states]))


def _tiny_zsa(n: int, rng: np.random.Generator) -> ZsaAmplitudes:
    """A seeded ZSA state with one |c_k|^2 below 1e-14 (often below 1.1e-16, where 1 - |c_k|^2 rounds to 1)."""
    c = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    c[int(rng.integers(n - 1))] = 10.0 ** -rng.uniform(7.0, 10.5)
    c = np.append(c, -c.sum())
    return ZsaAmplitudes(c / np.linalg.norm(c))


def _bits(values) -> list[str]:
    """Each value's repr: equal lists are equal bit for bit, the sign of a zero included."""
    return [repr(float(v)) for v in values]


def _entropy_states(max_n: int):
    rng = np.random.default_rng(2303)
    for n in range(2, max_n + 1):
        yield roots_of_unity_zsa(n)
        yield random_zsa(n, rng)
        if n > 2:  # at N = 2 both amplitudes have the same magnitude
            yield _tiny_zsa(n, rng)


def test_spectrum_entropies_match_the_per_spectrum_form_bitwise():
    """The one array pass over all rows is `entropy_of_eigenvalues` of each row, zero signs included, on the
    shared states' and the outputs' spectra and on rows at the cutoff, below it and negative."""
    rng = np.random.default_rng(2304)
    stacks = [single_qubit_spectra(build_state(z)) for z in _entropy_states(12)]
    for _ in range(50):
        z, q = _tiny_zsa(3, rng), random_qubit(rng)
        stacks.append(single_qubit_spectra(*(cobweb_state(q, z, ref).vector for ref in (0, 1))))
    stacks.append(np.array([[0.0, 1.0], [-1e-17, 1.0], [1e-14, 1.0 - 1e-14], [1.0000000000000002e-14, 0.9],
                            [0.5, 0.5], [5e-324, 1.0], [0.25, 0.75]]))
    for spectra in stacks:
        assert _bits(spectrum_entropies(spectra)) == _bits([entropy_of_eigenvalues(row) for row in spectra])


def _near_degenerate_cases():
    """(qubit, shared state) pairs whose marginals are within 1e-16 to 1e-2 of degenerate, where a trace-determinant
    form loses the gap.  First the 426th state of `test_a_global_phase_on_the_shared_state_changes_only_the_rows_phase`
    (seed 20261020) at theta = 0: its reference-1 output's marginals read 0.4991 and 0.5009.  Then c_1 = i d c_2 / |c_2|
    for d = 1e-1 .. 1e-8, so |c_3|^2 = |c_2|^2 + d^2: the reference-1 output at theta = 0 and the shared state's qubit 2
    sit d^2 from degenerate."""
    yield UnknownQubit(0.0, 4.571440621821196), ZsaAmplitudes([
        0.0055860570923843686 - 0.020306034647500436j, 0.6888010383603514 + 0.15632070291792818j,
        -0.6943870954527358 - 0.13601466827042777j])
    rng = np.random.default_rng(3212)
    for d in 10.0 ** -np.arange(1, 9):
        c2 = np.exp(2j * math.pi * rng.random())
        c = np.array([1j * d * c2, c2, -(1j * d + 1.0) * c2])
        yield UnknownQubit(0.0, 2.0 * math.pi * rng.random()), ZsaAmplitudes(c / np.linalg.norm(c))


def _slot_rows(q: UnknownQubit, z: ZsaAmplitudes):
    """(row, dense state) of the shared state, as the report takes it, and of each reference output that is live."""
    yield [0.0, 0.0, *z.parts], build_state(z)
    table = bell_table(q, z)
    for outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS):
        if table.probabilities[outcome.value] >= DEGENERATE_PROBABILITY:
            yield table.rows[outcome.value], table.transcript(outcome).final.vector


def test_marginal_spectrum_matches_the_dense_spectra():
    """The slot form of every single-qubit marginal, of the shared state and both outputs, is the stacked dense
    eigensolve within 1e-14: seeded states of N = 3..12, the near-pole sweep and near-degenerate marginals.  The
    largest gap was 1.1e-15 over 14641 marginals on x86-64 with numpy 2.4.6."""
    rng = np.random.default_rng(3211)
    seeded = [(random_qubit(rng), random_zsa(n, rng)) for n in range(3, 13) for _ in range(20)]
    for q, z in [*seeded, *near_pole_sweep(), *_near_degenerate_cases()]:
        for row, state in _slot_rows(q, z):
            slot = np.array([marginal_spectrum(row, j) for j in range(1, state.num_qubits + 1)])
            gap = float(np.max(np.abs(slot - single_qubit_spectra(state))))
            assert gap <= 1e-14, (q, z.coeffs, gap)


def _tiny_c1_states(rng: np.random.Generator, count: int):
    """``count`` ZSA states of 3 to 8 parties with |c_1|^2 log-uniform from 1e-13 to 1e-1 and a random phase: the
    others are a random zero-sum vector, each less c_1 / (N - 1), scaled so that the squared norms add to 1."""
    for i in range(count):
        n, p1 = 3 + i % 6, 10.0 ** rng.uniform(-13.0, -1.0)
        c1 = math.sqrt(p1) * np.exp(2j * math.pi * rng.random())
        w = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        w -= w.mean()
        w *= math.sqrt(1.0 - p1 - p1 / (n - 1)) / np.linalg.norm(w)
        yield ZsaAmplitudes(np.concatenate([[c1], w - c1 / (n - 1)]))


def test_marginal_spectrum_against_the_exact_oracle():
    """Both eigenvalues of every single-qubit marginal, of the shared state and of each live output at a random
    qubit, against their 60-digit values, within `EXACT_BOUND`, over 300 seeded states whose |c_1|^2 reaches 1e-13.
    The smaller eigenvalue taken as mean - half cancelled: it was off by a relative 5e-3 at |c_1|^2 = 1.05e-14."""
    rng = np.random.default_rng(1301)
    errors = []
    for z in _tiny_c1_states(rng, 300):
        for row, state in _slot_rows(random_qubit(rng), z):
            errors += [(relative_error(value, exact), j, list(z.coeffs)) for j in range(1, state.num_qubits + 1)
                       for value, exact in zip(marginal_spectrum(row, j), exact_marginal_spectrum(row, j))]
    error, *where = max(errors)
    assert error <= EXACT_BOUND, (error, *where)


def test_marginal_spectrum_rejects_a_slot_that_is_no_qubit():
    row = bell_table(UnknownQubit(1.0), CUBE).rows[BellOutcome.PSI_MINUS.value]
    for j in (0, 3, -1):
        with pytest.raises(ValueError, match="out of range 1..2"):
            marginal_spectrum(row, j)


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

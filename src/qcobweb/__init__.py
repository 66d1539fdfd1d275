"""Zero-sum-amplitude entangled states and the universal-entangling protocol.

Dense exact statevector simulation, closed-form entanglement accounting, and
independent linear-algebra oracles for every closed form.
"""

from .disentangle import (
    DisentangleResult,
    ObstructionReport,
    RecoveryOddsReport,
    cnot_disentangle,
    obstruction,
    success_probability_sign,
)
from .linalg import (
    DensityMatrix,
    LinearOperator,
    PureState,
    apply_gate,
    basis_state,
    binary_entropy,
    equal_up_to_global_phase,
    hermitian_eigenvalues,
    is_product_state,
    partial_trace,
    partial_transpose,
    project,
    pure_marginal,
    state_fidelity,
    tensor,
    von_neumann_entropy,
)
from .measures import (
    CobwebSpectrum,
    PptReport,
    cobweb_marginal_eigenvalues,
    cobweb_spectrum,
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    ppt_report,
    scaling_curve,
    splitting_entropy,
)
from .protocol import (
    BellOutcome,
    CobwebState,
    CorrectionRule,
    DegenerateBranch,
    Transcript,
    branch_probabilities,
    cobweb_state,
    correction_for,
    generalized_target,
    joint_state,
    normalization_constants,
    run_protocol,
)
from .session import (
    BaselineReport,
    ClassicalMessage,
    ResourceLedger,
    SessionResult,
    classical_only_baseline,
    messages_to_jsonl,
    run_session,
)
from .states import (
    GeneralZsaAmplitudes,
    ImpossibleOutcome,
    NormalizationViolation,
    UnknownQubit,
    ZeroAmplitude,
    ZeroSumViolation,
    ZsaAmplitudes,
    ZsaValidationError,
    build_state,
    epr_zsa,
    ghz_state,
    load_amplitudes,
    lu_phase_strip,
    param_count,
    project_qubit,
    random_zsa,
    reduced_pair,
    reduced_single,
    roots_of_unity_zsa,
    save_amplitudes,
    validate_general_zsa,
    validate_zsa,
    w_state,
)

__version__ = "0.1.0"

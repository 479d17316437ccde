"""Complex Hadamard promise problems.

Construction and classification of complex Hadamard matrices, synthesis
of gate sets whose ordered products encode a hidden matrix column,
simulation of the quantum-switch protocol that recovers the column
deterministically, and the exact shortest-common-supersequence census
quantifying the query cost of fixed-order simulations.
"""

from .errors import (
    AmbiguousColumn,
    BranchMismatch,
    BudgetExceeded,
    ChswitchError,
    DimensionMismatch,
    DomainError,
    IncompatibleDimension,
    KindMismatch,
    LimitExceeded,
    MalformedInstance,
    MalformedMatrix,
    NotButsonError,
    NotDephased,
    PromiseViolation,
    ProtocolError,
    SizeMismatch,
)
from .gates import (
    QuditGate,
    WeylOp,
    pauli_x,
    pauli_z_power,
    phase_ratio,
    product_in_order,
    weyl_compose,
    weyl_x,
    weyl_z,
)
from .matrices import (
    Butson,
    CHMatrix,
    NotButson,
    classify_bh,
    dephase,
    f4_family,
    fourier,
    matrix_from_json,
    matrix_to_json,
    min_target_dimension,
    phase_twirl,
    sylvester_hadamard,
    validate_ch,
)
from .promise import (
    PermutationSet,
    PromiseInstance,
    build_cv_gates,
    build_minimal_ch4,
    build_qudit_gates,
    conjugate_gates,
    shift_permutations,
    verify_promise,
)
from .scs import (
    CensusRow,
    ScsResult,
    census,
    census_csv,
    census_sweep,
    is_supersequence,
    scs_brute_oracle,
    scs_exact,
)
from .switch import (
    SwitchOutcome,
    apply_switch,
    run_protocol,
    sweep_columns,
)

__version__ = "0.1.0"

"""Desk-scale workbench for finite groupoid equivalences.

Builds linking groupoids with their Haar systems, the convolution
algebras and bimodule structure of an equivalence, regular
representations as explicit matrices, and reduced norms; then
machine-checks the structural identities relating them, exactly where
possible and within pinned tolerances elsewhere.
"""

from .algebra import (
    AlgebraElement,
    convolve,
    convolve_linking_blockwise,
    involution,
    left_action,
    lip,
    op_star,
    right_action,
    rip,
)
from .equivalence import (
    Bispace,
    FiberMeasure,
    GSpace,
    g_bracket,
    h_bracket,
    opposite_space,
    rho_measure,
    rho_mu_measure,
    sigma_measure,
    validate_equivalence,
)
from .errors import (
    BracketNotFoundError,
    CarrierMismatchError,
    FixtureFormatError,
    GroupoidalError,
    NonFiniteError,
    StructureBrokenError,
    UnknownIdError,
)
from .groupoid import (
    Arrow,
    FiniteGroupoid,
    HaarSystem,
    ValidationReport,
    Violation,
    i_norm,
    r_fiber,
    s_fiber,
    validate_groupoid,
    validate_haar,
)
from .linking import (
    LinkingGroupoid,
    block_compose,
    block_decompose,
    build_linking,
    build_linking_haar,
    compress,
)
from .representations import (
    RepMatrix,
    check_i_norm_bound,
    gram_min_eigenvalue,
    ind_delta,
    ind_mu,
    intertwining_residual,
    operator_norm,
    r_mu_rep,
    reduced_kernel_dimension,
    reduced_norm,
    reduced_norms,
    unit_stacks,
)
from .verify import (
    DEFAULT_SEED,
    AggregateReport,
    Lcg,
    SuiteReport,
    VerifyConfig,
    random_element,
    verify_all,
    verify_full_projections,
    verify_imprimitivity,
    verify_representation_laws,
    verify_theorem_main1,
    verify_universal_norm_finite,
)

__version__ = "0.1.0"

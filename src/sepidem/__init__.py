"""sepidem: a verification-and-derivation kernel for separability
idempotents over finite-dimensional complex algebras.

Certify the defining axioms of a candidate idempotent in B (x) C, derive
the attached anti-isomorphisms, integrals and modular automorphisms by
exact linear solves, check the involutive/positivity layer, and invert
the matrix-algebra constructions back to their twist data.
"""

from .scalars import EXACT, FLOAT64, ExactField, Float64Field, GaussianRational, gauss, rational
from .algebra import (
    Algebra,
    AlgebraElement,
    LinearFunctional,
    LinearMap,
    direct_sum,
    element_as_matrix,
    element_from_matrix,
    identity_map,
    matrix_algebra,
    structure_constant_algebra,
    trace_functional,
    transpose_anti_map,
)
from .tensor import (
    Subspace,
    TensorElement,
    is_full,
    left_leg,
    mult_sided,
    right_leg,
    simple_tensor,
    slice_left,
    slice_right,
    swap_and_map,
    tensor_mul,
    unit_tensor,
    zero_tensor,
)
from .engine import (
    CheckOutcome,
    IdempotencyVerdict,
    SeparabilityCertificate,
    central_element,
    certify,
    conjugacy_transport,
    counit_identities,
    derive_antipode,
    derive_one_sided,
    derive_reverse_antipode,
    determinacy_check,
    splitting_check,
    verify_idempotent,
)
from .integrals import (
    DerivedData,
    check_integral_transport,
    derive_all,
    derive_left_integral,
    derive_right_integral,
    implementing_element_from_trace,
    modular_automorphisms,
    trace_from_implementing_element,
)
from .star import (
    BlockData,
    GnsData,
    TwistData,
    check_antipode_star_relations,
    check_cauchy_bound,
    check_integral_self_adjoint,
    check_positive,
    check_positivity_transfer,
    check_self_adjoint,
    decompose_blocks,
    gns_data,
    gram_matrix,
    recover_twist,
)
from .duality import DualElement, Duality
from .constructions import (
    ClosedForms,
    conjugation_map,
    direct_sum_idempotent,
    involutive_twisted_idempotent,
    nonfull_idempotent,
    random_element,
    random_invertible,
    random_involutive_diagonal,
    random_twisted_pair,
    standard_idempotent,
    standard_idempotent_over,
    twisted_closed_forms,
    twisted_idempotent,
    weighted_trace,
)
from . import errors

__version__ = "0.1.0"

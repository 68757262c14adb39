"""Exact-arithmetic workbench for current Lie algebras L tensor A.

Structure constants over Q in, canonical subspaces out: cocycle and
invariant-form decompositions, derivation spans, the four-term sequence
tying H^2 to dual-valued 1-cohomology, and graded slices of the
positive-degree loop algebra.  Everything is computed with exact rational
linear algebra; no verdict rests on floating point.
"""

from .exactlin import (
    Subspace,
    inverse,
    kernel_from_rows,
    preimage,
    subspace_intersect,
    subspace_sum,
)
from .algebras import (
    AssocAlgebra,
    BilinearForm,
    CurrentAlgebra,
    LieAlgebra,
    ValidationError,
    algebra_from_dict,
    algebra_to_dict,
    build_assoc,
    build_lie,
    current,
    killing_form,
    parse_algebra_file,
    product_form,
    residue_form,
    serialize_algebra,
)
from .cochain import (
    CochainSpaceResult,
    LieModule,
    adjoint_module,
    coadjoint_module,
    cohomology,
    trivial_module,
)
from .forms import (
    condition_space,
    hc1_space,
    invariant_symmetric_forms,
    verify_forms_decomposition,
    verify_h2_decomposition,
)
from .derivations import (
    LoopDerivation,
    PencilCandidates,
    antiderivation_space,
    derivation_space,
    inner_derivations,
    lambda_candidates,
    map_condition_space,
    sequence_maps,
    sl2_loop_derivation,
    verify_der_decomposition,
)
from .identities import InvariantError
from .graded import (
    graded_form_dims,
    graded_h2,
    graded_vs_whole,
    larsson_report,
)

__version__ = "0.1.0"

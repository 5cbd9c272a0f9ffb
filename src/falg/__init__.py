"""Free modules and algebras over a countable basis, two regimes.

Exact regime: finite-support vectors, column-finite linear maps, duals,
tensors, and structure-constant products, over integer/rational/float
coefficient backends.  Certified regime: the same values as finite prefixes
plus sound l1 tail bounds that every operation propagates.
"""

from types import ModuleType as _ModuleType

from .ring import (
    BACKENDS,
    Backend,
    BackendMismatchError,
    FLOAT64,
    INTEGER,
    RATIONAL,
    Scalar,
    embed_int,
    embed_rational,
    parse_scalar,
)
from .hamel import (
    ColumnFiniteMap,
    DualFunctional,
    HamelVector,
    PolyMap,
    basis_map,
    basis_vector,
    dual_basis,
    identity_on,
    poly_apply,
    zero_map,
    zero_vector,
)
from .algebra import (
    AssociatorDefect,
    CenterReport,
    CertificateError,
    CommutatorDefect,
    LawReport,
    LawResult,
    StructureTable,
    table_from_data,
    table_to_data,
)
from .tensor import (
    NonAssociativeError,
    TensorElement,
    map_via_tensor,
    tensor_pure,
    zero_tensor,
)
from .schauder import (
    NormInterval,
    TailMap,
    TailPolyMap,
    TailVector,
    tail_mul,
    tpoly_apply,
    tpoly_bound,
)
from .catalog import AlgebraFixture, LabelError, fixture_from_data, load_builtin

# the imports above are the one list of the public API: __all__ is every name they bind, no submodule
__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]

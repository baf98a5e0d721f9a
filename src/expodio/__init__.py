"""Exact decision, bounding, and solution-set enumeration for systems of
equations with algebraic bases and integer exponent unknowns."""

from .algebra import (
    FieldElement,
    IntPolynomial,
    NumberField,
    cyclotomic,
    field_inverse,
    field_pow,
    field_reduce,
    root_of_unity_order,
)
from .bounds import BoundReport, c_constant, gap_bound, kappa, mspn_bound_equation, system_box
from .errors import (
    ExpodioError,
    InternalError,
    InvalidInstance,
    IsRootOfUnity,
    NotASolution,
    NotInvertible,
    ParseError,
    ResourceLimitExceeded,
    TooManyVariables,
    ValidationError,
    ZeroInverse,
)
from .model import (
    ExpEquation,
    ExpSystem,
    HomogenizedSystem,
    clear_denominators,
    homogenize,
    make_system,
    parse_system,
    serialize_system,
    size_of,
)
from .reductions import (
    PartitionInstance,
    ThreePartitionInstance,
    encode_3partition,
    encode_partition,
    partition_oracle,
    partition_witness,
)
from .solve import (
    SAT,
    UNSAT,
    DecisionResult,
    SearchLimits,
    SearchStats,
    decide,
    naive_residuals,
    oracle_search,
)
from .structure import (
    ClusterStructure,
    Coset,
    SemilinearSet,
    coset_contains,
    enumerate_semilinear,
    find_cluster_structures,
)
from .verify import SolutionVector, parse_solution, verify, verify_report

__version__ = "0.1.0"

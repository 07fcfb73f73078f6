"""Exact incidence algebras of finite posets over small fields, with a
constructive classification of their unital linear invertibility preservers
and brute-force oracles that verify the structural laws at desk scale."""

from .algebra import (
    FIElement,
    basis_element,
    format_element,
    indicator,
    jordan_product,
    parse_element,
)
from .endos import (
    PartitionEndo,
    SubsetMapTable,
    XorEndo,
    check_partition_preservation,
    enumerate_endos,
    format_endo,
    is_boolean_endo,
    is_separating,
    parse_endo_line,
    to_partition,
    to_xor_endo,
)
from .errors import (
    ClassificationError,
    FieldMismatchError,
    GateError,
    IncalgError,
    InfiniteFieldError,
    MismatchError,
    NotAUnitError,
    ParseError,
    PosetError,
    ScalarError,
)
from .fields import Field, PrimeField, Rationals, Scalar, format_field, parse_field
from .posets import Poset, builtin_poset, format_poset, parse_poset, resolve_poset
from .preservers import (
    LinearMap,
    PreserverSpec,
    build_preserver,
    extract_radical_map,
    extract_subset_map,
    format_linear_map,
    format_preserver_spec,
    is_jordan_endo,
    is_strong,
    parse_linear_map,
    parse_preserver_spec,
    preserves_idempotents,
    preserves_inverses,
    preserves_invertibility,
)
from .verify import (
    CensusReport,
    LemmaVerdict,
    analyze_map,
    classify,
    count_from_theorem,
    enumerate_preservers,
    enumerate_specs,
    merge_census,
    random_preserver_spec,
    reproduce_example,
    verify_criteria,
    verify_inverse_preserver_results,
    verify_lemma_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Reversible MCT circuits: permutation semantics, quantum cost, and
identity elimination."""

from .circuit import (
    Circuit,
    Gate,
    ParseError,
    WidthMismatchError,
    concat,
    format_circuit,
    format_gate,
    insert_segment,
    inverse,
    mct,
    parse_circuit,
)
from .corpus import corpus_ids, corpus_text, load_corpus_circuit
from .cost import (
    DEFAULT_COST_TABLE,
    CostTableError,
    circuit_cost,
    gate_cost,
    gate_count,
    load_cost_table,
    parse_cost_table,
)
from .generate import (
    GeneratorConfig,
    GeneratorError,
    gen_random_circuit,
    gen_random_ntri,
    is_interior_irreducible,
    synthesize_inverse,
)
from .reduce import (
    ReductionReport,
    Removal,
    eliminate_ntris,
    eliminate_ntris_fast,
    is_irreducible,
    remove_trivial_identities,
)
from .semantics import (
    DEFAULT_WIDTH_CAP,
    Specification,
    WidthCapExceeded,
    equivalent,
    format_spec,
    gate_permutation,
    identity_spec,
    invert_spec,
    is_identity,
    is_permutation,
    simulate,
)

__version__ = "0.1.0"

"""Prime-square-order Cayley graphs on cyclic groups of order a²b²c².

Builds the circulant graph whose connectors are the elements of squared-prime
order, produces explicit certificates for its parameters (regularity,
connectivity, girth, clique, chromatic, independence, Hamiltonicity,
diameter), and verifies each certificate against brute-force oracles.
"""

from .connectors import ConnectingSet, connector_count_formula, enumerate_connectors, is_connector
from .graph import (
    DEFAULT_MATERIALIZE_CAP,
    CayleyGraph,
    ConnectivityResult,
    TooLargeError,
)
from .group import (
    GroupElement,
    NonPrimeError,
    NotAscendingError,
    NotDistinctError,
    PrimeTriple,
    TripleValidationError,
    bezout_witness,
    crt_combine,
    crt_components,
    element_order,
    group_element,
    is_prime,
    make_prime_triple,
)
from .hamiltonian import LengthMismatchError, WalkCertificate, snake_walk, verify_walk, walk_lines
from .oracles import (
    DEFAULT_SEED,
    BudgetExceededError,
    OracleBudget,
    SweepReport,
    distance_sweep,
    exact_max_clique,
    exact_max_independent_set,
    find_triangle,
)
from .parameters import (
    ColoringResult,
    DiameterResult,
    DistanceProfile,
    IndependenceCertificate,
    IndexBoundsReport,
    clique_certificate,
    closed_form_distance,
    closed_form_distance_classes,
    closed_form_distance_table,
    diameter,
    distance_profile,
    independence_certificate,
    independence_index_set,
    independence_internal_edges,
    residue_sum_color,
    two_prime_distance,
    verify_coloring,
    verify_index_bounds,
)
from .report import (
    SCHEMA_VERSION,
    VerificationOutcome,
    auto_budget,
    build_report,
    report_bytes,
    run_verification,
    write_report,
)
from .structure import (
    BlockId,
    FiberId,
    FiberStructureChecklist,
    IndexGraph,
    block_exponents,
    block_members,
    block_of,
    fiber_members,
    index_graph,
    verify_block_adjacency,
    verify_block_partition,
    verify_fiber_structure,
)

__version__ = "0.1.0"

"""Prime-square-order Cayley graphs on cyclic groups of order a²b²c².

Builds the circulant graph whose connectors are the elements of squared-prime
order, produces explicit certificates for its parameters (regularity,
connectivity, girth, clique, chromatic, independence, Hamiltonicity,
diameter), and verifies each certificate against brute-force oracles.
"""

from .connectors import connector_count_formula, enumerate_connectors
from .graph import (
    DEFAULT_MATERIALIZE_CAP,
    CayleyGraph,
    ConnectivityResult,
    TooLargeError,
)
from .group import (
    NonPrimeError,
    NotAscendingError,
    NotDistinctError,
    PrimeTriple,
    TripleValidationError,
    bezout_witness,
    crt_combine,
    element_order,
    is_prime,
    make_prime_triple,
)
from .hamiltonian import WalkCertificate, snake_walk, verify_walk, walk_lines
from .oracles import (
    DEFAULT_SEED,
    SweepReport,
    closed_form_distance_classes,
    distance_sweep,
    exact_max_clique,
    exact_max_independent_set,
    find_triangle,
)
from .parameters import (
    ColoringResult,
    DiameterResult,
    IndependenceCertificate,
    IndexBoundsReport,
    clique_certificate,
    closed_form_distance,
    closed_form_distance_table,
    diameter,
    independence_certificate,
    independence_index_set,
    independence_internal_edges,
    verify_coloring,
    verify_index_bounds,
)
from .report import (
    SCHEMA_VERSION,
    Certificates,
    VerificationOutcome,
    build_report,
    certify,
    report_bytes,
    run_verification,
)
from .structure import (
    FiberStructureChecklist,
    block_residues,
    index_adjacent,
    index_ids,
    verify_block_adjacency,
    verify_block_partition,
    verify_fiber_structure,
)

__version__ = "0.1.0"

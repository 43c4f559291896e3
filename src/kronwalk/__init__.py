"""Graph library for Kronecker products and primitive exponents.

Builds undirected graphs (loops allowed), measures parity-constrained
shortest walks and the primitive exponent, constructs Kronecker (tensor)
products, bounds exponents through odd-cycle eccentricities, predicts the
exact diameter of a product from its factors, and verifies every closed
form against brute force on small graphs.
"""

from .boolmat import (
    BoolMatrix,
    adjacency,
    bool_mul,
    bool_pow,
    kron_matrix,
    oracle_exponent,
)
from .cycles import (
    DEFAULT_CYCLE_CAP,
    CycleBoundReport,
    enumerate_odd_cycles,
    l_o_bound,
)
from .edgelist import format_edge_list, parse_edge_list, read_graph, write_graph
from .extlen import INF, ExtLen, is_finite
from .graphs import (
    MAX_EDGES,
    MAX_ORDER,
    MAX_TABLE_ORDER,
    Graph,
    is_k_plus,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    random_graph,
    unlabeled_graphs,
)
from .kronecker import (
    kronecker_product,
    product_diameter,
    product_edge_count,
    product_is_connected,
)
from .predict import (
    Bounds,
    DiameterPrediction,
    diameter_bounds,
    predict_all_loops,
    predict_diameter,
    predict_family_product,
    predict_k_plus_factor,
    predict_multipartite_factor,
    summarize,
)
from .walks import (
    ExponentReport,
    ParityProfile,
    diameter,
    exponent,
    is_bipartite,
    is_connected,
    odd_girth,
)

__all__ = [
    "BoolMatrix",
    "Bounds",
    "CycleBoundReport",
    "DEFAULT_CYCLE_CAP",
    "DiameterPrediction",
    "ExponentReport",
    "ExtLen",
    "Graph",
    "INF",
    "MAX_EDGES",
    "MAX_ORDER",
    "MAX_TABLE_ORDER",
    "ParityProfile",
    "adjacency",
    "bool_mul",
    "bool_pow",
    "diameter",
    "diameter_bounds",
    "enumerate_odd_cycles",
    "exponent",
    "format_edge_list",
    "is_bipartite",
    "is_connected",
    "is_finite",
    "is_k_plus",
    "kron_matrix",
    "kronecker_product",
    "l_o_bound",
    "make_complete",
    "make_complete_multipartite",
    "make_cycle",
    "make_f_family",
    "make_h_family",
    "make_path",
    "odd_girth",
    "oracle_exponent",
    "parse_edge_list",
    "predict_all_loops",
    "predict_diameter",
    "predict_family_product",
    "predict_k_plus_factor",
    "predict_multipartite_factor",
    "product_diameter",
    "product_edge_count",
    "product_is_connected",
    "random_graph",
    "read_graph",
    "summarize",
    "unlabeled_graphs",
    "write_graph",
]

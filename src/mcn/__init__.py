"""Multiplex congruence networks.

Construction and degree statistics of congruence layers over the natural
numbers, minimum driver-node analysis (exact rank and maximum matching),
node-removal attack experiments against a scale-free baseline, and a
graphical solver for simultaneous congruences with a Garner cross-check.
"""

from .attacks import (
    AttackCurve,
    AttackPoint,
    AttackStrategy,
    StaticModelSpec,
    attack_curve,
    generate_static_sf,
    remove_nodes,
)
from .control import (
    FIELD_PRIME,
    ControlReport,
    CouplingMatrix,
    SscReport,
    coupling_matrix,
    min_drivers_exact,
    min_drivers_matching,
    rank,
    verify_ssc,
)
from .crt import (
    Congruence,
    CongruenceSystem,
    CrtSolution,
    NonCoprimeModuliError,
    solve_garner,
    solve_graphical,
    successor_set,
    validate_system,
)
from .digraph import Digraph, layer_header, read_edge_list, sf_header, write_edge_list
from .layers import (
    Chain,
    DegreeHistogram,
    LayerSpec,
    build_layer,
    degree_histogram,
    extract_chains,
    theoretical_average_degree,
    theoretical_pk,
    write_histogram_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AttackCurve",
    "AttackPoint",
    "AttackStrategy",
    "Chain",
    "Congruence",
    "CongruenceSystem",
    "ControlReport",
    "CouplingMatrix",
    "CrtSolution",
    "DegreeHistogram",
    "Digraph",
    "FIELD_PRIME",
    "LayerSpec",
    "NonCoprimeModuliError",
    "SscReport",
    "StaticModelSpec",
    "attack_curve",
    "build_layer",
    "coupling_matrix",
    "degree_histogram",
    "extract_chains",
    "generate_static_sf",
    "layer_header",
    "min_drivers_exact",
    "min_drivers_matching",
    "rank",
    "read_edge_list",
    "remove_nodes",
    "sf_header",
    "solve_garner",
    "solve_graphical",
    "successor_set",
    "theoretical_average_degree",
    "theoretical_pk",
    "validate_system",
    "verify_ssc",
    "write_edge_list",
    "write_histogram_csv",
]

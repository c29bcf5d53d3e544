"""Construction and certification toolkit for Hamiltonian chordal graphs
that fail to be cycle extendible.

Generators build the counterexample families with role-tagged vertices;
recognizers certify chordality and strong chordality; the cyclable engine
decides extendibility questions exactly; the tree-model module realizes the
families as subtree intersection graphs.
"""

__version__ = "0.1.0"

from .chordal import (
    BullResult,
    ChordalityResult,
    find_simple_elimination_order,
    is_bull_free,
    is_chordal,
    is_simple_elimination_order,
    is_strongly_chordal,
    mcs_order,
    peo_violation,
)
from .core import (
    Cycle,
    GraphError,
    LabeledGraph,
    SizeCapError,
    complete_graph,
    cycle_from_edge_set,
    disjoint_union,
    empty_graph,
    join,
    paste_clique,
    path_graph,
)
from .cycles import (
    CyclableTable,
    ExtensionVerdict,
    build_cyclable_table,
    find_heavy_cycle,
    find_spanning_cycle,
    is_cycle_extendible,
    is_fully_cycle_extendible,
    is_s_cycle_extendible,
    subset_cap,
)
from .families import (
    HkSpec,
    build_dn,
    build_gk,
    build_gkm,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
    gk_reference_elimination_order,
    heavy_edge_names,
    lift_cycle,
    pasted_vertices,
    witness_heavy_ham_cycle,
    witness_long_heavy_cycle,
)
from .graph6 import (
    decode_graph6,
    encode_graph6,
    load_graph,
    save_graph,
    sidecar_dict,
)
from .structure import (
    ConnectivityCert,
    induces_path,
    is_pt_free,
    longest_induced_path,
    vertex_connectivity,
)
from .treemodel import (
    HostTree,
    SubtreeModel,
    clique_tree,
    maximal_cliques_chordal,
    explicit_model_hk,
    explicit_model_jk,
    tree_stats,
    verify_model,
)

"""Genome rearrangement distances via circuit partitions of 4-regular graphs.

The package computes reversal distances for signed permutations and DCJ
distances for multichromosomal genomes.  Both reduce to counting circuits
of partitions of a 4-regular multigraph; the reversal side continues
through circle graphs over GF(2), local complementation, and set systems
with symmetric exchange, with brute-force oracles kept alongside as
independent referees.
"""

from .perm import (
    Chromosome,
    Genome,
    ReversalInterval,
    ReversalScript,
    SignedPermutation,
    apply_reversal,
    identity,
    parse_genome,
    parse_permutation,
    reverse_complement,
)
from .fourreg import (
    CircuitPartition,
    FourRegularGraph,
    PermEncoding,
    circuits,
    encode_circular_genomes,
    encode_permutation,
    is_euler_system,
    supplementary,
    switch_route,
)
from .graphs import LoopedGraph, adjacency_matrix, circle_graph, looped_graph
from .localcomp import (
    LcSequence,
    find_full_lc_sequence,
    has_full_lc_sequence,
    lc_contract,
    lc_strip,
    local_complement,
    ms_set,
)
from .sorter import (
    DistanceReport,
    reversal_distance,
    reversal_for_vertex,
    sort_by_reversals,
)
from .dm import SetSystem, from_graph, from_partitions, is_delta_matroid, set_system
from .dcj import adjacency_graph, apply_dcj, dcj_distance, enumerate_dcj_moves
from .oracle import brute_dcj_distance, brute_reversal_distance

__version__ = "0.1.0"

__all__ = [
    "Chromosome",
    "CircuitPartition",
    "DistanceReport",
    "FourRegularGraph",
    "Genome",
    "LcSequence",
    "LoopedGraph",
    "PermEncoding",
    "ReversalInterval",
    "ReversalScript",
    "SetSystem",
    "SignedPermutation",
    "adjacency_graph",
    "adjacency_matrix",
    "apply_dcj",
    "apply_reversal",
    "brute_dcj_distance",
    "brute_reversal_distance",
    "circle_graph",
    "circuits",
    "dcj_distance",
    "encode_circular_genomes",
    "encode_permutation",
    "enumerate_dcj_moves",
    "find_full_lc_sequence",
    "from_graph",
    "from_partitions",
    "has_full_lc_sequence",
    "identity",
    "is_delta_matroid",
    "is_euler_system",
    "lc_contract",
    "lc_strip",
    "local_complement",
    "looped_graph",
    "ms_set",
    "parse_genome",
    "parse_permutation",
    "reversal_distance",
    "reversal_for_vertex",
    "reverse_complement",
    "set_system",
    "sort_by_reversals",
    "supplementary",
    "switch_route",
    "__version__",
]

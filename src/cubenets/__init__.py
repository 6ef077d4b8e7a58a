"""Ridge unfoldings of the n-cube: rolling developments, nets, box
partitions, chord diagrams, and enumeration up to relabelling.

The package exports the names the README documents; everything else is
imported from its submodule (`cubenets.enumeration`, `cubenets.nets`, ...).
"""

from .chords import ChordDiagram, enumerate_diagrams
from .core import FacetLabel, SpanningSubgraph, canonical_form
from .enumeration import ResourceLimitError, enumerate_trees
from .nets import CubePartition, cube_partition_of
from .partitions import realize_partition
from .rolling import Development, RollState, develop_tree

__version__ = "0.1.0"

__all__ = [
    "ChordDiagram",
    "CubePartition",
    "Development",
    "FacetLabel",
    "ResourceLimitError",
    "RollState",
    "SpanningSubgraph",
    "canonical_form",
    "cube_partition_of",
    "develop_tree",
    "enumerate_diagrams",
    "enumerate_trees",
    "realize_partition",
]

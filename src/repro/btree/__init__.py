"""Disk-based B+-tree with leaf handicap slots.

The workhorse of the dual-representation index: every ``B^up``/``B^down``
structure of Sections 3–4, and the handicap directories used for dynamic
maintenance, are instances of :class:`BPlusTree`.
"""

from repro.btree.columnar import ColumnarCache
from repro.btree.node import (
    FLAG_HANDICAPS_VALID,
    InternalArrays,
    InternalNode,
    LeafArrays,
    LeafNode,
    NodeLayout,
)
from repro.btree.tree import BPlusTree, LeafVisit, MultiSweep

__all__ = [
    "BPlusTree",
    "LeafVisit",
    "LeafNode",
    "LeafArrays",
    "InternalNode",
    "InternalArrays",
    "MultiSweep",
    "NodeLayout",
    "ColumnarCache",
    "FLAG_HANDICAPS_VALID",
]

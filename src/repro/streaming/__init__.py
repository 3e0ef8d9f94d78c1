"""Streaming compression: merge-&-reduce, BICO, and StreamKM++.

The paper's streaming experiments (Section 5.4, Tables 5-6, Figure 5) feed
the data in blocks and maintain a compression whose size is independent of
the stream length.  Three mechanisms are provided:

* :class:`~repro.streaming.merge_reduce.StreamingCoresetPipeline` — the
  merge-&-reduce framework of Bentley and Saxe [11] / Har-Peled and
  Mazumdar [40], which turns *any* black-box sampler from
  :mod:`repro.core` into a streaming algorithm.
* :class:`~repro.streaming.bico.BicoCoreset` — BICO [38], a BIRCH-style
  clustering-feature tree producing k-means coresets in a stream.
* :class:`~repro.streaming.streamkm.StreamKMPlusPlus` — StreamKM++ [1]'s
  reduction (k-means++ representatives weighted by their nearest points),
  a sampler that streams through the merge-&-reduce tree.

Beyond the paper, :mod:`repro.streaming.window` adds windowed and decaying
stream semantics (sliding count window, exponential time decay, drift
detection) on top of the merge-&-reduce tree — see ``streaming/README.md``
for the bucket-expiry protocol.
"""

from repro.streaming.bico import BicoCoreset, ClusteringFeature
from repro.streaming.merge_reduce import MergeReduceTree, StreamingCoresetPipeline
from repro.streaming.stream import DataStream, block_size_plan, iterate_blocks
from repro.streaming.streamkm import StreamKMPlusPlus
from repro.streaming.window import (
    DriftDetector,
    ExponentialDecay,
    SlidingCountWindow,
    WindowPolicy,
    WindowedMergeReduceTree,
)

__all__ = [
    "BicoCoreset",
    "ClusteringFeature",
    "MergeReduceTree",
    "StreamingCoresetPipeline",
    "DataStream",
    "DriftDetector",
    "ExponentialDecay",
    "SlidingCountWindow",
    "WindowPolicy",
    "WindowedMergeReduceTree",
    "block_size_plan",
    "iterate_blocks",
    "StreamKMPlusPlus",
]

"""repro — a reproduction of "Settling Time vs. Accuracy Tradeoffs for Clustering Big Data".

The library implements the paper's Fast-Coreset algorithm (strong ε-coresets
for k-means / k-median in Õ(nd) time), the full spectrum of faster sampling
heuristics it is compared against (uniform, lightweight, welterweight,
standard sensitivity sampling, BICO, StreamKM++), the streaming and
MapReduce-style aggregation frameworks, the synthetic and realistic dataset
generators, and the evaluation harness that regenerates every table and
figure of the paper.

Quickstart
----------
>>> import numpy as np
>>> from repro import FastCoreset, coreset_distortion
>>> from repro.data import gaussian_mixture
>>> data = gaussian_mixture(n=2000, d=10, n_clusters=10, seed=0).points
>>> coreset = FastCoreset(k=10, seed=0).sample(data, m=400)
>>> distortion = coreset_distortion(data, coreset, k=10, seed=0)
>>> distortion < 2.0
True
"""

from repro.config import ExperimentScale
from repro.core import (
    Coreset,
    CoresetConstruction,
    FastCoreset,
    LightweightCoreset,
    SensitivitySampling,
    UniformSampling,
    WelterweightCoreset,
    fast_coreset,
    merge_coresets,
    uniform_sample,
)
from repro.clustering import kmeans, kmedian, kmeans_plus_plus, fast_kmeans_plus_plus
from repro.evaluation import coreset_distortion, solution_cost_on_dataset
from repro.parallel import ShardedCoresetBuilder
from repro.streaming import BicoCoreset, StreamKMPlusPlus, StreamingCoresetPipeline
from repro.distributed import MapReduceCoresetAggregator

__version__ = "1.0.0"

__all__ = [
    "ExperimentScale",
    "Coreset",
    "CoresetConstruction",
    "FastCoreset",
    "LightweightCoreset",
    "SensitivitySampling",
    "UniformSampling",
    "WelterweightCoreset",
    "fast_coreset",
    "merge_coresets",
    "uniform_sample",
    "kmeans",
    "kmedian",
    "kmeans_plus_plus",
    "fast_kmeans_plus_plus",
    "coreset_distortion",
    "solution_cost_on_dataset",
    "ShardedCoresetBuilder",
    "BicoCoreset",
    "StreamKMPlusPlus",
    "StreamingCoresetPipeline",
    "MapReduceCoresetAggregator",
    "__version__",
]

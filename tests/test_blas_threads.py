"""No result depends on how many threads OpenBLAS may start.

Every weighted cost sum goes through
:func:`repro.clustering.cost.weighted_total`, a single-threaded reduction.
``np.dot`` and its relatives would split a long sum across OpenBLAS helper
threads: the rounding would then follow the host's core count, and inside a
process-pool worker the helpers would compete with the other workers.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

_BLAS_VECTOR_PRODUCT = re.compile(r"\b(?:np|numpy)\.(?:dot|vdot|inner)\(")

# Prints one digest per result; run under two OPENBLAS_NUM_THREADS values.
_DIGESTS = """
import hashlib, json
import numpy as np
from repro.clustering.cost import clustering_cost
from repro.clustering.lloyd import kmeans
from repro.core import FastCoreset, LightweightCoreset, SensitivitySampling
from repro.data.synthetic import gaussian_mixture

def digest(*arrays):
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()

digests = {}
for seed in (1, 3, 4, 6, 7):
    points = gaussian_mixture(20000, 10, n_clusters=20, gamma=1.0, seed=seed).points
    samplers = {
        "lightweight": (LightweightCoreset(seed=1), 500),
        "fast_coreset": (FastCoreset(20, seed=1), 500),
        "sensitivity": (SensitivitySampling(20, seed=1), 500),
    }
    for name, (sampler, m) in samplers.items():
        coreset = sampler.sample(points, m)
        digests[f"{name}[{seed}]"] = digest(coreset.points, coreset.weights)
    result = kmeans(points, 20, seed=3)
    digests[f"kmeans[{seed}]"] = digest(
        np.float64(result.cost), result.centers, np.int64(result.iterations)
    )
    digests[f"clustering_cost[{seed}]"] = digest(
        np.float64(clustering_cost(points, result.centers))
    )
print(json.dumps(digests))
"""


def test_no_blas_vector_products_in_the_package():
    """A cost sum written with ``np.dot`` would bring the helper threads back."""
    hits = [
        f"{path.relative_to(PACKAGE.parent)}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _BLAS_VECTOR_PRODUCT.search(line)
    ]
    assert not hits, "sum with repro.clustering.cost.weighted_total instead:\n" + "\n".join(hits)


def _digests_under(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _DIGESTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="OpenBLAS starts no helper thread on one core"
)
def test_results_do_not_depend_on_the_blas_thread_count():
    one, two = _digests_under(1), _digests_under(2)
    assert one.keys() == two.keys()
    differing = [name for name in one if one[name] != two[name]]
    assert not differing, f"differ between 1 and 2 BLAS threads: {differing}"

"""Tests for the compiled kernel tier (:mod:`repro.native`).

Three layers of coverage:

* **Kernel contracts** — every native kernel is compared bit-for-bit against
  a live numpy oracle (the same expressions the engine's fallback path
  evaluates), including Hypothesis-generated adversarial inputs for the
  quadtree build and k-means++ seeding.
* **Tier control** — ``native_status()`` introspection, the ``use_native``
  override, the behaviour of :func:`repro.native.get_kernel` in fallback
  mode, and the reasons reported when the provider is unavailable or a
  kernel fails its verifier.
* **Cross-mode bit-identity** — full k-means runs (whose k-means++ seeding
  is tier-dependent), coresets and quadtree fits must produce identical
  outputs with the tier enabled and disabled.

When the cc provider is unavailable (no C compiler, or ``REPRO_NATIVE=0``)
the kernel-contract tests skip; the tier-control and cross-mode tests still
run, because the fallback path must behave identically either way.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import observability
from repro.cli import main as cli_main
from repro.clustering.fast_kmeans_pp import fast_kmeans_plus_plus
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.clustering.lloyd import kmeans
from repro.core.fast_coreset import FastCoreset
from repro.core.sensitivity import SensitivitySampling
from repro.core.spread_reduction import crude_cost_upper_bound
from repro.data.synthetic import gaussian_mixture
from repro.geometry.quadtree import QuadtreeEmbedding
from repro.native import (
    get_kernel,
    kernel_demotions,
    kernel_provider,
    native_status,
    reference_crude_bound_probe,
    reference_fkpp_draw_scan,
    reference_fkpp_level_score,
    reference_fkpp_weighted_draw,
    reference_kmeanspp_round,
    reference_quadtree_build,
    reference_quadtree_max_squared_norm,
    registry,
    use_native,
)
from repro.native.kernels import _verify_quadtree_build, probe_points, quadtree_points

from hypothesis_settings import SETTINGS

requires_native = pytest.mark.skipif(
    native_status()["tier"] != "native",
    reason="the cc kernel provider is unavailable (no C compiler, or REPRO_NATIVE=0)",
)

@st.composite
def quadtree_inputs(draw):
    """``(points, origin, shift, side, depth_cap)`` for one quadtree build.

    Points inside the fit's box (cell side ``2 * delta``), with duplicate
    rows, an all-identical block, and rows snapped to deep digit
    boundaries; now and then a shorter side puts points in lattice cell 1.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 24))
    delta = 10.0 ** draw(st.integers(-3, 6))
    points, origin, shift = quadtree_points(rng, max(n, 3), d, delta)
    points = points[:n].copy()
    duplicates = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.8]))
    points[duplicates] = points[rng.integers(0, n)]
    if draw(st.booleans()):  # away from zero, x - origin rounds
        offset = rng.normal(size=d) * delta * 10.0 ** draw(st.integers(0, 8))
        points += offset
        origin = origin + offset
    depth_cap = draw(st.integers(1, 32))
    side = delta * draw(st.sampled_from([2.0, 2.0, 1.5]))
    return points, origin, shift, side, depth_cap


@st.composite
def kmeanspp_inputs(draw):
    """``(points, k, weights, z, seed)`` for k-means++ across the skip rule.

    Blobs give the kernel points to skip; duplicate rows and zero weights
    give ties and zero mass; the ``2**e`` scale spans subnormal squared
    distances (e = -520) to overflowing ones (e = 510).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 20))
    k = draw(st.integers(1, n))
    centers = rng.normal(size=(draw(st.integers(1, 8)), d)) * 10.0 ** draw(st.integers(0, 4))
    points = centers[rng.integers(0, centers.shape[0], size=n)] + rng.normal(size=(n, d))
    duplicates = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.8]))
    points[duplicates] = points[rng.integers(0, n)]
    points *= 2.0 ** draw(st.integers(-520, 510))
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.0, 3.0, size=n)
        weights[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return points, k, weights, draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**16))


def _fitted_layout(n, d, depth_cap, seed):
    """A real tree's Z-order layout plus a strictly decreasing distance table."""
    rng = np.random.default_rng(seed)
    points, origin, shift = quadtree_points(rng, n, d, 1.0)
    points[::6] = points[4]  # duplicates share their cells at every level
    order, position, level_offsets = reference_quadtree_build(points, origin, shift, 2.0, depth_cap)
    distances = np.sort(rng.uniform(0.05, 2.0, size=len(level_offsets) + 1))[::-1].copy()
    return rng, order, position, level_offsets, distances


def _seeding_buffers(rng, n):
    best = rng.uniform(0.0, 2.0, size=n)
    best[rng.random(n) < 0.25] = np.inf
    assignment = rng.integers(-1, 4, size=n).astype(np.int64)
    mass = rng.uniform(0.0, 4.0, size=n)
    weights = rng.uniform(0.1, 3.0, size=n)
    return best, assignment, mass, weights


def _whole_cell_sweep(order, position, level_offsets, distances, czs, best, assignment,
                      mass, weights, ceiling, slot, center_point, has_mass):
    """The sweep without its inner-range skip: every member of every cell."""
    at = position[center_point]
    for level in range(len(level_offsets) - 1, -1, -1):
        candidate = distances[level + 1]
        if candidate >= ceiling and np.isfinite(ceiling):
            break
        offsets = level_offsets[level]
        cell = int(np.searchsorted(offsets, at, side="right")) - 1
        members = order[offsets[cell] : offsets[cell + 1]]
        improved = members[best[members] > candidate]
        best[improved] = candidate
        assignment[improved] = slot
        if has_mass:
            mass[improved] = weights[improved] * czs[level + 1]


@requires_native
class TestFkppLevelScoreKernel:
    @pytest.mark.parametrize("n,d,depth_cap", [(80, 1, 1), (150, 3, 5), (301, 2, 9)])
    def test_bound_sweep_matches_numpy_oracle(self, n, d, depth_cap):
        rng, order, position, level_offsets, distances = _fitted_layout(n, d, depth_cap, depth_cap)
        czs = np.array([np.float64(v) ** 2 for v in distances])
        best, assignment, mass, weights = _seeding_buffers(rng, n)
        sweep = get_kernel("fkpp_level_score")(
            order, position, level_offsets, distances, czs, best, assignment, mass, weights
        )
        depth = len(level_offsets)
        for slot in range(4):
            center_point = int(rng.integers(0, n))
            ceiling = (np.inf, float(distances[depth // 2 + 1]), 0.0, np.inf)[slot]
            has_mass = slot > 0
            expected_best = best.copy()
            expected_assignment = assignment.copy()
            expected_mass = mass.copy()
            expected = reference_fkpp_level_score(
                order, position, level_offsets, distances, czs, expected_best,
                expected_assignment, expected_mass, weights, ceiling, slot,
                center_point, has_mass,
            )
            assert sweep(ceiling, slot, center_point, has_mass) == expected
            np.testing.assert_array_equal(best, expected_best)
            np.testing.assert_array_equal(assignment, expected_assignment)
            np.testing.assert_array_equal(mass, expected_mass)

    @pytest.mark.parametrize("seed", range(4))
    def test_skipping_the_deeper_cell_is_exact(self, seed):
        # The deeper cell was swept just before with a smaller candidate, so
        # sweeping every member of every cell stores the same doubles.
        rng, order, position, level_offsets, distances = _fitted_layout(400, 2, 12, seed)
        czs = np.array([np.float64(v) ** 2 for v in distances])
        n = order.shape[0]
        best, assignment, mass, weights = _seeding_buffers(rng, n)
        whole = [best.copy(), assignment.copy(), mass.copy()]
        for slot in range(12):
            center_point = int(rng.integers(0, n))
            ceiling = float(best.max())
            reference_fkpp_level_score(
                order, position, level_offsets, distances, czs, best, assignment, mass,
                weights, ceiling, slot, center_point, True,
            )
            _whole_cell_sweep(
                order, position, level_offsets, distances, czs, *whole, weights,
                ceiling, slot, center_point, True,
            )
            for have, want in zip((best, assignment, mass), whole):
                np.testing.assert_array_equal(have, want)

    @pytest.mark.parametrize("widened", ["order", "position", "offsets"])
    def test_binder_rejects_int64_tree_arrays(self, widened):
        # The sweep reads every tree array as int32; a widened copy would
        # be misread, so the binder refuses it up front.
        _, order, position, level_offsets, distances = _fitted_layout(50, 2, 3, 0)
        tree = {"order": order, "position": position, "offsets": level_offsets}
        if widened == "offsets":
            tree["offsets"] = [array.astype(np.int64) for array in level_offsets]
        else:
            tree[widened] = tree[widened].astype(np.int64)
        n = order.shape[0]
        with pytest.raises(ValueError, match="int32"):
            get_kernel("fkpp_level_score")(
                tree["order"], tree["position"], tree["offsets"], distances, distances ** 2,
                np.full(n, np.inf), np.full(n, -1, dtype=np.int64), np.zeros(n), np.ones(n),
            )

    @pytest.mark.parametrize("broken", ["short_buffer", "offsets_past_the_end"])
    def test_binder_rejects_mismatched_lengths(self, broken):
        # The sweep indexes raw pointers: a buffer shorter than the order,
        # or offsets past its end, would read or write out of bounds.
        _, order, position, level_offsets, distances = _fitted_layout(50, 2, 3, 0)
        n = order.shape[0]
        best = np.full(n - 1 if broken == "short_buffer" else n, np.inf)
        if broken == "offsets_past_the_end":
            level_offsets = [*level_offsets[:-1], level_offsets[-1] + np.int32(1)]
        with pytest.raises(ValueError):
            get_kernel("fkpp_level_score")(
                order, position, level_offsets, distances, distances ** 2,
                best, np.full(n, -1, dtype=np.int64), np.zeros(n), np.ones(n),
            )

    def test_escape_hatch_forces_numpy_sweep(self):
        with use_native(False):
            assert get_kernel("fkpp_level_score") is None


@requires_native
class TestFkppWeightedDrawKernel:
    @pytest.mark.parametrize("n", [1, 40, 513])
    def test_total_and_scan_match_cumsum_searchsorted(self, n):
        rng = np.random.default_rng(n)
        mass = rng.uniform(0.0, 5.0, size=n)
        mass[rng.random(n) < 0.3] = 0.0
        kernel = get_kernel("fkpp_weighted_draw")
        cumulative = np.cumsum(mass)
        total = float(kernel(mass))
        assert total == reference_fkpp_weighted_draw(mass)
        bound_total, bound_scan = kernel.bind(mass)
        assert float(bound_total()) == total
        us = [0.0, total * 0.4, total, total * 2.0]
        us.extend(float(cumulative[i]) for i in (0, n // 2, n - 1))
        for u in us:
            expected = reference_fkpp_draw_scan(mass, u)
            assert int(kernel.scan(mass, u)) == expected
            assert int(bound_scan(u)) == expected

    @pytest.mark.parametrize("n", [1023, 1024, 3072, 5000])
    def test_scan_matches_searchsorted_at_every_block_prefix(self, n):
        # The scan binary-searches the prefixes the total recorded at every
        # 1024th point and walks one block: below one block, exactly one,
        # an exact multiple and a partial last block, with a weightless
        # block whose two ends tie.
        rng = np.random.default_rng(n)
        mass = rng.uniform(0.0, 5.0, size=n)
        mass[rng.random(n) < 0.3] = 0.0
        mass[1024:2048] = 0.0
        cumulative = np.cumsum(mass)
        bound_total, bound_scan = get_kernel("fkpp_weighted_draw").bind(mass)
        assert bound_total() == cumulative[-1]
        prefixes = cumulative[1023::1024]
        us = np.concatenate([
            rng.uniform(0.0, cumulative[-1], size=500), [0.0, cumulative[-1]],
            prefixes, np.nextafter(prefixes, 0.0), np.nextafter(prefixes, np.inf),
        ])
        for u in us.tolist():
            assert bound_scan(u) == np.searchsorted(cumulative, u, side="right")

    def test_scan_reflects_in_place_mass_updates(self):
        # The production closure is bound once per fit and must observe
        # every in-place rewrite of the mass store.
        mass = np.ones(10)
        kernel = get_kernel("fkpp_weighted_draw")
        bound_total, bound_scan = kernel.bind(mass)
        assert float(bound_total()) == 10.0
        mass[:5] = 0.0
        assert float(bound_total()) == float(np.cumsum(mass)[-1])
        assert int(bound_scan(0.5)) == int(
            np.searchsorted(np.cumsum(mass), 0.5, side="right")
        )

    def test_escape_hatch_forces_numpy_draw(self):
        with use_native(False):
            assert get_kernel("fkpp_weighted_draw") is None


def _probe_multipliers(rng, d):
    return rng.integers(1, 2**62, size=d, dtype=np.uint64) * np.uint64(2) + np.uint64(1)


@requires_native
class TestCrudeBoundProbeKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
    def test_counts_match_numpy_oracle_at_every_cap(self, d):
        rng = np.random.default_rng(d)
        shift, diameter, inputs = probe_points(rng, d, range(21))
        multipliers = _probe_multipliers(rng, d)
        kernel = get_kernel("crude_bound_probe")
        for level, points in enumerate(inputs):
            n = points.shape[0]
            distinct = reference_crude_bound_probe(points, shift, diameter, level, multipliers, n)
            for cap in (1, max(1, distinct // 2), distinct - 1, distinct, distinct + 1, n + 7):
                if cap < 1:
                    continue
                expected = reference_crude_bound_probe(
                    points, shift, diameter, level, multipliers, cap
                )
                assert expected == min(distinct, cap)
                assert kernel(points, shift, diameter, level, multipliers, cap) == expected

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_count_is_the_number_of_distinct_lattice_rows(self, d):
        # An oracle without hashing: the set of lattice rows itself.
        rng = np.random.default_rng(d)
        levels = (0, 4, 6, 11, 20)
        shift, diameter, inputs = probe_points(rng, d, levels)
        multipliers = _probe_multipliers(rng, d)
        kernel = get_kernel("crude_bound_probe")
        for level, points in zip(levels, inputs):
            lattice = np.floor(((points - shift) / diameter) * 2.0**level).astype(np.int64)
            cells = len({tuple(row) for row in lattice})
            assert kernel(points, shift, diameter, level, multipliers, points.shape[0]) == cells

    def test_rejects_operands_of_another_width(self):
        shift, diameter, (points,) = probe_points(np.random.default_rng(0), 3, (6,))
        multipliers = _probe_multipliers(np.random.default_rng(0), 3)
        kernel = get_kernel("crude_bound_probe")
        with pytest.raises(ValueError, match="row of the points' width"):
            kernel(points, shift[:2], diameter, 3, multipliers, 10)
        with pytest.raises(ValueError, match="row of the points' width"):
            kernel(points, shift, diameter, 3, multipliers.astype(np.int64), 10)

    def test_escape_hatch_forces_numpy_probe(self):
        with use_native(False):
            assert get_kernel("crude_bound_probe") is None


@pytest.mark.parametrize("d", [1, 3, 8])
def test_probe_inputs_see_how_boundary_rows_round(d):
    """The probe's count must change when boundary rows round another way:
    multiplying by the diameter's reciprocal instead of dividing floors
    some of them into the cell below, and the verifier's inputs show it."""
    rng = np.random.default_rng(d)
    shift, diameter, (points,) = probe_points(rng, d, (6,))

    def cells(scaled):
        return len({tuple(row) for row in np.floor(scaled * 64.0).astype(np.int64)})

    divided = cells((points - shift) / diameter)
    assert divided == reference_crude_bound_probe(
        points, shift, diameter, 6, _probe_multipliers(rng, d), points.shape[0]
    )
    assert cells((points - shift) * (1.0 / diameter)) != divided


def _round_buffers(n):
    return [np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)]


# A kernel that fails its verifier on this host resolves to the fallback
# even while the tier as a whole is native.
requires_kmeanspp_round = pytest.mark.skipif(
    kernel_provider("kmeanspp_round") == "fallback",
    reason="no provider serves the kmeanspp_round kernel",
)


@requires_kmeanspp_round
class TestKmeansppRoundKernel:
    """The fused k-means++ round vs the numpy seeding round it replaces."""

    def _run(self, points, weights, rows, z):
        """Drive the bound kernel and the oracle side by side."""
        n = points.shape[0]
        expected, have = _round_buffers(n), _round_buffers(n)
        run_round = get_kernel("kmeanspp_round")(points, weights, *have, z)
        for slot, row in enumerate(rows):
            init = slot == 0
            want = reference_kmeanspp_round(
                points, points[row], weights, *expected, slot, z, init
            )
            assert run_round(row, slot, init) == want
            for have_array, want_array in zip(have, expected):
                np.testing.assert_array_equal(have_array, want_array)
        return expected

    @pytest.mark.parametrize("d", range(1, 34))
    def test_every_einsum_dimension_class(self, d):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(97, d)) * rng.uniform(0.1, 30.0)
        rows = rng.integers(0, 97, size=6)
        self._run(points, np.ones(97), rows, 2)

    def test_round_zero_initialises_every_point(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 4))
        best, assignment, mass = self._run(points, np.ones(50), [7], 2)
        assert np.all(assignment == 0)
        np.testing.assert_array_equal(best, np.einsum("ij,ij->i", points - points[7], points - points[7]))
        assert best[7] == 0.0 and mass[7] == 0.0

    @pytest.mark.parametrize("z", [1, 2])
    def test_weighted_rounds(self, z):
        rng = np.random.default_rng(10 + z)
        points = rng.normal(size=(300, 10)) * 5.0
        weights = rng.uniform(0.0, 4.0, size=300)
        weights[::9] = 0.0
        self._run(points, weights, rng.integers(0, 300, size=8), z)

    def test_exact_ties_keep_the_older_center(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(64, 5))
        points[32:] = points[:32]  # every point has an exact duplicate
        # Round 2 re-selects round 0's center and round 3 its duplicate:
        # every distance ties the incumbent, so nothing may move to them.
        _, assignment, _ = self._run(points, np.ones(64), [0, 40, 0, 32], 2)
        assert not np.any(assignment >= 2)

    def test_bound_round_rejects_out_of_range_rows(self):
        n = 8
        kernel = get_kernel("kmeanspp_round")
        run_round = kernel(np.zeros((n, 2)), np.ones(n), *_round_buffers(n), 2)
        with pytest.raises(IndexError):
            run_round(n, 0, True)

    def test_rounds_must_come_in_slot_order(self):
        # A round reads gap[assignment[i]] and every earlier slot's row, so
        # a skipped or repeated slot would read uninitialised memory.
        n = 8
        run_round = get_kernel("kmeanspp_round")(
            np.random.default_rng(0).normal(size=(n, 2)), np.ones(n), *_round_buffers(n), 2
        )
        with pytest.raises(ValueError):
            run_round(0, 1, True)  # init above slot 0
        with pytest.raises(ValueError):
            run_round(0, 0, False)  # slot 0 without init
        run_round(0, 0, True)
        with pytest.raises(ValueError):
            run_round(1, 0, True)  # repeated slot
        with pytest.raises(ValueError):
            run_round(1, 2, False)  # skipped slot
        with pytest.raises(ValueError):
            run_round(1, 1, True)  # init above slot 0
        run_round(1, 1, False)
        assert run_round.distance_evals <= 2 * n

    def test_slot_buffers_grow_past_their_first_capacity(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(120, 3)) * 10.0
        self._run(points, np.ones(120), rng.permutation(120)[:70], 2)

    def test_exact_hamerly_boundary_keeps_the_older_center(self):
        # Centers 0 then 2, a point at 1: gap == 4 * b exactly.  The margin
        # keeps the point on the full path, where the tie keeps center 0.
        points = np.array([[0.0], [2.0], [1.0]])
        best, assignment, _ = self._run(points, np.ones(3), [0, 1], 2)
        assert assignment.tolist() == [0, 1, 0] and best[2] == 1.0
        # Round 1 skips only the zero-distance point (center 0 itself).
        run_round = get_kernel("kmeanspp_round")(points, np.ones(3), *_round_buffers(3), 2)
        run_round(0, 0, True)
        run_round(1, 1, False)
        assert run_round.distance_evals == 3 + 2

    def test_subnormal_distances_match_numpy(self):
        # At 1e-160 the squared distances are subnormal (or zero), where
        # rounding is no longer relative; only b == 0 may skip there.
        rng = np.random.default_rng(6)
        points = rng.normal(size=(64, 3)) * 1e-160
        points[1::2] += 1e-150  # a far blob: gaps across blobs are normal
        for z in (1, 2):
            best, _, _ = self._run(points, np.ones(64), [0, 1, 2, 3, 10, 7], z)
            assert np.any((best > 0.0) & (best < np.finfo(np.float64).tiny))

    def test_round_draw_matches_searchsorted(self):
        # run_round.scan draws from the mass the latest round wrote, through
        # the block prefixes that round recorded: past several 1024-point
        # blocks, one of them weightless, and a partial last block.
        rng = np.random.default_rng(9)
        n = 5000
        points = rng.normal(size=(n, 4))
        weights = rng.uniform(0.1, 2.0, size=n)
        weights[1024:2048] = 0.0
        have = _round_buffers(n)
        run_round = get_kernel("kmeanspp_round")(points, weights, *have, 2)
        with pytest.raises(ValueError):
            run_round.scan(0.5)  # no round has written a mass yet
        for slot, row in enumerate((0, n - 1, 1500, 1024)):
            total = run_round(row, slot, slot == 0)
            cumulative = np.cumsum(have[2])
            assert total == cumulative[-1]
            us = np.concatenate([rng.uniform(0.0, total, size=200), cumulative[1023::1024]])
            for u in us.tolist():
                assert run_round.scan(u) == np.searchsorted(cumulative, u, side="right")

    def test_duplicated_center_has_zero_gap(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(40, 4))
        points[5] = points[0]
        # Round 2's center duplicates round 0's: every gap to center 0 is
        # 0, so its points take the full path and tie with their incumbent.
        _, assignment, _ = self._run(points, np.ones(40), [0, 9, 5], 2)
        assert not np.any(assignment == 2)


def test_kmeanspp_round_escape_hatch_forces_numpy_rounds():
    with use_native(False):
        assert get_kernel("kmeanspp_round") is None


class TestKmeansppDistanceEvals:
    """``kmeanspp.distance_evals`` counts the point distances computed."""

    @staticmethod
    def _count(points, k):
        with observability.tracing() as recorder:
            kmeans_plus_plus(points, k, seed=0)
        return recorder.counters()["kmeanspp.distance_evals"]

    @staticmethod
    def _two_blobs():
        points = np.random.default_rng(2).normal(size=(2000, 5))
        points[1000:] += 1e3
        return points

    @requires_kmeanspp_round
    def test_native_rounds_skip_far_points(self):
        points = self._two_blobs()
        assert 2000 < self._count(points, 12) < 2000 * 12

    def test_numpy_loop_counts_every_point_every_round(self):
        with use_native(False):
            assert self._count(self._two_blobs(), 12) == 2000 * 12


requires_quadtree_build = pytest.mark.skipif(
    kernel_provider("quadtree_build") == "fallback",
    reason="no provider serves the quadtree_build kernel",
)


@requires_quadtree_build
class TestQuadtreeBuildKernel:
    """The compiled tree build vs the numpy build, array for array."""

    @staticmethod
    def _check(points, origin, shift, side, depth_cap):
        kernel = get_kernel("quadtree_build")
        order, position, level_offsets = kernel(points, origin, shift, side, depth_cap)
        expected = reference_quadtree_build(points, origin, shift, side, depth_cap)
        assert kernel.max_squared_norm(points, origin) == reference_quadtree_max_squared_norm(
            points, origin
        )
        assert len(level_offsets) == len(expected[2])
        for have, want in zip([order, position, *level_offsets], [*expected[:2], *expected[2]]):
            # Both tiers hand the tree int32 arrays it stores as they are.
            assert have.dtype == np.int32 and want.dtype == np.int32
            assert have.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(have, want)
        return order, position, level_offsets

    @staticmethod
    def _inputs(n, d, depth_cap):
        rng = np.random.default_rng(d * 100 + depth_cap)
        points, origin, shift = quadtree_points(rng, n, d, 1e6)
        return points, origin, shift, 2e6, depth_cap

    @pytest.mark.parametrize("depth_cap", [1, 6, 17, 31, 32])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 10, 16, 17, 33, 64, 65, 130])
    def test_every_level_matches_numpy_oracle(self, d, depth_cap):
        points, origin, shift, side, depth_cap = self._inputs(257, d, depth_cap)
        # The inputs exercise both level-0 lattice values.
        lattice = np.floor(((points - origin) + shift) / side)
        assert (lattice < 0).any() and (lattice == 0).any()
        self._check(points, origin, shift, side, depth_cap)

    @pytest.mark.parametrize("d", range(1, 34))
    def test_squared_norms_follow_einsum(self, d):
        # Every dimension class of the einsum replica, at scales where the
        # summation order changes the last bits.
        rng = np.random.default_rng(d)
        points = rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-3, 3, size=(200, d))
        origin = np.ascontiguousarray(points[7])
        kernel = get_kernel("quadtree_build")
        assert kernel.max_squared_norm(points, origin) == reference_quadtree_max_squared_norm(
            points, origin
        )

    @pytest.mark.parametrize("case", ["duplicates", "all_identical", "two_locations"])
    @pytest.mark.parametrize("depth_cap", [1, 32])
    def test_coincident_points(self, case, depth_cap):
        points, origin, shift, side, _ = self._inputs(300, 5, depth_cap)
        if case == "duplicates":
            points[::3] = points[1]
            points[1::7] = points[2]
        elif case == "all_identical":
            points[:] = origin
        else:
            points[::2] = points[0]
            points[1::2] = points[3]
        order, _, level_offsets = self._check(points, origin, shift, side, depth_cap)
        if case == "all_identical":
            # One cell per level down to the cap, in input order.
            assert all(list(offsets) == [0, 300] for offsets in level_offsets)
            np.testing.assert_array_equal(order, np.arange(300))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 5])
    def test_one_and_two_points(self, n, d):
        points, origin, shift, side, depth_cap = self._inputs(3, d, 32)
        _, _, level_offsets = self._check(points[:n].copy(), origin, shift, side, depth_cap)
        if n == 1:
            assert [list(offsets) for offsets in level_offsets] == [[0, 1]]

    def test_rounded_to_one_row_reads_all_ones(self):
        # Row 1's fractional part rounds to exactly 1.0: at depth 32 its
        # digits must clamp to all ones, so it shares every level's cell
        # with row 2, which sits 2**-41 cells below the same boundary.
        points, origin, shift, side, depth_cap = self._inputs(8, 2, 32)
        order, position, level_offsets = self._check(points, origin, shift, side, depth_cap)
        assert len(level_offsets) == 33
        first, second = sorted((position[1], position[2]))
        assert second == first + 1
        assert all(second not in offsets for offsets in level_offsets)

    def test_lattice_value_one_sets_the_code_high_bit(self):
        # A side shorter than the fit's puts points in lattice cell 1,
        # whose level-0 code (2) orders after the codes 0 and 1.
        points, origin, shift, side, depth_cap = self._inputs(200, 3, 8)
        side = 0.5 * side
        scaled = ((points - origin) + shift) / side
        assert (scaled >= 1.0).any()
        order, _, _ = self._check(points, origin, shift, side, depth_cap)
        high = (scaled >= 1.0).any(axis=1)[order]
        assert not high[0] and high[-1]

    @SETTINGS
    @given(inputs=quadtree_inputs())
    def test_random_inputs_match_numpy(self, inputs):
        self._check(*inputs)

    @staticmethod
    def _fit_inputs(points, rng):
        """A fit's ``(origin, shift, side)`` for ``points``: row 0, a shift
        in ``[0, delta)`` and the side ``2 * delta``."""
        origin = np.ascontiguousarray(points[0])
        delta = float(np.sqrt(reference_quadtree_max_squared_norm(points, origin)))
        return origin, float(rng.uniform(0.0, delta)), 2.0 * delta

    @staticmethod
    def _window_entry(level_offsets, d, window):
        """The most points one range holds when it gathers the keys of
        ``window`` (counted from 0), for d <= 64: the largest cell of the
        level whose planes precede the window's first plane."""
        level = window * min(8, 64 // d) - 2
        return int(np.diff(level_offsets[level]).max()) if level < len(level_offsets) else 0

    def test_e2e_like_ranges_cross_windows(self):
        # The end-to-end input's shape, 50 clusters and 20 far rows, at a
        # depth cap of 32.  At d = 10 a window holds 6 planes, and ranges
        # above the insertion cap enter the second and the third window.
        points = gaussian_mixture(20_000, 10, n_clusters=50, gamma=1.0, seed=3).points
        points[:20, 0] += 1e4
        origin, shift, side = self._fit_inputs(points, np.random.default_rng(3))
        _, _, level_offsets = self._check(points, origin, shift, side, 32)
        assert self._window_entry(level_offsets, 10, 1) > 32
        assert self._window_entry(level_offsets, 10, 2) > 32

    @pytest.mark.parametrize("d", [1, 8, 9, 64, 65])
    def test_every_window_length(self, d):
        # min(8, 64 // d) planes per window: 8 at d = 1 (five windows at
        # cap 32) and at d = 8, 7 at d = 9 and 1 at d = 64; at d = 65 a
        # window is one 64-coordinate word of one plane.  Clusters of
        # log-uniform width around three centres put ranges of more than
        # 32 points at the start of every window down to level 30.
        rng = np.random.default_rng(d)
        n = 3000
        centres = rng.uniform(-1.0, 1.0, size=(3, d))
        widths = 10.0 ** rng.uniform(-12.0, 0.0, size=(n, 1))
        points = centres[rng.integers(0, 3, size=n)] + widths * rng.uniform(-1.0, 1.0, size=(n, d))
        origin, shift, side = self._fit_inputs(points, rng)
        _, _, level_offsets = self._check(points, origin, shift, side, 32)
        if d <= 64:
            planes = min(8, 64 // d)
            windows = [w for w in range(1, 35) if 0 <= w * planes - 2 <= 30]
            assert all(self._window_entry(level_offsets, d, w) > 32 for w in windows)
        else:
            assert int(np.diff(level_offsets[30]).max()) > 32

    @pytest.mark.parametrize("d", [1, 3, 10, 65])
    def test_duplicate_groups_skip_whole_windows(self, d):
        # Groups of 40 identical rows: once a group is a range of its own,
        # every later window gathers equal keys and is skipped whole.  Every
        # other group has one row moved by 2**-25, which splits it a few
        # windows down.
        rng = np.random.default_rng(d)
        points = np.repeat(rng.uniform(-1.0, 1.0, size=(30, d)), 40, axis=0)
        points[::80, 0] += 2.0**-25
        points = points[rng.permutation(points.shape[0])]
        origin, shift, side = self._fit_inputs(points, rng)
        _, _, level_offsets = self._check(points, origin, shift, side, 32)
        assert len(level_offsets) == 33
        assert int(np.diff(level_offsets[-1]).max()) == 40

    def test_rejects_operands_it_cannot_read_raw(self):
        points, origin, shift, side, _ = self._inputs(16, 3, 8)
        kernel = get_kernel("quadtree_build")
        for bad_points, bad_origin in (
            (points.astype(np.float32), origin),
            (np.asfortranarray(points), origin),
            (points[:, :2], origin),
            (points, origin[:2]),
        ):
            with pytest.raises(ValueError):
                kernel.max_squared_norm(bad_points, bad_origin)
            with pytest.raises(ValueError):
                kernel(bad_points, bad_origin, shift, side, 8)
        for cap in (0, 33):
            with pytest.raises(ValueError):
                kernel(points, origin, shift, side, cap)

    def test_verifier_demotes_a_build_returning_int64(self):
        # Right values, wrong width: the sweep would misread these arrays,
        # so verification must fail and the registry keep the numpy path.
        kernel = get_kernel("quadtree_build")

        def widened(*arguments):
            order, position, level_offsets = kernel(*arguments)
            return order.astype(np.int64), position, level_offsets

        widened.max_squared_norm = kernel.max_squared_norm
        with pytest.raises(RuntimeError, match="disagrees"):
            _verify_quadtree_build(widened)

    def test_verifier_demotes_a_different_order(self):
        kernel = get_kernel("quadtree_build")

        def reversed_order(*arguments):
            order, position, level_offsets = kernel(*arguments)
            return order[::-1].copy(), position, level_offsets

        reversed_order.max_squared_norm = kernel.max_squared_norm
        with pytest.raises(RuntimeError, match="disagrees"):
            _verify_quadtree_build(reversed_order)


class TestQuadtreeBuildDispatch:
    """``quadtree.build.native`` / ``.numpy`` count one build per fit."""

    @staticmethod
    def _counters(**tree_options):
        points = np.random.default_rng(8).normal(size=(500, 4))
        with observability.tracing() as recorder:
            QuadtreeEmbedding(seed=0, **tree_options).fit(points)
            QuadtreeEmbedding(seed=1, **tree_options).fit(points)
        counters = recorder.counters()
        return counters.get("quadtree.build.native", 0.0), counters.get("quadtree.build.numpy", 0.0)

    def test_one_count_per_fit(self):
        native = kernel_provider("quadtree_build") != "fallback"
        assert self._counters() == ((2.0, 0.0) if native else (0.0, 2.0))

    def test_escape_hatch_counts_numpy(self):
        with use_native(False):
            assert get_kernel("quadtree_build") is None
            assert self._counters() == (0.0, 2.0)

    def test_caps_past_32_levels_count_numpy(self):
        assert self._counters(max_levels=40, spread=2.0**45) == (0.0, 2.0)


class TestTierControl:
    def test_native_status_shape(self):
        status = native_status()
        assert status["tier"] in ("native", "fallback")
        assert set(status["kernels"]) == {
            "fkpp_level_score",
            "fkpp_weighted_draw",
            "crude_bound_probe",
            "kmeanspp_round",
            "quadtree_build",
        }
        assert set(status["providers"]) == {"cc"}

    def test_native_status_kernels_sorted(self):
        # The status dict feeds `repro status` and the bench attribution
        # columns; stable ordering keeps diffs and logs deterministic.
        names = list(native_status()["kernels"])
        assert names == sorted(names)

    def test_use_native_false_forces_fallback(self):
        with use_native(False):
            status = native_status()
            assert status["tier"] == "fallback"
            # Every kernel resolves to None; the engine's own numpy path
            # takes over.
            assert get_kernel("quadtree_build") is None
            assert get_kernel("kmeanspp_round") is None
            assert kernel_provider("quadtree_build") == "fallback"

    def test_use_native_restores_previous_mode(self):
        before = native_status()["tier"]
        with use_native(False):
            assert native_status()["tier"] == "fallback"
        assert native_status()["tier"] == before

    def test_disabled_kernels_carry_the_mode_as_reason(self):
        with use_native(False):
            for entry in native_status()["kernels"].values():
                assert entry["reason"] == "disabled by REPRO_NATIVE=0"
            assert kernel_demotions() == {}

    @pytest.mark.parametrize(
        "value, mode",
        [("0", "0"), ("off", "off"), ("false", "false"), (" NO ", "no")],
        ids=["0", "off", "false", "padded-NO"],
    )
    def test_environment_spellings_force_the_fallback(self, monkeypatch, value, mode):
        # Each spelling is its own cached mode, read without a refresh.
        monkeypatch.setattr(registry, "_OVERRIDE", None)
        monkeypatch.setenv("REPRO_NATIVE", value)
        status = native_status()
        assert status["tier"] == "fallback"
        for entry in status["kernels"].values():
            assert entry == {"provider": "fallback", "reason": f"disabled by REPRO_NATIVE={mode}"}
        assert get_kernel("kmeanspp_round") is None

    def test_only_fallback_kernels_carry_a_reason(self):
        for entry in native_status()["kernels"].values():
            assert ("reason" in entry) == (entry["provider"] == "fallback")

    def test_unavailable_provider_names_the_error(self, monkeypatch):
        def broken_build():
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")

        # Resolutions are cached per mode: drop them after patching the
        # provider, and again once it is restored, so the broken resolution
        # neither misses this test nor leaks into later ones.
        monkeypatch.setattr(registry, "_load_provider", broken_build)
        registry.refresh()
        try:
            with use_native(True):
                status = native_status()
                assert status["tier"] == "fallback"
                assert status["providers"]["cc"]["available"] is False
                for entry in status["kernels"].values():
                    assert entry == {
                        "provider": "fallback",
                        "reason": "cc unavailable: RuntimeError: no C compiler (cc/gcc/clang) on PATH",
                    }
                # An unavailable provider demotes nothing: no kernel was verified.
                assert kernel_demotions() == {}
                assert get_kernel("kmeanspp_round") is None
        finally:
            monkeypatch.undo()
            registry.refresh()

    def test_mode_flips_reuse_each_modes_resolution(self, monkeypatch):
        spec = registry._KERNELS["kmeanspp_round"]
        verify = spec.verify
        calls = []

        def counting_verify(kernel):
            calls.append(kernel)
            verify(kernel)

        monkeypatch.setattr(spec, "verify", counting_verify)
        registry.refresh()
        try:
            with use_native(True):
                if not native_status()["providers"]["cc"]["available"]:
                    pytest.skip("the cc kernel provider is unavailable (no C compiler)")
                for _ in range(3):
                    with use_native(False):
                        assert native_status()["tier"] == "fallback"
                    native_status()
                assert len(calls) == 1
                registry.refresh()
                native_status()
                assert len(calls) == 2
        finally:
            monkeypatch.undo()
            registry.refresh()

    @requires_native
    def test_native_mode_routes_all_kernels(self):
        for name, entry in native_status()["kernels"].items():
            assert entry == {"provider": "cc"}, name


@requires_kmeanspp_round
class TestKernelDemotions:
    """A kernel that fails verification falls back visibly, not silently."""

    def test_status_and_demotions_name_the_failed_verification(self, failing_kmeanspp_verifier):
        reason = failing_kmeanspp_verifier
        entry = native_status()["kernels"]["kmeanspp_round"]
        assert entry == {"provider": "fallback", "reason": reason}
        assert kernel_demotions() == {"kmeanspp_round": reason}
        assert get_kernel("kmeanspp_round") is None

    def test_compress_summary_reports_demotions(self, failing_kmeanspp_verifier, tmp_path, capsys):
        data = tmp_path / "data.npy"
        np.save(data, np.random.default_rng(3).normal(size=(400, 4)))
        arguments = ["compress", str(data), "--k", "5", "--m", "60", "--method", "sensitivity"]
        assert cli_main(arguments + ["--output", str(tmp_path / "c.npz")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kernel_demotions"] == {"kmeanspp_round": failing_kmeanspp_verifier}
        assert summary["kernel_providers"]["kmeanspp_round"] == "fallback"

    def test_healthy_summary_reports_the_live_demotions(self, tmp_path, capsys):
        data = tmp_path / "data.npy"
        np.save(data, np.random.default_rng(3).normal(size=(400, 4)))
        arguments = ["compress", str(data), "--k", "5", "--m", "60", "--method", "sensitivity"]
        assert cli_main(arguments + ["--output", str(tmp_path / "c.npz")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kernel_demotions"] == kernel_demotions()
        assert "kmeanspp_round" not in summary["kernel_demotions"]


class TestCrossModeBitIdentity:
    """The observable outputs of the engines must not depend on the tier."""

    @pytest.mark.parametrize(
        "n,d,k,seed", [(3000, 7, 15, 0), (1500, 13, 9, 2), (2000, 3, 5, 1)]
    )
    def test_kmeans_outputs_identical(self, n, d, k, seed):
        points = gaussian_mixture(
            n=n, d=d, n_clusters=max(2, k // 2), gamma=1.0, seed=seed
        ).points
        native = kmeans(points, k, seed=seed, max_iterations=40)
        with use_native(False):
            fallback = kmeans(points, k, seed=seed, max_iterations=40)
        np.testing.assert_array_equal(native.assignment, fallback.assignment)
        np.testing.assert_array_equal(native.centers, fallback.centers)
        assert native.cost == fallback.cost
        assert native.iterations == fallback.iterations
        assert native.converged == fallback.converged

    def test_weighted_kmeans_outputs_identical(self):
        points = gaussian_mixture(n=1200, d=6, n_clusters=5, gamma=1.0, seed=4).points
        weights = np.random.default_rng(4).uniform(0.05, 4.0, points.shape[0])
        native = kmeans(points, 11, weights=weights, seed=4, max_iterations=40)
        with use_native(False):
            fallback = kmeans(points, 11, weights=weights, seed=4, max_iterations=40)
        np.testing.assert_array_equal(native.assignment, fallback.assignment)
        np.testing.assert_array_equal(native.centers, fallback.centers)
        assert native.cost == fallback.cost
        assert native.iterations == fallback.iterations

    @staticmethod
    def _assert_kmeanspp_identical(points, k, weights=None, z=2, seed=0):
        native = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
        with use_native(False):
            fallback = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
        np.testing.assert_array_equal(native.centers, fallback.centers)
        np.testing.assert_array_equal(native.assignment, fallback.assignment)
        assert native.cost == fallback.cost
        return native

    @pytest.mark.parametrize("z", [1, 2])
    def test_kmeanspp_identical_on_generic_input(self, z):
        points = gaussian_mixture(n=4000, d=9, n_clusters=12, gamma=1.0, seed=z).points
        weights = np.random.default_rng(z).uniform(0.05, 3.0, points.shape[0])
        self._assert_kmeanspp_identical(points, 40, z=z, seed=z)
        self._assert_kmeanspp_identical(points, 40, weights=weights, z=z, seed=z)

    @pytest.mark.parametrize("z", [1, 2])
    def test_kmeanspp_identical_on_all_duplicate_points(self, z):
        # Zero total mass after round 0: every later round takes the
        # uniform fallback draw.
        points = np.tile([[1.5, -2.0, 3.0]], (200, 1))
        solution = self._assert_kmeanspp_identical(points, 7, z=z)
        assert solution.cost == 0.0

    def test_kmeanspp_identical_on_all_zero_weights(self):
        points = np.random.default_rng(5).normal(size=(300, 4))
        self._assert_kmeanspp_identical(points, 9, weights=np.zeros(300))

    @pytest.mark.parametrize("z", [1, 2])
    def test_kmeanspp_identical_when_distances_overflow(self, z):
        # Squared distances of ~1e155 coordinates overflow to inf, so the
        # mass total is non-finite and every round takes the uniform draw.
        points = np.random.default_rng(6).normal(size=(250, 3)) * 1e155
        with np.errstate(over="ignore", invalid="ignore"):
            self._assert_kmeanspp_identical(points, 6, z=z)

    @SETTINGS
    @given(kmeanspp_inputs())
    def test_kmeanspp_identical_on_adversarial_inputs(self, case):
        points, k, weights, z, seed = case
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            native = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
            with use_native(False):
                fallback = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
        assert native.centers.tobytes() == fallback.centers.tobytes()
        assert native.assignment.tobytes() == fallback.assignment.tobytes()
        assert np.float64(native.cost).tobytes() == np.float64(fallback.cost).tobytes()

    def test_kmeanspp_identical_when_k_reaches_n(self):
        points = np.random.default_rng(7).normal(size=(12, 3))
        for k in (12, 20):
            solution = self._assert_kmeanspp_identical(points, k)
            np.testing.assert_array_equal(solution.centers, points)

    def test_fast_coreset_identical(self):
        # Far outliers push the depth cap to 32: the native run builds
        # every tree, down to the deep levels, in the compiled kernel.
        points = gaussian_mixture(n=20_000, d=10, n_clusters=25, gamma=1.0, seed=9).points
        points[:20, 0] += 1e4
        native = FastCoreset(50).sample(points, 1000, seed=9)
        with use_native(False):
            fallback = FastCoreset(50).sample(points, 1000, seed=9)
        assert native.points.tobytes() == fallback.points.tobytes()
        assert native.weights.tobytes() == fallback.weights.tobytes()

    def test_sensitivity_coreset_identical(self):
        points = gaussian_mixture(n=20_000, d=10, n_clusters=25, gamma=1.0, seed=8).points
        native = SensitivitySampling(50).sample(points, 1000, seed=8)
        with use_native(False):
            fallback = SensitivitySampling(50).sample(points, 1000, seed=8)
        assert native.points.tobytes() == fallback.points.tobytes()
        assert native.weights.tobytes() == fallback.weights.tobytes()

    @pytest.mark.parametrize("n,d,seed", [(3000, 2, 0), (2000, 16, 1)])
    def test_quadtree_fit_identical(self, n, d, seed):
        points = np.random.default_rng(seed).normal(size=(n, d)) * 10.0
        native = QuadtreeEmbedding(seed=seed).fit(points)
        with use_native(False):
            fallback = QuadtreeEmbedding(seed=seed).fit(points)
        assert native.depth == fallback.depth
        assert native.delta_ == fallback.delta_
        np.testing.assert_array_equal(native.order_, fallback.order_)
        np.testing.assert_array_equal(native.position_, fallback.position_)
        for have, want in zip(native.level_offsets_, fallback.level_offsets_):
            np.testing.assert_array_equal(have, want)

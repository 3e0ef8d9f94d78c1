"""The input boundary: public entries check once, and a stream tree takes a
batch whole or not at all.

`CoresetConstruction.sample`, the trees' `add_blocks`,
`ShardedCoresetBuilder.build` and the top-level solvers check their input;
the Algorithm 1-3 stages they call take the checked arrays as given.  A
tree checks every block of a batch (points, weights, width and the sampling
rules of `check_sample_input`) before its first block is ingested, so a
rejected batch leaves every field of the tree as it was.  The Hypothesis
sweep at the end drives degenerate inputs through every entry.
"""

import dataclasses
import sys
from collections import deque
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Coreset,
    FastCoreset,
    LightweightCoreset,
    SensitivitySampling,
    UniformSampling,
    WelterweightCoreset,
)
from repro.parallel import SerialAsyncExecutor, ShardedCoresetBuilder
from repro.parallel.executor import ArrayPayload
from repro.parallel.sharding import ShardTask, compress_shard, shard_bounds, shard_seed
from repro.streaming.merge_reduce import MergeReduceTree
from repro.streaming.stream import DataStream, iterate_blocks
from repro.streaming.window import ExponentialDecay, SlidingCountWindow, WindowedMergeReduceTree
from repro.core.base import check_sample_input
from repro.utils import validation
from repro.utils.rng import as_seed_sequence

from hypothesis_settings import SETTINGS

TREES = ("append", "sliding", "decay")


def make_tree(kind, sampler, coreset_size, window=4):
    if kind == "append":
        return MergeReduceTree(sampler=sampler, coreset_size=coreset_size, seed=3)
    policy = SlidingCountWindow(window) if kind == "sliding" else ExponentialDecay(2.0)
    return WindowedMergeReduceTree(
        sampler=sampler, coreset_size=coreset_size, seed=3, window=policy
    )


def result_of(tree):
    """`finalize()` of an append-only tree, `query()` of a window."""
    return tree.query() if isinstance(tree, WindowedMergeReduceTree) else tree.finalize()


def _plain(value):
    """A value with arrays, generators, futures and objects made comparable."""
    if isinstance(value, Future):
        return ("future", _plain(value.result()))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, np.random.Generator):
        return ("generator", repr(value.bit_generator.state))
    if isinstance(value, np.random.SeedSequence):
        return ("seeds", value.entropy, tuple(value.spawn_key))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return [type(value).__name__] + [_plain(item) for item in value]
    if dataclasses.is_dataclass(value) or hasattr(value, "__dict__"):
        return (type(value).__name__, _plain(dict(vars(value))))
    return value


def tree_state(tree):
    """Every field of ``tree``, private ones included, as comparable values."""
    return _plain(dict(vars(tree)))


def same_bytes(first: Coreset, second: Coreset) -> bool:
    return (
        first.points.tobytes() == second.points.tobytes()
        and first.weights.tobytes() == second.weights.tobytes()
        and first.method == second.method
    )


def assert_valid_coreset(coreset: Coreset, m: int) -> None:
    """Finite points, finite non-negative weights, a positive finite total,
    and at most ``m`` points."""
    assert coreset.size <= m
    assert np.all(np.isfinite(coreset.points))
    assert np.all(np.isfinite(coreset.weights))
    assert np.all(coreset.weights >= 0)
    total = float(coreset.weights.sum())
    assert np.isfinite(total) and total > 0


def assert_union_overflows(error, blocks):
    """The one failure by design: blocks that each pass the cost-range rule
    can overflow it together, and then the tree raises the error one
    `sample` of their union raises."""
    assert "clustering costs of these points overflow" in str(error)
    points = np.concatenate([points for points, _ in blocks])
    weights = np.concatenate(
        [validation.check_weights(weights, len(points)) for points, weights in blocks]
    )
    with pytest.raises(ValueError, match="clustering costs of these points overflow"):
        check_sample_input(points, weights, 1)


def _blocks(seed, count, rows=200, d=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rows, d)) for _ in range(count)]


# ------------------------------------------------------------------ pinned
def _mass_shifted(good):
    """Three 100 x 3 blocks; the first carries 110 weights (mass 600)."""
    a, b, c = _blocks(1, 3, rows=100)
    return [(a, np.ones(110)), (b, 2 * np.ones(100)), (c, 3 * np.ones(100))]


def _weights_too_long(good):
    return [(good[0][:100], np.ones(150))]


def _nan_block(good):
    block = good[0].copy()
    block[17, 1] = np.nan
    return [(block, None)]


def _empty_block(good):
    return [(np.empty((0, 3)), None)]


def _zero_mass(good):
    return [(good[0], np.zeros(good[0].shape[0]))]


def _wider_block(good):
    return [(np.random.default_rng(2).normal(size=(200, 4)), None)]


def _bad_second_block(good):
    """A good block, then a NaN one: the batch goes whole."""
    return [(good[0], None)] + _nan_block(good)


def _weights_too_small(good):
    """Weights so small that coreset_size / max(weights) overflows."""
    return [(good[0], np.full(good[0].shape[0], 3e-308))]


#: name -> (sampler, coreset_size, rejected batch).  Before the batch check each was
#: accepted and misweighted the tree, or raised after the tree had advanced.
BAD_BATCHES = {
    "mass_shifted": (lambda: UniformSampling(seed=0), 20, _mass_shifted),
    "weights_too_long": (lambda: UniformSampling(seed=0), 20, _weights_too_long),
    "nan": (lambda: FastCoreset(5, seed=0), 50, _nan_block),
    "empty": (lambda: FastCoreset(5, seed=0), 50, _empty_block),
    "zero_mass": (lambda: FastCoreset(5, seed=0), 50, _zero_mass),
    "wider": (lambda: FastCoreset(5, seed=0), 50, _wider_block),
    "bad_second_block": (lambda: FastCoreset(5, seed=0), 50, _bad_second_block),
    "weights_too_small": (lambda: FastCoreset(5, seed=0), 50, _weights_too_small),
}


class TestRejectedBatchLeavesTheTree:
    @pytest.mark.parametrize("kind", TREES)
    @pytest.mark.parametrize("case", sorted(BAD_BATCHES))
    def test_rejected_batch_changes_nothing(self, case, kind):
        make_sampler, coreset_size, bad_batch = BAD_BATCHES[case]
        good = _blocks(0, 3)
        tree = make_tree(kind, make_sampler(), coreset_size)
        never = make_tree(kind, make_sampler(), coreset_size)
        tree.add_block(good[0])
        never.add_block(good[0])
        before = tree_state(tree)
        with pytest.raises(ValueError):
            tree.add_blocks(bad_batch(good))
        assert tree_state(tree) == before
        for block in good[1:]:
            tree.add_block(block)
            never.add_block(block)
        assert same_bytes(result_of(tree), result_of(never))

    def test_zero_mass_block_never_reaches_a_window(self):
        """A window of one block answered with 30 points of total weight 0."""
        tree = make_tree("sliding", UniformSampling(seed=0), 50, window=1)
        points = np.random.default_rng(0).normal(size=(30, 3))
        with pytest.raises(ValueError, match="sum to at least"):
            tree.add_block(points, np.zeros(30))
        with pytest.raises(ValueError, match="window is empty"):
            tree.query()

    def test_failed_fold_keeps_its_buckets(self):
        """A decaying window that lost both buckets of a failed fold: its
        next query answered total weight 1.0 without the 1e300 mass."""
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(), coreset_size=1, seed=0, window=ExponentialDecay(2.0)
        )
        tree.add_block(np.array([[0.1]]), np.array([1e300]))
        overflow = "clustering costs of these points overflow"
        with pytest.raises(ValueError, match=overflow):
            tree.add_block(np.array([[1e12]]))
        assert (tree.live_ranges(), tree.blocks_seen) == ([(0, 1), (1, 2)], 2)
        with pytest.raises(ValueError, match=overflow):
            tree.query()
        tree.add_block(np.array([[0.5]]))
        # Two stamps on, the 1e300 mass has decayed by one half-life.
        assert tree.query().weights.sum() == pytest.approx(5e299)

    @pytest.mark.parametrize(
        "stamps", [[0.0, 5.0, 4.0], [0.0, 1.0]], ids=["decreasing", "one_short"]
    )
    def test_rejected_stamps_change_nothing(self, stamps):
        good = _blocks(0, 4)
        tree = make_tree("decay", FastCoreset(5, seed=0), 50)
        never = make_tree("decay", FastCoreset(5, seed=0), 50)
        before = tree_state(tree)
        with pytest.raises(ValueError):
            tree.add_blocks([(block, None) for block in good[:3]], timestamps=stamps)
        assert tree_state(tree) == before
        tree.add_blocks([(block, None) for block in good], timestamps=[0, 1, 2, 3])
        never.add_blocks([(block, None) for block in good], timestamps=[0, 1, 2, 3])
        assert same_bytes(tree.query(), never.query())


# ------------------------------------------------------------- scan count
class TestOneScanPerEntry:
    """`sample` and the top-level seeding call check the full input; the
    stages between them read it as given (12 and 3 scans before)."""

    @pytest.mark.parametrize(
        "make",
        [lambda: FastCoreset(20, seed=0), lambda: SensitivitySampling(20, seed=0)],
        ids=["fast_coreset", "sensitivity"],
    )
    def test_full_input_checked_twice(self, make, monkeypatch):
        points = np.random.default_rng(0).normal(size=(4000, 6))
        sizes = _count_checks(monkeypatch)
        make().sample(points, 200)
        assert sizes.count(points.shape[0]) == 2

    def test_data_stream_checks_an_in_memory_input_once(self, monkeypatch):
        """Two scans at construction and one per replay before."""
        points = np.random.default_rng(0).normal(size=(4000, 6))
        sizes = _count_checks(monkeypatch)
        stream = DataStream.with_block_count(points, 16)
        for _ in range(2):
            blocks = list(stream)
            assert len(blocks) == 16 and sum(len(block) for block, _ in blocks) == 4000
        assert sizes.count(4000) == 1
        list(iterate_blocks(points, 250))
        assert sizes.count(4000) == 2


def _count_checks(monkeypatch):
    """Route every ``check_points`` of the package through a counter; the
    returned list collects the row count of each checked array."""
    sizes = []
    original = validation.check_points

    def counting(array, **kwargs):
        sizes.append(np.shape(array)[0])
        return original(array, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "check_points", None) is original
        ):
            monkeypatch.setattr(module, "check_points", counting)
    return sizes


# ----------------------------------------------------------------- shards
class TestWeightlessShards:
    def _input(self):
        points = np.random.default_rng(0).normal(size=(400, 3))
        weights = np.zeros(400)
        weights[7] = 1.0
        return points, weights

    def test_weightless_shards_send_nothing(self):
        points, weights = self._input()
        one_shot = FastCoreset(5, seed=0).sample(points, 40, weights=weights)
        assert one_shot.total_weight == pytest.approx(1.0)
        build = ShardedCoresetBuilder(
            FastCoreset(5, seed=0),
            n_shards=4,
            coreset_size_per_shard=40,
            final_coreset_size=40,
            seed=0,
        ).build(points, weights=weights)
        assert build.shard_sizes == [100] * 4
        assert sorted(build.message_sizes) == [0, 0, 0, 40]
        assert len(build.shard_coresets) == 1
        assert build.communication == 40 * 4
        assert build.coreset.total_weight == pytest.approx(1.0)

    def test_live_shards_compress_as_before(self):
        """Dropping a shard changes no other shard's task: each keeps its
        slice, its size and its shard-keyed seed."""
        points = np.random.default_rng(1).normal(size=(300, 3))
        weights = np.ones(300)
        weights[100:200] = 0.0
        sampler = SensitivitySampling(5, seed=0)
        build = ShardedCoresetBuilder(
            sampler, n_shards=3, coreset_size_per_shard=30, shuffle=False, seed=4
        ).build(points, weights=weights)
        root = as_seed_sequence(4)
        payload = ArrayPayload(points=points, weights=weights)
        expected = [
            compress_shard(
                payload,
                ShardTask(
                    index=index, start=start, stop=stop, m=30, sampler=sampler,
                    seed=shard_seed(root, index),
                ),
            )
            for index, (start, stop) in enumerate(shard_bounds(300, 3))
            if index != 1
        ]
        assert build.message_sizes == [30, 0, 30]
        assert len(build.shard_coresets) == len(expected)
        for message, reference in zip(build.shard_coresets, expected):
            assert same_bytes(message, reference)

    def test_every_shard_weightless_is_rejected(self):
        points = np.random.default_rng(2).normal(size=(400, 3))
        weights = np.full(400, 1e-310)  # total 4e-308, each shard 1e-308
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=4, coreset_size_per_shard=10, seed=0
        )
        with pytest.raises(ValueError, match="every shard"):
            builder.build(points, weights=weights, executor=SerialAsyncExecutor())


# ------------------------------------------------------------------ sweep
SAMPLERS = {
    "uniform": lambda: UniformSampling(seed=0),
    "lightweight": lambda: LightweightCoreset(seed=0),
    "welterweight": lambda: WelterweightCoreset(4, seed=0),
    "sensitivity": lambda: SensitivitySampling(4, seed=0),
    "fast_coreset": lambda: FastCoreset(4, seed=0),
}

KINDS = ("normal", "offset", "tiny_spread", "duplicates", "two_locations", "integers")
WEIGHTS = (
    "none", "uniform", "huge", "subnormal", "near_tiny", "one_nonzero", "negative",
    "wrong_length",
)
#: Weight kinds every entry must reject, whatever the points.
INVALID_WEIGHTS = ("negative", "wrong_length")


def _points(kind, n, d, rng):
    if kind == "normal":
        return rng.normal(size=(n, d))
    if kind == "offset":
        return 1e12 + rng.normal(size=(n, d))
    if kind == "tiny_spread":
        return 1e-300 * rng.normal(size=(n, d))
    if kind == "duplicates":
        return np.repeat(rng.normal(size=(1, d)), n, axis=0)
    if kind == "two_locations":
        return rng.normal(size=(2, d))[rng.integers(0, 2, size=n)]
    return rng.integers(-5, 6, size=(n, d)).astype(np.float64)


def _weights(kind, n, rng):
    if kind == "none":
        return None
    if kind == "uniform":
        return rng.uniform(0.5, 2.0, size=n)
    if kind == "huge":
        return np.full(n, 1e300)
    if kind == "subnormal":
        return np.full(n, 1e-310)
    if kind == "near_tiny":
        return np.full(n, 3e-308)
    if kind == "one_nonzero":
        weights = np.zeros(n)
        weights[rng.integers(n)] = 1.0
        return weights
    if kind == "negative":
        weights = np.ones(n)
        weights[rng.integers(n)] = -1.0
        return weights
    return np.ones(n + 1)


@st.composite
def weighted_inputs(draw, d=None, max_n=300):
    """``(points, weights, invalid)``; ``invalid`` marks inputs every entry
    must reject (a NaN or infinity, a negative weight, the wrong length)."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, 8)) if d is None else d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = _points(draw(st.sampled_from(KINDS)), n, d, rng)
    poison = draw(st.sampled_from([None, None, None, None, np.nan, np.inf, -np.inf]))
    if poison is not None:
        points[rng.integers(n), rng.integers(d)] = poison
    weight_kind = draw(st.sampled_from(WEIGHTS))
    invalid = poison is not None or weight_kind in INVALID_WEIGHTS
    return points, _weights(weight_kind, n, rng), invalid


class TestInputSweep:
    """Every entry either raises ``ValueError`` (and a tree keeps every
    field) or returns a valid coreset of at most ``m`` points.  The one
    exception is by design: blocks that each pass the cost-range rule (1e300
    weights in one, a 1e12 offset in another) can overflow it together, and
    the tree's answer then raises what one `sample` of their union raises."""

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    @SETTINGS
    @given(data=weighted_inputs(), fraction=st.floats(0.0, 1.0))
    def test_sample(self, name, data, fraction):
        points, weights, invalid = data
        m = max(1, int(fraction * points.shape[0]))
        try:
            coreset = SAMPLERS[name]().sample(points, m, weights=weights)
        except ValueError:
            return
        assert not invalid
        assert_valid_coreset(coreset, m)

    @SETTINGS
    @given(
        name=st.sampled_from(sorted(SAMPLERS)),
        d=st.integers(1, 8),
        data=st.data(),
        m=st.integers(1, 60),
    )
    def test_append_tree_batch(self, name, d, data, m):
        tree = MergeReduceTree(sampler=SAMPLERS[name](), coreset_size=m, seed=1)
        first = np.random.default_rng(0).normal(size=(80, d))
        tree.add_block(first)
        batch = data.draw(st.lists(weighted_inputs(d=d, max_n=150), min_size=1, max_size=4))
        if data.draw(st.booleans()):  # sometimes one block of another width
            batch.append((np.zeros((5, d + 1)), None, True))
        before = tree_state(tree)
        try:
            tree.add_blocks([(points, weights) for points, weights, _ in batch])
        except ValueError:
            assert tree_state(tree) == before
            return
        assert not any(invalid for _, _, invalid in batch)
        try:
            coreset = tree.finalize()
        except ValueError as error:
            assert_union_overflows(error, [(first, None)] + [block[:2] for block in batch])
            return
        assert_valid_coreset(coreset, m)

    @pytest.mark.parametrize("kind", ["sliding", "decay"])
    @SETTINGS
    @given(
        name=st.sampled_from(sorted(SAMPLERS)),
        d=st.integers(1, 8),
        data=st.data(),
        m=st.integers(1, 60),
    )
    def test_window_block_by_block(self, kind, name, d, data, m):
        tree = make_tree(kind, SAMPLERS[name](), m, window=2)
        blocks = data.draw(st.lists(weighted_inputs(d=d, max_n=150), min_size=1, max_size=4))
        accepted = []
        for points, weights, invalid in blocks:
            before = tree_state(tree)
            try:
                tree.add_block(points, weights)
            except ValueError as error:
                if kind == "decay" and tree_state(tree) != before:
                    # A decaying window folds as it ingests, so the union
                    # overflow surfaces here; the window keeps the buckets
                    # it was folding, so the next query raises it too.
                    assert_union_overflows(error, accepted + [(points, weights)])
                    with pytest.raises(ValueError) as raised:
                        tree.query()
                    assert_union_overflows(raised.value, accepted + [(points, weights)])
                    return
                assert tree_state(tree) == before
                continue
            assert not invalid
            accepted.append((points, weights))
            try:
                coreset = tree.query()
            except ValueError as error:
                # The live window: the last two blocks, or every block decayed.
                assert_union_overflows(error, accepted[-2:] if kind == "sliding" else accepted)
                return
            assert_valid_coreset(coreset, m)

    @SETTINGS
    @given(
        name=st.sampled_from(sorted(SAMPLERS)),
        data=weighted_inputs(),
        shards=st.integers(1, 4),
        m=st.integers(1, 60),
    )
    def test_sharded_build(self, name, data, shards, m):
        points, weights, invalid = data
        builder = ShardedCoresetBuilder(
            SAMPLERS[name](),
            n_shards=shards,
            coreset_size_per_shard=m,
            final_coreset_size=m,
            seed=0,
        )
        try:
            build = builder.build(points, weights=weights, executor=SerialAsyncExecutor())
        except ValueError:
            return
        assert not invalid
        assert_valid_coreset(build.coreset, m)

import math
import tracemalloc
import zlib
from bisect import bisect_right
from itertools import repeat

import numpy as np
import pytest
from scipy import stats

from hypwalk import (
    GroupModel,
    distance,
    make_walk,
    reversed_walk,
    sample_boundary_point,
    sample_path,
    spectral_radius_estimate,
    uniform_walk,
    validate_walk,
)
from hypwalk import _sampler
from hypwalk.errors import BoundaryTimeout, ValidationError
from hypwalk.measure import boundary_sample_set
from hypwalk._sampler import _philox_blocks, _step_indices, _Tables, _Words
from hypwalk._streams import boundary_prefixes, path_steps, philox_words, step_thresholds
from hypwalk.walks import sample_boundary_prefixes

from oracles import (
    binomial_band,
    brute_step_distribution,
    n_step_distributions,
    prefix_pairs,
    prefix_tuples,
    scalar_boundary_prefix,
)


class TestValidate:
    def test_uniform_all_flags(self, walk_f2):
        rep = validate_walk(walk_f2)
        assert rep.probabilities_ok and rep.nearest_neighbour
        assert rep.symmetric and rep.nondegenerate

    def test_positive_words_degenerate(self, f2):
        spec = make_walk(f2, [("a", 0.5), ("b", 0.5)], seed=1)
        assert not validate_walk(spec).nondegenerate

    def test_negative_probability(self, f2):
        spec = make_walk(f2, [("a", -0.1), ("A", 0.6), ("b", 0.25), ("B", 0.25)], seed=1)
        with pytest.raises(ValidationError):
            validate_walk(spec)

    def test_nan_probability(self, f2):
        # NaN fails every comparison, so only a check that each weight is
        # positive refuses it; the total is NaN and passes the sum check.
        spec = make_walk(f2, [("a", float("nan")), ("A", 0.5), ("b", 0.25), ("B", 0.25)], seed=1)
        with pytest.raises(ValidationError):
            validate_walk(spec)

    def test_not_normalized(self, f2):
        spec = make_walk(f2, [("a", 0.3), ("A", 0.3)], seed=1)
        with pytest.raises(ValidationError):
            validate_walk(spec)

    def test_empty_support(self, f2):
        from hypwalk.walks import WalkSpec

        with pytest.raises(ValidationError):
            validate_walk(WalkSpec(model=f2, support=(), seed=1))

    def test_asymmetric_flag(self, f2):
        spec = make_walk(f2, [("a", 0.4), ("A", 0.1), ("b", 0.25), ("B", 0.25)], seed=1)
        rep = validate_walk(spec)
        assert rep.nondegenerate and not rep.symmetric

    def test_torsion_cover_via_relation(self, z23):
        # s and t alone reach inverses through the torsion relations.
        spec = make_walk(z23, [("s", 0.5), ("t", 0.5)], seed=1)
        assert validate_walk(spec).nondegenerate

    def test_longer_word_is_degenerate(self, f2):
        spec = make_walk(f2, [("ab", 0.2), ("a", 0.2), ("A", 0.2), ("b", 0.2), ("B", 0.2)], seed=1)
        rep = validate_walk(spec)
        assert not rep.nearest_neighbour and not rep.nondegenerate

    @pytest.mark.parametrize("orders", [(119, 120), (2, 28)])
    def test_large_orders_are_cheap(self, orders):
        # The closed form reads letters only: no enumeration grows with m, n.
        model = GroupModel.free_product(*orders)
        assert validate_walk(uniform_walk(model, seed=1)).nondegenerate


class TestSamplePath:
    def test_zero_steps(self, walk_f2, f2):
        p = sample_path(walk_f2, f2.identity(), 0)
        assert p.positions == (f2.identity(),)

    def test_steps_match_support(self, walk_f2, f2):
        steps = walk_f2.elements()
        p = sample_path(walk_f2, f2.word("ab"), 200, stream=9)
        for k in range(200):
            assert p.positions[k] * steps[p.step_indices[k]] == p.positions[k + 1]
            assert distance(p.positions[0], p.positions[k + 1]) <= k + 1

    def test_deterministic(self, walk_f2, f2):
        p1 = sample_path(walk_f2, f2.identity(), 50, stream=3)
        p2 = sample_path(walk_f2, f2.identity(), 50, stream=3)
        assert p1.positions == p2.positions
        p3 = sample_path(walk_f2, f2.identity(), 50, stream=4)
        assert p1.positions != p3.positions

    def test_one_step_frequencies_binomial(self, walk_f2, f2):
        # 10^6 iid step draws along one path against the exact binomial band.
        n = 1_000_000
        counts = np.bincount(path_steps(walk_f2, 17, n), minlength=4)
        band = binomial_band(0.25, n)
        for c in counts:
            assert abs(c / n - 0.25) <= band


class TestBoundarySampling:
    def test_prefix_is_reduced(self, walk_f2, f2):
        s = sample_boundary_point(walk_f2, stream=5)
        assert s.prefix.word_length() == s.depth == len(s.prefix_letters)
        assert f2.from_letters(s.prefix_letters) == s.prefix

    def test_timeout(self, walk_f2):
        with pytest.raises(BoundaryTimeout):
            sample_boundary_point(walk_f2, max_steps=5, stream=0)

    def test_first_letter_uniform(self, boundary_samples_f2):
        # 4-sigma binomial bands; uniformity is the permutation invariance
        # of the model automorphism group acting on the letters.
        n = len(boundary_samples_f2)
        counts = {}
        for x in boundary_samples_f2[:, 0].tolist():
            counts[x] = counts.get(x, 0) + 1
        assert set(counts) == {1, -1, 2, -2}
        band = binomial_band(0.25, n)
        for c in counts.values():
            assert abs(c / n - 0.25) <= band

    def test_stream_independence_chi2(self, boundary_samples_f2):
        # Pair consecutive samples (distinct streams); the first-letter
        # pair distribution must match the product law.
        first = boundary_samples_f2[:, 0].tolist()
        pairs = list(zip(first[0::2], first[1::2]))
        letters = [1, -1, 2, -2]
        table = np.zeros((4, 4))
        for x, y in pairs:
            table[letters.index(x), letters.index(y)] += 1
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-4

    def test_product_model(self, walk_z23, z23):
        s = sample_boundary_point(walk_z23, stream=12)
        assert z23.from_letters(s.prefix_letters).word_length() == s.depth


def _numpy_philox(seed, stream):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _time_major(blocks):
    """The four word arrays of ``_philox_blocks`` as (word, stream)."""
    return np.stack(blocks, axis=1).reshape(4 * len(blocks[0]), -1)


class TestPhilox:
    STREAMS = [
        0,
        7,
        zlib.crc32(b"gibbs") << 32,
        (zlib.crc32(b"rn-check") << 32) + 20_000 + 13 * 20 + 3,
        2**64 - 1,
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_matches_numpy_bit_for_bit(self, seed):
        # Both ciphers, the array one and the one on lanes of an integer,
        # give numpy's words; each word w is the uniform (w >> 11) 2^-53.
        keys = np.array(self.STREAMS, dtype=np.uint64)
        head = _time_major(_philox_blocks(seed, keys, 0, 9))
        tail = _time_major(_philox_blocks(seed, keys, 5, 3))
        assert head.shape == (36, len(self.STREAMS)) and tail.shape == (12, len(self.STREAMS))
        lanes = philox_words(seed, self.STREAMS, 0, 9)
        lanes_tail = philox_words(seed, self.STREAMS, 5, 3)
        for i, stream in enumerate(self.STREAMS):
            ref = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(36)
            assert np.array_equal(head[:, i], ref) and np.array_equal(tail[:, i], ref[20:32])
            assert lanes[i] == ref.tolist() and lanes_tail[i] == ref[20:32].tolist()
            uniforms = (ref >> np.uint64(11)) * 2.0**-53
            assert np.array_equal(uniforms, _numpy_philox(seed, stream).random(36))

    def test_sample_path_draws(self, walk_f2, f2):
        # 1001 steps end inside a Philox block.
        steps = path_steps(walk_f2, 11, 1001)
        cdf = np.cumsum(walk_f2.probabilities())
        cdf[-1] = 1.0
        u = _numpy_philox(walk_f2.seed, 11).random(1001)
        assert np.array_equal(steps, np.searchsorted(cdf, u, side="right"))
        assert sample_path(walk_f2, f2.identity(), 1001, stream=11).step_indices == steps


_SAMPLER_WALKS = {
    "f2": ((), None),
    "f2-asym": ((), [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)]),
    "f3": ((3,), None),
    "f3-asym": ((3,), [("a", 0.3), ("A", 0.1), ("b", 0.2), ("B", 0.15), ("c", 0.1), ("C", 0.15)]),
    "z23": ((2, 3), None),
    "z23-asym": ((2, 3), [("s", 0.5), ("t", 0.35), ("T", 0.15)]),
    "z25": ((2, 5), None),
    "z25-asym": ((2, 5), [("s", 0.4), ("t", 0.35), ("T", 0.25)]),
    "z37": ((3, 7), None),
    "z37-asym": ((3, 7), [("s", 0.2), ("S", 0.3), ("t", 0.3), ("T", 0.2)]),
}


def _sampler_walk(name, seed=20240613):
    orders, support = _SAMPLER_WALKS[name]
    if len(orders) == 2:
        model = GroupModel.free_product(*orders)
    else:
        model = GroupModel.free(orders[0] if orders else 2)
    if support is None:
        return uniform_walk(model, seed)
    return make_walk(model, support, seed)


class TestStepDraw:
    @pytest.mark.parametrize("name", sorted(_SAMPLER_WALKS))
    def test_matches_searchsorted_of_uniforms(self, name):
        # Words 12 .. 111 of each stream, as arrays and as plain lists.
        walk = _sampler_walk(name)
        cdf = np.cumsum(walk.probabilities())
        cdf[-1] = 1.0
        streams = TestPhilox.STREAMS + list(range(40))
        thresholds = step_thresholds(walk.probabilities())
        words = _time_major(_philox_blocks(walk.seed, np.array(streams, dtype=np.uint64), 3, 25))
        drawn = _step_indices([np.uint64(t) for t in thresholds], words)
        uniforms = np.array([_numpy_philox(walk.seed, s).random(112)[12:] for s in streams])
        assert np.array_equal(drawn.T, np.searchsorted(cdf, uniforms, side="right"))
        lanes = philox_words(walk.seed, streams, 3, 25)
        assert [list(map(bisect_right, repeat(thresholds), w)) for w in lanes] == drawn.T.tolist()

    @pytest.mark.parametrize("probabilities", [
        # dyadic entries 0.25 and 0.5; the cumsum passes 1 at its third entry
        [0.25, 0.25, 0.5000000000000002, 1e-13],
        [0.1, 0.2, 0.3, 0.4],
        [1 / 3, 1 / 6, 1 / 7, 1 - 1 / 3 - 1 / 6 - 1 / 7],
    ])
    def test_thresholds_at_their_edges(self, probabilities):
        # u = k 2^-53 for the 53 high bits k of a word; on both sides of
        # each T_j = ceil(cdf[j] 2^53), with the low 11 bits clear or set.
        cdf = np.cumsum(probabilities)
        cdf[-1] = 1.0
        edges = {0, 2**53 - 1}
        for c in cdf:
            top = math.ceil(c * 2.0**53)
            edges |= {top - 1, top}
        ks = sorted(k for k in edges if 0 <= k < 2**53)
        words = np.array([(k << 11) | low for k in ks for low in (0, 2047)], dtype=np.uint64)
        thresholds = step_thresholds(probabilities)
        drawn = _step_indices([np.uint64(t) for t in thresholds], words)
        uniforms = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(drawn, np.searchsorted(cdf, uniforms, side="right"))
        assert [bisect_right(thresholds, w) for w in words.tolist()] == drawn.tolist()
        assert len(set(drawn.tolist())) == len(cdf) - (cdf[-2] > 1)


class TestBatchedSampler:
    STREAMS = list(range(8)) + [(zlib.crc32(b"gibbs") << 32) + i for i in (0, 1, 20_017)]

    @pytest.mark.parametrize("margin", [10, 16])
    @pytest.mark.parametrize("name", sorted(_SAMPLER_WALKS))
    def test_matches_scalar_oracle(self, name, margin):
        # Budgets from 2^15 on keep step numbers in 32 bits, below in 16.
        walk = _sampler_walk(name)
        for max_steps in (20_000, 3 * margin + 20, 40_000):
            batch = prefix_pairs(sample_boundary_prefixes(walk, self.STREAMS, margin, 20, max_steps))
            scalar = [scalar_boundary_prefix(walk, s, margin, 20, max_steps) for s in self.STREAMS]
            assert batch == scalar

    @pytest.mark.parametrize("name", ["z25", "z37", "z37-asym"])
    def test_promotion_matches_scalar_oracle(self, name):
        # With a short margin a syllable can reach past L + margin while
        # its start edits the prefix, so L gets promoted and the word
        # arrays grow past their first width.  The plain-Python walker
        # gives the same prefixes and step counts.
        walk = _sampler_walk(name)
        promoted = 0
        for margin, patience in ((1, 5), (1, 2), (2, 3)):
            batch = prefix_pairs(sample_boundary_prefixes(walk, range(100), margin, patience, 20_000))
            assert batch == [
                scalar_boundary_prefix(walk, s, margin, patience, 20_000) for s in range(100)
            ]
            assert boundary_prefixes(walk, range(100), margin, patience, 20_000) == batch
            promoted += sum(len(letters) > margin for letters, _ in batch)
        assert promoted > 0

    @pytest.mark.parametrize("name, max_steps", [("f2", 40), ("z23", 120)])
    def test_timeouts_match_scalar_oracle(self, name, max_steps):
        walk = _sampler_walk(name)
        streams = range(60)
        batch = prefix_pairs(sample_boundary_prefixes(walk, streams, 10, 20, max_steps))
        assert batch == [scalar_boundary_prefix(walk, s, 10, 20, max_steps) for s in streams]
        timeouts = sum(letters is None for letters, _ in batch)
        assert 0 < timeouts < len(batch)
        assert all(steps == max_steps for letters, steps in batch if letters is None)

    @pytest.mark.parametrize(
        "model",
        [GroupModel.free(2), GroupModel.free(3), GroupModel.free_product(2, 3),
         GroupModel.free_product(3, 7)],
        ids=str,
    )
    def test_word_stacks_from_width_one(self, model):
        # Random letters pushed into stacks one entry deep, refitted before
        # each refill of 1 to 16 pushes, which must grow them; each row
        # equals the group's normal form of its letters, and every push
        # returns a letter position at most the first that changed.  Kept
        # rows survive a refit intact, also when rows of other stacks join
        # them.
        alphabet = np.array([g.letters()[0] for g in model.generators()], dtype=np.int8)
        tables = _Tables(alphabet.tolist(), model.orders)

        def spelled(words, rows):
            lengths = words.end[rows]
            width = int(lengths.max())
            return prefix_tuples(tables.spell(words.entries(rows, width), lengths, width))

        def push_all(words, pushes, check=False):
            before = [()] * words.rows
            step = 0
            while step < len(pushes):
                refill = pushes[step:step + int(rng.integers(1, 17))]
                words.refit(np.arange(words.rows), len(refill))
                words.load(refill)
                for t in range(len(refill)):
                    step += 1
                    edited = words.push(t)
                    for r in range(words.rows):
                        after = model.from_letters(alphabet[pushes[:step, r]].tolist()).letters()
                        if check:
                            assert words.end[r] == len(after)
                            assert spelled(words, np.array([r])) == [after]
                            same = 0
                            while same < min(len(before[r]), len(after)) and before[r][same] == after[same]:
                                same += 1
                            assert edited[r] <= same
                        before[r] = after
            return before

        words = _Words(tables, 3)
        assert words.code.shape == (1, 3)
        rng = np.random.default_rng(5)
        before = push_all(words, rng.integers(len(alphabet), size=(120, 3)).astype(np.uint8), check=True)
        assert words.code.shape[0] > 1
        other = _Words(tables, 4)
        joined = push_all(other, rng.integers(len(alphabet), size=(50, 4)).astype(np.uint8))
        words.refit(np.array([2, 0]), 1, [(other, np.array([3, 1]))])
        assert words.rows == 4
        assert spelled(words, np.arange(4)) == [before[2], before[0], joined[3], joined[1]]

    @pytest.mark.parametrize("name", ["f2", "f3", "z23", "z25", "z37"])
    def test_no_stream_stops_before_the_least_step(self, name):
        # The accepted prefix length L is at least margin, the word must
        # reach L + margin, and patience quiet steps follow the step that
        # first made it L long; the bound is reached on some streams.
        walk = _sampler_walk(name)
        reached = 0
        for margin, patience in ((10, 20), (4, 3), (2, 3), (1, 5), (3, 1)):
            least = max(margin + patience, 2 * margin)
            _, lengths, steps = sample_boundary_prefixes(walk, range(400), margin, patience, 20_000)
            steps = steps[lengths >= 0].tolist()
            assert steps and min(steps) >= least
            reached += steps.count(least)
        assert reached > 0

    def test_infeasible_budget_draws_nothing(self, walk_f2, monkeypatch):
        def draw(*args):
            raise AssertionError("sampled under an infeasible budget")

        monkeypatch.setattr("hypwalk.measure.sample_boundary_prefixes", draw)
        with pytest.raises(BoundaryTimeout, match="boundary_max_steps 29 is below 30"):
            boundary_sample_set(walk_f2, 20_000, 10, 20, 29, "unit-infeasible")
        with pytest.raises(BoundaryTimeout, match="below 24"):
            boundary_sample_set(walk_f2, 5, 12, 3, 23, "unit-infeasible")

    def test_exhausted_retries_at_the_least_budget(self, walk_f2):
        # At 30 steps a stream stops only if it never backtracks; the error
        # names the first sample whose 20 streams all time out.
        n = 3
        with pytest.raises(BoundaryTimeout) as err:
            boundary_sample_set(walk_f2, n, 10, 20, 30, "unit-exhaust")
        base = zlib.crc32(b"unit-exhaust") << 32
        first = next(
            i for i in range(n)
            if all(
                scalar_boundary_prefix(walk_f2, base + i if k == 0 else base + n + 20 * i + k,
                                       10, 20, 30)[0] is None
                for k in range(20)
            )
        )
        assert err.value.stream == base + first

    @pytest.mark.parametrize(
        "streams",
        [range(zlib.crc32(b"test-shared") << 32, (zlib.crc32(b"test-shared") << 32) + 40),
         range(2**64 - 5, 2**64 + 5), range(12, -12, -5), range(0)],
        ids=["base-past-2^63", "wrapping", "negative-step", "empty"],
    )
    def test_range_keys_equal_list_keys(self, walk_f2, streams, monkeypatch):
        # A range's keys come from np.arange in uint64, a list's from the
        # 64-bit mask of each stream: the same keys and the same prefixes.
        keys = []
        draw = _sampler.draw_boundary_prefixes

        def spy(spec, k, *args):
            keys.append(k)
            return draw(spec, k, *args)

        monkeypatch.setattr("hypwalk._sampler.draw_boundary_prefixes", spy)
        by_range = sample_boundary_prefixes(walk_f2, streams)
        by_list = sample_boundary_prefixes(walk_f2, list(streams))
        assert keys[0].dtype == keys[1].dtype == np.uint64
        assert keys[0].tolist() == keys[1].tolist() == [s % 2**64 for s in streams]
        assert [a.tobytes() for a in by_range] == [b.tobytes() for b in by_list]

    @pytest.mark.parametrize("name", ["f2", "z25-asym"])
    def test_independent_of_batch_and_slab(self, name, monkeypatch):
        # Slabs of 7 rows and Philox tiles of 3: 23 streams span four
        # slabs, no tile width divides a slab, and the first slab hands its
        # rows to the tail once 3 are live, where the survivors of the
        # other slabs join them.
        walk = _sampler_walk(name)
        streams = [(zlib.crc32(b"unit") << 32) + i for i in range(23)]
        whole = prefix_pairs(sample_boundary_prefixes(walk, streams))
        assert whole == [prefix_pairs(sample_boundary_prefixes(walk, [s]))[0] for s in streams]
        assert whole == prefix_pairs(sample_boundary_prefixes(walk, streams[::-1]))[::-1]
        joins = []
        refit = _sampler._Slab.refit

        def spy(slab, steps, others=()):
            joins.append(len(others))
            refit(slab, steps, others)

        monkeypatch.setattr(_sampler, "_SLAB", 7)
        monkeypatch.setattr(_sampler, "_TILE", 3)
        monkeypatch.setattr(_sampler._Slab, "refit", spy)
        assert whole == prefix_pairs(sample_boundary_prefixes(walk, streams))
        assert max(joins) > 0

    @pytest.mark.parametrize("name", ["f2", "z37"])
    def test_batch_edge_cases(self, name, monkeypatch):
        walk = _sampler_walk(name)
        # No stream: empty arrays, the matrix still margin wide.
        letters, lengths, steps = sample_boundary_prefixes(walk, [], 10, 20, 20_000)
        assert letters.shape == (0, 10) and letters.dtype == np.int8
        assert prefix_pairs((letters, lengths, steps)) == []
        # One stream.
        assert prefix_pairs(sample_boundary_prefixes(walk, [7], 10, 20, 20_000)) == [
            scalar_boundary_prefix(walk, 7, 10, 20, 20_000)
        ]
        # Every stream times out: 30 steps of F_2 at margin 10, patience 20
        # stop only a walk that never backtracks; on Z/3*Z/7 a word of 10
        # letters needs more steps than that.
        budget = 30 if name == "f2" else 31
        streams = range(40, 60)
        letters, lengths, steps = sample_boundary_prefixes(walk, streams, 10, 20, budget)
        want = [scalar_boundary_prefix(walk, s, 10, 20, budget) for s in streams]
        assert prefix_pairs((letters, lengths, steps)) == want
        assert (lengths == -1).all() and (steps == budget).all() and not letters.any()
        # Several slabs, and one of those that run to the first slab's
        # hand-off step stops whole before it: it leaves no row to the tail.
        runs = []
        run = _sampler._Sampler.run

        def spy(sampler, slab, until, tail_rows):
            run(sampler, slab, until, tail_rows)
            runs.append((until, tail_rows, len(slab.keep)))

        monkeypatch.setattr(_sampler, "_SLAB", 5)
        monkeypatch.setattr(_sampler, "_TILE", 2)
        monkeypatch.setattr(_sampler._Sampler, "run", spy)
        streams = range(12)  # slabs of 5, 5 and 2 rows
        want = [scalar_boundary_prefix(walk, s, 10, 20, 20_000) for s in streams]
        assert prefix_pairs(sample_boundary_prefixes(walk, streams, 10, 20, 20_000)) == want
        assert runs[0][1] == 2 and len(runs) > 3
        assert any(until < 20_000 and live == 0 for until, _, live in runs[1:3])

    def test_retries_use_their_own_streams(self):
        # Sample i retries on stream base + n + 20 i + attempt until it
        # stabilizes; the retry count is the sum of the attempts, and the
        # step count sums the steps of every attempt, timed out or not.
        walk = _sampler_walk("f2", seed=3)
        n, max_steps = 30, 36
        prefixes, retries, steps = boundary_sample_set(walk, n, 10, 20, max_steps, "unit-retry")
        base = zlib.crc32(b"unit-retry") << 32
        expected, total, work = [], 0, 0
        for i in range(n):
            for attempt in range(20):
                stream = base + i if attempt == 0 else base + n + 20 * i + attempt
                letters, used = scalar_boundary_prefix(walk, stream, 10, 20, max_steps)
                work += used
                if letters is not None:
                    break
            expected.append(letters)
            total += attempt
        assert prefix_tuples(prefixes) == expected
        assert retries == total > 0
        assert steps == work

    def test_sample_set_peak_memory(self, walk_f2):
        # A 20k set's prefixes are one int8 matrix, and a slab's cipher
        # words are gone before its stacks grow: the peak stays at 4 MB.
        boundary_sample_set(walk_f2, 100, 10, 20, 20_000, "unit-memory")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            boundary_sample_set(walk_f2, 20_000, 10, 20, 20_000, "unit-memory")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 4 * 2**20

    def test_exhausted_retries_name_the_first_stream(self, walk_f2):
        with pytest.raises(BoundaryTimeout) as err:
            boundary_sample_set(walk_f2, 3, 10, 20, 5, "unit-exhaust")
        assert err.value.stream == zlib.crc32(b"unit-exhaust") << 32


class TestExactDistributions:
    @pytest.mark.parametrize("kind", ["f2", "z23"])
    def test_against_brute_force(self, kind, walk_f2, walk_z23):
        walk = {"f2": walk_f2, "z23": walk_z23}[kind]
        n = 5
        b, dists = n_step_distributions(walk, n)
        for k in (2, 3, 5):
            brute = brute_step_distribution(walk.model, walk.support, k)
            for g, p in brute.items():
                assert dists[k][b.index_of(g)] == pytest.approx(p, abs=1e-14)

    def test_mass_conserved_and_support(self, walk_f2):
        b, dists = n_step_distributions(walk_f2, 6)
        for k, vec in enumerate(dists):
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)
            hit = np.nonzero(vec)[0]
            assert all(b.lengths[i] <= k for i in hit)
            # p^(n)(e, y) = 0 when n < |y|
            assert all(vec[i] == 0 for i in range(len(b)) if b.lengths[i] > k)


class TestSpectralRadius:
    def test_free_group_kesten_value(self):
        # Simple walk on F_N: rho = sqrt(2N - 1) / N (Kesten).
        for rank in (2, 3, 4, 5, 6, 12):
            est = spectral_radius_estimate(uniform_walk(GroupModel.free(rank), seed=1))
            target = np.sqrt(2 * rank - 1) / rank
            assert est.lower <= target <= est.upper
            assert est.upper <= target * (1 + 1e-8)

    def test_asymmetric_closed_form(self, f2):
        # rho = min_t [sum_i sqrt(t^2 + 4 mu(a_i) mu(a_i^-1)) - (N - 1) t].
        spec = make_walk(f2, [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)], seed=5)
        rho = 0.8212410808
        est = spectral_radius_estimate(spec)
        assert est.lower <= rho <= est.upper <= rho * (1 + 1e-8)

    def test_subcritical_postcheck(self, walk_f2, walk_z23):
        for walk in (walk_f2, walk_z23):
            est = spectral_radius_estimate(walk, max_steps=24)
            assert est.lower <= est.upper < 1.0

    def test_supermultiplicative(self, walk_f2):
        est = spectral_radius_estimate(walk_f2, max_steps=20)
        p = est.even_returns
        for m in range(1, 5):
            for n in range(1, 6 - m):
                assert p[m + n] >= p[m] * p[n] - 1e-15

    def test_reversed_walk_same_returns(self, f2):
        spec = make_walk(f2, [("a", 0.4), ("A", 0.1), ("b", 0.25), ("B", 0.25)], seed=5)
        est = spectral_radius_estimate(spec, max_steps=12)
        rev = spectral_radius_estimate(reversed_walk(spec), max_steps=12)
        assert est.even_returns == pytest.approx(rev.even_returns, rel=1e-12)

    def test_input_validation(self, walk_f2):
        with pytest.raises(ValueError):
            spectral_radius_estimate(walk_f2, max_steps=3)

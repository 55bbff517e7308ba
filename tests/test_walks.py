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
from hypwalk.errors import BoundaryTimeout, ValidationError
from hypwalk.walks import n_step_distributions

from oracles import binomial_band, brute_step_distribution


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
        p = sample_path(walk_f2, f2.identity(), n, stream=17, keep_positions=False)
        counts = np.bincount(p.step_indices, minlength=4)
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
        for letters in boundary_samples_f2:
            counts[letters[0]] = counts.get(letters[0], 0) + 1
        assert set(counts) == {1, -1, 2, -2}
        band = binomial_band(0.25, n)
        for c in counts.values():
            assert abs(c / n - 0.25) <= band

    def test_stream_independence_chi2(self, boundary_samples_f2):
        # Pair consecutive samples (distinct streams); the first-letter
        # pair distribution must match the product law.
        first = [letters[0] for letters in boundary_samples_f2]
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
        for rank in (2, 3, 4):
            est = spectral_radius_estimate(uniform_walk(GroupModel.free(rank), seed=1))
            target = np.sqrt(2 * rank - 1) / rank
            assert est.lower <= target <= est.upper
            assert est.upper <= target * (1 + 1e-4)

    def test_asymmetric_closed_form(self, f2):
        # rho = min_t [sum_i sqrt(t^2 + 4 mu(a_i) mu(a_i^-1)) - (N - 1) t].
        spec = make_walk(f2, [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)], seed=5)
        rho = 0.8212410808
        est = spectral_radius_estimate(spec)
        assert est.lower <= rho <= est.upper <= rho * (1 + 1e-4)

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

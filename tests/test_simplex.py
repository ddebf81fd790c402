import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ddlab import (
    Distribution,
    EmpiricalDistribution,
    LatticeCapError,
    SimplexDelta,
    ValidationError,
    ellipsoid_norm_sq,
    enumerate_lattice,
    kl_divergence,
    lattice_size,
    multinomial_log_prob,
    sample_empirical,
)
from ddlab import simplex
from ddlab.simplex import _lattice_counts, _log_pmf_rows


def _brute_force(T, d):
    # every d-tuple over 0..T in lexicographic order, kept when it sums to T
    return [c for c in itertools.product(range(T + 1), repeat=d) if sum(c) == T]


def _rank(counts):
    # compositions before `counts`: for each part, those with a smaller
    # count there, i.e. a larger rest sum, after the same prefix
    r, rest = 0, sum(counts)
    for i, c in enumerate(counts[:-1]):
        k = len(counts) - i - 1
        r += math.comb(rest + k, k) - math.comb(rest - c + k, k)
        rest -= c
    return r


class TestDistribution:
    def test_normalizes_float_dust(self):
        d = Distribution([0.5, 0.5 + 1e-13])
        assert abs(float(d.weights.sum()) - 1.0) <= 1e-12

    def test_clips_negative_dust(self):
        d = Distribution([1.0 + 1e-13, -1e-13])
        assert d.weights.min() >= 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(ValidationError):
            Distribution([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Distribution([0.5, 0.4])

    def test_interior_flag(self):
        assert Distribution([0.3, 0.7]).is_interior
        assert not Distribution([1.0, 0.0]).is_interior

    def test_equality(self):
        assert Distribution([0.25, 0.75]) == Distribution([0.25, 0.75])
        assert Distribution([0.25, 0.75]) != Distribution([0.75, 0.25])

    def test_weights_immutable(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.weights[0] = 0.9

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8)
    )
    @settings(max_examples=60, deadline=None)
    def test_any_positive_vector_normalizes(self, raw):
        v = np.asarray(raw)
        d = Distribution(v / v.sum())
        assert abs(float(d.weights.sum()) - 1.0) <= 1e-12
        assert d.weights.min() >= 0.0
        assert d.dim == len(raw)


class TestEmpiricalDistribution:
    def test_counts_to_weights(self):
        e = EmpiricalDistribution([1, 3])
        assert e.sample_size == 4
        assert np.allclose(e.distribution.weights, [0.25, 0.75])

    def test_sample_size_mismatch(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([1, 1], sample_size=3)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([2, -1])

    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([0, 0])

    def test_equality(self):
        assert EmpiricalDistribution([1, 2]) == EmpiricalDistribution([1, 2])
        assert EmpiricalDistribution([1, 2]) != EmpiricalDistribution([2, 1])


class TestSimplexDelta:
    def test_zero_sum_accepted(self):
        d = SimplexDelta([-0.5, 0.5])
        assert d.dim == 2

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValidationError):
            SimplexDelta([0.5, 0.1])

    def test_scaled_tolerance(self):
        # dust relative to the vector's own magnitude passes
        SimplexDelta([1e6, -1e6 + 1e-8])


class TestKLDivergence:
    def test_zero_at_equal(self):
        p = Distribution([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_support_violation_is_inf(self):
        p = Distribution([0.5, 0.5])
        q = Distribution([1.0, 0.0])
        assert kl_divergence(p, q) == math.inf

    def test_zero_p_component_ignored(self):
        p = Distribution([1.0, 0.0])
        q = Distribution([0.5, 0.5])
        assert abs(kl_divergence(p, q) - math.log(2.0)) <= 1e-12

    @given(
        st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=6),
        st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, a, b):
        n = min(len(a), len(b))
        pa = np.asarray(a[:n])
        pb = np.asarray(b[:n])
        p = Distribution(pa / pa.sum())
        q = Distribution(pb / pb.sum())
        assert kl_divergence(p, q) >= -1e-12


class TestEllipsoidNorm:
    def test_hand_value(self):
        # 0.5 * ((-0.1)^2/0.5 + 0.1^2/0.5) = 0.5 * 0.04 = 0.02
        p = Distribution([0.5, 0.5])
        delta = SimplexDelta([-0.1, 0.1])
        assert abs(ellipsoid_norm_sq(delta, p) - 0.02) <= 1e-15

    def test_needs_interior(self):
        with pytest.raises(ValidationError):
            ellipsoid_norm_sq(SimplexDelta([-0.1, 0.1]), Distribution([1.0, 0.0]))


class TestLattice:
    def test_size_small_cases(self):
        assert lattice_size(2, 2) == 3
        assert lattice_size(2, 3) == 6
        assert lattice_size(10, 4) == math.comb(13, 3)

    def test_enumeration_order_d2(self):
        pts = [tuple(e.counts) for e in enumerate_lattice(2, 2)]
        assert pts == [(0, 2), (1, 1), (2, 0)]

    def test_enumeration_order_d3(self):
        pts = [tuple(e.counts) for e in enumerate_lattice(2, 3)]
        assert pts == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_complete_and_unique(self):
        pts = [tuple(e.counts) for e in enumerate_lattice(5, 3)]
        assert len(pts) == lattice_size(5, 3)
        assert len(set(pts)) == len(pts)
        assert all(sum(c) == 5 for c in pts)

    def test_rank_ranges_partition(self):
        full = [tuple(e.counts) for e in enumerate_lattice(4, 3)]
        split = [tuple(e.counts) for e in enumerate_lattice(4, 3, start=0, stop=7)]
        split += [tuple(e.counts) for e in enumerate_lattice(4, 3, start=7)]
        assert split == full

    def test_counts_matrix_matches_generator(self):
        ref = np.array(_brute_force(3, 4))
        gen = np.array([e.counts for e in enumerate_lattice(3, 4)])
        assert np.array_equal(gen, ref)
        assert np.array_equal(_lattice_counts(3, 4), ref)

    def test_blocks_match_brute_force(self):
        rng = np.random.default_rng(0)
        for T in range(1, 9):
            for d in range(2, 6):
                ref = _brute_force(T, d)
                full = _lattice_counts(T, d)
                assert full.dtype == np.int64
                assert [tuple(c) for c in full] == ref
                for _ in range(20):
                    start, stop = sorted(rng.integers(0, len(ref) + 1, size=2))
                    block = _lattice_counts(T, d, start=start, stop=stop)
                    assert [tuple(c) for c in block] == ref[start:stop]
                    gen = enumerate_lattice(T, d, start=start, stop=stop)
                    assert [tuple(e.counts) for e in gen] == ref[start:stop]

    def test_empty_and_out_of_range_blocks(self):
        size = lattice_size(5, 3)
        for start, stop in [(4, 4), (7, 3), (size, size + 5), (size + 2, None)]:
            assert _lattice_counts(5, 3, start=start, stop=stop).shape == (0, 3)
            assert list(enumerate_lattice(5, 3, start=start, stop=stop)) == []
        ref = _brute_force(5, 3)
        clipped = _lattice_counts(5, 3, start=-4, stop=size + 9)
        assert [tuple(c) for c in clipped] == ref
        assert [tuple(c) for c in _lattice_counts(5, 3, start=-4, stop=2)] == ref[:2]

    def test_deep_block_follows_the_block(self):
        # a 3-point range deep inside a lattice of about 1.6e12 points
        T, d = 2500, 5
        size = lattice_size(T, d)
        assert size > 10**12
        for start in (size // 3 + 12345, size - 3):
            block = _lattice_counts(T, d, cap=10**13, start=start, stop=start + 3)
            assert block.shape == (3, d)
            assert np.all(block.sum(axis=1) == T)
            assert [_rank(list(c)) for c in block] == [start, start + 1, start + 2]
        tail = enumerate_lattice(T, d, cap=10**13, start=size - 1)
        assert [tuple(e.counts) for e in tail] == [(T, 0, 0, 0, 0)]

    def test_cap_never_exceeds_int64_ranks(self):
        # more than 2**63 points cannot be ranked in int64, whatever the cap
        with pytest.raises(LatticeCapError) as exc:
            list(enumerate_lattice(10**4, 8, cap=10**60, start=10**20, stop=10**20 + 2))
        assert exc.value.size == lattice_size(10**4, 8) > 2**63
        assert exc.value.cap == 2**63 - 1
        with pytest.raises(LatticeCapError):
            _lattice_counts(10**4, 8, cap=10**60, start=0, stop=2)

    def test_rank_tables_are_built_once_per_walk(self, monkeypatch):
        # they cost O(d T), so one build per block would make a d=2 walk
        # quadratic in T
        calls = []
        original = simplex._rank_tables

        def counting(T, d):
            calls.append((T, d))
            return original(T, d)

        monkeypatch.setattr(simplex, "_rank_tables", counting)
        monkeypatch.setattr(simplex, "_LATTICE_BLOCK", 7)
        assert len(list(enumerate_lattice(100, 2))) == 101
        assert calls == [(100, 2)]

    def test_cap_enforced(self):
        with pytest.raises(LatticeCapError) as exc:
            list(enumerate_lattice(100, 5, cap=10))
        assert exc.value.size == lattice_size(100, 5)
        assert exc.value.cap == 10
        assert "cap" in str(exc.value)


class TestMultinomialLogProb:
    def test_hand_value(self):
        p = Distribution([0.5, 0.5])
        e = EmpiricalDistribution([1, 1])
        assert abs(multinomial_log_prob(e, p) - math.log(0.5)) <= 1e-12

    def test_outside_support(self):
        p = Distribution([1.0, 0.0])
        e = EmpiricalDistribution([1, 1])
        assert multinomial_log_prob(e, p) == -math.inf

    def test_sums_to_one_over_lattice(self):
        cases = [
            (6, 3, np.random.default_rng(3).dirichlet([2.0, 2.0, 2.0])),
            (120, 4, [0.1, 0.2, 0.3, 0.4]),  # 302,621 points
            (120, 4, [0.5, 0.0, 0.3, 0.2]),  # on the simplex boundary
            (40, 5, [0.2] * 5),
            (700, 3, [0.7, 0.3, 0.0]),
            (300, 3, [1.0, 0.0, 0.0]),  # a vertex
        ]
        for T, d, weights in cases:
            p = Distribution(weights)
            log_mass = logsumexp(_log_pmf_rows(_lattice_counts(T, d), p, T))
            assert abs(float(log_mass)) <= 1e-12, (T, d, weights)

    def test_scalar_is_one_row_of_batch(self):
        p = Distribution([0.5, 0.0, 0.3, 0.2])
        rows = _log_pmf_rows(_lattice_counts(7, 4), p, 7)
        scalar = [multinomial_log_prob(e, p) for e in enumerate_lattice(7, 4)]
        assert np.array_equal(np.array(scalar), rows)


class TestSampling:
    def test_deterministic_given_seed(self):
        p = Distribution([0.2, 0.3, 0.5])
        a = sample_empirical(p, 50, seed=11)
        b = sample_empirical(p, 50, seed=11)
        assert a == b

    def test_streams_differ(self):
        p = Distribution([0.2, 0.3, 0.5])
        a = sample_empirical(p, 500, seed=11, stream=0)
        b = sample_empirical(p, 500, seed=11, stream=1)
        assert a != b

    def test_counts_sum_to_T(self):
        p = Distribution([0.9, 0.1])
        e = sample_empirical(p, 37, seed=0)
        assert int(e.counts.sum()) == 37
        assert e.sample_size == 37

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from ddlab import (
    Distribution,
    EmpiricalDistribution,
    LatticeCapError,
    SimplexDelta,
    ValidationError,
    ellipsoid_norm_sq,
    lattice_size,
)
from ddlab import simplex
from ddlab.simplex import _lattice_counts, _log_pmf_rows
from kl_oracle import kl_divergence
from oracles import enumerate_lattice, multinomial_log_prob


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

    def test_takes_only_real_numbers(self):
        # np.asarray(["0.5", "0.5"], dtype=float) read 0.5 twice, True read 1.0
        for weights in (["0.5", "0.5"], [0.0, True], (0.5, None), [10**400, 0],
                        np.array([True, False]), np.array(["1"]), np.array([1.0], dtype=object),
                        [np.array([True]), [0.0]]):
            with pytest.raises(ValidationError, match="weights"):
                Distribution(weights)
        assert Distribution((np.int64(1), 0)) == Distribution(np.array([1.0, 0.0]))

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
        for counts in ((1.0, np.int32(3)), [np.float64(1), 3], np.array([1.0, 3.0])):
            assert EmpiricalDistribution(counts) == e

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

    @pytest.mark.parametrize("counts", [
        [True, True], (1, True), ["50", "50"],
        np.array([True, True]), np.array(["50", "50"]), np.array([50, 50], dtype=object),
    ], ids=["bool-list", "bool-tuple", "string-list", "bool-array", "string-array",
            "object-array"])
    def test_rejects_counts_that_are_not_whole_numbers(self, counts):
        # each read as counts: [True, True] as [1, 1], ["50", "50"] as [50, 50]
        with pytest.raises(ValidationError, match="count"):
            EmpiricalDistribution(counts)


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

    def test_takes_only_real_numbers(self):
        # np.asarray(["0.1", "-0.1"], dtype=float) read the strings as numbers
        for components in (["0.1", "-0.1"], [True, -1.0], np.array([True, False]),
                           [np.array([True]), [-1.0]]):
            with pytest.raises(ValidationError, match="delta components"):
                SimplexDelta(components)
        assert SimplexDelta((np.int64(1), -1)).components.tolist() == [1.0, -1.0]


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

    def test_size_takes_whole_numbers(self):
        assert lattice_size(0, 2) == 1
        assert lattice_size(10.0, np.int64(4)) == lattice_size(np.int32(10), 4.0) == math.comb(13, 3)
        # lattice_size(True, 2) returned 2; a fraction raised a bare TypeError
        for T, d, what in [(True, 2, "T"), (10.5, 2, "T"), ("3", 2, "T"), (-1, 2, "T"),
                           (3, True, "d"), (3, 2.5, "d"), (3, 0, "d")]:
            with pytest.raises(ValidationError, match=what) as info:
                lattice_size(T, d)
            assert type(info.value) is ValidationError

    def test_enumeration_order_d2(self):
        pts = [tuple(c) for c in _lattice_counts(2, 2)]
        assert pts == [(0, 2), (1, 1), (2, 0)]

    def test_enumeration_order_d3(self):
        pts = [tuple(c) for c in _lattice_counts(2, 3)]
        assert pts == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_complete_and_unique(self):
        pts = [tuple(c) for c in _lattice_counts(5, 3)]
        assert len(pts) == lattice_size(5, 3)
        assert len(set(pts)) == len(pts)
        assert all(sum(c) == 5 for c in pts)

    def test_rank_ranges_partition(self):
        full = [tuple(c) for c in _lattice_counts(4, 3)]
        split = [tuple(c) for c in _lattice_counts(4, 3, start=0, stop=7)]
        split += [tuple(c) for c in _lattice_counts(4, 3, start=7)]
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

    def test_empty_and_out_of_range_blocks(self):
        size = lattice_size(5, 3)
        for start, stop in [(4, 4), (7, 3), (size, size + 5), (size + 2, None)]:
            assert _lattice_counts(5, 3, start=start, stop=stop).shape == (0, 3)
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
        tail = _lattice_counts(T, d, cap=10**13, start=size - 1)
        assert [tuple(c) for c in tail] == [(T, 0, 0, 0, 0)]

    def test_cap_never_exceeds_int64_ranks(self):
        # more than 2**63 points cannot be ranked in int64, whatever the cap
        with pytest.raises(LatticeCapError) as exc:
            _lattice_counts(10**4, 8, cap=10**60, start=10**20, stop=10**20 + 2)
        assert exc.value.size == lattice_size(10**4, 8) > 2**63
        assert exc.value.cap == 2**63 - 1
        with pytest.raises(LatticeCapError):
            _lattice_counts(10**4, 8, cap=10**60, start=0, stop=2)

    def test_cap_enforced(self):
        with pytest.raises(LatticeCapError) as exc:
            _lattice_counts(100, 5, cap=10)
        assert exc.value.size == lattice_size(100, 5)
        assert exc.value.cap == 10
        assert "cap" in str(exc.value)


class TestMultinomialLogProb:
    def test_hand_value(self):
        p = Distribution([0.5, 0.5])
        assert abs(_log_pmf_rows(np.array([[1, 1]]), p, 2)[0] - math.log(0.5)) <= 1e-12

    def test_outside_support(self):
        p = Distribution([1.0, 0.0])
        assert _log_pmf_rows(np.array([[1, 1]]), p, 2)[0] == -math.inf

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
        C = _lattice_counts(7, 4)
        rows = _log_pmf_rows(C, p, 7)
        scalar = [multinomial_log_prob(EmpiricalDistribution(c), p) for c in C]
        assert np.array_equal(np.array(scalar), rows)


class TestLineLogPmf:
    """The exact engine forms its hits' log-pmf per lattice line
    (`simplex._line_log_pmf`): each line's first d - 2 terms summed once,
    each point adding its last two.  The values must keep the bits of
    `_log_pmf_rows` over the full count rows."""

    @staticmethod
    def _check(P, line, k, p, T):  # line ascends
        got = simplex._line_log_pmf(P, np.bincount(line, minlength=len(P)), k, p, T)
        C = np.column_stack([P[line, :-1], k, P[line, -1] - k])
        want = _log_pmf_rows(C, p, T)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    # d = 8, 9, 16 and 17 put the last two terms into the eight interleaved
    # accumulators of `_row_sums`; the others add them after the rest
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([8, 9, 16, 17]) | st.integers(2, 20),
        where=st.sampled_from(["interior", "boundary", "vertex", "last two"]),
    )
    def test_matches_the_log_pmf_rows_bit_for_bit(self, data, seed, d, where):
        rng = np.random.default_rng(seed)
        T = data.draw(st.integers(1, 80))
        w = rng.dirichlet(np.full(d, 0.5))
        if where == "boundary":  # zero weights: -inf terms where counts land
            w[rng.random(d) < 0.3] = 0.0
            w[rng.integers(d)] += 0.01
        elif where == "vertex":  # 0 log 1 = +0.0 beside the -0.0 of 0 log p < 0
            w = np.eye(d)[rng.integers(d)]
        elif where == "last two":  # a zero weight that the points' own terms read
            w[-1 - rng.integers(2)] = 0.0
        p = Distribution(w / w.sum())
        # prefix rows with zero counts, and lines of every length down to R = 0
        m, N = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 60))
        P = rng.multinomial(T, rng.dirichlet(np.full(d - 1, 0.3)), size=m)
        line = np.sort(rng.integers(m, size=N))
        k = (rng.random(N) * (P[line, -1] + 1)).astype(np.int64)
        self._check(P, line, k, p, T)

    def test_past_128_parts_builds_the_rows(self):
        # d = 129 at T = 2 is a lattice of 8,385 points, which the walk reaches
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(129))
        w[rng.random(129) < 0.2] = 0.0
        P = _lattice_counts(2, 128)
        line = np.repeat(np.arange(len(P)), P[:, -1] + 1)
        k = np.concatenate([np.arange(R + 1) for R in P[:, -1]])
        self._check(P, line, k, Distribution(w / w.sum()), 2)


class TestLogFactorialTable:
    """The cached log c! table has the bits of scipy.special.gammaln(c + 1)."""

    def test_entries_match_gammaln_up_to_200000(self):
        c = np.arange(200_001)
        got = simplex._log_factorial_entries(c)
        assert np.array_equal(got, gammaln(c + 1.0))

    def test_entries_match_gammaln_at_the_branch_edges(self):
        # c <= 11 is an exact product; the Stirling tail changes at
        # x = c + 1 = 1000 and stops past 1e8
        c = np.array([11, 12, 998, 999, 1000] + list(range(10**8 - 2, 10**8 + 2)))
        assert np.array_equal(simplex._log_factorial_entries(c), gammaln(c + 1.0))

    def test_entries_match_gammaln_on_random_counts(self):
        c = np.random.default_rng(12).integers(0, 10**13, size=5000)
        assert np.array_equal(simplex._log_factorial_entries(c), gammaln(c + 1.0))

    def test_grown_table_equals_a_fresh_one(self, monkeypatch):
        monkeypatch.setattr(simplex, "_LOG_FACT", np.zeros(0))
        small = simplex._log_factorials(10)
        assert small.size == 11
        grown = simplex._log_factorials(5000)
        assert grown.size == 5001
        assert np.array_equal(grown, simplex._log_factorial_entries(np.arange(5001)))
        assert np.array_equal(grown, gammaln(np.arange(5001) + 1.0))
        assert simplex._log_factorials(10) is grown  # covered: no rebuild

    def test_concurrent_growth_keeps_every_entry(self, monkeypatch):
        # threads race to grow the table; it must end covering the largest
        # request, with the bits of a fresh build
        monkeypatch.setattr(simplex, "_LOG_FACT", np.zeros(0))
        sizes = np.random.default_rng(4).integers(0, 3000, size=(8, 40))
        errors = []

        def grow(row):
            try:
                for n in row:
                    table = simplex._log_factorials(int(n))
                    assert table.size > n and not table.flags.writeable
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(row,)) for row in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        table = simplex._LOG_FACT
        assert table.size == sizes.max() + 1
        assert np.array_equal(table, gammaln(np.arange(table.size) + 1.0))

    def test_growth_runs_in_bounded_slices(self, monkeypatch):
        # growing by 199,900 entries never computes more than 2**16 at once,
        # and the grown table has the bits of gammaln
        monkeypatch.setattr(simplex, "_LOG_FACT", np.zeros(0))
        simplex._log_factorials(99)
        sizes = []
        original = simplex._log_factorial_entries

        def counting(c):
            sizes.append(c.size)
            return original(c)

        monkeypatch.setattr(simplex, "_log_factorial_entries", counting)
        table = simplex._log_factorials(200_000)
        assert sum(sizes) == 200_001 - 100 and max(sizes) <= 1 << 16
        assert np.array_equal(table, gammaln(np.arange(200_001) + 1.0))

    def test_table_is_read_only(self):
        table = simplex._log_factorials(50)
        with pytest.raises(ValueError):
            table[3] = 0.0
        assert table[3] == math.log(6.0)


def test_row_sums_have_the_bits_of_numpy_row_sums():
    # left to right below 8 entries, eight interleaved accumulators up to
    # 128, NumPy's own sum past that
    rng = np.random.default_rng(8)
    for d in range(2, 131):
        for N in (1, 300):
            X = rng.random((N, d)) * 10.0 ** rng.uniform(-8, 8, (N, d))
            got = simplex._row_sums(np.ascontiguousarray(X.T))
            assert got.tobytes() == X.sum(axis=1).tobytes(), (d, N)

"""Probability-simplex primitives.

Distributions over a finite scenario set, empirical distributions with
integer counts, signed differences of distributions, the KL divergence with
its extended-value conventions, the local ellipsoid (chi-squared) norm,
exact enumeration of the lattice of empirical distributions, multinomial
log-probabilities, and reproducible multinomial sampling.

Everything here is immutable after construction and pure given its inputs,
so values can be shared freely across threads.
"""
from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np
from scipy.special import gammaln

from .errors import LatticeCapError, ValidationError

# Construction-time tolerances: sums within NORMALIZE_TOL of their target are
# treated as float dust and normalized away; anything past HARD_REJECT_TOL is
# malformed input.
NORMALIZE_TOL = 1e-12
HARD_REJECT_TOL = 1e-6

#: Default ceiling on exact lattice sizes (number of compositions).
DEFAULT_LATTICE_CAP = 10**8
_MAX_RANK = 2**63 - 1  # ranks are int64
# rows per block built by enumerate_lattice and streamed through
# deviation.disappointment_exact
_LATTICE_BLOCK = 1 << 13


class Distribution:
    """A point of the probability simplex over d scenarios.

    Weights are validated to be nonnegative and to sum to 1 within
    HARD_REJECT_TOL, then normalized so the sum is 1 within NORMALIZE_TOL.
    """

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size < 1:
            raise ValidationError("distribution needs at least one weight")
        if not np.all(np.isfinite(w)):
            raise ValidationError("distribution weights must be finite")
        if w.min() < -NORMALIZE_TOL:
            raise ValidationError(
                "negative weight %r at index %d" % (float(w.min()), int(w.argmin()))
            )
        w = np.maximum(w, 0.0)
        s = float(w.sum())
        if abs(s - 1.0) > HARD_REJECT_TOL:
            raise ValidationError("weights sum to %r, not 1" % s)
        w = w / s
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def is_interior(self) -> bool:
        """True iff every scenario has strictly positive probability."""
        return bool(np.all(self.weights > 0.0))

    def __len__(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(
            self.weights, other.weights
        )

    def __repr__(self) -> str:
        return "Distribution(%s)" % np.array2string(self.weights, separator=", ")


class EmpiricalDistribution:
    """Scenario counts from T i.i.d. samples; the lattice point counts/T."""

    __slots__ = ("counts", "sample_size")

    def __init__(self, counts, sample_size: Optional[int] = None) -> None:
        c = np.asarray(counts)
        if c.dtype.kind not in "iu":
            cf = np.asarray(counts, dtype=float)
            if not np.all(cf == np.round(cf)):
                raise ValidationError("counts must be integers")
            c = np.round(cf).astype(np.int64)
        c = c.astype(np.int64).reshape(-1)
        if c.size < 1 or c.min() < 0:
            raise ValidationError("counts must be nonnegative")
        total = int(c.sum())
        if sample_size is None:
            sample_size = total
        if total != int(sample_size):
            raise ValidationError(
                "counts sum to %d, expected sample_size %d" % (total, sample_size)
            )
        if sample_size < 1:
            raise ValidationError("sample_size must be >= 1")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "sample_size", int(sample_size))

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalDistribution is immutable")

    @property
    def dim(self) -> int:
        return self.counts.size

    @property
    def distribution(self) -> Distribution:
        """The induced point counts/T of the simplex."""
        return Distribution(self.counts / self.sample_size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmpiricalDistribution)
            and self.sample_size == other.sample_size
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:
        return "EmpiricalDistribution(%s, T=%d)" % (
            np.array2string(self.counts, separator=", "),
            self.sample_size,
        )


class SimplexDelta:
    """A signed difference of two distributions: components sum to 0."""

    __slots__ = ("components",)

    def __init__(self, components) -> None:
        v = np.asarray(components, dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValidationError("delta components must be finite")
        # zero-sum within float dust, scaled by the vector's own magnitude
        scale = max(1.0, float(np.abs(v).sum()))
        if abs(float(v.sum())) > NORMALIZE_TOL * scale:
            raise ValidationError("delta components sum to %r, not 0" % float(v.sum()))
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "components", v)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexDelta is immutable")

    @property
    def dim(self) -> int:
        return self.components.size


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Relative entropy sum_i p_i log(p_i/q_i), extended-valued.

    Conventions: 0*log(0/q) = 0 and p*log(p/0) = +inf, so the value is
    finite iff support(p) is contained in support(q).  Infinity is returned
    as math.inf rather than raised, because ambiguity-set membership tests
    compare it against finite radii.
    """
    pw, qw = p.weights, q.weights
    if pw.size != qw.size:
        raise ValidationError("dimension mismatch: %d vs %d" % (pw.size, qw.size))
    mask = pw > 0.0
    if np.any(qw[mask] == 0.0):
        return math.inf
    return float(np.sum(pw[mask] * np.log(pw[mask] / qw[mask])))


def ellipsoid_norm_sq(delta: SimplexDelta, p: Distribution) -> float:
    """The local ellipsoid norm squared at p: 0.5 * sum_i delta_i^2 / p_i.

    Requires p interior (the form degenerates on the boundary).
    Homogeneous of degree 2, positive definite on zero-sum vectors.
    """
    if delta.dim != p.dim:
        raise ValidationError("dimension mismatch")
    if not p.is_interior:
        raise ValidationError("ellipsoid norm needs an interior distribution")
    return float(0.5 * np.sum(delta.components**2 / p.weights))


def lattice_size(T: int, d: int) -> int:
    """Number of empirical distributions achievable with T samples over d scenarios."""
    return math.comb(T + d - 1, d - 1)


def _capped_size(T: int, d: int, cap: int) -> int:
    # No cap reaches past the int64 ranks: a lattice that big could never
    # be consumed in full anyway.
    size = lattice_size(T, d)
    cap = min(cap, _MAX_RANK)
    if size > cap:
        raise LatticeCapError(size, cap)
    return size


def enumerate_lattice(
    T: int,
    d: int,
    cap: int = DEFAULT_LATTICE_CAP,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[EmpiricalDistribution]:
    """Yield every composition of T into d nonnegative counts, exactly once.

    The order is deterministic: counts ascend on the first coordinate, then
    recursively on the rest, e.g. (T=2, d=2) gives (0,2), (1,1), (2,0).
    `start`/`stop` select a contiguous rank range in that order, so disjoint
    ranges partition the lattice for parallel consumption; reductions must
    merge ranges in rank order to stay bit-reproducible.  Rows are built in
    blocks of `_LATTICE_BLOCK` by `_lattice_counts`.
    """
    if T < 1 or d < 2:
        raise ValidationError("need T >= 1 and d >= 2")
    size = _capped_size(T, d, cap)
    stop = size if stop is None else min(stop, size)
    below = _rank_tables(T, d)
    for lo in range(max(0, start), stop, _LATTICE_BLOCK):
        hi = min(lo + _LATTICE_BLOCK, stop)
        for row in _lattice_counts(T, d, cap, lo, hi, below):
            yield EmpiricalDistribution(row, T)


def _rank_tables(T: int, d: int) -> list:
    # below[k][s + 1] = comb(s + k, k), the compositions of s into k + 1
    # parts; below[k][0] = 0.  They cost O(d T) and depend on (T, d) only,
    # so a walk over many blocks of one lattice builds them once.
    below = [np.ones(T + 2, dtype=np.int64)]
    below[0][0] = 0
    for _ in range(d - 1):
        below.append(np.cumsum(below[-1]))
    return below


def _lattice_counts(
    T: int,
    d: int,
    cap: int = DEFAULT_LATTICE_CAP,
    start: int = 0,
    stop: Optional[int] = None,
    below: Optional[list] = None,
) -> np.ndarray:
    """The compositions of T into d parts with ranks in [start, stop), as
    (N, d) int64 rows in the order of `enumerate_lattice`.

    The lattice is built one part at a time.  A prefix whose remaining mass
    is r spawns children in ascending count c, i.e. descending rest sum
    s = r - c; the ranks below a prefix with k parts left and rest sum at
    most s number comb(s + k, k), so each child's rank range follows from
    one table lookup.  Children whose range misses [start, stop) are never
    made, so time and memory follow the block, not the lattice, apart from
    the d tables of T + 2 counts from `_rank_tables` (built here unless
    passed in as `below`).
    """
    size = _capped_size(T, d, cap)
    stop = size if stop is None else min(stop, size)
    start = max(0, start)
    if start >= stop:
        return np.zeros((0, d), dtype=np.int64)
    if below is None:
        below = _rank_tables(T, d)
    rows = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([T], dtype=np.int64)
    end = np.array([size], dtype=np.int64)  # one past each prefix's last rank
    for k in range(d - 1, 0, -1):  # parts left after the one being placed
        cum = below[k]
        # the child with rest sum s covers ranks [end - cum[s + 1], end - cum[s])
        s_lo = np.searchsorted(cum[1:], end - stop, side="right")
        s_hi = np.minimum(np.searchsorted(cum[1:], end - start), rest)
        n = s_hi - s_lo + 1
        parent = np.repeat(np.arange(rows.shape[0]), n)
        s = s_hi[parent] - (np.arange(parent.size) - (np.cumsum(n) - n)[parent])
        rows = np.column_stack([rows[parent], rest[parent] - s])
        end = end[parent] - cum[s]
        rest = s
    return np.column_stack([rows, rest])


def _log_pmf_rows(C: np.ndarray, p: Distribution, T: int) -> np.ndarray:
    w = p.weights
    logw = np.where(w > 0.0, np.log(np.maximum(w, 1e-300)), -np.inf)
    with np.errstate(invalid="ignore"):
        contrib = np.where(C > 0, C * logw, 0.0)
    return gammaln(T + 1) - gammaln(C + 1.0).sum(axis=1) + contrib.sum(axis=1)


def multinomial_log_prob(e: EmpiricalDistribution, p: Distribution) -> float:
    """log of the multinomial probability of the counts under p.

    Computed through log-gamma; factorials would overflow past T ~ 170.
    Returns -inf when the counts put mass outside support(p).
    """
    if e.dim != p.dim:
        raise ValidationError("dimension mismatch")
    return float(_log_pmf_rows(e.counts[None, :], p, e.sample_size)[0])


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    # Counter-based splittable generator keyed by (seed, stream): distinct
    # streams are independent and any (seed, stream) pair is reproducible.
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_empirical(
    p: Distribution, T: int, seed: int, stream: int = 0
) -> EmpiricalDistribution:
    """Draw T i.i.d. scenarios from p; deterministic given (seed, stream)."""
    if T < 1:
        raise ValidationError("T must be >= 1")
    rng = _philox(seed, stream)
    counts = rng.multinomial(T, p.weights)
    return EmpiricalDistribution(counts.astype(np.int64), T)

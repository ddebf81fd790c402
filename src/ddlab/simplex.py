"""Probability-simplex primitives.

Distributions over a finite scenario set, empirical distributions with
integer counts, signed differences of distributions, the local ellipsoid
(chi-squared) norm, the size of the lattice of empirical distributions and
the engine's kernels over it: rank blocks of count rows, batched multinomial
log-pmfs from a shared log-factorial table, and the counter-based generator
that the samplers draw from.

Everything here is immutable after construction and pure given its inputs,
so values can be shared freely across threads.  The one module state is the
log-factorial table of `_log_factorials`: it only grows, and every table it
hands out is read-only.
"""
from __future__ import annotations

import math
import threading
from typing import Optional

import numpy as np

from .errors import LatticeCapError, ValidationError

# Construction-time tolerances: sums within NORMALIZE_TOL of their target are
# treated as float dust and normalized away; anything past HARD_REJECT_TOL is
# malformed input.
NORMALIZE_TOL = 1e-12
HARD_REJECT_TOL = 1e-6

#: Default ceiling on exact lattice sizes (number of compositions).
DEFAULT_LATTICE_CAP = 10**8
_MAX_RANK = 2**63 - 1  # ranks are int64
# rank rows per block of `_lattice_counts` that deviation.disappointment_exact
# streams, and the block size of the samplers' draws and evaluations
_LATTICE_BLOCK = 1 << 13


def _whole(value, what: str, least: Optional[int] = None) -> int:
    """value as an int: an int, a NumPy int or an integral float such as 1e5.
    A bool, a fraction, another type or a value below `least` is a ValidationError."""
    if type(value) is not int:  # an exact int costs this one check
        whole = isinstance(value, (float, np.floating)) and float(value).is_integer()
        if not (whole or isinstance(value, np.integer)):
            raise ValidationError("%s must be an integer, got %r" % (what, value))
        value = int(value)
    if least is not None and value < least:
        raise ValidationError("%s must be >= %d, got %r" % (what, least, value))
    return value


def _real(value, what: str, low: Optional[float] = None, strict: bool = False) -> float:
    """value as a float: an int, a float, a NumPy int or a NumPy float.  A bool,
    another type, an int past the float range, or, when `low` is given, NaN
    or a value below `low` (at it when `strict`) is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError("%s must be a real number, got %r" % (what, value))
    try:
        value = float(value)
    except OverflowError:  # an int past about 1.8e308
        raise ValidationError("%s is too large for a float" % what) from None
    if low is not None and not (value > low if strict else value >= low):  # NaN fails too
        raise ValidationError("%s must be %s %s" % (what, ">" if strict else ">=", low))
    return value


def _real_array(values, what: str) -> np.ndarray:
    """values as a float array.  Each entry of a list or tuple goes through
    `_real`, each row in one through this rule: NumPy reads [0.5, True] as
    floats.  An array has an int or float dtype; NaN and inf pass."""
    if isinstance(values, (list, tuple)):
        values = [_real_array(v, what) if isinstance(v, (list, tuple, np.ndarray))
                  else _real(v, what) for v in values]
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":  # bools, strings and objects
        raise ValidationError("%s must be real numbers, got dtype %s" % (what, a.dtype))
    return np.asarray(a, dtype=float)


class _Frozen:
    """Base of the immutable slotted types.  Pickling and copying set the
    slots back as they were, without rebuilding the object: a merged
    LossMatrix keeps the tie windows of the matrix it came from."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


class Distribution(_Frozen):
    """A point of the probability simplex over d scenarios.

    Weights are real numbers (`_real_array`), validated to be nonnegative
    and to sum to 1 within HARD_REJECT_TOL, then normalized so the sum is 1
    within NORMALIZE_TOL.
    """

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        w = _real_array(weights, "weights").reshape(-1)
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


class EmpiricalDistribution(_Frozen):
    """Scenario counts from T i.i.d. samples; the lattice point counts/T.
    Each entry of a list or tuple of counts is a whole number (`_whole`); an
    array of counts has an int dtype, or a float one with integral entries.
    sample_size (default: the counts' sum) is a whole number >= 1."""

    __slots__ = ("counts", "sample_size")

    def __init__(self, counts, sample_size: Optional[int] = None) -> None:
        if isinstance(counts, (list, tuple)):
            counts = [_whole(n, "count") for n in counts]
        c = np.asarray(counts)
        if c.dtype.kind not in "iuf":  # bools, strings and objects
            raise ValidationError("counts must be integers, got dtype %s" % c.dtype)
        if c.dtype.kind == "f" and not np.all(c == np.round(c)):
            raise ValidationError("counts must be integers")
        c = c.astype(np.int64).reshape(-1)
        if c.size < 1 or c.min() < 0:
            raise ValidationError("counts must be nonnegative")
        total = int(c.sum())
        T = _whole(total if sample_size is None else sample_size, "sample_size", 1)
        if total != T:
            raise ValidationError("counts sum to %d, expected sample_size %d" % (total, T))
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "sample_size", T)

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


class SimplexDelta(_Frozen):
    """A signed difference of two distributions: components, real numbers
    (`_real_array`), sum to 0."""

    __slots__ = ("components",)

    def __init__(self, components) -> None:
        v = _real_array(components, "delta components").reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValidationError("delta components must be finite")
        # zero-sum within float dust, scaled by the vector's own magnitude
        scale = max(1.0, float(np.abs(v).sum()))
        if abs(float(v.sum())) > NORMALIZE_TOL * scale:
            raise ValidationError("delta components sum to %r, not 0" % float(v.sum()))
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "components", v)

    @property
    def dim(self) -> int:
        return self.components.size


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
    """Number of empirical distributions achievable with T samples over d
    scenarios; T and d are whole numbers (`_whole`), T >= 0 and d >= 1."""
    T, d = _whole(T, "sample size T", 0), _whole(d, "d", 1)
    return math.comb(T + d - 1, d - 1)


def _capped_size(T: int, d: int, cap: int) -> int:
    # No cap reaches past the int64 ranks: a lattice that big could never
    # be consumed in full anyway.
    size = lattice_size(T, d)
    cap = min(_whole(cap, "cap"), _MAX_RANK)
    if size > cap:
        raise LatticeCapError(size, cap)
    return size


def _row_sums(XT: np.ndarray) -> np.ndarray:
    """The row sums of the (N, d) array whose transpose is XT (d, N), with
    the bits of NumPy's `sum(axis=1)` over C-ordered rows: left to right
    when d < 8; for 8 <= d <= 128, eight interleaved accumulators combined
    pairwise, then the last d % 8 entries.  Past 128, a C-ordered copy."""
    d = XT.shape[0]
    if d > 128:
        return np.ascontiguousarray(XT.T).sum(axis=1)
    if d < 8:
        return XT.sum(axis=0)  # left to right, whatever N is
    whole = d - d % 8
    acc = XT[:8].copy()
    for i in range(8, whole, 8):
        acc += XT[i:i + 8]
    pairs = acc[0::2] + acc[1::2]
    out = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for x in XT[whole:]:
        out += x
    return out


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
    (N, d) int64 rows, the transposed view of a (d, N) array that the exact
    engine reads as C.T.  Counts ascend on the first part, then recursively
    on the rest: (T=2, d=2) gives (0,2), (1,1), (2,0).

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
    # every prefix has a child in range, so the prefixes never outnumber the
    # block's rows: the first `rest.size` columns of `out` hold them
    out = np.empty((d, stop - start), dtype=np.int64)
    rest = np.array([T], dtype=np.int64)
    end = np.array([size], dtype=np.int64)  # one past each prefix's last rank
    for j, k in enumerate(range(d - 1, 0, -1)):  # k parts left after part j
        cum = below[k]
        # the child with rest sum s covers ranks [end - cum[s + 1], end - cum[s])
        s_lo = np.searchsorted(cum[1:], end - stop, side="right")
        s_hi = np.minimum(np.searchsorted(cum[1:], end - start), rest)
        n = s_hi - s_lo + 1
        m = int(n.sum())
        s = np.repeat(s_hi + (np.cumsum(n) - n), n) - np.arange(m)
        for i in range(j):
            out[i, :m] = np.repeat(out[i, :rest.size], n)
        out[j, :m] = np.repeat(rest, n) - s
        end = np.repeat(end, n) - cum[s]
        rest = s
    out[d - 1] = rest
    return out.T


# Cephes `lgam` for x >= 13: log(sqrt(2 pi)) and the coefficients of its
# Stirling series in 1/x^2, highest power first
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_FACT = np.zeros(0)  # log c! for c < _LOG_FACT.size; see _log_factorials
_LOG_FACT_LOCK = threading.Lock()


def _log_factorial_entries(c: np.ndarray) -> np.ndarray:
    """log c! for each count in c: the steps `scipy.special.gammaln(c + 1.0)`
    (Cephes `lgam`) runs for integer arguments, so the same bits.  For
    c <= 11 that is the log of the exact product c!; past it, with
    x = c + 1, (x - 1/2) log x - x + log sqrt(2 pi) plus a Stirling tail:
    the degree-4 series below x = 1000, a short one up to 1e8, none beyond.
    log x comes from `math.log` (libm, as in Cephes): `np.log` differs from
    it in the last bit on a few arguments."""
    x = c + 1.0
    log_x = np.fromiter(map(math.log, x.tolist()), float, x.size)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    series = np.full_like(p, _STIRLING[0])
    for coef in _STIRLING[1:]:  # Cephes polevl: Horner, no fused multiply-add
        series = series * p + coef
    short = (
        7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3
    ) * p + 0.0833333333333333333333
    out = np.where(x > 1e8, q, q + np.where(x < 1000.0, series, short) / x)
    for i in np.flatnonzero(c <= 11):
        out[i] = math.log(float(math.factorial(int(c[i]))))
    return out


def _log_factorials(n: int) -> np.ndarray:
    """The process's read-only table of log c! for c = 0..n at least.  It
    grows on demand to the largest n asked for, computing only the new
    entries, so callers index it instead of calling log-gamma; every entry
    equals `scipy.special.gammaln(c + 1.0)` bit for bit.  The table costs
    8 bytes per entry for the life of the process, so it serves the exact
    engine and the histogram sampler, whose arrays are O(n) already."""
    global _LOG_FACT
    table = _LOG_FACT
    if table.size <= n:
        with _LOG_FACT_LOCK:  # growth only: a table never shrinks
            table = _LOG_FACT
            if table.size <= n:
                grown = np.empty(n + 1)
                grown[:table.size] = table
                step = 1 << 16  # entries per slice: bounds the temporaries
                for lo in range(table.size, n + 1, step):
                    hi = min(lo + step, n + 1)
                    grown[lo:hi] = _log_factorial_entries(np.arange(lo, hi))
                grown.flags.writeable = False
                _LOG_FACT = table = grown
    return table


def _log_pmf_rows(C: np.ndarray, p: Distribution, T: int) -> np.ndarray:
    """Multinomial log-pmf of each count row of C (rows sum to T) under p:
    log T! - sum_i log C_i! + sum_i C_i log p_i, -inf for counts outside
    support(p).  The log-factorials are read from `_log_factorials`, so the
    values have the bits of the same sum over `scipy.special.gammaln`.  It
    reads C.T into one (d, N) array of terms."""
    log_fact = _log_factorials(T)
    CT = C.T
    terms = np.take(log_fact, CT, mode="clip")  # 0 <= C <= T
    log_fact_C = _row_sums(terms)
    # the terms now take the C_i log p_i; a zero count gives a zero of
    # either sign: same bits
    _log_p_terms(CT, p, terms)
    return log_fact[T] - log_fact_C + _row_sums(terms)


def _log_p_terms(CT: np.ndarray, p: Distribution, out: np.ndarray, cells=slice(None)):
    """out (k, N) = the terms c log p_i of the counts CT (k, N) of the cells
    `cells` of p: 0 log 0 = 0, and a count outside support(p) weighs -inf."""
    w = p.weights[cells]
    logw = np.where(w > 0.0, np.log(np.maximum(w, 1e-300)), -np.inf)
    for c, lw, row in zip(CT, logw, out):
        if lw > -np.inf:
            np.multiply(c, lw, out=row)
        else:
            np.copyto(row, np.where(c > 0, -np.inf, 0.0))
    return out


def _line_log_pmf(P: np.ndarray, n: np.ndarray, k: np.ndarray, p: Distribution,
                  T: int) -> np.ndarray:
    """`_log_pmf_rows` of the count rows (P[i, :-1], k, R - k), R = P[i, -1],
    bit for bit: n[i] points on line i of the prefix rows P (m, d - 1) in
    turn.  Each line's first d - 2 terms, log c! and c log p, are summed
    once in `_row_sums`' order, then each point adds its last two there:
    after the others, or, when d % 8 < 2 and d >= 8, into the last of eight
    accumulators.  -0.0 stands for an empty sum (adding it changes no bit).
    Past d = 128, where `_row_sums` sums C-ordered rows, rows are built."""
    d, rest = P.shape[1] + 1, np.repeat(P[:, -1], n) - k
    if d > 128:
        return _log_pmf_rows(np.column_stack([np.repeat(P[:, :-1], n, axis=0), k, rest]), p, T)
    log_fact, head, sums = _log_factorials(T), P[:, :-1].T, []
    for X, (x, y) in (
        (np.take(log_fact, head, mode="clip"), np.take(log_fact, (k, rest), mode="clip")),
        (_log_p_terms(head, p, np.empty(head.shape), slice(-2)),
         _log_p_terms((k, rest), p, np.empty((2, k.size)), slice(-2, None))),
    ):
        if d < 8 or d % 8 > 1:
            S = np.repeat(_row_sums(X) if d > 2 else np.full(X.shape[1], -0.0), n)
            sums.append(np.add(np.add(S, x, out=S), y, out=S))
            continue
        acc = np.full((8, X.shape[1]), -0.0)
        for i in range(0, d - 2, 8):
            acc[:X[i:i + 8].shape[0]] += X[i:i + 8]
        H, G, a6, a7 = (np.repeat(v, n) for v in (
            (acc[0] + acc[1]) + (acc[2] + acc[3]), acc[4] + acc[5], acc[6], acc[7]))
        sums.append(H + (G + ((a6 + x) + (a7 + y))) if d % 8 == 0
                    else (H + (G + (a6 + (a7 + x)))) + y)
    lf, cl = sums
    np.subtract(log_fact[T], lf, out=lf)
    lf += cl
    return lf


def _philox(seed: int) -> np.random.Generator:
    # Counter-based generator keyed by the int seed, its low 64 bits: any
    # seed is reproducible.
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))

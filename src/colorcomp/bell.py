"""Weighted composition counts, partial Bell polynomials, and the invert transform.

``weighted_count`` / ``weighted_count_k`` / ``invert_transform`` count by
convolution over the weight sequence (the primary, factorial-free path).
Two independent routes stay as the oracles that ``verify`` and the tests
compare it against:

* ``partial_bell_table`` -- the paper's identity
  P_k(n) = (k!/n!) * B_{n,k}(1! w_1, 2! w_2, ...),
* ``hoggatt_lind_count`` -- direct summation over k-part partitions
  (exponential).

All arithmetic is exact big-integer; every division in a recurrence is
checked for zero remainder and raises :class:`InternalError` otherwise.
"""

from __future__ import annotations

from itertools import groupby
from math import comb, factorial
from operator import mul

from .errors import InputError, InternalError, as_int, checked

__all__ = [
    "WeightSeq",
    "partial_bell",
    "partial_bell_table",
    "weighted_count_k",
    "weighted_count",
    "invert_transform",
    "hoggatt_lind_count",
]


class WeightSeq:
    """A finite prefix (w_1, ..., w_N) of a color-multiplicity sequence.

    ``w[n]`` is the number of colors a part of size ``n`` may take; a zero
    entry forbids that part size.  Indexing is 1-based and strict: asking
    for an index beyond the stored prefix raises :class:`InputError`
    rather than silently returning zero.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights):
        ws = tuple(as_int(w, "weight") for w in weights)
        if len(ws) < 1:
            raise InputError("weight sequence must have at least one entry")
        if any(w < 0 for w in ws):
            raise InputError(f"weights must be nonnegative, got {ws}")
        self._weights = ws

    @classmethod
    def ones(cls, n):
        """All-ones prefix of length n: every part size, one color."""
        return cls((1,) * as_int(n, "n"))

    @classmethod
    def polytopic(cls, d, n):
        """Prefix of length n of the simplicial d-polytopic colors C(j+d-1, d)."""
        n, d = as_int(n, "n"), checked(d, "d")
        return cls(tuple(comb(j + d - 1, d) for j in range(1, n + 1)))

    def __len__(self):
        return len(self._weights)

    def __getitem__(self, n):
        n = as_int(n, "weight index")
        if not 1 <= n <= len(self._weights):
            raise InputError(
                f"weight index {n} out of range 1..{len(self._weights)}"
            )
        return self._weights[n - 1]

    def __iter__(self):
        return iter(self._weights)

    def __eq__(self, other):
        return isinstance(other, WeightSeq) and self._weights == other._weights

    def __hash__(self):
        return hash(self._weights)

    def __repr__(self):
        return f"WeightSeq({self._weights!r})"


def _exact_div(value, divisor, context):
    q, r = divmod(value, divisor)
    if r:
        raise InternalError(f"inexact division by {divisor} in {context}")
    return q


def _point(x):
    """The point x as a tuple of ints; InputError for anything else."""
    try:
        entries = iter(x)
    except TypeError:
        raise InputError(f"x must be a sequence of integers, got {x!r}") from None
    return tuple(as_int(v, "x entry") for v in entries)


def partial_bell_table(n, x):
    """All values B[(a, b)] for 0 <= b <= a <= n at the point x.

    ``x`` is a sequence of integers with ``x[0]`` playing the role of x_1.
    Computed bottom-up from B_{0,0} = 1 via

        B_{a,b} = (1/b) * sum_j C(a, j) * x_j * B_{a-j, b-1}.

    Missing (a, b) keys are zero.
    """
    n = checked(n, "n", 0)
    x = _point(x)
    table = {(0, 0): 1}
    # Only cells with a - b <= len(x) - 1 are computable from the given
    # prefix; cells outside that band are not needed for any such target.
    for a in range(1, n + 1):
        for b in range(max(1, a - len(x) + 1), a + 1):
            total = 0
            for j in range(1, a - b + 2):
                prev = table.get((a - j, b - 1), 0)
                if prev:
                    total += comb(a, j) * x[j - 1] * prev
            table[(a, b)] = _exact_div(total, b, f"partial_bell({a},{b})")
    return table


def partial_bell(n, k, x):
    """Partial (exponential) Bell polynomial B_{n,k} evaluated at x.

    ``x`` is a sequence of integers with ``x[0]`` = x_1; at least
    n - k + 1 entries are required.  Requires 1 <= k <= n.
    """
    n = checked(n, "n")
    k = checked(k, "k", 1, n)
    x = _point(x)
    if len(x) < n - k + 1:
        raise InputError(
            f"partial_bell(n={n}, k={k}) needs {n - k + 1} entries of x, got {len(x)}"
        )
    return partial_bell_table(n, x)[(n, k)]


def require_prefix(w, n):
    """The prefix (w_1, ..., w_n) as a tuple, w_s at index s - 1, checked once.

    Anything but a WeightSeq of at least n entries raises InputError: a plain
    sequence would be read 0-based where a WeightSeq is 1-based.
    """
    if not isinstance(w, WeightSeq):
        raise InputError(f"weights must be a WeightSeq, got {w!r}")
    if n > len(w):
        raise InputError(f"weight prefix of length {len(w)} too short for n={n}")
    return w._weights[:n]


# The last (w, n, k, row k) weighted_count_k built.  It is read once and
# replaced whole, so an interleaved or concurrent caller misses it and
# rebuilds rows 1..k, never takes a wrong row.
_row_last = None


def weighted_count_k(w, n, k):
    """Number of w-color compositions of n with exactly k parts.

    C_k(n) of the convolution C_i(j) = sum_s w_s * C_{i-1}(j - s), C_0(0) = 1,
    over the tuple :func:`require_prefix` hands out.  Row i keeps only the
    cells i <= j <= n - k + i that can still reach n, stored at offset
    j - i.  A sweep k = 1, 2, ... with the same ``w`` object and n
    continues from the previous call's row k-1, cut to this band, with one
    convolution step.
    """
    global _row_last
    n = checked(n, "n")
    k = checked(k, "k", 1, n)
    width = n - k + 1
    ws = require_prefix(w, n)[:width]  # ws[t] = w_{t+1}
    last = _row_last
    if last is not None and last[0] is w and last[1:3] == (n, k - 1):
        row, steps = last[3][:width], 1
    else:
        row, steps = ws, k - 1  # C_1(j) = w_j
    for _ in range(steps):
        # Offset t sums w_{t+1-u} * row[u] over u <= t; map stops at the shorter slice.
        row = [sum(map(mul, ws[t::-1], row)) for t in range(width)]
    _row_last = (w, n, k, row)
    return row[-1]


def weighted_count(w, n):
    """Total number of w-color compositions of n (all part counts)."""
    return invert_transform(w, checked(n, "n"))[-1]


def invert_transform(w, n_max):
    """First n_max terms (W_1, ..., W_{n_max}) of the invert transform of w.

    Uses the convolution recurrence W_n = w_n + sum_i w_i * W_{n-i} over
    the tuple :func:`require_prefix` hands out, the route
    :func:`weighted_count` takes.
    """
    n_max = checked(n_max, "n_max")
    ws = require_prefix(w, n_max)  # ws[i] = w_{i+1}
    result = []
    for wn in ws:
        # sum_i w_i * W_{n-i}: zip ws with result reversed; map stops at the shorter.
        result.append(wn + sum(map(mul, ws, reversed(result))))
    return result


def _partitions_k(n, k):
    """Nonincreasing k-tuples of positive ints summing to n, for 1 <= k <= n.

    Knuth's Algorithm H (TAOCP Vol. 4A, 7.2.1.4) on one list, so k is not
    bounded by the recursion limit.  From (n-k+1, 1, ..., 1), each step
    moves a unit from the first part to the second while they differ by
    two or more; otherwise it raises the leftmost later part that is two
    or more below the first, sets the parts between to its new value and
    gives the first part the rest.
    """
    if k == 1:
        yield (n,)
        return
    a = [n - k + 1] + [1] * (k - 1) + [-1]  # a[k] = -1 ends the scan below
    while True:
        yield tuple(a[:k])
        if a[1] < a[0] - 1:
            a[0] -= 1
            a[1] += 1
            continue
        j, s = 2, a[0] + a[1] - 1
        while a[j] >= a[0] - 1:
            s += a[j]
            j += 1
        if j == k:
            return
        x = a[j] = a[j] + 1
        for i in range(j - 1, 0, -1):
            a[i] = x
            s -= x
        a[0] = s


def hoggatt_lind_count(w, n, k):
    """k-part weighted composition count by direct partition summation.

    Sums k!/(k_1! ... k_n!) * w_1^{k_1} ... w_n^{k_n} over all k-part
    partitions of n, the k_s counted as runs of equal parts and each w_s
    read from the tuple :func:`require_prefix` hands out.  Exponential in
    n; serves as an oracle for :func:`weighted_count_k`.
    """
    n = checked(n, "n")
    k = checked(k, "k", 1, n)
    ws = require_prefix(w, n)
    total = 0
    for partition in _partitions_k(n, k):
        coeff, term = factorial(k), 1
        for part, run in groupby(partition):
            run_len = len(list(run))
            coeff = _exact_div(coeff, factorial(run_len), "multinomial")
            term *= ws[part - 1] ** run_len
        total += coeff * term
    return total

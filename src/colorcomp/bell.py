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

from math import comb, factorial
from operator import mul

from .errors import DomainError, InputError, InternalError, as_int

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
        d, n = as_int(d, "d"), as_int(n, "n")
        if d < 1:
            raise DomainError(f"d must be >= 1, got {d}")
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


def partial_bell_table(n, x):
    """All values B[(a, b)] for 0 <= b <= a <= n at the point x.

    ``x`` is a sequence with ``x[0]`` playing the role of x_1.  Computed
    bottom-up from B_{0,0} = 1 via

        B_{a,b} = (1/b) * sum_j C(a, j) * x_j * B_{a-j, b-1}.

    Missing (a, b) keys are zero.
    """
    n = as_int(n, "n")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
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

    ``x`` is a sequence with ``x[0]`` = x_1; at least n - k + 1 entries
    are required.  Requires 1 <= k <= n.
    """
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 1 or k < 1 or k > n:
        raise DomainError(f"partial_bell requires 1 <= k <= n, got n={n}, k={k}")
    if len(x) < n - k + 1:
        raise InputError(
            f"partial_bell(n={n}, k={k}) needs {n - k + 1} entries of x, got {len(x)}"
        )
    return partial_bell_table(n, x)[(n, k)]


def require_prefix(w, n):
    """Reject anything but a WeightSeq of at least n entries.

    A plain sequence would be read 0-based where a WeightSeq is 1-based,
    shifting every weight by one.
    """
    if not isinstance(w, WeightSeq):
        raise InputError(f"weights must be a WeightSeq, got {w!r}")
    if n > len(w):
        raise InputError(f"weight prefix of length {len(w)} too short for n={n}")


def weighted_count_k(w, n, k):
    """Number of w-color compositions of n with exactly k parts.

    C_k(n) of the convolution C_i(j) = sum_s w_s * C_{i-1}(j - s), C_0(0) = 1.
    Row i keeps only the cells i <= j <= n - k + i that can still reach n,
    stored at offset j - i.
    """
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 1 or k < 1 or k > n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    require_prefix(w, n)
    width = n - k + 1
    ws = [w[s] for s in range(1, width + 1)]  # ws[t] = w_{t+1}
    row = ws  # C_1(j) = w_j
    for _ in range(k - 1):
        # Offset t sums w_{t+1-u} * row[u] over u <= t; map stops at the shorter slice.
        row = [sum(map(mul, ws[t::-1], row)) for t in range(width)]
    return row[-1]


def weighted_count(w, n):
    """Total number of w-color compositions of n (all part counts)."""
    n = as_int(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return invert_transform(w, n)[-1]


def invert_transform(w, n_max):
    """First n_max terms (W_1, ..., W_{n_max}) of the invert transform of w.

    Uses the convolution recurrence W_n = w_n + sum_i w_i * W_{n-i},
    the route :func:`weighted_count` takes.
    """
    n_max = as_int(n_max, "n_max")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    require_prefix(w, n_max)
    ws = [w[s] for s in range(1, n_max + 1)]  # ws[i] = w_{i+1}
    result = []
    for wn in ws:
        # sum_i w_i * W_{n-i}: zip ws with result reversed; map stops at the shorter.
        result.append(wn + sum(map(mul, ws, reversed(result))))
    return result


def _partitions_k(n, k, max_part):
    """Nonincreasing k-tuples of positive ints summing to n, parts <= max_part."""
    if k == 0:
        if n == 0:
            yield ()
        return
    # Smallest feasible first part is ceil(n / k).
    lo = -(-n // k)
    for first in range(min(n - k + 1, max_part), lo - 1, -1):
        for rest in _partitions_k(n - first, k - 1, first):
            yield (first,) + rest


def hoggatt_lind_count(w, n, k):
    """k-part weighted composition count by direct partition summation.

    Sums k!/(k_1! ... k_n!) * w_1^{k_1} ... w_n^{k_n} over all k-part
    partitions of n.  Exponential in n; serves as an oracle for
    :func:`weighted_count_k`.
    """
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 1 or k < 1 or k > n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    require_prefix(w, n)
    total = 0
    for partition in _partitions_k(n, k, n):
        coeff = factorial(k)
        term = 1
        run_size, run_len = partition[0], 0
        for part in partition + (0,):
            if part == run_size:
                run_len += 1
                continue
            coeff = _exact_div(coeff, factorial(run_len), "multinomial")
            term *= w[run_size] ** run_len
            run_size, run_len = part, 1
        total += coeff * term
    return total

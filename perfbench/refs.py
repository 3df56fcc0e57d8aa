"""Reference results the benchmark checks colorcomp's outputs against.

Nothing here imports colorcomp: every value is recomputed from the
definitions, so a defect in the package cannot hide in its own checker.
"""

from __future__ import annotations

from math import comb

KINDS = ("ones", "mod", "ge")


# --- counting -------------------------------------------------------------

def pd_by_parts(nu, d):
    """Polytopic-color compositions of nu with k parts, k = 1..nu: C(nu+dk-1, nu-k)."""
    return [comb(nu + d * k - 1, nu - k) for k in range(1, nu + 1)]


def pd_total(nu, d):
    return sum(pd_by_parts(nu, d))


def family_total(kind, m, n):
    """Compositions of n with parts in {1, m} ('ones'), = 1 mod m ('mod') or >= m ('ge')."""
    if kind == "ones":
        return sum(comb(n - (m - 1) * j, j) for j in range(n // m + 1))
    if kind == "mod":
        return sum(comb(n - (m - 1) * j - 1, j) for j in range(n // m + 1))
    return sum(comb(n - (m - 1) * k - 1, k - 1) for k in range(1, (n - 1) // (m - 1) + 1))


def graded_counts(weights, n):
    """T[k][s]: w-color compositions of s with exactly k parts, for k, s <= n.

    The k-graded convolution T[k][s] = sum_j w_j * T[k-1][s-j], with
    ``weights[j - 1]`` = w_j.
    """
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for k in range(1, n + 1):
        prev, cur = table[k - 1], table[k]
        for s in range(k, n + 1):
            cur[s] = sum(weights[j - 1] * prev[s - j] for j in range(1, s - k + 2))
    return table


def weighted_total(weights, n):
    table = graded_counts(weights, n)
    return sum(table[k][n] for k in range(1, n + 1))


def weighted_by_parts(weights, n):
    table = graded_counts(weights, n)
    return [table[k][n] for k in range(1, n + 1)]


def invert_prefix(weights, n):
    """(W_1, ..., W_n): all part counts summed, per total."""
    table = graded_counts(weights, n)
    return [sum(table[k][s] for k in range(1, s + 1)) for s in range(1, n + 1)]


# --- words and the part codec ----------------------------------------------

def colex_rank(word, d):
    """1-based colex rank of a 0/1 word with d ones; None if it has another count."""
    n = len(word)
    positions = [n - 1 - i for i, ch in enumerate(word) if ch == "1"]
    if len(positions) != d or len(word) != word.count("0") + d:
        return None
    positions.reverse()
    return 1 + sum(comb(p, j) for j, p in enumerate(positions, start=1))


def decode(word, d):
    """Parts ((size, color), ...) of a codec word, or None if it is malformed.

    Streams the word: inside a part, the first d ones belong to the part's
    own word and the next one ends the part.
    """
    if word.count("1") % (d + 1) != d:
        return None
    parts = []
    start, ones = 0, 0
    for i, ch in enumerate(word + "1"):
        if ch == "1":
            if ones == d:
                segment = word[start:i]
                parts.append((len(segment) - d + 1, colex_rank(segment, d)))
                start, ones = i + 1, 0
            else:
                ones += 1
        elif ch != "0":
            return None
    return tuple(parts)


def word_shape_ok(word, parts, d):
    """Length nu + dk - 1 and (d+1)k - 1 ones, for parts with total nu."""
    k = len(parts)
    nu = sum(s for s, _ in parts)
    return len(word) == nu + d * k - 1 and word.count("1") == (d + 1) * k - 1


def colors_ok(parts, d):
    return all(s >= 1 and 1 <= c <= comb(s + d - 1, d) for s, c in parts)


# --- family images ----------------------------------------------------------

def family_image(word, d, kind):
    """The composition a codec word maps to in the given family."""
    if kind == "ones":
        return tuple(1 if ch == "1" else d + 1 for ch in word)
    if kind == "mod":
        return tuple((d + 1) * len(gap) + 1 for gap in word.split("1"))
    return tuple(len(gap) + d + 1 for gap in word.split("0"))


def family_word(parts, d, kind):
    """Inverse of family_image; None if a part is not in the family."""
    if not in_family(parts, d, kind):
        return None
    if kind == "ones":
        return "".join("1" if p == 1 else "0" for p in parts)
    if kind == "mod":
        return "1".join("0" * ((p - 1) // (d + 1)) for p in parts)
    return "0".join("1" * (p - d - 1) for p in parts)


def in_family(parts, d, kind):
    m = d + 1
    if not parts:
        return False
    if kind == "ones":
        return all(p in (1, m) for p in parts)
    if kind == "mod":
        return all(p >= 1 and p % m == 1 for p in parts)
    return all(p >= m for p in parts)


def family_sum(nu, d, kind):
    """Total of the image of a colored composition of nu."""
    m = d + 1
    return {"ones": m * nu - 1, "mod": m * nu, "ge": m * nu + d}[kind]


# --- verify -----------------------------------------------------------------

def verify_cells(nu_max, d_max):
    """Cells `colorcomp verify --nu-max N --d-max D` must report in total."""
    grid = nu_max * d_max
    per_k = d_max * nu_max * (nu_max + 1) // 2
    phi = sum(min(n, d_max) for n in range(1, nu_max + d_max + 1))
    counts = grid + per_k + grid  # four-way, Bell per k, enumeration sizes
    bijections = 2 * phi + per_k + grid  # phi pair, codec per k, images
    return 13 + counts + bijections  # 13 golden rows

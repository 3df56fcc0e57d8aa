"""The benchmark's workloads: seeded inputs, the timed job, and output checks.

``count-mix`` and ``codec-random`` run as lists of library calls inside one
child process; ``enumerate-map`` and ``verify-sweep`` run the ``colorcomp``
command line.  Every input comes from ``random.Random(seed)``; the package
only ever sees the generated values.  Sizes are drawn by stratified sampling
(one draw from each equal slice of a range) so that two seeds give different
inputs but nearly the same amount of work.  The op list is then shuffled.
"""

from __future__ import annotations

import json
import random
from math import comb
from time import perf_counter
from typing import Callable, NamedTuple

import refs
from colorcomp import bell, closedform, codec
from colorcomp.compgen import ColoredComposition

PARAMS = {
    "count-mix": {
        "pd": 24,
        "pd_by_parts": 8,
        "family": 36,
        "weighted": 40,
        "weighted_by_parts": 24,
        "invert": 28,
        "nu": [300, 1000],
        "d": [2, 12],
        "family_n": [1000, 4000],
        "weighted_n": [30, 70],
        "by_parts_n": [15, 30],
        "invert_n": [30, 70],
        "weight_d": [1, 4],
    },
    "enumerate-map": {"nu": 9, "d": 3, "map_to": "ge", "sample": 200},
    "codec-random": {"ops": 360, "word_n": [100, 2000], "nu": [100, 1000], "d": [1, 8]},
    "verify-sweep": {"nu_max": 8, "d_max": 4},
}
IN_PROCESS = ("count-mix", "codec-random")
WORKLOADS = tuple(PARAMS)


class Op(NamedTuple):
    """One timed call: its latency class, the call, and a check of its output."""

    klass: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Raised(NamedTuple):
    """Stands in for the output of a call that raised."""

    error: str


def _spread(rng, count, lo, hi):
    """``count`` integers covering [lo, hi] evenly: one draw from each equal slice, in slice order."""
    return [int(lo + (hi - lo + 1) * (i + rng.random()) / count) for i in range(count)]


def _fractions(rng, count):
    return [(i + rng.random()) / count for i in range(count)]


def _scramble(values, step=0.6180339887498949):
    """``values`` in a fixed low-discrepancy order.

    Zipping a spread with a scrambled spread pairs the slices of two ranges
    in the same pattern for every seed, so the seed moves each value within
    its slice but not the mix of cheap and costly calls.
    """
    order = sorted(range(len(values)), key=lambda i: (i * step) % 1)
    return [values[i] for i in order]


# --- count-mix ----------------------------------------------------------------

def _weights(rng, n, polytopic, d):
    """A polytopic weight prefix, or a random one in which about 30% of sizes are forbidden."""
    if polytopic:
        return list(bell.WeightSeq.polytopic(d, n))
    return [0 if rng.random() < 0.3 else rng.randint(1, 4) for _ in range(n)]


def count_mix_ops(seed, p):
    rng = random.Random(seed)
    ops = []

    for nu, d in zip(_spread(rng, p["pd"], *p["nu"]), _scramble(_spread(rng, p["pd"], *p["d"]))):
        ops.append(Op(
            "closedform",
            lambda nu=nu, d=d: closedform.count_pd(nu, d),
            lambda out, nu=nu, d=d: out == refs.pd_total(nu, d),
        ))
    count = p["pd_by_parts"]
    for nu, d in zip(_spread(rng, count, *p["nu"]), _scramble(_spread(rng, count, *p["d"]))):
        ops.append(Op(
            "closedform",
            lambda nu=nu, d=d: [closedform.count_pd_k(nu, d, k) for k in range(1, nu + 1)],
            lambda out, nu=nu, d=d: out == refs.pd_by_parts(nu, d),
        ))
    sizes = _spread(rng, p["family"], *p["family_n"])
    ms = [d + 1 for d in _scramble(_spread(rng, p["family"], *p["d"]))]
    for i, (n, m) in enumerate(zip(sizes, ms)):
        kind = refs.KINDS[i % 3]
        family = closedform.Family(kind, m)
        ops.append(Op(
            "closedform",
            lambda family=family, n=n: closedform.count_family(family, n),
            lambda out, kind=kind, m=m, n=n: out == refs.family_total(kind, m, n),
        ))

    def weighted_inputs(count, n_range):
        ns = _spread(rng, count, *n_range)
        ds = _scramble(_spread(rng, count, *p["weight_d"]))
        for i, (n, d) in enumerate(zip(ns, ds)):
            raw = _weights(rng, n, i % 2 == 0, d)
            yield n, raw, bell.WeightSeq(raw)

    for n, raw, w in weighted_inputs(p["weighted"], p["weighted_n"]):
        ops.append(Op(
            "bell",
            lambda w=w, n=n: bell.weighted_count(w, n),
            lambda out, raw=raw, n=n: out == refs.weighted_total(raw, n),
        ))
    for n, raw, w in weighted_inputs(p["weighted_by_parts"], p["by_parts_n"]):
        ops.append(Op(
            "bell",
            lambda w=w, n=n: [bell.weighted_count_k(w, n, k) for k in range(1, n + 1)],
            lambda out, raw=raw, n=n: out == refs.weighted_by_parts(raw, n),
        ))
    for n, raw, w in weighted_inputs(p["invert"], p["invert_n"]):
        ops.append(Op(
            "bell",
            lambda w=w, n=n: bell.invert_transform(w, n),
            lambda out, raw=raw, n=n: out == refs.invert_prefix(raw, n),
        ))
    rng.shuffle(ops)
    return ops


# --- codec-random -------------------------------------------------------------

def _random_colored(rng, nu, d, cut):
    """Parts of a random colored composition of nu: each gap is a cut with probability ``cut``."""
    sizes, size = [], 1
    for _ in range(nu - 1):
        if rng.random() < cut:
            sizes.append(size)
            size = 1
        else:
            size += 1
    sizes.append(size)
    return tuple((s, rng.randint(1, comb(s + d - 1, d))) for s in sizes)


def _random_word(rng, length, ones):
    positions = set(rng.sample(range(length), ones))
    return "".join("1" if i in positions else "0" for i in range(length))


def _check_unrank(out, m, n, d):
    return isinstance(out, str) and len(out) == n and refs.colex_rank(out, d) == m


def _check_encoded(out, parts, d):
    return isinstance(out, str) and refs.word_shape_ok(out, parts, d) and refs.decode(out, d) == parts


def _check_image(out, parts, d, kind):
    nu = sum(s for s, _ in parts)
    if not (isinstance(out, tuple) and refs.in_family(out, d, kind)):
        return False
    if sum(out) != refs.family_sum(nu, d, kind):
        return False
    return refs.decode(refs.family_word(out, d, kind), d) == parts


def _check_decoded(out, word, d):
    return isinstance(out, ColoredComposition) and out.d == d and out.parts == refs.decode(word, d)


def codec_random_ops(seed, p):
    """Half encodes, half decodes; decode inputs are random words, not encoder output."""
    rng = random.Random(seed)
    group = p["ops"] // 6
    ops = []

    def word_sizes():
        for n, f in zip(_spread(rng, group, *p["word_n"]), _scramble(_fractions(rng, group))):
            yield n, 1 + int(f * (n // 4))

    def colored_shapes():
        """(nu, d, f): sizes for a colored composition or a codec word."""
        return zip(
            _spread(rng, group, *p["nu"]),
            _scramble(_spread(rng, group, *p["d"])),
            _scramble(_fractions(rng, group), step=0.41421356237309503),
        )

    for n, d in word_sizes():
        m = rng.randint(1, comb(n, d))
        ops.append(Op("encode", lambda m=m, n=n, d=d: codec.unrank_word(m, n, d),
                      lambda out, m=m, n=n, d=d: _check_unrank(out, m, n, d)))
    for n, d in word_sizes():
        word = _random_word(rng, n, d)
        ops.append(Op("decode", lambda w=word, d=d: codec.rank_word(w, d),
                      lambda out, w=word, d=d: out == refs.colex_rank(w, d)))

    for nu, d, f in colored_shapes():
        parts = _random_colored(rng, nu, d, 0.05 + 0.45 * f)
        alpha = ColoredComposition(d, parts)
        ops.append(Op("encode", lambda a=alpha: codec.to_binary(a),
                      lambda out, parts=parts, d=d: _check_encoded(out, parts, d)))
    for i, (nu, d, f) in enumerate(colored_shapes()):
        kind = refs.KINDS[i % 3]
        parts = _random_colored(rng, nu, d, 0.05 + 0.45 * f)
        alpha = ColoredComposition(d, parts)
        forward = f"map_{kind}_m"
        ops.append(Op("encode", lambda a=alpha, fn=forward: getattr(codec, fn)(a),
                      lambda out, parts=parts, d=d, kind=kind: _check_image(out, parts, d, kind)))

    def codeword(nu, d, f):
        """A random word of a colored composition of nu with k parts: (d+1)k - 1 ones."""
        k = max(1, int(f * nu / 2))
        return _random_word(rng, nu + d * k - 1, (d + 1) * k - 1)

    for nu, d, f in colored_shapes():
        word = codeword(nu, d, f)
        ops.append(Op("decode", lambda w=word, d=d: codec.from_binary(w, d),
                      lambda out, w=word, d=d: _check_decoded(out, w, d)))
    for i, (nu, d, f) in enumerate(colored_shapes()):
        kind = refs.KINDS[i % 3]
        word = codeword(nu, d, f)
        image = refs.family_image(word, d, kind)
        inverse = f"map_{kind}_m_inv"
        ops.append(Op("decode", lambda img=image, d=d, fn=inverse: getattr(codec, fn)(img, d),
                      lambda out, w=word, d=d: _check_decoded(out, w, d)))
    rng.shuffle(ops)
    return ops


OPS = {"count-mix": count_mix_ops, "codec-random": codec_random_ops}


def run_job(ops):
    """Run every op once; returns (wall s, per-op latencies in s, outputs)."""
    latencies, outputs = [], []
    job_start = perf_counter()
    for op in ops:
        start = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed call is counted, the job goes on
            out = Raised(repr(exc))
        latencies.append(perf_counter() - start)
        outputs.append(out)
    return perf_counter() - job_start, latencies, outputs


def passes(op, out):
    """Whether one output is correct; a checker that trips on it counts as a failure."""
    if isinstance(out, Raised):
        return False
    try:
        return bool(op.check(out))
    except Exception:
        return False


# --- command-line workloads -----------------------------------------------------

def cli_argv(workload, p):
    if workload == "enumerate-map":
        return ["list", "colored", "--nu", str(p["nu"]), "--d", str(p["d"]),
                "--map-to", p["map_to"], "--format", "json"]
    return ["verify", "--nu-max", str(p["nu_max"]), "--d-max", str(p["d_max"]), "--format", "json"]


def cli_ops(workload, p):
    """Operations one command performs: rows it must emit, or cells it must check."""
    if workload == "enumerate-map":
        return refs.pd_total(p["nu"], p["d"])
    return refs.verify_cells(p["nu_max"], p["d_max"])


def check_listing(text, p, seed):
    """Failed rows of one JSON listing of ``list colored --map-to``.

    Every row: well-formed, colors in range, parts summing to nu, a word of
    the right shape, an image in the family with the right total, and no
    repeated composition or image.  A seeded sample of rows is also
    round-tripped: image -> word -> parts must give back the row.
    """
    nu, d, kind = p["nu"], p["d"], p["map_to"]
    expected = refs.pd_total(nu, d)
    rows, bad = [], set()
    seen_parts, seen_images = set(), set()
    for i, line in enumerate(text.splitlines()):
        try:
            row = json.loads(line)
            parts = tuple((q["size"], q["color"]) for q in row["parts"])
            word, image = row["word"], tuple(row["image"])
            ok = (
                row["d"] == d
                and sum(s for s, _ in parts) == nu
                and refs.colors_ok(parts, d)
                and refs.word_shape_ok(word, parts, d)
                and refs.in_family(image, d, kind)
                and sum(image) == refs.family_sum(nu, d, kind)
                and parts not in seen_parts
                and image not in seen_images
            )
        except (ValueError, KeyError, TypeError):
            ok, parts, word, image = False, None, None, None
        seen_parts.add(parts)
        seen_images.add(image)
        rows.append((parts, word, image))
        if not ok:
            bad.add(i)
    sample = random.Random(seed).sample(range(len(rows)), min(p["sample"], len(rows)))
    for i in sample:
        parts, word, image = rows[i]
        if i not in bad and (refs.family_word(image, d, kind) != word or refs.decode(word, d) != parts):
            bad.add(i)
    return min(expected, len(bad) + abs(expected - len(rows)))


def check_verify(text, returncode, p):
    """Failed cells of one ``verify --format json`` run: all of them unless the verdict is right."""
    expected = refs.verify_cells(p["nu_max"], p["d_max"])
    try:
        report = json.loads(text)
        ok = (
            returncode == 0
            and report["ok"] is True
            and all(c["passed"] for c in report["checks"])
            and sum(c["cells"] for c in report["checks"]) == expected
        )
    except (ValueError, KeyError, TypeError):
        ok = False
    return 0 if ok else expected


def check_cli(workload, text, returncode, p, seed):
    if workload == "enumerate-map":
        if returncode != 0:
            return cli_ops(workload, p)
        return check_listing(text, p, seed)
    return check_verify(text, returncode, p)

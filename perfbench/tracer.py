"""Per-layer tracing of colorcomp from outside the package.

``Tracer.install`` (or ``with Tracer():``) replaces every public function of the package modules
with a timing wrapper, including the references other modules captured
at import time (``from .closedform import num_colors``, ``cli._MAPS``).
A span opens at each call and, for generators, at each ``next``; its self
time is its duration minus the time of the spans it encloses.  Spans are
folded into per-function totals in memory as they close and written out
by the caller once the traced job ends.  Class constructors and methods
are not wrapped: their time lands in the span that called them.

Only the traced run installs the wrappers; timed runs never do.
"""

from __future__ import annotations

import inspect
import types
from time import perf_counter

import colorcomp
from colorcomp import bell, cli, closedform, codec, compgen, verify

LAYERS = {
    "bell": bell,
    "closedform": closedform,
    "compgen": compgen,
    "codec": codec,
    "verify": verify,
    "cli": cli,
}
_PUBLIC_CLI = ("main", "build_parser")
_MAP_NAMES = tuple(f"map_{kind}_m{inv}" for kind in ("ones", "mod", "ge") for inv in ("", "_inv"))


def _table_cells(n, x):
    """Cells partial_bell_table(n, x) fills: the band a - b <= len(x) - 1."""
    return sum(a - max(1, a - len(x) + 1) + 1 for a in range(1, n + 1))


def _family_terms(family, n):
    m = family.m
    return (n - 1) // (m - 1) if family.kind == "ge" else n // m + 1


def _colored_bits(args):
    alpha = args[0]
    return alpha.total + alpha.d * len(alpha.parts) - 1


def _image_bits(kind):
    """Bits of the word that map_<kind>_m_inv(parts, d) decodes."""

    def bits(args):
        parts, d = args[0], args[1]
        k = len(parts)
        if kind == "ones":
            return k
        if kind == "mod":
            return sum(p - 1 for p in parts) // (d + 1) + k - 1
        return sum(p - d - 1 for p in parts) + k - 1

    return bits


# Counts computed from call arguments: name -> (counter, args -> amount).
_COMPUTED = {
    "bell.partial_bell_table": ("bell.table_cells", lambda a: _table_cells(a[0], a[1])),
    "closedform.count_pd_k": ("closedform.binomial_terms", lambda a: int(a[2] <= a[0])),
    "closedform.count_family": ("closedform.binomial_terms", lambda a: _family_terms(a[0], a[1])),
    "closedform.num_colors": ("closedform.binomial_terms", lambda a: 1),
}
# Bits of the binary word each codec entry point encodes or decodes; counted
# only where the call enters the codec layer, so nested calls are not re-counted.
_WORD_BITS = {
    "codec.unrank_word": lambda a: a[1],
    "codec.rank_word": lambda a: len(a[0]),
    "codec.to_binary": _colored_bits,
    "codec.from_binary": lambda a: len(a[0]),
}
for _kind in ("ones", "mod", "ge"):
    _WORD_BITS[f"codec.map_{_kind}_m"] = _colored_bits
    _WORD_BITS[f"codec.map_{_kind}_m_inv"] = _image_bits(_kind)


class Tracer:
    """Span totals per wrapped function, plus work counters."""

    def __init__(self):
        self.stats = {}  # "layer.func" -> [calls, inclusive s, self s]
        self.counters = dict.fromkeys(
            (
                "bell.table_cells",
                "closedform.binomial_terms",
                "codec.word_bits",
                "compgen.rows",
                "verify.cells",
                "cli.rows_out",
                "cli.bytes_out",
            ),
            0,
        )
        self._distinct_colored = set()
        self._stack = []  # time covered by child spans, one entry per open span
        self._depth = dict.fromkeys(LAYERS, 0)
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _close(self, stat, layer, start):
        elapsed = perf_counter() - start
        children = self._stack.pop()
        self._depth[layer] -= 1
        stat[1] += elapsed
        stat[2] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        computed = _COMPUTED.get(key)
        word_bits = _WORD_BITS.get(key)
        needs_args = computed or word_bits or layer == "verify"
        signature = inspect.signature(fn)
        depth, stack, counters = self._depth, self._stack, self.counters

        def wrapper(*args, **kwargs):
            outermost = depth[layer] == 0
            if needs_args and kwargs:
                args, kwargs = signature.bind(*args, **kwargs).args, {}
            stat[0] += 1
            depth[layer] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stat, layer, start)
            if computed:
                counters[computed[0]] += computed[1](args)
            if word_bits and outermost:
                counters["codec.word_bits"] += word_bits(args)
            if layer == "verify" and outermost:
                counters["verify.cells"] += sum(c.cells for c in result.checks)
            if isinstance(result, types.GeneratorType):
                return self._iterate(layer, name, stat, result)
            return result

        return wrapper

    def _iterate(self, layer, name, stat, gen):
        """Re-yield ``gen``, timing each ``next`` as a span of the generator's function."""
        colored = name == "enum_colored"
        while True:
            self._depth[layer] += 1
            self._stack.append(0.0)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(stat, layer, start)
            self.counters["compgen.rows"] += 1
            if colored:
                self._distinct_colored.add(hash(item))
            yield item

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function, wherever the package holds a reference to it."""
        wrapped = {}
        for layer, module in LAYERS.items():
            names = _PUBLIC_CLI if layer == "cli" else module.__all__
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrapped[fn] = self._wrap(layer, name, fn)
        for module in (colorcomp, *LAYERS.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        self._restore.append((cli, "_MAPS", cli._MAPS))
        cli._MAPS = {k: tuple(wrapped.get(f, f) for f in fns) for k, fns in cli._MAPS.items()}

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def dump(self, wall):
        """JSON-ready totals of one traced job that took ``wall`` seconds."""
        return {
            "wall_s": wall,
            "stats": self.stats,
            "counters": self.counters,
            "distinct_colored": len(self._distinct_colored),
        }


def _layer_sum(stats, layer, column, names=None):
    prefix = layer + "."
    return sum(
        v[column]
        for k, v in stats.items()
        if k.startswith(prefix) and (names is None or k[len(prefix):] in names)
    )


def layer_metrics(dump):
    """Per-layer metrics of one traced job, from ``Tracer.dump`` output."""
    stats, counters, wall = dump["stats"], dump["counters"], dump["wall_s"]

    def self_s(key):
        return stats.get(key, [0, 0.0, 0.0])[2]

    def incl_s(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    out = {}
    for layer in LAYERS:
        layer_self = _layer_sum(stats, layer, 2)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / wall if wall else 0.0
    out["bell.calls"] = _layer_sum(stats, "bell", 0)
    for fn in ("weighted_count", "weighted_count_k", "invert_transform", "partial_bell_table"):
        out[f"bell.{fn}.self_s"] = self_s(f"bell.{fn}")
    out["bell.table_cells"] = counters["bell.table_cells"]
    out["closedform.calls"] = _layer_sum(stats, "closedform", 0)
    for fn in ("count_pd", "count_pd_k", "count_family"):
        out[f"closedform.{fn}.self_s"] = self_s(f"closedform.{fn}")
    out["closedform.binomial_terms"] = counters["closedform.binomial_terms"]
    rows = counters["compgen.rows"]
    compgen_self = out["compgen.self_s"]
    out["compgen.rows"] = rows
    out["compgen.rows_per_s"] = rows / compgen_self if compgen_self else 0.0
    for fn in ("enum_colored", "enum_family"):
        out[f"compgen.{fn}.self_s"] = self_s(f"compgen.{fn}")
    for fn in ("unrank_word", "rank_word", "to_binary", "from_binary"):
        out[f"codec.{fn}.calls"] = calls(f"codec.{fn}")
        out[f"codec.{fn}.self_s"] = self_s(f"codec.{fn}")
    out["codec.maps.self_s"] = _layer_sum(stats, "codec", 2, _MAP_NAMES)
    out["codec.word_bits"] = counters["codec.word_bits"]
    distinct = dump["distinct_colored"]
    out["codec.encodes_per_row"] = calls("codec.to_binary") / distinct if distinct else 0.0
    out["verify.cells"] = counters["verify.cells"]
    for fn in ("golden_tables", "check_counts", "check_phi", "check_bijections"):
        out[f"verify.{fn}.s"] = incl_s(f"verify.{fn}")
    out["cli.rows_out"] = counters["cli.rows_out"]
    out["cli.bytes_out"] = counters["cli.bytes_out"]
    return out

"""Command-line front end: counting, enumeration, rank/unrank, family
maps, and the self-verification suite.

Exit codes: 0 success, 1 domain error or failed check, 2 usage error.
All counts are printed in full decimal.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import bell, closedform, codec, compgen, verify
from .closedform import KINDS, Family
from .compgen import ColoredComposition
from .errors import ColorCompError, InputError

# kind -> (forward map, inverse map): the codec's map_<kind>_m and map_<kind>_m_inv.
_MAPS = {
    kind: (getattr(codec, f"map_{kind}_m"), getattr(codec, f"map_{kind}_m_inv")) for kind in KINDS
}


def _parse_weights(spec, n):
    """Weights from a comma list or a file with one integer per line."""
    if os.path.isfile(spec):
        with open(spec) as fh:
            entries = [line.strip() for line in fh if line.strip()]
    else:
        entries = [tok.strip() for tok in spec.split(",") if tok.strip()]
    try:
        weights = [int(e) for e in entries]
    except ValueError:
        raise InputError(f"weights must be integers, got {entries!r}") from None
    if len(weights) < n:
        raise InputError(f"need at least {n} weights, got {len(weights)}")
    return bell.WeightSeq(weights)


def _parse_composition(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InputError(f"bad composition {text!r}, expected comma-separated ints") from None


def _print_count(args, n, count_k, count, *fixed):
    """Print count_k(*fixed, k) for k in 1..n (--by-parts) or at --k, else count(*fixed)."""
    if args.by_parts:
        if n < 1:
            count(*fixed)  # raises the DomainError the total gives for this n
        print(" ".join(f"k={k}:{count_k(*fixed, k)}" for k in range(1, n + 1)))
    elif args.k is not None:
        print(count_k(*fixed, args.k))
    else:
        print(count(*fixed))


def _cmd_count(args):
    if args.what == "pd":
        _print_count(args, args.nu, closedform.count_pd_k, closedform.count_pd, args.nu, args.d)
    elif args.what == "family":
        print(closedform.count_family(Family(args.kind, args.m), args.n))
    else:  # weighted
        w = _parse_weights(args.weights, args.n)
        _print_count(args, args.n, bell.weighted_count_k, bell.weighted_count, w, args.n)
    return 0


def _emit_colored_row(alpha, word, image, fmt, writer):
    if fmt == "json":
        # Every value is an int or a 0/1 string, so this is json.dumps's text.
        parts = ", ".join([f'{{"size": {s}, "color": {c}}}' for s, c in alpha.parts])
        line = f'{{"parts": [{parts}], "d": {alpha.d}'
        if word is not None:
            line += f', "word": "{word}"'
        if image is not None:
            line += f', "image": [{", ".join(map(str, image))}]'
        print(line + "}")
        return
    fields = [str(alpha)]
    if word is not None:
        fields.append(word)
    if image is not None:
        fields.append(",".join(str(p) for p in image))
    if fmt == "csv":
        writer.writerow(fields)
    else:
        print(" | ".join(fields))


def _cmd_list(args):
    fmt = args.format
    writer = csv.writer(sys.stdout) if fmt == "csv" else None
    if args.what == "colored":
        kind = args.map_to
        if args.with_word or kind is not None:
            rows = codec.enum_words(args.nu, args.d, args.k)
        else:
            rows = ((alpha, None) for alpha in compgen.enum_colored(args.nu, args.d, args.k))
        for alpha, word in rows:
            image = codec.image_of_word(kind, word, args.d) if kind else None
            _emit_colored_row(alpha, word, image, fmt, writer)
    else:  # family
        family = Family(args.kind, args.m)
        for parts in compgen.enum_family(family, args.n):
            if fmt == "json":
                print(json.dumps({"parts": list(parts)}))
            elif fmt == "csv":
                writer.writerow([",".join(str(p) for p in parts)])
            else:
                print(",".join(str(p) for p in parts))
    return 0


def _cmd_rank(args):
    print(codec.rank_word(args.word, args.d))
    return 0


def _cmd_unrank(args):
    print(codec.unrank_word(args.m, args.n, args.d))
    return 0


def _cmd_map(args):
    forward, inverse = _MAPS[args.to]
    if args.inverse:
        alpha = inverse(_parse_composition(args.input), args.d)
        print(str(alpha))
    else:
        alpha = ColoredComposition.parse(args.input, args.d)
        print(",".join(str(p) for p in forward(alpha)))
    return 0


def _cmd_verify(args):
    report = verify.golden_tables()
    report.merge(verify.check_counts(args.nu_max, args.d_max))
    report.merge(verify.check_bijections(args.nu_max, args.d_max))
    if args.format == "json":
        print(report.to_json(grid={"nu_max": args.nu_max, "d_max": args.d_max}))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colorcomp",
        description="Count, enumerate, rank/unrank, and map colored integer compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact counts")
    count_sub = p_count.add_subparsers(dest="what", required=True)
    c_pd = count_sub.add_parser("pd", help="polytopic-color compositions")
    c_pd.add_argument("--nu", type=int, required=True)
    c_pd.add_argument("--d", type=int, required=True)
    k_or_all = c_pd.add_mutually_exclusive_group()
    k_or_all.add_argument("--k", type=int)
    k_or_all.add_argument("--by-parts", action="store_true")
    c_fam = count_sub.add_parser("family", help="restricted composition families")
    c_fam.add_argument("--kind", choices=sorted(KINDS), required=True)
    c_fam.add_argument("--m", type=int, required=True)
    c_fam.add_argument("--n", type=int, required=True)
    c_w = count_sub.add_parser("weighted", help="general weighted compositions")
    c_w.add_argument("--n", type=int, required=True)
    c_w.add_argument("--weights", required=True, help="comma list or file path")
    k_or_all = c_w.add_mutually_exclusive_group()
    k_or_all.add_argument("--k", type=int)
    k_or_all.add_argument("--by-parts", action="store_true")

    p_list = sub.add_parser("list", help="enumerate in canonical order")
    list_sub = p_list.add_subparsers(dest="what", required=True)
    l_col = list_sub.add_parser("colored")
    l_col.add_argument("--nu", type=int, required=True)
    l_col.add_argument("--d", type=int, required=True)
    l_col.add_argument("--k", type=int)
    l_col.add_argument("--with-word", action="store_true")
    l_col.add_argument("--map-to", choices=sorted(KINDS))
    l_col.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    l_fam = list_sub.add_parser("family")
    l_fam.add_argument("--kind", choices=sorted(KINDS), required=True)
    l_fam.add_argument("--m", type=int, required=True)
    l_fam.add_argument("--n", type=int, required=True)
    l_fam.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    p_rank = sub.add_parser("rank", help="binary word -> rank")
    p_rank.add_argument("--word", required=True)
    p_rank.add_argument("--d", type=int, required=True)

    p_unrank = sub.add_parser("unrank", help="rank -> binary word")
    p_unrank.add_argument("--m", type=int, required=True)
    p_unrank.add_argument("--n", type=int, required=True)
    p_unrank.add_argument("--d", type=int, required=True)

    p_map = sub.add_parser("map", help="family bijections and inverses")
    p_map.add_argument("--to", choices=sorted(KINDS), required=True)
    p_map.add_argument("--d", type=int, required=True)
    p_map.add_argument("--input", required=True)
    p_map.add_argument("--inverse", action="store_true")

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    p_verify.add_argument("--nu-max", type=int, default=8)
    p_verify.add_argument("--d-max", type=int, default=4)
    p_verify.add_argument("--format", choices=("plain", "json"), default="plain")

    return parser


_HANDLERS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "rank": _cmd_rank,
    "unrank": _cmd_unrank,
    "map": _cmd_map,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except ColorCompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (``colorcomp list ... | head``): stop
        # quietly.  Pointing stdout at /dev/null keeps the interpreter's final
        # flush of the rows still buffered from failing a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())

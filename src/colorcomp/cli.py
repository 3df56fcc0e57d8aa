"""Command-line front end: counting, enumeration, rank/unrank, family
maps, and the self-verification suite.

Exit codes: 0 success, 1 domain error, failed check or interrupt, 2 usage
error.  All counts are printed in full decimal.  Listings write each row
with one ``write`` (or csv ``writerow``) call; ``list colored`` writes one
block of rows that differ only in the last color at a time, so what
depends on the other parts is formatted and encoded once per block.
"""

from __future__ import annotations

import argparse
import csv
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


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _parse_weights(spec):
    """Weights from a comma list or a file with one integer per line.

    A spec that names an existing path, or that has no comma and is not an
    integer, is a file, so a missing file or a directory is a read error.
    Every entry is one weight, so an empty entry is an error rather than
    skipped; only blank lines at the end of a file are dropped.
    """
    if os.path.exists(spec) or ("," not in spec and not _is_int(spec)):
        try:
            with open(spec) as fh:
                entries = fh.read().rstrip().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read weights file {spec!r}: {exc}") from None
    else:
        entries = spec.split(",")
    weights = []
    for i, entry in enumerate(entries, 1):
        try:
            weights.append(int(entry))
        except ValueError:
            raise InputError(f"weight {i} must be an integer, got {entry!r}") from None
    return bell.WeightSeq(weights)


def _parse_composition(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
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
        w = _parse_weights(args.weights)
        _print_count(args, args.n, bell.weighted_count_k, bell.weighted_count, w, args.n)
    return 0


def _row_writer(fmt):
    """A function writing one ``list colored`` row in ``fmt`` with one call.

    Its arguments are the row's fields: the composition, then its word and
    its image's parts, already joined by the format's separator, where the
    row has them.  Plain rows join the fields with " | " and csv rows are
    ``csv.writer``'s; for json, the composition is the object up to "d".
    """
    write = sys.stdout.write
    if fmt == "json":
        # Every value is an int or a 0/1 string, and a list of ints prints
        # as json.dumps prints it, so this is json.dumps's text.
        def row(text, word=None, image=None):
            if image is not None:
                write(f'{text}, "word": "{word}", "image": [{image}]}}\n')
            elif word is not None:
                write(f'{text}, "word": "{word}"}}\n')
            else:
                write(text + "}\n")

        return row
    if fmt == "csv":
        writerow = csv.writer(sys.stdout).writerow
        return lambda *fields: writerow(fields)
    return lambda *fields: write(" | ".join(fields) + "\n")


def _write_colored(args):
    """Write the rows of ``list colored`` one block of ``compgen._blocks`` at a time.

    The rows of a block share every part but the last, so the head's text,
    joined from a table of part texts, and its parts' words, each followed
    by its separating '1' (the ``prefix``), are built once per block; a row
    adds its last part and its word from the table of part words.  A
    block's colors stay a range.

    With ``--map-to`` the word is split at the family's cut letter, with
    image(X + cut + Y) == image(X) + image(Y): the image of the prefix up
    to its last cut letter is formatted once per block, and a row adds the
    image of the rest of its word, from a table keyed by (rest of the
    prefix, last size, last color).  No row calls ``codec.image_of_word``;
    the identity is a property test in ``tests/test_closedform.py``, and
    the rows of the benchmark's listing are held to ``image_of_word`` by
    ``tests/test_cli.py``.
    """
    fmt, kind = args.format, args.map_to
    d, blocks = compgen._blocks(args.nu, args.d, args.k)
    words = codec._part_words(d) if args.with_word or kind else None
    row = _row_writer(fmt)
    if fmt == "json":
        sep, texts = ", ", codec._Table(lambda s, c: f'{{"size": {s}, "color": {c}}}, ')
    else:
        sep, texts = ",", codec._Table(lambda s, c: f"{s}^{c},")
    if kind:
        rules, m = closedform.FAMILIES[kind], d + 1
        cut, image = rules.cut, rules.image
        tails = codec._Table(
            lambda rest, last, c: sep.join(map(str, image(rest + words[last, c], m)))
        )
    for head, last, colors in blocks:
        left = "".join([texts[part] for part in head])
        if fmt == "json":
            left, right = f'{{"parts": [{left}{{"size": {last}, "color": ', f'}}], "d": {d}'
        else:
            left, right = f"{left}{last}^", ""
        if words is None:
            for c in colors:
                row(f"{left}{c}{right}")
            continue
        prefix = "".join([words[part] + "1" for part in head])
        if not kind:
            for c in colors:
                row(f"{left}{c}{right}", prefix + words[last, c])
            continue
        # j is -1 where the prefix holds no cut letter (never for ''), and
        # rest is then the whole prefix.
        j = prefix.rfind(cut)
        head_image = "".join([f"{p}{sep}" for p in image(prefix[:j], m)]) if j >= 0 else ""
        rest = prefix[j + len(cut) :]
        for c in colors:
            row(f"{left}{c}{right}", prefix + words[last, c], head_image + tails[rest, last, c])


def _cmd_list(args):
    if args.what == "colored":
        _write_colored(args)
        return 0
    fmt = args.format
    write, writerow = sys.stdout.write, csv.writer(sys.stdout).writerow
    for parts in compgen.enum_family(Family(args.kind, args.m), args.n):
        if fmt == "json":
            # A list of ints prints as json.dumps prints it.
            write(f'{{"parts": {list(parts)}}}\n')
        elif fmt == "csv":
            writerow((",".join(map(str, parts)),))
        else:
            write(",".join(map(str, parts)) + "\n")
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
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact decimal at any size, not just 4300 digits
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except ColorCompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: value too large for this machine ({exc})", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
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

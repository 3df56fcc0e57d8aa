"""Command-line front end: counting, enumeration, rank/unrank, family
maps, and the self-verification suite.

Exit codes: 0 success, 1 domain error, failed check or interrupt, 2 usage
error.  All counts are printed in full decimal.  Listings hand their rows
to stdout in batches of ``_BATCH_ROWS`` or more per ``write``; ``list
colored`` makes one block of rows that differ only in the last color at
a time, and recomputes what the other parts give a row only from the
leftmost part that moved since the previous block.
"""

import argparse
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


# The rows a listing hands to one ``sys.stdout.write``, at least: enough that
# the call costs little per row, few enough that the first rows go out at once.
_BATCH_ROWS = 64


class _Batch(list):
    """The texts of rows on their way to stdout, written together by ``flush``.

    A listing appends its rows (a ``csv.writer`` writes into the batch
    through ``write``) and flushes once ``_BATCH_ROWS`` or more wait.
    Leaving the ``with`` block flushes what is left, on a return and on
    every exception but a closed pipe, so no row made before an error or
    an interrupt is lost.
    """

    def __init__(self):
        super().__init__()
        self.write = self.append

    def flush(self):
        sys.stdout.write("".join(self))
        self.clear()

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if not isinstance(exc, BrokenPipeError):
            self.flush()


def _write_colored(args):
    """Write the rows of ``list colored`` one block of ``compgen._blocks`` at a time.

    The rows of a block share every part but the last, its head.  What the
    head gives a row is kept on a stack, one entry per head part: the
    head's text so far; its words so far, each followed by its separating
    '1' (the ``prefix``); the formatted image of the prefix up to its last
    cut letter, and the ``rest`` of the prefix after that letter.  A block
    drops the entries from the leftmost head part that moved since the
    previous block and pushes them anew, each one step from the entry
    below it.

    The cut letter of a family has image(X + cut + Y) == image(X) +
    image(Y), so a part appended to a head changes its image and rest only
    as ``(rest, part)`` says: that step is a table.  A row ends with its
    last part's word, the image of the rest and that word, and a line end;
    ``ends[rest, last]``, read once per block, is the table of those row
    ends by the last color.  No block or row calls the family's ``image``
    on its head, or ``codec.image_of_word``.  The identity is a property
    test in ``tests/test_closedform.py``, and ``tests/test_cli.py`` holds
    the benchmark's rows to ``image_of_word``.  Without ``--map-to`` the
    rows read a null family, whose cut letter is '' and whose images are
    empty, so every form takes the same steps and row ends.

    A json or plain row is one text: the head's and last part's text up to
    the color, the color, the prefix and the row end.  The stack's first
    entry holds the separators that open the word and the image, so a
    field the row lacks is empty, separators and all.  A csv row is its
    fields through ``csv.writer``, which ends the row itself.  Four loops
    write the rows, (json or plain, csv) by (no word, word), so a row
    without a word reads no row end.  Rows go out through a ``_Batch``.  A
    block's colors stay a range, cut into slices of ``_BATCH_ROWS`` where
    longer, so its first rows go out before the last are made.
    """
    fmt, kind = args.format, args.map_to
    d, blocks = compgen._blocks(args.nu, args.d, args.k)
    fields = 1 + bool(args.with_word or kind) + bool(kind)  # text, word, image
    words = codec._part_words(d)
    if fmt == "json":
        # Every value is an int or a 0/1 string, and a list of ints prints
        # as json.dumps prints it, so this is json.dumps's text.
        sep, text_of = ", ", lambda s, c: f'{{"size": {s}, "color": {c}}}, '
        opening = f'}}], "d": {d}' + ', "word": "' * (fields > 1), '", "image": [' * (fields > 2)
        top, end = ('{"parts": [', *opening, ""), ("}\n", '"}\n', "]}\n")[fields - 1]
    else:
        sep, text_of = ",", lambda s, c: f"{s}^{c},"
        opening = ("", "") if fmt == "csv" else (" | " * (fields > 1), " | " * (fields > 2))
        top, end = ("", *opening, ""), "\n" * (fmt != "csv")  # csv.writer ends its rows
    rules, m = closedform.FAMILIES.get(kind), d + 1
    cut, image = (rules.cut, rules.image) if rules else ("", lambda beta, m: ())

    def step(rest, size, color):
        """(text, word and '1', image text, rest): what a part adds to a head with ``rest``."""
        text, word = text_of(size, color), (words[size, color] + "1" if fields > 1 else "")
        # j is -1 where the rest and word hold no cut letter (never for '').
        # Equal rests and image texts are interned to one string each, which
        # keeps the two tables they key or fill small.
        word_rest = rest + word
        j = word_rest.rfind(cut)
        if j < 0:
            return text, word, "", sys.intern(word_rest)
        cut_image = "".join([f"{p}{sep}" for p in image(word_rest[:j], m)])
        return text, word, sys.intern(cut_image), sys.intern(word_rest[j + len(cut) :])

    def row_end(rest, last, c):
        """(word, image text and line end): what a last part adds to a head with ``rest``."""
        word = words[last, c]
        return word, sep.join(map(str, image(rest + word, m))) + end

    steps = codec._Table(step)
    ends = codec._Table(lambda rest, last: codec._Table(lambda c: row_end(rest, last, c)))
    stack = [top]  # (text, prefix, image text, rest) after each head part
    with _Batch() as out:
        add, batch = out.append, _BATCH_ROWS
        if fmt == "csv":
            import csv  # here and in ``list family`` only: no other command writes csv
            writerow = csv.writer(out).writerow
        for moved, head, last, colors in blocks:
            del stack[moved + 1 :]
            text, prefix, img, rest = stack[-1]
            for size, color in head[moved:]:
                t, w, im, rest = steps[rest, size, color]
                text, prefix, img = text + t, prefix + w, img + im
                stack.append((text, prefix, img, rest))
            left = f'{text}{{"size": {last}, "color": ' if fmt == "json" else f"{text}{last}^"
            row_ends = ends[rest, last]
            n = len(colors)
            for chunk in (colors,) if n <= batch else (
                colors[i : i + batch] for i in range(0, n, batch)
            ):
                if fmt != "csv":
                    if fields == 1:
                        for c in chunk:
                            add(f"{left}{c}{prefix}{end}")
                    else:
                        for c in chunk:
                            w, tail = row_ends[c]
                            add(f"{left}{c}{prefix}{w}{img}{tail}")
                elif fields == 1:
                    for c in chunk:
                        writerow((f"{left}{c}",))
                else:
                    for c in chunk:
                        w, tail = row_ends[c]
                        writerow((f"{left}{c}", prefix + w, img + tail)[:fields])
                if len(out) >= batch:
                    out.flush()


def _cmd_list(args):
    if args.what == "colored":
        _write_colored(args)
        return 0
    fmt = args.format
    with _Batch() as out:
        if fmt == "csv":
            import csv
            writerow = csv.writer(out).writerow
        for parts in compgen.enum_family(Family(args.kind, args.m), args.n):
            if fmt == "json":
                # A list of ints prints as json.dumps prints it.
                out.append(f'{{"parts": {list(parts)}}}\n')
            elif fmt == "csv":
                writerow((",".join(map(str, parts)),))
            else:
                out.append(",".join(map(str, parts)) + "\n")
            if len(out) >= _BATCH_ROWS:
                out.flush()
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
    l_col.add_argument(
        "--with-word", action="store_true", help="also write each row's binary codeword"
    )
    l_col.add_argument(
        "--map-to",
        choices=sorted(KINDS),
        help="also write each row's codeword, with or without --with-word, and then its "
        "image in this family: parts in {1, d+1} (ones), parts = 1 mod d+1 (mod) or "
        "parts >= d+1 (ge)",
    )
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

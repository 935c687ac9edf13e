"""Command-line surface for every computation and verification path.

An argv is ``COMMAND ARGS [options]``.  The table ``_COMMANDS`` holds
each command (``bell N``, ``stirling N``, ``shift-poly J``, ``verify P M``,
``orbits P M``, ``bell-mod P N``) and its options, beside the common
``--format {tsv,json-lines}``, ``--depth`` and ``--cap``; it drives both
the one pass that reads an argv and the ``--help`` text.  After the
command, never before it, a word that starts with ``--`` is an option,
as ``--opt value`` or ``--opt=value`` and spelled in full (``--cross``
is not ``--cross-check``); a repeated option keeps its last value.  An
option's value is the next word, whatever it is, so ``--depth -1`` is
read and then refused by the depth check.  Every other word is an int
positional, so ``bell -1`` reaches the command's own check ("must be
>= 0").  Ints are read by ``int()``.  ``-h`` or ``--help``, in place of
the command or anywhere after it, writes that help to stdout and exits 0.

``--depth`` bounds the largest exact-table index that ``bell``,
``stirling``, ``shift-poly`` and ``verify`` build, and ``bell-mod``'s
seed triangle and ``--cross-check`` table; ``--cap`` alone bounds
``orbits``, whose B_n has n at most the cap.  TSV is tab-separated with
a single ``#``-prefixed header line; JSON-lines emits one object per
line, whose index columns ``n``, ``k``, ``r`` and ``residue`` are
numbers and every other value a string (B_0 is ``"1"``).  Output is
deterministic: the same flags always produce byte-identical bytes.

Exit codes are load-bearing: 0 = all checks passed, 1 = a mathematical
counterexample was found, 2 = usage or configuration error, 3 = internal
error (the traceback goes to stderr), 141 = the reader of stdout went
away (the status a shell reports for a writer killed by SIGPIPE).  A
usage error, in the argv or past it, is refused before any work, with
one ``error:`` line on stderr and nothing on stdout, in the words of the
check that owns the limit, as in
``error: n=16 exceeds the enumeration cap of 12``.  Every exit 1 writes
one ``counterexample:`` line on stderr naming the failed check and both
its values; ``orbits`` checks its total against B_n too.  ``main`` alone
maps a command's outcome (that line's text, or ``None``) to a code.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import chain, count, islice, repeat, starmap
from types import SimpleNamespace

from .exact import build_bell_binomial, build_binomials, stirling_rows
from .modular import (
    PrimePower,
    _residue_blocks,
    bell_prime_power_residue,
    reduce_shift_poly,
    touchard_check,
)
from .partitions import DEFAULT_ENUMERATION_CAP, SetPartition, orbit_decomposition
from .shiftpoly import shift_poly_closed, shift_poly_recursive

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

DEFAULT_TABLE_DEPTH = 200


class UsageError(Exception):
    pass


# lines per write: a wide row (a Bell number runs to thousands of digits)
# is held only as its line, and at most this many lines at once; 16 wrote
# slower, and 64 raised the peak RSS of bell 1000 --cross-check
_LINES = 32
# records per write in the residue form: a power of ten, so that all but
# the top digits of a block's indices are the same in every block
_RECORDS = 1000
_PAD = b"\0"


def _emit(fields: tuple[str, ...], rows, fmt: str, *, modulus: int | None = None) -> None:
    """Write ``rows`` to stdout.

    This is the one writer of stdout, and each value it writes is an
    ``int`` or a ``str``.  TSV starts with a ``#``-prefixed header line
    and writes each value as ``str(v)``.  A json-lines row is byte for
    byte ``json.dumps`` of the dict from ``fields`` to the row: a ``str``
    is a JSON string and an ``int`` a JSON number, so a caller passes a
    big integer as its decimal ``str``.  ``json`` is imported here, so a
    TSV run never loads it.  ``rows`` may be any iterable and is consumed
    once, each row formatted through one line template as it is taken,
    so that only its line outlives it, and the lines written ``_LINES`` =
    32 at a time.

    With ``modulus=p``, ``rows`` are the residues r_0, r_1, ... in [0, p)
    in blocks, as ``modular._residue_blocks`` yields them: memoryviews of
    lanes of ``itemsize`` bytes.  The bytes are those of
    ``enumerate(residues)`` under the two ``fields``, written
    ``_RECORDS`` = 1000 rows at a time.  Each row of a write is a record
    of one fixed width: the line template with its index and residue
    widened to fixed-width fields, the digits of each right-aligned and
    the rest padded with NUL bytes.  A bytearray of the block's records
    is filled from the template, and each digit column is placed by one
    strided slice assignment: the index's top digits are in the
    template, its last three come from tables of 1000 (with pads in the
    first block, so 7 is not 007), and each residue digit is
    ``bytes.translate`` of one byte per residue through a 256-entry
    table.  One ``replace`` drops the pads and the block is written.
    """
    if fmt == "tsv":
        sys.stdout.write("#" + "\t".join(fields) + "\n")
        line = "\t".join(["{}"] * len(fields)) + "\n"
    else:
        from json.encoder import encode_basestring_ascii as quote

        line = "{{" + ", ".join(quote(f) + ": {}" for f in fields) + "}}\n"
        if modulus is None:
            # an int goes through the template as json.dumps writes it
            rows = ([quote(v) if type(v) is str else v for v in row] for row in rows)

    if modulus is None:
        lines = starmap(line.format, rows)
        while text := "".join(islice(lines, _LINES)):
            sys.stdout.write(text)
        return
    records = _residue_records(line.format("\0", "\0").encode(), modulus)
    pending = bytearray()  # lanes not yet written, fewer than one write's
    start = 0  # the index of the first row in pending
    for block in rows:
        w = block.itemsize
        pending += block
        while len(pending) >= _RECORDS * w:
            sys.stdout.write(records(pending[: _RECORDS * w], w, start))
            del pending[: _RECORDS * w]
            start += _RECORDS
    if pending:
        sys.stdout.write(records(pending, w, start))


def _residue_records(line: bytes, p: int):
    """The residue form's writer for modulus ``p``: ``records(lanes, w,
    start)`` is the text of rows start, start + 1, ... whose residues are
    ``lanes``, one per ``w`` bytes in native byte order, for ``start`` a
    multiple of ``_RECORDS``.  ``line`` is the line template with a NUL
    for the index and one for the residue.

    A residue digit is a pad where the residue has no digit of that place
    (any place but the units).  Up to p = 256 every digit is
    ``translate``d from the low byte of the residue's lane.  Past that,
    low digits are split off until the rest fits a byte: each split takes
    r // 10 as (r * magic) >> shift in lanes twice as wide, where
    r * magic fits, and leaves a code per lane, the digit plus 10 when
    r // 10 > 0, from which a table tells a leading zero from a zero.
    """
    head, sep, end = line.split(b"\0")
    order = sys.byteorder
    width = len(str(p - 1))  # the residue's digits
    split = 0  # low digits split off before the rest fits a byte
    while (p - 1) // 10**split > 255:
        split += 1
    # per digit place k, its character for each byte value: of the rest,
    # whose units are place ``split``, high place first; then of the codes
    # split off, low place first
    rest_tables = [
        bytes(_PAD[0] if k and v < 10**i else 48 + v // 10**i % 10 for v in range(256))
        for k, i in zip(range(width - 1, split - 1, -1), range(width - 1 - split, -1, -1))
    ]
    code_tables = [
        bytes(_PAD[0] if k and not c else 48 + c % 10 for c in range(256)) for k in range(split)
    ]

    digits = len(str(_RECORDS)) - 1  # the index digits below its top ones
    index = []  # per place, high first: the column in a later block and in the first
    for i in range(digits - 1, -1, -1):
        column = b"".join(bytes([48 + d]) * 10**i for d in range(10)) * (_RECORDS // 10 ** (i + 1))
        index.append((column, _PAD * 10**i + column[10**i :] if i else column))

    def relane(lanes, w, to):
        # each lane of w bytes as a lane of ``to``: its low bytes, zero-extended
        keep = min(w, to)
        out = bytearray(len(lanes) // w * to)
        src, dst = (0, 0) if order == "little" else (w - keep, to - keep)
        for b in range(keep):
            out[dst + b :: to] = lanes[src + b :: w]
        return out

    def residue_columns(lanes, w):
        k, wide, shift = len(lanes) // w, 2 * w, 8 * w + 3
        low_digits = []
        for table in code_tables:
            ones = int.from_bytes((1).to_bytes(wide, order) * k, order)
            r = int.from_bytes(relane(lanes, w, wide), order)  # each r < 2^(8w-1)
            q = (r * ((1 << shift) // 10 + 1) >> shift) & ones * ((1 << 8 * w - 3) - 1)
            q_nonzero = (q + ones * ((1 << 8 * w - 4) - 1)) >> 8 * w - 4 & ones
            code = (r - 10 * (q - q_nonzero)).to_bytes(wide * k, order)
            low_digits.append(relane(code, wide, 1).translate(table))
            lanes = relane(q.to_bytes(wide * k, order), wide, w)
        rest = relane(lanes, w, 1)
        return [rest.translate(table) for table in rest_tables] + low_digits[::-1]

    def records(lanes, w, start):
        top = str(start // _RECORDS).encode() if start else b""
        template = head + top + _PAD * digits + sep + _PAD * width + end
        out = bytearray(template) * (len(lanes) // w)
        at = len(head) + len(top)
        for i, (column, first) in enumerate(index):
            out[at + i :: len(template)] = (column if start else first)[: len(lanes) // w]
        at += digits + len(sep)
        for i, column in enumerate(residue_columns(lanes, w)):
            out[at + i :: len(template)] = column
        return out.replace(_PAD, b"").decode("ascii")

    return records


def _report(ns: SimpleNamespace, rows: list[tuple], failure: str | None) -> str | None:
    rows.append(("status", "ok" if failure is None else "counterexample"))
    _emit(("record", "value"), ((record, str(value)) for record, value in rows), ns.format)
    return failure


def _need_depth(ns: SimpleNamespace, needed: int, what: str) -> None:
    if needed < 0:
        raise UsageError(f"{what} needs table index {needed}, which must be >= 0")
    if needed > ns.depth:
        raise UsageError(
            f"{what} needs table index {needed}, above the configured depth {ns.depth}; "
            "raise --depth"
        )


def _checked(call, *args):
    """``call(*args)``, a ``ValueError`` made a usage error: only for calls
    that check their arguments before any work, so a fault in work exits 3."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(str(exc))


def _power(pp: PrimePower, limit: int, refusal: str) -> int:
    """p^m, refused before it is formed if m is past the bit length of
    ``limit`` (p^m >= 2^m), since a huge power is slow to build and print."""
    if pp.m > limit.bit_length():
        raise UsageError(refusal)
    return pp.value


def cmd_bell(ns: SimpleNamespace) -> str | None:
    _need_depth(ns, ns.n, f"bell {ns.n}")
    table = build_bell_binomial(ns.n)
    if ns.cross_check:
        # a row is summed as it is yielded, so no name holds it while the next is built
        for n, other in enumerate(map(sum, stirling_rows(ns.n))):
            if other != table[n]:
                return f"recurrences disagree at n={n}: {table[n]} != {other}"
    _emit(("n", "bell"), enumerate(map(str, table)), ns.format)
    return None


def cmd_stirling(ns: SimpleNamespace) -> None:
    _need_depth(ns, ns.n, f"stirling {ns.n}")
    records = map(_stirling_records, count(), stirling_rows(ns.n))
    _emit(("n", "k", "value"), chain.from_iterable(records), ns.format)


def _stirling_records(n: int, row: tuple[int, ...]):
    # no frame keeps ``row``: the records hold it only through an iterator
    # that lets go of it once the row is written, before the next is built
    return zip(repeat(n), count(), map(str, row))


def cmd_shift_poly(ns: SimpleNamespace) -> str | None:
    _need_depth(ns, ns.j, f"shift-poly {ns.j}")
    closed = shift_poly_closed(ns.j, build_bell_binomial(ns.j), build_binomials(ns.j))
    if ns.check_recursive:
        recursive = shift_poly_recursive(ns.j)
        _emit(
            ("r", "closed", "recursive"),
            zip(range(ns.j + 1), map(str, closed), map(str, recursive)),
            ns.format,
        )
        if closed != recursive:
            return f"construction paths disagree for shift {ns.j}"
    else:
        _emit(("r", "coefficient"), enumerate(map(str, closed)), ns.format)
    return None


def cmd_verify(ns: SimpleNamespace) -> str | None:
    pp = _checked(PrimePower, ns.p, ns.m)
    what = f"verify {pp.p} {pp.m}"
    # touchard_check checks the range too, but only after the table is built
    if ns.n_lo < 1 or ns.n_lo > ns.n_hi:
        raise UsageError(f"need 1 <= n_lo <= n_hi, got [{ns.n_lo}, {ns.n_hi}]")
    q = _power(pp, ns.depth, f"{what}: {pp.p}^{pp.m} is above the configured depth")
    _need_depth(ns, ns.n_hi + q, what)
    bell = build_bell_binomial(ns.n_hi + q)
    bad = touchard_check(pp, ns.n_lo, ns.n_hi, bell)
    predicted = bell_prime_power_residue(pp)
    actual = reduce_shift_poly(pp, bell)
    rows = [
        ("p", pp.p),
        ("m", pp.m),
        ("prime_power", pp.value),
        ("n_lo", ns.n_lo),
        ("n_hi", ns.n_hi),
        ("checked", ns.n_hi - ns.n_lo + 1),
        ("counterexample_count", len(bad)),
    ]
    found = [f"n={n} lhs={lhs} rhs={rhs}" for n, lhs, rhs in bad]
    rows.extend(("counterexample", text) for text in found)
    rows.extend([("predicted_residue", predicted), ("actual_residue", actual)])
    failure = None
    if found:
        failure = f"Touchard's congruence fails at {found[0]}"
    elif predicted != actual:
        failure = f"B_{pp.value} mod {pp.p} is {actual}, predicted {predicted}"
    return _report(ns, rows, failure)


def cmd_orbits(ns: SimpleNamespace) -> str | None:
    pp = _checked(PrimePower, ns.p, ns.m)
    n = _power(pp, ns.cap, f"n={pp.p}^{pp.m} exceeds the enumeration cap of {ns.cap}")
    hist: dict[int, int] = {}  # orbit size -> orbit count
    fixed = []
    for rep, size in _checked(orbit_decomposition, n, ns.cap):
        hist[size] = hist.get(size, 0) + 1
        if size == 1:
            fixed.append(rep)
    total = sum(size * count for size, count in hist.items())
    bell = build_bell_binomial(n)[n]  # n is at most the cap, so this is cheap
    rows = [
        ("p", pp.p),
        ("m", pp.m),
        ("prime_power", pp.value),
        ("total_partitions", total),
        ("orbit_count", sum(hist.values())),
    ]
    rows.extend((f"orbit_size_{size}", count) for size, count in sorted(hist.items()))
    rows.extend(
        [
            ("fixed_count", len(fixed)),
            ("expected_fixed", pp.m + 1),
            ("bell_residue", total % pp.p),
            ("fixed_residue", len(fixed) % pp.p),
        ]
    )
    rows.extend((f"fixed_{i}", str(SetPartition(rgs))) for i, rgs in enumerate(fixed))
    failure = None
    if total != bell:
        failure = f"orbits of {n} hold {total} partitions, B_{n} = {bell}"
    elif len(fixed) != pp.m + 1:
        failure = f"{len(fixed)} fixed partitions, expected {pp.m + 1}"
    elif len(fixed) % pp.p != total % pp.p:
        failure = f"fixed residue {len(fixed) % pp.p} != bell residue {total % pp.p}"
    return _report(ns, rows, failure)


def cmd_bell_mod(ns: SimpleNamespace) -> str | None:
    p = _checked(PrimePower, ns.p, 1).p
    if ns.cross_check:
        _need_depth(ns, ns.n, f"bell-mod {p} {ns.n} --cross-check")
    else:
        # the stream's seed triangle costs O(p^2), so the depth bounds p - 1
        _need_depth(ns, p - 1, f"bell-mod {p} seeds")
    blocks = _checked(_residue_blocks, p, ns.n)
    if ns.cross_check:
        bell = build_bell_binomial(ns.n)
        # the exact table already holds N+1 values, so the residues may too
        blocks = list(blocks)
        for n, (got, b) in enumerate(zip(chain.from_iterable(blocks), bell, strict=True)):
            if got != b % p:
                return f"stream disagrees with exact reduction at n={n}: {got} != {b % p}"
    _emit(("n", "residue"), blocks, ns.format, modulus=p)
    return None


# The argv grammar: per command, its function, help line, int positionals
# (each named by its metavar in lower case) and own options; every command
# takes _COMMON too.  An option is (flag, default, help), and its default
# sets its kind: False a flag, an int an int, a tuple a choice of its
# items, the first the default.
_COMMON = (
    ("--format", ("tsv", "json-lines"), "output format"),
    ("--depth", DEFAULT_TABLE_DEPTH, "largest exact-table index to build"),
    ("--cap", DEFAULT_ENUMERATION_CAP, "largest ground set to enumerate; orbits' only bound"),
)
_COMMANDS = {
    "bell": (cmd_bell, "emit B_0..B_N", "N", (
        ("--cross-check", False, "also sum the Stirling rows and compare"),)),
    "stirling": (cmd_stirling, "emit triangle rows (n, k, value)", "N", ()),
    "shift-poly": (cmd_shift_poly, "emit shift-polynomial coefficients, ascending", "J", (
        ("--check-recursive", False, "also build P_J by its recurrence and compare"),)),
    "verify": (cmd_verify, "Touchard sweep and prime-power residue check", "P M", (
        ("--n-lo", 1, "first n of the sweep"), ("--n-hi", 100, "last n of the sweep"))),
    "orbits": (cmd_orbits, "translation-orbit decomposition of Z/p^m Z", "P M", ()),
    "bell-mod": (cmd_bell_mod, "stream B_0..B_N mod p by the linear recurrence", "P N", (
        ("--cross-check", False, "compare each residue with the exact table"),)),
}


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The namespace of ``argv``'s command, with the command as ``func``,
    or for -h/--help the help text; the grammar is in the module docstring."""
    command = argv[0] if argv[:1] and argv[0] in _COMMANDS else None
    if {"-h", "--help"} & set(argv if command else argv[:1]):
        return _help(command)
    if command is None:
        got = f"; got {argv[0]!r}" if argv else ""
        raise UsageError(f"expected a command, one of {', '.join(_COMMANDS)}{got}")
    func, _, metavars, own = _COMMANDS[command]
    spec = {flag: (flag[2:].replace("-", "_"), kind) for flag, kind, _ in (*_COMMON, *own)}
    ns = {name: kind[0] if type(kind) is tuple else kind for name, kind in spec.values()}
    words, given = iter(argv[1:]), []
    for word in words:
        if not word.startswith("--"):
            given.append(_checked(int, word))
            continue
        flag, eq, value = word.partition("=")
        if flag not in spec:
            raise UsageError(f"{command} has no option {flag}")
        name, kind = spec[flag]
        if kind is False and eq:
            raise UsageError(f"{flag} takes no value")
        if kind is not False and not eq and (value := next(words, None)) is None:
            raise UsageError(f"{flag} needs a value")
        if type(kind) is tuple and value not in kind:
            raise UsageError(f"{flag} must be one of {', '.join(kind)}; got {value!r}")
        ns[name] = True if kind is False else _checked(int, value) if type(kind) is int else value
    names = metavars.lower().split()
    if len(given) != len(names):
        got = " ".join(map(str, [command, *given]))
        raise UsageError(f"expected {command} {metavars}; got {got}")
    return SimpleNamespace(func=func, **ns, **dict(zip(names, given)))


def _help(command: str | None) -> str:
    """The --help text of ``command``, or of the program for ``None``."""
    if command is None:
        head = "usage: bellshift COMMAND ARGS [options]\n\nExact Bell/Stirling tables, shift "
        head += "polynomials, and modular congruence verification.\n\ncommands:\n"
        rows = [(f"{name} {spec[2]}", spec[1]) for name, spec in _COMMANDS.items()]
        rows.append(("COMMAND --help", "list the options of COMMAND"))
    else:
        _, about, metavars, own = _COMMANDS[command]
        head = f"usage: bellshift {command} {metavars} [options]\n\n{about}\n\noptions:\n"
        rows = [("-h, --help", "show this help and exit")]
        for flag, kind, text in (*_COMMON, *own):
            if kind is not False:
                choice = type(kind) is tuple
                flag += f" {{{','.join(kind)}}}" if choice else " N"
                text += f" (default {kind[0] if choice else kind})"
            rows.append((flag, text))
    return head + "".join(f"  {left:<27} {text}\n" for left, text in rows)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        gc.freeze()  # a process of its own: no collection, at exit too, walks what it imported
    digits = sys.get_int_max_str_digits()
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)  # under the digit guard
        # big table values outgrow the int-to-str digit guard: lift it for this call
        sys.set_int_max_str_digits(0)
        if type(ns) is str:  # -h/--help
            sys.stdout.write(ns)
        failure = None if type(ns) is str else ns.func(ns)
        if failure is not None:
            print(f"counterexample: {failure}", file=sys.stderr)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return EXIT_OK if failure is None else EXIT_COUNTEREXAMPLE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the flush at exit cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

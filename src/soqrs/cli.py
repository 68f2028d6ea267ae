"""Command-line front end: build/dump representations, verify, classify, scan.

All reports are JSON with the full run configuration embedded; text output
is derived from the same data.  Exit codes: 0 success, 2 check failure or
input error (a file unreadable, not JSON, missing a field or holding one
of the wrong JSON type), 3 usage or parameter error.

A `build` dump is the bytes of json.dumps(report, indent=2): a header, the
basis rows and, per generator, its (row, col, re, im) entries in (col, row)
order.  The basis and entry tables are written from arrays in slices of
_SLICE_ROWS rows, one C-encoder call per column of a slice on its distinct
values, and each piece goes to every sink as it is made.  `verify --dump`
turns each generator's entries into a checked array as the parser closes
it, and assembles the matrices after the parse; the check runs at the q
and cutoff of the dump's config, which the report records.

Each command imports the library modules it runs when it runs, so
`classify` and `scan` load neither numpy nor scipy, and `build` loads
neither verify nor classify.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from .qarith import QParam, SpectralParam

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _fractions(text: str) -> list[Fraction]:
    """The exact rationals of a comma-separated list; empty items are skipped."""
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


# Options whose value may start with a minus sign: argparse takes "-5/2" or
# "-1e-3" for an option string, since only -N and -N.M look like negative
# numbers to it.
_SIGNED_VALUE_OPTIONS = ("--lambda-re", "--lambda-im-t", "--lambda-im",
                         "--lambda-rationals")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite `--lambda-re -5/2` as `--lambda-re=-5/2`, so both forms parse alike."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and _SIGNED_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _add_lambda_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-re", type=_fraction, default=None,
                   help="real part of lambda, exact rational p/q")
    p.add_argument("--lambda-im-t", type=_fraction, default=Fraction(0),
                   help="imaginary part of lambda in units pi/h, exact rational")
    p.add_argument("--lambda-im", type=_fraction, default=Fraction(0),
                   help="absolute imaginary part of lambda, exact rational")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.add_argument("--out", default=None, help="write the JSON report to a file")


def _add_targets(p: argparse.ArgumentParser):
    """The group of target options, of which a command takes exactly one."""
    group = p.add_mutually_exclusive_group(required=True)
    for flag in ("--so3", "--class1", "--degenerate"):
        group.add_argument(flag, action="store_true")
    return group


# verify --dump runs at the dump's q and cutoff and refuses a --q or --cutoff
# given on the command line, which it tells from the defaults by their types.
class _DefaultQ(float):
    """The type of the --q default."""


class _DefaultCutoff(int):
    """The type of the --cutoff default."""


def _add_target_options(p: argparse.ArgumentParser) -> None:
    """The options `build` and `verify` share: the parameters of a target, q, cutoff, output."""
    p.add_argument("--primed", action="store_true")
    p.add_argument("--l", default="1")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    _add_lambda_args(p)
    p.add_argument("--q", type=float, default=_DefaultQ(2.0), help="deformation q > 0")
    p.add_argument("--cutoff", type=int, default=_DefaultCutoff(8))
    _add_output(p)


def _resolve_lambda(args) -> SpectralParam:
    if args.lambda_re is None:
        raise UsageError("lambda is required (--lambda-re)")
    return SpectralParam(args.lambda_re, args.lambda_im_t, args.lambda_im)


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


def _config_dict(args, lam: SpectralParam | None = None) -> dict:
    cfg = {
        "command": args.command,
        "q": getattr(args, "q", None),
        "cutoff": getattr(args, "cutoff", None),
        "depth": getattr(args, "depth", None),
        "tol": getattr(args, "tol", None),
    }
    if getattr(args, "r", None) is not None:
        cfg["r"] = args.r
        cfg["s"] = args.s
        cfg["epsilon"] = args.epsilon
    if lam is not None:
        cfg["lambda_re"] = str(lam.re)
        cfg["lambda_im_t"] = str(lam.im_t)
        cfg["lambda_im"] = str(lam.im_y)
    return cfg


class _Table:
    """A JSON list of rows, held as equal-length 1-d arrays, one per column."""

    def __init__(self, *columns):
        self.columns = columns


# Rows per piece of a written table: a piece of (row, col, re, im) entries
# is at most a few hundred kB, whatever the size of the matrix.
_SLICE_ROWS = 4096


def _tokens(col) -> list[str]:
    """The JSON token of each item of the 1-d array col, as json.dumps writes it.

    The distinct items are encoded by one call of the C encoder (json.dumps
    without indent), which formats numbers with the same repr as the
    pure-Python encoder that indent=2 selects, and their tokens are
    gathered back.  Floats are told apart by their bits, so -0.0 and 0.0
    keep their own tokens and every NaN is kept.
    """
    import numpy as np

    keys = col.view(f"u{col.itemsize}") if col.dtype.kind == "f" else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # JSON text escapes NUL, so a raw "\0" separates tokens unambiguously
    tokens = json.dumps(col[first].tolist(), separators=("\0", ":"))[1:-1].split("\0")
    return list(map(tokens.__getitem__, inverse.tolist()))


def _table_json(columns, indent: str) -> Iterator[str]:
    """json.dumps(list of rows, indent=2) for rows zip(*columns), nested at `indent`.

    The text comes in pieces of at most _SLICE_ROWS rows.  Each column of
    a slice is encoded by _tokens, on the slice, not the table, so that
    the work arrays stay small; the tokens are then interleaved with the
    fixed separators of the row and item levels.
    """
    n, k = len(columns[0]), len(columns)
    if n == 0:
        yield "[]"
        return
    row, item = indent + "  ", indent + "    "
    yield "["
    for lo in range(0, n, _SLICE_ROWS):
        rows = min(n - lo, _SLICE_ROWS)
        flat = [",\n" + item] * (2 * rows * k)
        for j, col in enumerate(columns):
            flat[2 * j::2 * k] = _tokens(col[lo:lo + rows])
        flat[2 * k - 1::2 * k] = [f"\n{row}],\n{row}[\n{item}"] * rows
        flat[-1] = f"\n{row}]"
        yield ("," if lo else "") + f"\n{row}[\n{item}" + "".join(flat)
    yield f"\n{indent}]"


def _json_chunks(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\\n" in pieces; each _Table is written by _table_json."""
    tables = []

    def hold(obj):
        if not isinstance(obj, _Table):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return "\0"

    pieces = json.dumps(payload, indent=2, default=hold).split(json.dumps("\0"))
    yield pieces[0]
    for table, before, piece in zip(tables, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _table_json(table.columns, line[:len(line) - len(line.lstrip(" "))])
        yield piece
    yield "\n"


def _emit(args, payload: dict, text: str | None = None) -> None:
    """Write the JSON of payload to --out and/or stdout, piece by piece, or print text."""
    sinks = [sys.stdout] if args.json or (text is None and not args.out) else []
    with contextlib.ExitStack() as stack:
        if args.out:
            sinks.append(stack.enter_context(open(args.out, "w", encoding="utf-8")))
        for piece in _json_chunks(payload):
            for sink in sinks:
                sink.write(piece)
    if text is not None and not args.json:
        sys.stdout.write(text)


def _chain_table(n: int, top: Fraction) -> _Table:
    """The chains (top, ..., m_2) ascending; half-integer so'_q(3) labels as strings."""
    import numpy as np

    from .gtbasis import chain_labels

    if top.denominator == 2:
        return _Table(*np.array([(str(top), str(j - top))
                                 for j in range(int(2 * top) + 1)]).T)
    return _Table(*chain_labels(n, int(top))[-1].T)


def _entry_table(mat) -> _Table:
    """(row, col, re, im) of every stored entry, explicit zeros included.

    The matrices are canonical CSC, whose storage order is the (col, row)
    order of the dump.
    """
    import numpy as np

    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    return _Table(mat.indices, cols, mat.data.real, mat.data.imag)


def _entry_array(g: dict, path: str):
    """The (nnz, 4) float array of generator g's [row, col, re, im] entries.

    Refused with ValueError naming the generator and the entry: an entry
    that is not four numbers (a JSON true or false among numbers, which
    numpy would read as 1 or 0, included), and a row or col that is not
    an integer (a float cast would truncate it, and the check would run on
    a matrix the file does not hold).
    """
    import numpy as np

    entries = g["entries"]
    where = f"generator {g['i']} of {path}"
    if not isinstance(entries, list):
        raise ValueError(f"{where}: the entries are not a list")
    try:
        arr = np.array(entries or np.empty((0, 4)))
    except ValueError:  # ragged
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.shape != (len(entries), 4)
            or bool in map(type, chain.from_iterable(entries))):
        k = next((k for k, e in enumerate(entries)
                  if not (isinstance(e, list) and len(e) == 4
                          and all(type(x) in (int, float) for x in e))), None)
        raise ValueError(f"{where}: " + (
            "an entry holds an integer too large to read" if k is None else
            f"entry {k} is not [row, col, re, im]: {entries[k]!r}"))
    arr = arr.astype(float, copy=False)
    rc = arr[:, :2]
    # a float holds every integer below 2**53 exactly, every matrix index among them
    bad = np.flatnonzero(~((rc == np.floor(rc)) & (np.abs(rc) < 2.0 ** 53)).all(axis=1))
    if bad.size:
        row, col = rc[bad[0]]
        raise ValueError(f"{where}: entry ({row:.17g}, {col:.17g}) has a row or col "
                         "that is not an integer")
    return arr


def _read_dump(path: str) -> dict:
    """The JSON of a `build` dump, each generator's entries an _entry_array.

    Each generator's entries become an array as soon as the parser closes
    that generator's object, so the Python lists of at most one generator
    exist at a time.  Nothing here touches scipy.sparse: the matrices are
    assembled after the parse, once the dump text is released.
    """
    def hook(obj: dict) -> dict:
        if "entries" in obj:
            obj["entries"] = _entry_array(obj, path)
        obj.pop("basis", None)  # the checks rebuild the basis from the config
        return obj

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh, object_hook=hook)
    _check_header(data, path)
    return data


# Per header field that verify reads, a test of its JSON type and the type's name.
_INT = (lambda x: type(x) is int, "an integer")  # JSON true and false are not
_NUMBER = (lambda x: type(x) in (int, float), "a number")
_STRING = (lambda x: type(x) is str, "a string")
_HEADER = {"kind": _STRING, "dim": _INT, "config": (lambda x: type(x) is dict, "an object"),
           "generators": (lambda x: type(x) is list and x and all(type(g) is dict for g in x),
                          "a non-empty list of objects")}
_GENERATOR = {"i": _INT, "nnz": _INT}
_CONFIG = {"q": _NUMBER, "n": _INT, "r": _INT, "s": _INT, "epsilon": _INT, "cutoff": _INT,
           "lambda_re": _STRING, "lambda_im_t": _STRING, "lambda_im": _STRING,
           "basis_kind": _STRING, "lambda_float": (
               lambda x: type(x) is list and len(x) == 2 and all(map(_NUMBER[0], x)),
               "two numbers")}


def _check_header(data, path: str) -> None:
    """Refuse a header field of the wrong JSON type with an InputError naming it.

    An absent field is left to the KeyError of its first read.
    """
    def check(where: str, obj: dict, fields: dict) -> None:
        for name, (ok, what) in fields.items():
            if name in obj and not ok(obj[name]):
                raise InputError(f"{path}: {where}{name} is "
                                 f"{json.dumps(obj[name], default=repr):.40}, not {what}")

    if type(data) is not dict:
        raise InputError(f"{path}: the dump is not a JSON object")
    check("", data, _HEADER)
    check("config.", data.get("config", {}), _CONFIG)
    for k, g in enumerate(data.get("generators", ())):
        check(f"generators[{k}].", g, _GENERATOR)


def _target(args, qp: QParam) -> tuple:
    """(kind, config, generators, rep) of the --so3, --class1 or --degenerate target.

    rep is the DegenerateRep of --degenerate and None otherwise.  A primed
    basis is built only where it exists: primed_transform raises
    PrimedBasisUndefined, a parameter error, naming the vanishing factor
    and its block.
    """
    from .compactrep import build_class1, build_so3

    if args.so3:
        lf = Fraction(args.l)
        return "so3", {**_config_dict(args), "l": str(lf)}, build_so3(lf, qp), None
    if args.class1:
        return ("class1", {**_config_dict(args), "n": args.n, "m": args.m},
                build_class1(args.n, args.m, qp), None)
    if args.r is None or args.s is None:
        raise UsageError("--degenerate needs --r and --s")
    from .degenrep import RepSpec, build_degenerate, build_degenerate_primed, primed_transform

    lam = _resolve_lambda(args)
    spec = RepSpec(args.r, args.s, args.epsilon, lam, qp, args.cutoff)
    if args.primed:
        primed_transform(spec)
    rep = (build_degenerate_primed if args.primed else build_degenerate)(spec)
    return ("degenerate", {**_config_dict(args, lam), "basis_kind": rep.basis_kind},
            rep.generators, rep)


def cmd_build(args) -> int:
    kind, config, gens, rep = _target(args, QParam(args.q))
    if rep is not None:
        basis = _Table(*rep.space.basis_array().T)
    elif args.so3:
        basis = _chain_table(3, Fraction(args.l))
    else:
        basis = _chain_table(args.n, Fraction(args.m))
    payload = {"kind": kind, "config": config, "dim": gens[0].dim, "basis": basis,
               "generators": [{"i": g.i, "nnz": g.mat.nnz, "entries": _entry_table(g.mat)}
                              for g in gens]}
    _emit(args, payload)
    return EXIT_OK


def _report_rows(report) -> str:
    lines = []
    for row in report.rows:
        status = "PASS" if report.row_passed(row) else "FAIL"
        lines.append(f"{status}  {row.relation:24s} residual={row.residual:.3e}")
    lines.append(f"{'PASS' if report.passed else 'FAIL'}  overall "
                 f"max={report.max_residual:.3e} tol={report.tol:.1e} "
                 f"on {report.columns:,} of {report.dim:,} columns")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol {args.tol} must be finite and positive: every residual "
                         f"is compared with it")
    if args.depth < 0:
        raise UsageError(f"--depth {args.depth} must be at least 0")
    import numpy as np

    from .compactrep import GeneratorMatrix, assemble, build_class1
    from .degenrep import DegenerateRep, RepSpec
    from .gtbasis import TruncatedSpace
    from .verify import check_relations, check_star, solve_metric

    if args.dump is not None:
        for opt, default in (("q", _DefaultQ), ("cutoff", _DefaultCutoff)):
            if not isinstance(getattr(args, opt), default):
                raise UsageError(f"--{opt} cannot be given with --dump: the check runs at "
                                 f"the {opt} of the dump's config")
        data = _read_dump(args.dump)
        cfg = data["config"]
        # the report's config records the q and cutoff the check ran at
        args.q, args.cutoff = cfg.get("q", args.q), cfg.get("cutoff")
    qp = QParam(args.q)
    checks = []
    texts = []

    def record(name, report):
        checks.append({"name": name, **report.to_dict()})
        texts.append(f"== {name}\n" + _report_rows(report))

    if args.dump is not None:
        dim = data["dim"]
        if data["kind"] in ("class1", "so3"):
            # the config, not the list, gives the rank: a missing generator is an error
            n = cfg["n"] if data["kind"] == "class1" else 3
            found = sorted(g["i"] for g in data["generators"])
            if found != list(range(2, n + 1)):
                raise ValueError(f"generator indices must be 2..{n}, each once; "
                                 f"found {found}")
        gens = []
        for g in data["generators"]:
            rows, cols, re, im = g["entries"].T
            try:
                mat = assemble(dim, rows, cols, re + 1j * im)
                if mat.nnz != g["nnz"]:
                    raise ValueError(f"the header gives nnz {g['nnz']!r} but the table "
                                     f"holds {mat.nnz} entries")
            except ValueError as exc:
                raise ValueError(f"generator {g['i']} of {args.dump}: {exc}") from None
            gens.append(GeneratorMatrix(g["i"], mat))
        if data["kind"] == "degenerate":
            if "lambda_re" in cfg:
                lam = SpectralParam(Fraction(cfg["lambda_re"]), Fraction(cfg["lambda_im_t"]),
                                    Fraction(cfg.get("lambda_im", 0)))
            else:  # older builds wrote lambda as two floats; the check does not read it
                re_, im = cfg["lambda_float"]
                if not np.isfinite([re_, im]).all():
                    raise ValueError(f"{args.dump}: lambda_float {[re_, im]!r} is not finite")
                lam = SpectralParam(Fraction(re_), 0, Fraction(im))
            spec = RepSpec(cfg["r"], cfg["s"], cfg["epsilon"], lam, qp,
                           cfg["cutoff"])
            space = TruncatedSpace(spec.r, spec.s, spec.epsilon, spec.cutoff)
            rep = DegenerateRep(spec, space, gens, cfg.get("basis_kind", "standard"))
            record("relations(dump)", check_relations(rep, depth=args.depth,
                                                      tol=args.tol))
        else:
            record("relations(dump)", check_relations(gens, qp=qp, tol=args.tol))
    elif args.compact_suite:
        for opt, value, least in (("--max-n", args.max_n, 3), ("--max-m", args.max_m, 0)):
            if value < least:
                raise UsageError(f"{opt} {value} leaves --compact-suite nothing to check: "
                                 f"it needs {opt} >= {least}")
        for n in range(3, args.max_n + 1):
            for m in range(0, args.max_m + 1):
                gens = build_class1(n, m, qp)
                record(f"relations(n={n},m={m})",
                       check_relations(gens, qp=qp, tol=args.tol))
                record(f"star(n={n},m={m})", check_star(gens, tol=args.tol))
    else:
        _, _, gens, rep = _target(args, qp)
        if rep is None:
            record("relations", check_relations(gens, qp=qp, tol=args.tol))
            record("star", check_star(gens, tol=args.tol))
        else:
            record("relations", check_relations(rep, depth=args.depth, tol=args.tol))
            if args.star:
                record("star", check_star(rep, tol=args.tol))
            if args.metric:
                ms = solve_metric(rep)
                checks.append({"name": "metric", **ms.to_dict()})
                reason = "" if ms.reason is None else f"reason: {ms.reason}\n"
                texts.append(f"== metric\nstatus={ms.status}\n{reason}")

    ok = all(c.get("passed", c.get("status") == "found") for c in checks)
    payload = {"config": _config_dict(args), "checks": checks, "passed": ok}
    _emit(args, payload, "".join(texts))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    from .classify import predict_constituents

    lam = _resolve_lambda(args)
    cl = predict_constituents(args.r, args.s, args.epsilon, lam)
    payload = {"config": _config_dict(args, lam), **cl.to_dict()}
    lines = [
        f"T_(eps={args.epsilon}, lambda={lam!r}) of so'_q({args.r},{args.s}):",
        f"  irreducible: {cl.irreducible}",
        f"  star series: {cl.star_series}",
    ]
    for c in cl.constituents:
        star = " *" if c.star else ""
        fin = " finite-dim" if c.finite_dim else ""
        lines.append(f"  {c.name:4s} on {c.region.describe()} "
                     f"[{c.realized_on}]{star}{fin}")
    for note in cl.notes:
        lines.append(f"  note: {note}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    from .classify import cross_check

    lams = [SpectralParam(x) for x in
            [*range(args.lambda_int_min, args.lambda_int_max + 1), *args.lambda_rationals]]
    if not lams:
        raise UsageError(
            f"no lambda to scan: the integer range {args.lambda_int_min}.."
            f"{args.lambda_int_max} is empty and --lambda-rationals gives none")
    rows = []
    disagreements = 0
    for lam in lams:
        cc = cross_check(args.r, args.s, args.epsilon, lam)
        rows.append(cc.to_dict())
        if not cc.agree:
            disagreements += 1
    payload = {
        "config": _config_dict(args),
        "rows": rows,
        "disagreements": disagreements,
    }
    lines = [f"{'lambda':>10s} {'closed-form':>12s} {'regions':>8s} {'agree':>6s}"]
    for row in rows:
        verdict = "irreducible" if row["irreducible_closed_form"] else "reducible"
        agree = "yes" if row["agree"] else "NO"
        lines.append(f"{row['lambda'].replace('SpectralParam', ''):>10s} "
                     f"{verdict:>12s} {row['scanner_components']:>8d} {agree:>6s}")
    lines.append(f"disagreements: {disagreements}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK if disagreements == 0 else EXIT_CHECK_FAILED


def _build_parser() -> _Parser:
    parser = _Parser(prog="soqrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", help="build and dump matrices")
    _add_targets(pb)
    _add_target_options(pb)
    pb.set_defaults(func=cmd_build)

    pv = sub.add_parser("verify", help="run relation/star/metric checks")
    targets = _add_targets(pv)
    targets.add_argument("--compact-suite", action="store_true")
    targets.add_argument("--dump", default=None, help="verify a dumped matrix file")
    _add_target_options(pv)
    pv.add_argument("--star", action="store_true")
    pv.add_argument("--metric", action="store_true")
    pv.add_argument("--max-n", type=int, default=5)
    pv.add_argument("--max-m", type=int, default=3)
    pv.add_argument("--depth", type=int, default=3, help="interior depth")
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify", help="classify an exact parameter")
    pc.add_argument("--r", type=int, required=True)
    pc.add_argument("--s", type=int, required=True)
    pc.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    _add_lambda_args(pc)
    _add_output(pc)
    pc.set_defaults(func=cmd_classify)

    ps = sub.add_parser("scan", help="cross-check a lambda grid")
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--s", type=int, required=True)
    ps.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    ps.add_argument("--lambda-int-min", type=int, default=-4)
    ps.add_argument("--lambda-int-max", type=int, default=8)
    ps.add_argument("--lambda-rationals", type=_fractions, default="")
    _add_output(ps)
    ps.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"soqrs: error: {exc}\n")
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, InputError) as exc:
        # before ValueError, of which the two decode errors are subclasses
        sys.stderr.write(f"soqrs: input error: {exc}\n")
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        sys.stderr.write(f"soqrs: parameter error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line front end: build/dump representations, verify, classify, scan.

All reports are JSON with the full run configuration embedded; text output
is derived from the same data.  Exit codes: 0 success, 2 check failure,
3 usage or parameter error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .compactrep import GeneratorMatrix, assemble, build_class1, build_so3
from .classify import (
    UnclassifiedReducibleCase,
    cross_check,
    predict_constituents,
    scan_lattice,
)
from .degenrep import DegenerateRep, RepSpec, build_degenerate, build_degenerate_primed
from .gtbasis import TruncatedSpace, enumerate_chain
from .qarith import InexactSpectralError, QParam, SpectralParam
from .verify import check_relations, check_star, solve_metric

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


def _add_lambda_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-re", type=_fraction, default=None,
                   help="real part of lambda, exact rational p/q")
    p.add_argument("--lambda-im-t", type=_fraction, default=Fraction(0),
                   help="imaginary part of lambda in units pi/h, exact rational")
    p.add_argument("--lambda-im", type=_fraction, default=Fraction(0),
                   help="absolute imaginary part of lambda, exact rational")
    p.add_argument("--lambda-float", type=complex, default=None,
                   help="inexact complex lambda, e.g. '0.7+1.3j'")
    p.add_argument("--snap-lambda", type=int, default=None, metavar="DENOM",
                   help="snap an inexact lambda to the nearest rational with "
                        "denominator <= DENOM (opt-in)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=2.0, help="deformation q > 0")
    p.add_argument("--cutoff", type=int, default=8)
    p.add_argument("--depth", type=int, default=3, help="interior depth")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.add_argument("--out", default=None, help="write the JSON report to a file")


def _resolve_lambda(args, exact_required: bool) -> SpectralParam:
    if args.lambda_float is not None:
        if args.snap_lambda is not None:
            v = args.lambda_float
            return SpectralParam.exact(
                Fraction(v.real).limit_denominator(args.snap_lambda),
                0,
                Fraction(v.imag).limit_denominator(args.snap_lambda),
            )
        if exact_required:
            raise UsageError(
                "this command needs an exact lambda; pass --lambda-re/"
                "--lambda-im-t/--lambda-im, or opt in with --snap-lambda"
            )
        return SpectralParam.inexact(args.lambda_float)
    if args.lambda_re is None:
        raise UsageError("lambda is required (--lambda-re or --lambda-float)")
    return SpectralParam.exact(args.lambda_re, args.lambda_im_t, args.lambda_im)


class UsageError(Exception):
    pass


def _config_dict(args, lam: SpectralParam | None = None) -> dict:
    cfg = {
        "command": args.command,
        "q": args.q,
        "cutoff": getattr(args, "cutoff", None),
        "depth": getattr(args, "depth", None),
        "tol": getattr(args, "tol", None),
    }
    if getattr(args, "r", None) is not None:
        cfg["r"] = args.r
        cfg["s"] = args.s
        cfg["epsilon"] = args.epsilon
    if lam is not None and lam.is_exact:
        cfg["lambda_re"] = str(lam.re)
        cfg["lambda_im_t"] = str(lam.im_t)
        cfg["lambda_im"] = str(lam.im_y)
    elif lam is not None:
        v = lam.value(QParam(args.q))
        cfg["lambda_float"] = [v.real, v.imag]
    return cfg


def _emit(args, payload: dict, text: str | None = None) -> None:
    blob = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(blob)
    if args.json or (text is None and not args.out):
        sys.stdout.write(blob)
    elif text is not None:
        sys.stdout.write(text)


def _basis_entry(value) -> object:
    f = Fraction(value)
    return int(f) if f.denominator == 1 else str(f)


def _dump_generators(gens: list[GeneratorMatrix]) -> list[dict]:
    out = []
    for g in gens:
        trips = g.to_triplets()
        out.append({"i": g.i, "nnz": len(trips),
                    "entries": [[r, c, re, im] for r, c, re, im in trips]})
    return out


def cmd_build(args) -> int:
    qp = QParam(args.q)
    if args.so3:
        gens = build_so3(Fraction(args.l), qp)
        lf = Fraction(args.l)
        basis = enumerate_chain(3, lf if lf.denominator == 2 else int(lf))
        payload = {
            "kind": "so3",
            "config": {**_config_dict(args), "l": str(Fraction(args.l))},
            "dim": gens[0].dim,
            "basis": [[_basis_entry(e) for e in c.entries] for c in basis],
            "generators": _dump_generators(gens),
        }
    elif args.class1:
        gens = build_class1(args.n, args.m, qp)
        basis = enumerate_chain(args.n, args.m)
        payload = {
            "kind": "class1",
            "config": {**_config_dict(args), "n": args.n, "m": args.m},
            "dim": gens[0].dim,
            "basis": [[_basis_entry(e) for e in c.entries] for c in basis],
            "generators": _dump_generators(gens),
        }
    elif args.degenerate:
        if args.r is None or args.s is None:
            raise UsageError("--degenerate needs --r and --s")
        lam = _resolve_lambda(args, exact_required=False)
        spec = RepSpec(args.r, args.s, args.epsilon, lam, qp, args.cutoff)
        rep = build_degenerate_primed(spec) if args.primed else build_degenerate(spec)
        payload = {
            "kind": "degenerate",
            "config": {**_config_dict(args, lam), "basis_kind": rep.basis_kind},
            "dim": rep.dim,
            "basis": rep.space.dump_basis(),
            "generators": _dump_generators(rep.generators),
        }
    else:
        raise UsageError("pick one of --so3, --class1, --degenerate")
    _emit(args, payload)
    return EXIT_OK


def _report_rows(report) -> str:
    lines = []
    for row in report.rows:
        status = "PASS" if row.residual < report.tol else "FAIL"
        lines.append(f"{status}  {row.relation:24s} residual={row.residual:.3e}")
    lines.append(f"{'PASS' if report.passed else 'FAIL'}  overall "
                 f"max={report.max_residual:.3e} tol={report.tol:.1e} "
                 f"on {report.columns:,} of {report.dim:,} columns")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    qp = QParam(args.q)
    checks = []
    texts = []

    def record(name, report):
        checks.append({"name": name, **report.to_dict()})
        texts.append(f"== {name}\n" + _report_rows(report))

    if args.dump:
        with open(args.dump, encoding="utf-8") as fh:
            data = json.load(fh)
        dim = data["dim"]
        q = data["config"].get("q", args.q)
        qp = QParam(q)
        gens = []
        for g in data["generators"]:
            rows, cols, re, im = np.array(g["entries"], dtype=float).reshape(-1, 4).T
            gens.append(GeneratorMatrix(g["i"], assemble(dim, rows, cols, re + 1j * im)))
        if data["kind"] == "degenerate":
            cfg = data["config"]
            lam = SpectralParam.exact(
                Fraction(cfg["lambda_re"]), Fraction(cfg["lambda_im_t"]),
                Fraction(cfg.get("lambda_im", 0)),
            ) if "lambda_re" in cfg else SpectralParam.inexact(
                complex(*cfg["lambda_float"]))
            spec = RepSpec(cfg["r"], cfg["s"], cfg["epsilon"], lam, qp,
                           cfg["cutoff"])
            space = TruncatedSpace(spec.r, spec.s, spec.epsilon, spec.cutoff)
            rep = DegenerateRep(spec, space, gens, cfg.get("basis_kind", "standard"))
            record("relations(dump)", check_relations(rep, depth=args.depth,
                                                      tol=args.tol))
        else:
            record("relations(dump)", check_relations(gens, qp=qp, tol=args.tol))
    elif args.compact_suite:
        for n in range(3, args.max_n + 1):
            for m in range(0, args.max_m + 1):
                gens = build_class1(n, m, qp)
                record(f"relations(n={n},m={m})",
                       check_relations(gens, qp=qp, tol=args.tol))
                record(f"star(n={n},m={m})", check_star(gens, tol=args.tol))
    elif args.so3:
        gens = build_so3(Fraction(args.l), qp)
        record("relations", check_relations(gens, qp=qp, tol=args.tol))
        record("star", check_star(gens, tol=args.tol))
    elif args.class1:
        gens = build_class1(args.n, args.m, qp)
        record("relations", check_relations(gens, qp=qp, tol=args.tol))
        record("star", check_star(gens, tol=args.tol))
    elif args.degenerate:
        if args.r is None or args.s is None:
            raise UsageError("--degenerate needs --r and --s")
        lam = _resolve_lambda(args, exact_required=False)
        spec = RepSpec(args.r, args.s, args.epsilon, lam, qp, args.cutoff)
        rep = build_degenerate_primed(spec) if args.primed else build_degenerate(spec)
        record("relations", check_relations(rep, depth=args.depth, tol=args.tol))
        if args.star:
            record("star", check_star(rep, tol=args.tol))
        if args.metric:
            ms = solve_metric(rep)
            checks.append({"name": "metric", **ms.to_dict()})
            texts.append(f"== metric\nstatus={ms.status}\n")
    else:
        raise UsageError("pick a target: --so3/--class1/--degenerate/"
                         "--compact-suite/--dump FILE")

    ok = all(c.get("passed", c.get("status") == "found") for c in checks)
    payload = {"config": _config_dict(args), "checks": checks, "passed": ok}
    _emit(args, payload, "".join(texts))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    lam = _resolve_lambda(args, exact_required=True)
    try:
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
    except UnclassifiedReducibleCase:
        spec = RepSpec(args.r, args.s, args.epsilon, lam, QParam(args.q),
                       args.cutoff)
        scan = scan_lattice(spec)
        payload = {
            "config": _config_dict(args, lam),
            "irreducible": False,
            "unclassified_reducible": True,
            "scanner": scan.to_dict(),
        }
        lines = [
            f"T_(eps={args.epsilon}, lambda={lam!r}) of so'_q({args.r},{args.s}):",
            "  reducible by the closed-form criterion, but outside every",
            "  stated decomposition case; empirical scanner regions attached.",
            f"  scanner components: {len(scan.components)}",
        ]
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    lams = [SpectralParam.exact(L) for L in
            range(args.lambda_int_min, args.lambda_int_max + 1)]
    if args.lambda_rationals:
        lams += [SpectralParam.exact(Fraction(tok))
                 for tok in args.lambda_rationals.split(",") if tok.strip()]
    rows = []
    disagreements = 0
    for lam in lams:
        cc = cross_check(args.r, args.s, args.epsilon, lam, cutoff=args.cutoff)
        rows.append(cc.to_dict())
        if not cc.unclassified and not cc.agree:
            disagreements += 1
    payload = {
        "config": _config_dict(args),
        "rows": rows,
        "disagreements": disagreements,
        "unclassified": [r for r in rows if r["unclassified"]],
    }
    lines = [f"{'lambda':>10s} {'closed-form':>12s} {'regions':>8s} {'agree':>6s}"]
    for row in rows:
        verdict = "irreducible" if row["irreducible_closed_form"] else "reducible"
        agree = "gap" if row["unclassified"] else ("yes" if row["agree"] else "NO")
        lines.append(f"{row['lambda'].replace('SpectralParam', ''):>10s} "
                     f"{verdict:>12s} {row['scanner_components']:>8d} {agree:>6s}")
    lines.append(f"disagreements: {disagreements}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK if disagreements == 0 else EXIT_CHECK_FAILED


def _build_parser() -> _Parser:
    parser = _Parser(prog="soqrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", parents=[], help="build and dump matrices")
    pb.add_argument("--so3", action="store_true")
    pb.add_argument("--class1", action="store_true")
    pb.add_argument("--degenerate", action="store_true")
    pb.add_argument("--primed", action="store_true")
    pb.add_argument("--l", default="1")
    pb.add_argument("--n", type=int, default=4)
    pb.add_argument("--m", type=int, default=1)
    pb.add_argument("--r", type=int, default=None)
    pb.add_argument("--s", type=int, default=None)
    pb.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    _add_lambda_args(pb)
    _add_common(pb)
    pb.set_defaults(func=cmd_build)

    pv = sub.add_parser("verify", help="run relation/star/metric checks")
    pv.add_argument("--so3", action="store_true")
    pv.add_argument("--class1", action="store_true")
    pv.add_argument("--degenerate", action="store_true")
    pv.add_argument("--primed", action="store_true")
    pv.add_argument("--star", action="store_true")
    pv.add_argument("--metric", action="store_true")
    pv.add_argument("--compact-suite", action="store_true")
    pv.add_argument("--max-n", type=int, default=5)
    pv.add_argument("--max-m", type=int, default=3)
    pv.add_argument("--dump", default=None, help="verify a dumped matrix file")
    pv.add_argument("--l", default="1")
    pv.add_argument("--n", type=int, default=4)
    pv.add_argument("--m", type=int, default=1)
    pv.add_argument("--r", type=int, default=None)
    pv.add_argument("--s", type=int, default=None)
    pv.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    _add_lambda_args(pv)
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify", help="classify an exact parameter")
    pc.add_argument("--r", type=int, required=True)
    pc.add_argument("--s", type=int, required=True)
    pc.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    _add_lambda_args(pc)
    _add_common(pc)
    pc.set_defaults(func=cmd_classify)

    ps = sub.add_parser("scan", help="cross-check a lambda grid")
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--s", type=int, required=True)
    ps.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    ps.add_argument("--lambda-int-min", type=int, default=-4)
    ps.add_argument("--lambda-int-max", type=int, default=8)
    ps.add_argument("--lambda-rationals", default="")
    _add_lambda_args(ps)
    _add_common(ps)
    ps.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"soqrs: error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, InexactSpectralError) as exc:
        sys.stderr.write(f"soqrs: parameter error: {exc}\n")
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"soqrs: input error: {exc}\n")
        return EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""The benchmark's workloads: seeded inputs, items, and their output checks.

Each workload turns a seeded ``random.Random`` into one *pass*, a list of
``(function, args)`` items.  An item raises ``CheckFailed`` when ``soqrs``
returns a wrong answer; any other exception also fails the item.  Spans
are opened here, around each call into a layer of ``soqrs``:

    gtbasis     TruncatedSpace                    (probe, traced runs only)
    compactrep  build_class1
    degenrep    build_degenerate, build_degenerate_primed
    verify      check_relations, check_star, solve_metric, solve_intertwiner
    classify    classify_irreducible, classify_star, predict_constituents,
                cross_check
    cli         one span per ``python -m soqrs.cli`` subprocess

``qarith`` has no span of its own: its cost sits inside the others.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import soqrs
from soqrs import (
    FOUND,
    QParam,
    RepSpec,
    SpectralParam,
    TruncatedSpace,
    build_class1,
    build_degenerate,
    build_degenerate_primed,
    check_relations,
    check_star,
    classify_irreducible,
    classify_star,
    cross_check,
    predict_constituents,
    solve_intertwiner,
    solve_metric,
)
from soqrs.classify import NO_SERIES

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
Q = QParam(2.0)

# predict_constituents raises this on the documented odd/odd gap.  Once the
# gap is closed the class may go; the empty tuple then catches nothing.
UNCLASSIFIED = getattr(soqrs, "UnclassifiedReducibleCase", ())


class CheckFailed(Exception):
    """An item ran, but soqrs returned a wrong answer."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _nnz(rep) -> int:
    return sum(g.mat.nnz for g in rep.generators)


def _im(rng) -> Fraction:
    """A seeded imaginary part k/8 in (0, 3]."""
    return Fraction(rng.randint(1, 24), 8)


def _principal(rng, r: int, s: int) -> SpectralParam:
    """A seeded point on the principal line Re lambda = (r+s-2)/2."""
    return SpectralParam.exact(Fraction(r + s - 2, 2), 0, _im(rng))


def _in_odd_odd_gap(r: int, s: int, eps: int, lam: SpectralParam) -> bool:
    """The inputs on which predict_constituents documents that it raises."""
    if r % 2 == 0 or s % 2 == 0 or not lam.is_integer:
        return False
    L = int(lam.re)
    return (L - eps) % 2 == 0 and 0 < L < r + s - 2 and 2 * L >= r + s - 4


def _check_metric(tr, item, spec: RepSpec, metric) -> None:
    """A positive metric exists exactly when classify_star names a *-series."""
    with tr.span("classify.star", item):
        series = classify_star(spec.r, spec.s, spec.epsilon, spec.lam)
    agree = (metric.status == FOUND) == (series != NO_SERIES)
    tr.count("verify.metric_checks")
    tr.count("verify.metric_agree", agree)
    _check(agree, f"metric {metric.status} but star series {series} for {spec}")


# ---------------------------------------------------------------------------
# tower-build: one large tower per pass


def tower_pass(rng, cfg) -> list:
    r, s = cfg["r"], cfg["s"]
    spec = RepSpec(r, s, cfg["epsilon"], _principal(rng, r, s), Q, cfg["cutoff"])
    return [(tower_item, (spec,))]


def tower_probe(tr, item, spec: RepSpec) -> None:
    """Time the basis on its own; build_degenerate enumerates it again."""
    with tr.span("gtbasis.space", item):
        space = TruncatedSpace(spec.r, spec.s, spec.epsilon, spec.cutoff)
    tr.count("gtbasis.dim", space.dim)
    tr.count("gtbasis.blocks", len(space.blocks))


def tower_item(tr, item, spec: RepSpec) -> None:
    with tr.span("degenrep.build", item):
        rep = build_degenerate(spec)
    with tr.span("degenrep.build_primed", item):
        primed = build_degenerate_primed(spec)
    tr.count("degenrep.calls", 2)
    tr.count("degenrep.nnz", _nnz(rep) + _nnz(primed))
    with tr.span("verify.relations", item):
        relations = check_relations(rep)
        relations_primed = check_relations(primed)
    with tr.span("verify.star", item):
        star = check_star(primed)
    with tr.span("verify.metric", item):
        metric = solve_metric(rep)
    _check(relations.passed, f"relations {relations.max_residual:.3e} for {spec}")
    _check(relations_primed.passed,
           f"primed relations {relations_primed.max_residual:.3e} for {spec}")
    _check(star.passed, f"primed star {star.max_residual:.3e} on the principal line")
    _check_metric(tr, item, spec, metric)


# ---------------------------------------------------------------------------
# small-rep-sweep: many small representations and the class-1 suite


def small_rep_pass(rng, cfg) -> list:
    items = []
    for r in cfg["ranks"]:
        for s in cfg["ranks"]:
            for eps in (0, 1):
                lams = [SpectralParam.exact(Fraction(k, 4))
                        for k in range(-8, 4 * (r + s) + 1)]
                lams = [lam for lam in lams if classify_irreducible(r, s, eps, lam)]
                for lam in rng.sample(lams, cfg["per_combo"]):
                    items.append((lambda_item, (RepSpec(r, s, eps, lam, Q, cfg["cutoff"]),)))
    for n in range(3, cfg["class1_n"] + 1):
        for m in range(cfg["class1_m"] + 1):
            for q in (0.5, 1.0, 2.0):
                items.append((class1_item, (n, m, QParam(q))))
    return items


def lambda_item(tr, item, spec: RepSpec) -> None:
    mirror = RepSpec(spec.r, spec.s, spec.epsilon, spec.lam.mirrored(spec.r + spec.s),
                     spec.qp, spec.cutoff)
    with tr.span("degenrep.build", item):
        rep = build_degenerate(spec)
        rep_mirror = build_degenerate(mirror)
    tr.count("degenrep.calls", 2)
    tr.count("degenrep.nnz", _nnz(rep) + _nnz(rep_mirror))
    with tr.span("verify.metric", item):
        metric = solve_metric(rep)
        metric_mirror = solve_metric(rep_mirror)
    _check_metric(tr, item, spec, metric)
    _check_metric(tr, item, mirror, metric_mirror)
    with tr.span("verify.intertwiner", item):
        intertwiner = solve_intertwiner(rep, rep_mirror)
    _check(intertwiner is not None, f"no intertwiner to the mirror of {spec}")


def class1_item(tr, item, n: int, m: int, qp: QParam) -> None:
    with tr.span("compactrep.class1", item):
        gens = build_class1(n, m, qp)
    tr.count("compactrep.nnz", sum(g.mat.nnz for g in gens))
    with tr.span("verify.relations", item):
        relations = check_relations(gens, qp=qp)
    with tr.span("verify.star", item):
        star = check_star(gens)
    _check(relations.passed and star.passed,
           f"class-1 n={n} m={m} {qp}: relations {relations.max_residual:.3e}, "
           f"star {star.max_residual:.3e}")


# ---------------------------------------------------------------------------
# classify-sweep: exact lambda grid, no matrices


def classify_pass(rng, cfg) -> list:
    items = []
    for r in cfg["ranks"]:
        for s in cfg["ranks"]:
            for eps in (0, 1):
                lams = [SpectralParam.exact(L) for L in range(-1, r + s)]
                quarters = [k for k in range(-7, 4 * (r + s)) if k % 4]
                lams += [SpectralParam.exact(Fraction(k, 4))
                         for k in rng.sample(quarters, cfg["quarters"])]
                lams.append(_principal(rng, r, s))
                lams.append(SpectralParam.exact(Fraction(rng.choice(quarters), 4), 1))
                items += [(classify_item, (r, s, eps, lam)) for lam in lams]
    return items


def classify_item(tr, item, r: int, s: int, eps: int, lam: SpectralParam) -> None:
    what = f"(r={r}, s={s}, epsilon={eps}, {lam!r})"
    with tr.span("classify.irreducible", item):
        irreducible = classify_irreducible(r, s, eps, lam)
    series = None
    if irreducible:
        with tr.span("classify.star", item):
            series = classify_star(r, s, eps, lam)
    try:
        with tr.span("classify.predict", item):
            cl = predict_constituents(r, s, eps, lam)
    except UNCLASSIFIED:
        tr.count("classify.unclassified")
        _check(_in_odd_odd_gap(r, s, eps, lam), f"unclassified outside the gap: {what}")
    else:
        _check(cl.irreducible == irreducible, f"predict_constituents verdict {what}")
        _check(series is None or cl.star_series == series, f"star series {what}")
    with tr.span("classify.cross_check", item):
        cc = cross_check(r, s, eps, lam)
    if not getattr(cc, "unclassified", False) and not cc.agree:
        tr.count("classify.disagreements")
        raise CheckFailed(f"closed form and scanner disagree: {what}")


# ---------------------------------------------------------------------------
# cli-session: the README's soqrs commands as subprocesses


def cli_pass(rng, cfg) -> list:
    def rep_args(cutoff):
        return ["--r", "4", "--s", "4", "--epsilon", "0", "--lambda-re", "3",
                "--lambda-im", str(_im(rng)), "--cutoff", str(cutoff)]

    r, s, eps = rng.randint(3, 6), rng.randint(3, 6), rng.randint(0, 1)
    lam = Fraction(rng.randint(-8, 4 * (r + s)), 4)
    scan_eps = rng.randint(0, 1)
    session = {
        "build": ["build", "--degenerate", *rep_args(cfg["build_cutoff"])],
        "verify": ["verify", "--degenerate", *rep_args(cfg["verify_cutoff"]),
                   "--primed", "--star"],
        "compact_suite": ["verify", "--compact-suite", "--max-n", str(cfg["max_n"]),
                          "--max-m", str(cfg["max_m"])],
        "classify": ["classify", "--r", str(r), "--s", str(s), "--epsilon", str(eps),
                     f"--lambda-re={lam}", "--json"],
        "classify_expect": classify_irreducible(r, s, eps, SpectralParam.exact(lam)),
        "scan": ["scan", "--r", "3", "--s", "4", "--epsilon", str(scan_eps),
                 f"--lambda-int-min={cfg['scan_min']}",
                 f"--lambda-int-max={cfg['scan_max']}",
                 "--lambda-rationals", str(Fraction(rng.randint(1, 31), 8)), "--json"],
    }
    return [(cli_item, (session,))]


def _soqrs_cli(tr, item, span: str, argv: list) -> str:
    """Run one soqrs command; a nonzero exit code fails the item."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tr.span(span, item):
        proc = subprocess.run([sys.executable, "-m", "soqrs.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
    _check(proc.returncode == 0,
           f"soqrs {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout


def cli_item(tr, item, session: dict) -> None:
    dump = OUT_DIR / f"cli-dump-{os.getpid()}.json"
    try:
        _soqrs_cli(tr, item, "cli.build", session["build"] + ["--out", str(dump)])
        tr.count("cli.dump_bytes", dump.stat().st_size)
        report = json.loads(_soqrs_cli(tr, item, "cli.verify_dump",
                                       ["verify", "--dump", str(dump), "--json"]))
        _check(report["passed"], "verify --dump failed on the file build wrote")
    finally:
        dump.unlink(missing_ok=True)
    _soqrs_cli(tr, item, "cli.verify", session["verify"])
    _soqrs_cli(tr, item, "cli.compact_suite", session["compact_suite"])
    cl = json.loads(_soqrs_cli(tr, item, "cli.classify", session["classify"]))
    _check(cl["irreducible"] == session["classify_expect"],
           f"soqrs {' '.join(session['classify'])}: irreducible={cl['irreducible']}")
    scan = json.loads(_soqrs_cli(tr, item, "cli.scan", session["scan"]))
    _check(scan["disagreements"] == 0, f"soqrs {' '.join(session['scan'])} disagrees")


# ---------------------------------------------------------------------------


class Workload:
    """A pass generator with its full and smoke sizes.

    ``probe`` runs before each item of a traced pass, outside the item's
    timing.  ``child_rss`` marks workloads whose work runs in subprocesses,
    so that peak memory is read from the children.
    """

    def __init__(self, make_pass, full: dict, smoke: dict, probe=None,
                 child_rss: bool = False) -> None:
        self.make_pass = make_pass
        self.sizes = {"full": full, "smoke": smoke}
        self.probe = probe
        self.child_rss = child_rss


WORKLOADS = {
    "tower-build": Workload(
        tower_pass,
        full={"r": 4, "s": 4, "epsilon": 0, "cutoff": 10},
        smoke={"r": 4, "s": 4, "epsilon": 0, "cutoff": 4},
        probe=tower_probe),
    "small-rep-sweep": Workload(
        small_rep_pass,
        full={"ranks": (3, 4), "per_combo": 4, "cutoff": 6, "class1_n": 6, "class1_m": 4},
        smoke={"ranks": (3, 4), "per_combo": 1, "cutoff": 2, "class1_n": 4, "class1_m": 1}),
    "classify-sweep": Workload(
        classify_pass,
        full={"ranks": (3, 4, 5, 6), "quarters": 4},
        smoke={"ranks": (3, 4), "quarters": 1}),
    "cli-session": Workload(
        cli_pass,
        full={"build_cutoff": 10, "verify_cutoff": 8, "max_n": 5, "max_m": 3,
              "scan_min": -4, "scan_max": 8},
        smoke={"build_cutoff": 2, "verify_cutoff": 2, "max_n": 3, "max_m": 1,
               "scan_min": 0, "scan_max": 2},
        child_rss=True),
}

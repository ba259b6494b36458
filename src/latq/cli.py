"""Command line front end.

Exit codes: 0 success, 1 a check or verification failed, 2 bad input
(unreadable file, malformed document, domain mismatch, missing
structure), 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from . import cd, docio, maps, quantale, suite
from .errors import LatqError, NotContinuous
from .lattice import GENERATORS, GeneratorSpec, downset_lattice, generate


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_map(f, carriers: dict, out: str | None) -> None:
    """Write f with dom and cod naming the paths of its carriers in
    `carriers`, found by identity: equal lattices from two files keep
    their own names.  Refs are relative to the -o file's directory, or to
    the working directory on stdout."""
    base = os.path.dirname(os.path.abspath(out)) if out else os.getcwd()
    dom_ref, cod_ref = (
        os.path.relpath(next(p for p, L in carriers.items() if L is end), base)
        for end in (f.dom, f.cod))
    _emit(docio.dumps(docio.map_to_doc(f, dom_ref, cod_ref)), out)


# ------------------------------------------------------------- subcommands

def _cmd_gen(args) -> int:
    if args.shape == "downsets":
        name, p = docio.poset_from_doc(docio._load_json(args.posetfile),
                                       "poset document")
        L = downset_lattice(p, name=f"downsets_{name}")
    else:
        # the shape's arguments are parsed into GeneratorSpec field names
        _, fields = GENERATORS[args.shape]
        L = generate(GeneratorSpec(
            args.shape, **{k: getattr(args, k) for k in fields}))
    _emit(docio.dumps(docio.lattice_to_doc(L)), args.output)
    return 0


def _cmd_check(args) -> int:
    L = docio.load_lattice(args.lattice)
    checks = [
        cd.timed(check, L) for check in (
            cd.raney_join_criterion,
            cd.raney_meet_criterion,
            cd.distributive_oracle)
    ]
    profile = cd._profile(L, checks[0].holds)    # raney_join_criterion
    agree = len({c.holds for c in checks}) == 1
    if args.json:
        doc = {
            "profile": profile.as_doc(),
            "criteria": [c.as_doc(args.timing) for c in checks],
            "criteria_agree": agree,
        }
        _emit(docio.dumps(doc), None)
        return 0
    lines = [f"{k}: {v}" for k, v in profile.as_doc().items()]
    for c in checks:
        status = "holds" if c.holds else f"fails (witness {c.witness})"
        stamp = f" [{c.elapsed * 1000.0:.3f} ms]" if args.timing else ""
        lines.append(f"{c.name}: {status}{stamp}")
    lines.append(f"criteria agree: {agree}")
    _emit("\n".join(lines) + "\n", None)
    return 0


def _cmd_special(args) -> int:
    L = docio.load_lattice(args.lattice)
    f = maps.special(L, args.kind, getattr(args, "element", None))
    _emit_map(f, {os.path.abspath(args.lattice): L}, args.output)
    return 0


def _adjoint(f):
    """The right adjoint of a join-continuous map, else the left adjoint."""
    cls = maps.classify(f)
    if cls.join_continuous:
        return maps.right_adjoint(f)
    if cls.meet_continuous:
        return maps.left_adjoint(f)
    raise NotContinuous(
        "map preserves neither joins nor meets; no adjoint on either side")


# Map-valued commands: (command, name) -> (map-file arguments, operation).
# Every operation returns a map between its arguments' carrier objects.
_MAP_COMMANDS = {
    ("map", "interior"): (("mapfile",), maps.interior),
    ("map", "adjoint"): (("mapfile",), _adjoint),
    ("map", "raney-join"): (("mapfile",), maps.raney_join),
    ("map", "raney-meet"): (("mapfile",), maps.raney_meet),
    ("q", "star"): (("mapfile",), quantale.star),
    ("q", "compose"): (("outer", "inner"), maps.compose),
    ("q", "residual-left"): (("g", "h"), quantale.residual_left),
    ("q", "residual-right"): (("h", "f"), quantale.residual_right),
    ("q", "oplus"): (("g", "f"), quantale.dual_tensor),
}


def _cmd_map_op(args, arguments, op) -> int:
    carriers: dict = {}    # a lattice file named twice is read once
    result = op(*(docio.load_map(getattr(args, a), carriers)
                  for a in arguments))
    _emit_map(result, carriers, args.output)
    return 0


def _cmd_q(args) -> int:
    L = docio.load_lattice(args.lattice)
    Q = quantale.enumerate_homset(L, L, cap=args.cap)
    if args.op == "enumerate":
        lines = [f"count {len(Q)}"]
        if args.list:
            lines.extend(json.dumps(row) for row in Q.matrix.tolist())
    else:
        members = getattr(quantale, f"{args.op}_elements")(Q)
        lines = [f"count {len(members)}"]
        lines.extend(json.dumps(f.values.tolist()) for f in members)
    _emit("\n".join(lines) + "\n", None)
    return 0


def _cmd_verify(args) -> int:
    if args.corpus == "builtin":
        corpus = suite.builtin_corpus()
    else:
        if not os.path.isdir(args.corpus):
            raise LatqError(f"corpus directory not found: {args.corpus}")
        files = sorted(
            fn for fn in os.listdir(args.corpus) if fn.endswith(".json"))
        if not files:
            raise LatqError(f"no .json lattice files in {args.corpus}")
        corpus = [docio.load_lattice(os.path.join(args.corpus, fn))
                  for fn in files]
    checks = args.checks.split(",") if args.checks else None
    report = suite.run_suite(corpus=corpus, checks=checks,
                             seed=args.seed, cap=args.cap)
    if args.json:
        _emit(docio.dumps(report.as_doc(args.timing)), None)
    else:
        _emit(report.render_text(), None)
    return 0 if report.ok else 1


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latq",
        description="finite-lattice workbench: join-continuous maps, "
                    "transforms, homset structure, law checks")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a lattice file")
    gsub = gen.add_subparsers(dest="shape", required=True)
    # shape -> its arguments, as (name or flag, add_argument keywords)
    shapes = {
        "chain": [("n", dict(metavar="size", type=int))],
        "boolean": [("k", dict(metavar="exponent", type=int))],
        "m3": [], "n5": [],
        "product": [("a", dict(type=int)), ("b", dict(type=int))],
        "random": [("--seed", dict(type=int, default=0)),
                   ("--size", dict(dest="n", metavar="SIZE", type=int,
                                   default=8))],
        "downsets": [("posetfile", {})],
    }
    for shape, arguments in shapes.items():
        p = gsub.add_parser(shape)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.add_argument("-o", "--output")

    chk = sub.add_parser("check", help="profile a lattice file")
    chk.add_argument("lattice")
    chk.add_argument("--json", action="store_true")
    chk.add_argument("--timing", action="store_true")

    mp = sub.add_parser("map", help="build or transform maps")
    msub = mp.add_subparsers(dest="kind", required=True)
    for kind in ("o", "omega", "c", "a", "alpha", "nu"):
        p = msub.add_parser(kind)
        if kind not in ("o", "omega"):
            p.add_argument("element", type=int)
        p.add_argument("lattice")
        p.add_argument("-o", "--output")
        p.set_defaults(run=_cmd_special)

    q = sub.add_parser("q", help="endo-homset structure and residuals")
    qsub = q.add_subparsers(dest="op", required=True)
    for op in ("enumerate", "cyclic", "central", "dualizing"):
        p = qsub.add_parser(op)
        p.add_argument("lattice")
        p.add_argument("--cap", type=int, default=quantale.DEFAULT_CAP)
        if op == "enumerate":
            p.add_argument("--list", action="store_true")
        p.set_defaults(run=_cmd_q)

    for (command, name), (arguments, op) in _MAP_COMMANDS.items():
        p = (msub if command == "map" else qsub).add_parser(name)
        for argument in arguments:
            p.add_argument(argument)
        p.add_argument("-o", "--output")
        p.set_defaults(run=functools.partial(
            _cmd_map_op, arguments=arguments, op=op))

    ver = sub.add_parser("verify", help="run the law-check suite")
    ver.add_argument("--corpus", default="builtin",
                     help="'builtin' or a directory of lattice .json files")
    ver.add_argument("--checks", default=None,
                     help="comma separated check ids, e.g. T3,T7")
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--timing", action="store_true")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cap", type=int, default=quantale.DEFAULT_CAP)
    for parser, run in ((gen, _cmd_gen), (chk, _cmd_check),
                        (ver, _cmd_verify)):
        parser.set_defaults(run=run)
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # a cap below 1 would refuse every homset, and verify would count
        # each refusal as an expected skip
        if getattr(args, "cap", 1) < 1:
            raise LatqError(f"--cap must be at least 1, got {args.cap}")
        return args.run(args)
    except (LatqError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

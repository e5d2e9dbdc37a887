"""Command line surface.

Commands: enum, rep build, rep check, shuffle mul, shuffle check, shift.
Exit codes: 0 pass, 1 relation failure, 2 usage, 3 cap exceeded (`enum`
only), 4 resonance, 5 kernel error.  A flag several commands share with
one default is declared once, in a parent parser.  `rep check --operators`
verifies a file as exactly what `rep build` writes for its header.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import partitions3d as p3
from . import pyramid as pyr
from .errors import CapExceeded, DenominatorNotCancelled, InconsistentShift, Resonance, YangianppError
from .exact import QQ, Kernel, Params, random_params
from .relations import GROUPS, full_suite
from .reps import Geometry, Representation, detect_shift, dump_operators, operators_built, operators_header

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_RESONANCE = 4
EXIT_KERNEL = 5

MAX_BOXES = 10  # enum pp's cap on --max-boxes
MAX_LENGTH = 5  # enum pyramid's cap on --length


def _parse_geometry(s: str):
    if s == "c3":
        return "c3", 0
    if s.startswith("conifold:"):
        return "conifold", int(s.split(":", 1)[1])
    raise ValueError(f"geometry must be c3 or conifold:m, got {s!r}")


def _params_from_args(args) -> Params:
    mode = getattr(args, "mode", "rational")  # the shuffle commands have no --mode
    if args.params == "random":
        return random_params(args.seed, mode=mode)
    h1, h2, chi = args.params.split(",")
    return Params.make(h1, h2, chi, mode=mode)


def _rep(args) -> Representation:
    """The representation `rep build` and `shift` read off their flags."""
    kind, m = _parse_geometry(args.geometry)
    return Representation(Geometry(kind, _params_from_args(args), args.level, m=m, sector=args.sector))


def _emit(obj, args):
    """obj as sorted JSON, or text as it is, to --out or stdout."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_enum(args) -> int:
    if args.what == "pp":
        if args.max_boxes < 0:
            print("enum pp: --max-boxes must be nonnegative", file=sys.stderr)
            return EXIT_USAGE
        if args.max_boxes > MAX_BOXES:
            raise CapExceeded(f"max_boxes {args.max_boxes} exceeds cap {MAX_BOXES}")
        levels = p3.enumerate_plane_partitions(args.max_boxes)
        out = {
            "counts": [len(L) for L in levels],
            "levels": [[lam.to_json() for lam in L] for L in levels],
        }
        _emit(out, args)
        return EXIT_OK
    # pyramid
    if args.length < 1 or args.max_stones < 0:
        print("enum pyramid: bad --length/--max-stones", file=sys.stderr)
        return EXIT_USAGE
    if args.length > MAX_LENGTH:
        raise CapExceeded(f"length {args.length} exceeds cap {MAX_LENGTH}")
    groups = pyr.enumerate_pyramids(pyr.build_erc(args.length), args.max_stones, sector=args.sector)
    out = {
        "length": args.length,
        "groups": [
            {
                "blacks": b,
                "whites": w,
                "sector": b - w,
                "count": len(pis),
                "pyramids": [pi.to_json() for pi in pis],
            }
            for (b, w), pis in groups.items()
        ],
    }
    _emit(out, args)
    return EXIT_OK


def cmd_rep_build(args) -> int:
    _emit(dump_operators(_rep(args), args.imax), args)
    return EXIT_OK


def _text(x) -> str:
    """x as JSON text with sorted keys, so 1.0 is not 1 and false is not 0."""
    return json.dumps(x, sort_keys=True)


def _differing(ours: dict, theirs) -> list:
    """The keys, sorted, that one of two objects lacks or at which their
    values differ as JSON text; every key of ours when theirs is no object."""
    if not isinstance(theirs, dict):
        return sorted(ours)
    return [k for k in sorted(ours | theirs) if k not in ours or k not in theirs or _text(ours[k]) != _text(theirs[k])]


def _verify_operator_file(path) -> int:
    """Compare the file, as JSON text, one section and then one operator at
    a time, with what `rep build` writes for its header: the geometry's kind,
    N, m and sector, the params' mode, h1, h2 and chi (or an older prime-field
    file's residues), and the e and f key count.  Exit 2 if the header cannot
    say what to rebuild, else 1 naming the first section that differs."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        g, pj, stored = data["geometry"], data["params"], data["operators"]
        kind, header, families = g["kind"], [g["N"], g.get("m", 0), g.get("sector", 0)], [stored["e"], stored["f"]]
        if not all(type(v) is int for v in header) or not all(isinstance(ops, dict) for ops in families):
            raise TypeError("geometry N, m and sector must be integers and each operator family an object")
        params = Params.make(pj["h1"], pj["h2"], pj["chi"], mode=pj.get("mode", "rational"))
    except (OSError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"cannot read what to rebuild from the operator file: {exc!r}") from exc
    rep = Representation(Geometry(kind, params, *header))
    count = max(len(families[0]), len(families[1]), 1)  # each family must hold the keys 0..count-1
    want = operators_header(rep)
    residues = {k: params.field.str(getattr(params, k)) for k in ("h1", "h2", "h3", "chi")}
    pexp = min(want["params"], want["params"] | residues, key=lambda w: len(_differing(w, pj)))
    want["params"] = want["geometry"]["params"] = pexp
    levels, basis = want["basis"]["levels"], data.get("basis")
    theirs = basis["levels"] if isinstance(basis, dict) and isinstance(basis.get("levels"), list) else []
    wrong = [f"{fam}_{i} is missing" for fam, ops in zip("ef", families) for i in range(count) if str(i) not in ops]
    wrong += [f"params.{k} {pj.get(k)!r} is not {pexp.get(k)!r}" for k in _differing(pexp, pj)]
    wrong += [f"geometry.params.{k} differs from params.{k}" for k in _differing(pexp, g.get("params"))]
    wrong += [f"basis level {n} disagrees with recomputation"
              for n, (a, b) in enumerate(itertools.zip_longest(levels, theirs)) if _text(a) != _text(b)]
    wrong += [f"{k} disagrees with recomputation" for k in _differing(want, data) if k != "operators"]
    wrong += [f"operators.{k} disagrees with recomputation" for k in sorted(stored.keys() - {"e", "f"})]
    wrong_op = (f"{fam}_{key} disagrees with recomputation" for fam, key, op in operators_built(rep, count - 1)
                if _text(op) != _text(stored[fam][key]))
    if first := next(itertools.chain(wrong, wrong_op), None):
        print(f"operator file mismatch: {first}", file=sys.stderr)
        return EXIT_RELATION
    print("operator file verified")
    return EXIT_OK


def cmd_rep_check(args) -> int:
    if args.operators:
        if unused := [f"--{k.replace('_', '-')}" for k in vars(args) if k in getattr(args, "given", ())]:
            raise ValueError(f"rep check --operators reads only the file, not {', '.join(unused)}")
        return _verify_operator_file(args.operators)
    kind, m = _parse_geometry(args.geometry)
    which = tuple(args.relations.split(","))
    bundle = full_suite(
        kind,
        args.level,
        imax=args.imax,
        m=m,
        sector=args.sector,
        specializations=args.specializations,
        seed=args.seed,
        mode=args.mode,
        which=which,
    )
    _emit(bundle.to_json(), args)
    if not bundle.all_pass:
        failing = sorted(
            {r.relation for reps in bundle.reports for r in reps if r.status == "fail"}
        )
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return EXIT_RELATION
    return EXIT_OK


def cmd_shift(args) -> int:
    rep = _rep(args)
    l, z1 = detect_shift(rep)
    _emit({"l": l, "z1": rep.geometry.params.field.str(z1)}, args)
    return EXIT_OK


def _parse_kernel(s: str, params):
    if s == "a1":
        return Kernel.a1()
    if s == "c3":
        return Kernel.c3(params)
    if s.startswith("jordan:"):
        return Kernel.jordan(QQ.of(s.split(":", 1)[1]))
    raise ValueError(f"kernel must be a1, c3 or jordan:c, got {s!r}")


def _parse_sym(expr: str, field):
    from .shuffle import SymPoly

    expr = expr.strip()
    if expr == "1":
        return SymPoly.power(0, field=field)
    if expr == "x":
        return SymPoly.power(1, field=field)
    if expr.startswith("x^"):
        return SymPoly.power(int(expr[2:]), field=field)
    raise ValueError(f"cannot parse shuffle operand {expr!r} (use 1, x or x^k)")


def cmd_shuffle(args) -> int:
    from .shuffle import check_a1_anticomm, check_assoc, check_c3_ee, check_jordan_ee, shuffle_mul

    params = _params_from_args(args)
    kernel = _parse_kernel(args.kernel, params)
    if args.action == "mul":
        f = _parse_sym(args.left, kernel.field)
        g = _parse_sym(args.right, kernel.field)
        prod = shuffle_mul(f, g, kernel)
        out = {
            "variables": prod.v,
            "terms": {
                ",".join(map(str, e)): kernel.field.str(c) for e, c in sorted(prod.poly.terms.items())
            },
        }
        _emit(out, args)
        return EXIT_OK
    # shuffle check
    reports = [check_assoc(kernel, trials=12)]
    if args.kernel == "a1":
        reports.append(check_a1_anticomm())
    elif args.kernel == "c3":
        reports.append(check_c3_ee(params, imax=2))
    elif args.kernel.startswith("jordan:"):
        reports.append(check_jordan_ee(kernel.numerator_weights[0]))
    _emit({"relations": [r.to_json() for r in reports]}, args)
    return EXIT_OK if all(r.status == "pass" for r in reports) else EXIT_RELATION


class _Given(argparse.Action):
    """Stores a flag's value and notes its dest in `given`, so a command can
    tell a flag given at its default from one left out."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.dest,)


def _flag(*names, **kw):
    """A parent parser that declares one shared flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, action=_Given, **kw)
    return parent


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="yangianpp",
        description="Exact fixed-point representations of shifted affine Yangians "
        "on plane partitions and pyramid partitions, with relation verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # Parents share their Action objects: a set_defaults on one command
    # would change a shared flag's default in every command.
    out = _flag("--out")
    seed = _flag("--seed", type=int, default=2024)
    params = _flag("--params", default="random", help='"h1,h2,chi" as p/q strings or "random"')
    mode = _flag("--mode", choices=("rational", "prime-field"), default="rational")
    sector = _flag("--sector", type=int, default=1)
    kernel = _flag("--kernel", default="c3")

    p_enum = sub.add_parser("enum", help="enumerate fixed-point bases")
    enum_sub = p_enum.add_subparsers(dest="what", required=True)
    pp = enum_sub.add_parser("pp", parents=[out], help="3D plane partitions by box count")
    pp.add_argument("--max-boxes", type=int, required=True)
    pp.set_defaults(func=cmd_enum)
    py = enum_sub.add_parser("pyramid", parents=[out], help="pyramid partitions of a length-m room")
    py.add_argument("--length", type=int, required=True)
    py.add_argument("--max-stones", type=int, required=True)
    py.add_argument("--sector", type=int, default=None)
    py.set_defaults(func=cmd_enum)

    p_rep = sub.add_parser("rep", help="build or check a representation")
    rep_sub = p_rep.add_subparsers(dest="action", required=True)
    rb = rep_sub.add_parser("build", parents=[params, seed, mode, sector, out],
                            help="write basis and operator matrices")
    rb.add_argument("--geometry", required=True, help="c3 or conifold:m")
    rb.add_argument("--level", type=int, default=3)
    rb.add_argument("--imax", type=int, default=1)
    rb.set_defaults(func=cmd_rep_build)
    rc = rep_sub.add_parser("check", parents=[seed, mode, sector, out], help="run the relation suite")
    rc.add_argument("--geometry", action=_Given, default="c3")
    rc.add_argument("--level", action=_Given, type=int, default=5)
    rc.add_argument("--imax", action=_Given, type=int, default=2)
    rc.add_argument("--relations", action=_Given, default="all", help="all or comma list: " + ",".join(GROUPS))
    rc.add_argument("--specializations", action=_Given, type=int, default=3)
    rc.add_argument("--operators", help="verify a stored operator file instead")
    rc.set_defaults(func=cmd_rep_check)

    p_shuffle = sub.add_parser("shuffle", help="shuffle-algebra products and checks")
    sh_sub = p_shuffle.add_subparsers(dest="action", required=True)
    sm = sh_sub.add_parser("mul", parents=[kernel, params, seed, out], help="multiply two one-variable monomials")
    sm.add_argument("left")
    sm.add_argument("right")
    sm.set_defaults(func=cmd_shuffle)
    sc = sh_sub.add_parser("check", parents=[kernel, params, seed, out], help="kernel relation checks")
    sc.set_defaults(func=cmd_shuffle)

    p_shift = sub.add_parser("shift", parents=[params, seed, mode, sector, out],
                             help="detect the shift degree and point")
    p_shift.add_argument("--geometry", required=True)
    p_shift.add_argument("--level", type=int, default=3)
    p_shift.set_defaults(func=cmd_shift)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Resonance as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except DenominatorNotCancelled as exc:
        print(f"kernel error: {exc}", file=sys.stderr)
        return EXIT_KERNEL
    except InconsistentShift as exc:
        print(f"relation failure: {exc}", file=sys.stderr)
        return EXIT_RELATION
    except (ValueError, YangianppError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

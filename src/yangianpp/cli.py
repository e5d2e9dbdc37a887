"""Command line surface.

Commands: enum, rep build, rep check, shuffle mul, shuffle check, shift.
Exit codes: 0 pass, 1 relation failure, 2 usage, 3 cap exceeded (`enum`
only), 4 resonance, 5 kernel error.  A flag several commands share with
one default is declared once, in a parent parser.
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
from .reps import Geometry, Representation, SparseOperator, detect_shift, dump_operators

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


def _verify_operator_file(path) -> int:
    """Recompute the basis and operators for the stored config and compare.

    The e and f families must both hold exactly the keys 0..k, and params,
    repeated as geometry.params, as `rep build` writes them; a file that
    cannot be read, lacks a section or holds one of the wrong type, or that
    writes an entry otherwise than `rep build` does, is a usage error.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        g, pj, stored = data["geometry"], data["params"], data["operators"]
        kind, level, labels = g["kind"], g["N"], data["basis"]["levels"]
        m, sector = g.get("m", 0), g.get("sector", 0)
        if not all(type(v) is int for v in (level, m, sector)):
            raise TypeError("geometry N, m and sector must be integers")
        families = {fam: stored[fam] for fam in ("e", "f")}
        if not (isinstance(labels, list) and all(isinstance(ops, dict) for ops in families.values())):
            raise TypeError("basis levels must be a list and each operator family an object")
        # h1/h2/h3/chi are the source rationals as strings; older prime-field
        # files store residue strings instead, which map to the same field elements
        raw = {k: pj[k] for k in ("h1", "h2", "h3", "chi")}
        if not all(type(v) is str for v in raw.values()) or not isinstance(g["params"], dict):
            raise TypeError("params h1, h2, h3 and chi must be strings and geometry params an object")
        h1, h2, _, chi = map(QQ.of, raw.values())
        mode = pj.get("mode", "rational")
    except OSError as exc:
        raise ValueError(f"cannot read operator file: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"operator file has no {exc} entry") from exc
    except TypeError as exc:
        raise ValueError(f"operator file has a malformed section: {exc}") from exc
    count = max(len(families["e"]), len(families["f"]), 1)
    for fam, ops in families.items():
        missing = [i for i in range(count) if str(i) not in ops]
        if missing:
            print(f"operator file incomplete: {fam}_{missing[0]} is missing", file=sys.stderr)
            return EXIT_RELATION
    params = Params.make(h1, h2, chi, mode=mode)
    written = [params.to_json(), {k: params.field.str(getattr(params, k)) for k in raw}]  # the older: residues
    expect, gp = min(written, key=lambda w: sum(w[k] != v for k, v in raw.items())), g["params"]
    wrong = [f"params.{k} {v!r} is not {expect[k]!r}" for k, v in raw.items() if v != expect[k]]
    wrong += [f"geometry.params.{k} differs from params.{k}" for k in sorted(gp | pj) if gp.get(k) != pj.get(k)]
    if wrong:
        print(f"operator file mismatch: {wrong[0]}", file=sys.stderr)
        return EXIT_RELATION
    geometry = Geometry(kind, params, level, m=m, sector=sector)
    rep = Representation(geometry)
    for n, (ours, theirs) in enumerate(itertools.zip_longest(rep.basis.to_json(), labels)):
        if ours != theirs:
            print(f"operator file mismatch: basis level {n} disagrees with recomputation", file=sys.stderr)
            return EXIT_RELATION
    for fam, builder in (("e", rep.build_e), ("f", rep.build_f)):
        for key, opjson in families[fam].items():
            try:
                stored_op = SparseOperator.from_json(opjson, params.field)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"operator file has a malformed {fam}_{key}: {exc!r}") from exc
            if builder(int(key)).to_json() != stored_op.to_json():
                print(
                    f"operator file mismatch: {fam}_{key} disagrees with recomputation",
                    file=sys.stderr,
                )
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

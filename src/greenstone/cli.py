"""Command-line surface.

Exit codes: 0 success, 2 validation failure, 3 claim failure, 4 usage
error.  All outputs are deterministic given the inputs and seeds.

The claim suite, the census and the symbolic catalog are imported by the
commands that use them, so ``analyze`` and the other file commands load
only the engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .biact import FiniteBiact, product_biact
from .core import FiniteSemigroup, rees_quotient, zero_direct_union
from .errors import GreenstoneError, InvalidSuiteConfig, UnknownClaim, ValidationError
from .formats import dump, load
from .green import _bits, class_counts, eggbox_dot, green_index, green_structure, poset_dot
from .props import (
    group_bound,
    l_periodic,
    left_stable,
    left_stable_forms,
    minimal_condition,
    r_periodic,
    right_stable,
    stable,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CLAIM = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _parse_members(text: str) -> frozenset[int]:
    try:
        return frozenset(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"element list {text!r} must be comma-separated ids") from exc


def cmd_analyze(args) -> int:
    obj = load(args.input)
    counts = class_counts(obj)
    if isinstance(obj, FiniteBiact):
        print(f"kind: biact  carrier: {obj.size}  "
              f"left order: {obj.left.order}  right order: {obj.right.order}")
    else:
        print(f"kind: semigroup  order: {obj.order}")
    line = " ".join(f"{k}:{counts[k]}" for k in ("L", "R", "J", "H", "D"))
    print(f"{line}; stable: {str(bool(stable(obj))).lower()}")
    print(f"left stable: {bool(left_stable(obj))}  right stable: {bool(right_stable(obj))}")
    forms = left_stable_forms(obj)
    print(f"left-stability forms agree: {len(set(forms)) == 1} ({sum(forms)}/8 true)")
    mks = {k: bool(minimal_condition(obj, k)) for k in ("L", "R", "J")}
    print("minimal conditions:", " ".join(f"M_{k}:{str(v).lower()}" for k, v in mks.items()))
    print(f"l-periodic: {bool(l_periodic(obj))}  r-periodic: {bool(r_periodic(obj))}")
    if isinstance(obj, FiniteSemigroup):
        print(f"group-bound: {bool(group_bound(obj))}")
        # the principal ideal of x is the down-set of its J-class
        gs = green_structure(obj)
        members = gs.classes["J"]
        principal = sorted(tuple(sorted(y for c in _bits(reach) for y in members[c]))
                           for reach in gs.data["J"].reach)
        rendered = ["{" + ",".join(map(str, ideal)) + "}" for ideal in principal]
        print(f"principal ideals: {' '.join(rendered)}")
    return EXIT_OK


def cmd_eggbox(args) -> int:
    obj = load(args.input)
    gs = green_structure(obj)
    if args.dot:
        if args.d_class is not None:
            print(eggbox_dot(obj, args.d_class))
        else:
            print(poset_dot(obj, args.relation))
        return EXIT_OK
    targets = [args.d_class] if args.d_class is not None else range(gs.num_classes("D"))
    for d in targets:
        grid = gs.eggbox(d)
        print(f"D-class {d}:")
        for row in grid:
            print("  " + " | ".join("{" + ",".join(map(str, cell)) + "}" for cell in row))
    return EXIT_OK


def cmd_index(args) -> int:
    obj = load(args.semigroup)
    if not isinstance(obj, FiniteSemigroup):
        raise ValidationError("the index command expects a semigroup file")
    members = _parse_members(args.sub)
    result = green_index(obj, members)
    print(f"green index: {result.index}")
    print(f"relative H-classes outside: {result.outside_h_classes}, "
          f"inside: {result.inside_h_classes}")
    print(f"quotient classes: L:{result.quotient_l_classes} R:{result.quotient_r_classes}")
    return EXIT_OK


def _require(args, what: str, *names: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"construct {what} needs {', '.join(missing)}")


def cmd_construct(args) -> int:
    from .symbolic import build_usa, build_usta

    what = args.what
    if what == "usta":
        _require(args, what, "s", "t", "biact")
        built, _ = build_usta(load(args.s), load(args.t), load(args.biact))
    elif what == "usa":
        _require(args, what, "s", "biact")
        built, _ = build_usa(load(args.s), load(args.biact))
    elif what == "rees":
        _require(args, what, "s", "ideal")
        built = rees_quotient(load(args.s), _parse_members(args.ideal))
    elif what == "zdu":
        _require(args, what, "s", "t")
        built = zero_direct_union(load(args.s), load(args.t))
    else:
        _require(args, what, "s", "t")
        built = product_biact(load(args.s), load(args.t))
    dump(built, args.out)
    reloaded = load(args.out)
    if reloaded != built:
        raise ValidationError("round-trip mismatch")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_enum(args) -> int:
    from .enumeration import (
        BIACT_EXHAUSTIVE_CARRIER_CAP,
        SEMIGROUP_ORDER_CAP,
        all_biacts,
        all_semigroups,
    )

    # everything is checked and enumerated before --out is created, so a
    # refused run leaves nothing behind
    if args.biacts:
        if args.left is None or args.right is None:
            raise _UsageError("biact enumeration needs --left and --right files")
        if not 1 <= args.carrier <= BIACT_EXHAUSTIVE_CARRIER_CAP:
            raise _UsageError(f"enum --carrier must be in 1..{BIACT_EXHAUSTIVE_CARRIER_CAP}, "
                              f"got {args.carrier}")
        items = all_biacts(load(args.left), load(args.right), args.carrier)
        prefix = f"biact{args.carrier}"
    else:
        if not 1 <= args.order <= SEMIGROUP_ORDER_CAP:
            raise _UsageError(f"enum --order must be in 1..{SEMIGROUP_ORDER_CAP}, "
                              f"got {args.order}")
        items = all_semigroups(args.order)
        prefix = f"sg{args.order}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(items):
        dump(item, out / f"{prefix}_{i:04d}.json")
    print(f"wrote {len(items)} instances to {out}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    from .symbolic import (
        catalog,
        catalog_entry,
        corollary_4_19_instance,
        corollary_5_12_instance,
        example_4_8,
        verify_chain,
    )

    if args.action == "list":
        for name, entry in sorted(catalog().items()):
            sheet = entry.sheet
            mks = " ".join(f"M_{k}:{str(bool(sheet.value('M_' + k))).lower()}"
                           for k in ("L", "R", "J"))
            print(f"{name:10s} {mks} stable:{str(bool(sheet.value('stable'))).lower()}")
        print("families: free{k}, null{n};  instances: ex4.8, cor4.19, cor5.12")
        return EXIT_OK
    name = args.name
    if name is None:
        raise _UsageError("catalog show needs an entry name")
    if args.depth < 1:
        raise _UsageError("catalog show needs --depth of at least 1")
    if args.chain and args.depth < 2:
        raise _UsageError("catalog show --chain needs --depth of at least 2 "
                          "(two elements to compare)")
    if name == "ex4.8":
        obj = example_4_8()["biact"]
    elif name == "cor4.19":
        obj = corollary_4_19_instance().ideal_order()
    elif name == "cor5.12":
        obj = corollary_5_12_instance().u
    else:
        obj = catalog_entry(name)
    if args.chain:
        chain = obj.chain(args.chain) if hasattr(obj, "chain") else None
        if chain is None:
            raise ValidationError(f"{name} advertises no {args.chain}-chain")
        steps = args.depth - 1
        res = verify_chain(obj, chain, args.chain, steps)
        elements = [obj.encode(chain(i)) for i in range(args.depth)]
        print(json.dumps(elements))
        print(f"strictly descending for {steps} steps: {res.ok}")
        return EXIT_OK if res.ok else EXIT_CLAIM
    sheet = getattr(obj, "sheet", None)
    payload = {"name": name}
    if sheet:
        payload["sheet"] = sheet.to_json()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _check_report_path(path: Optional[str]) -> None:
    """Refuse a ``--report`` path that cannot be written before any work is
    done.  The path is opened for appending, which leaves an existing
    report as it was; a new file is removed again at once, so a run that is
    refused or fails later leaves nothing behind."""
    if path:
        existed = Path(path).exists()
        open(path, "a").close()
        if not existed:
            Path(path).unlink()


def cmd_verify(args) -> int:
    from .verify import SuiteConfig, run_suite

    config = SuiteConfig(max_order=args.max_order, depth=args.depth,
                         samples=args.samples, seed=args.seed,
                         random_biacts=args.random_biacts)
    selection = "all" if args.suite == "all" else args.suite.split(",")
    _check_report_path(args.report)
    report = run_suite(selection, config)
    for line in report.summary_lines():
        print(line)
    if args.report:
        Path(args.report).write_text(report.to_json_text(include_timings=args.timings))
        print(f"report written to {args.report}")
    return EXIT_OK if report.all_passed else EXIT_CLAIM


def cmd_probe(args) -> int:
    from .verify import SuiteConfig, probe_open_problem

    config = SuiteConfig(seed=args.seed)
    _check_report_path(args.report)
    report = probe_open_problem(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"report written to {args.report}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="greenstone",
                     description="Green's relations, stability and minimal "
                                 "conditions on finite semigroups and biacts")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="class counts and predicates of a file")
    p.add_argument("input")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eggbox", help="egg-box grids or class posets")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--d-class", type=int, default=None)
    p.add_argument("--relation", choices=["L", "R", "J"], default="J")
    p.set_defaults(func=cmd_eggbox)

    p = sub.add_parser("index", help="Green index of a subsemigroup")
    p.add_argument("--semigroup", required=True)
    p.add_argument("--sub", required=True, help="comma-separated element ids")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("construct", help="build and write a derived structure")
    p.add_argument("what", choices=["usta", "usa", "rees", "zdu", "product"])
    p.add_argument("--s", help="first semigroup file")
    p.add_argument("--t", help="second semigroup file")
    p.add_argument("--biact", help="biact file (usta/usa)")
    p.add_argument("--ideal", help="comma-separated ids (rees)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enum", help="write exhaustive instance files")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--biacts", action="store_true")
    p.add_argument("--left", help="left semigroup file (biact mode)")
    p.add_argument("--right", help="right semigroup file (biact mode)")
    p.add_argument("--carrier", type=int, default=2)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("catalog", help="symbolic catalog entries and chains")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--chain", choices=["L", "R", "J"])
    p.add_argument("--depth", type=int, default=5)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="run the claim suite")
    p.add_argument("--suite", default="all",
                   help='"all" or a comma-separated list of claim ids')
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--random-biacts", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in the report (breaks byte-level "
                        "reproducibility)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="search surface for the open transfer question")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, UnknownClaim, InvalidSuiteConfig) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GreenstoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

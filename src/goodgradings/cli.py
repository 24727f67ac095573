"""Command-line front end: classify, verify, count, and query.

Output is plain text for terminals or canonical JSON for programs.
All rational values are serialized as exact fraction strings
("3/2", "-1"); floats never appear.  Exit codes: 0 success, 2 invalid
input, 1 internal verification failure (a bug, never valid input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .algebras import AlgebraSpec, Family
from .classify import (GoodGradingFamily, center_torus, good_gradings,
                       sweep_grid, sweep_oracle)
from .exceptional import ExceptionalDataError, exceptional_lookup
from .gradings import VerificationError
from .parabolic import ParabolicSpec, richardson_is_good
from .partitions import Partition
from .pyramids import render_pyramid
from .series import (pyramid_count_series, pyramid_counts_by_partition,
                     pyramid_series_identity_check, unimodal_count_series)

SCHEMA_VERSION = 1

NODE_ORDER_NOTE = ("labels follow the chain alpha_1..alpha_rank; "
                   "for D the last two labels are the fork pair")


class InputError(Exception):
    pass


def _parse_ints(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {s!r}")


def _parse_partition(s: str) -> Partition:
    try:
        return Partition.of(_parse_ints(s))
    except ValueError as exc:
        raise InputError(str(exc))


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"expected an exact rational such as 1/2, got {s!r}")


def _family_spec(letter: str, p: Partition) -> AlgebraSpec:
    letter = letter.upper()
    n = p.n
    try:
        if letter in ("A", "GL"):
            return AlgebraSpec(Family.GL, n)
        if letter == "C":
            if not p.is_symplectic():
                raise InputError(f"{p} is not a symplectic partition")
            return AlgebraSpec(Family.SP, n)
        if letter == "B":
            if n % 2 == 0:
                raise InputError("family B needs an odd partition total")
            if not p.is_orthogonal():
                raise InputError(f"{p} is not an orthogonal partition")
            return AlgebraSpec(Family.SO, n)
        if letter == "D":
            if n % 2 == 1:
                raise InputError("family D needs an even partition total")
            if not p.is_orthogonal():
                raise InputError(f"{p} is not an orthogonal partition")
            return AlgebraSpec(Family.SO, n)
    except ValueError as exc:
        raise InputError(str(exc))
    raise InputError(f"unknown family {letter!r} (expected A/B/C/D or GL)")


def _frac(x: Fraction) -> str:
    return str(x)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _entry_payload(ent) -> dict:
    kind, values = ent.source
    return {
        "diagonal": [_frac(x) for x in ent.H.diagonal],
        "characteristic": {
            "diagram": ent.characteristic.diagram,
            "rank": ent.characteristic.rank,
            "labels": [int(x) for x in ent.characteristic.labels],
            "node_order": NODE_ORDER_NOTE,
        },
        "is_dynkin": ent.is_dynkin,
        "is_even": ent.is_even,
        "source": {"kind": kind, "values": [_frac(Fraction(v)) for v in values]},
        "verification": "verified",
    }


def _family_payload(fam: GoodGradingFamily) -> dict:
    return {
        "family": fam.spec.family.value,
        "size": fam.spec.size,
        "partition": list(fam.partition.parts),
        "count": len(fam.entries),
        "gradings": [_entry_payload(ent) for ent in fam.entries],
    }


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _report(command: str, inputs: dict, results: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": inputs,
        "results": results,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }


def _cmd_classify(args) -> int:
    started = time.monotonic()
    p = _parse_partition(args.partition)
    spec = _family_spec(args.family, p)
    try:
        fam = good_gradings(spec, p)
    except ValueError as exc:
        raise InputError(str(exc))
    results = _family_payload(fam)
    lines = [f"{len(fam.entries)} good grading(s) for partition {p} "
             f"in {spec.family.value.lower()}_{spec.size}"]
    for ent in fam.entries:
        tags = [t for t, flag in (("dynkin", ent.is_dynkin),
                                  ("even", ent.is_even)) if flag]
        tag = f"  [{', '.join(tags)}]" if tags else ""
        lines.append(f"  diag({', '.join(_frac(x) for x in ent.H.diagonal)})"
                     f"  characteristic {ent.characteristic}{tag}")
    _emit(_report("classify", {"family": args.family, "partition": args.partition},
                  results, started), args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    started = time.monotonic()
    p = _parse_partition(args.partition)
    spec = _family_spec(args.family, p)
    bound = _parse_fraction(args.bound)
    step = _parse_fraction(args.step)
    try:
        sweep_grid(spec, p, bound, step)
        fam = good_gradings(spec, p)
        swept = sweep_oracle(spec, p, bound, step)
    except ValueError as exc:
        raise InputError(str(exc))
    enumerated = fam.diagonals()
    brute = {H.diagonal for H in swept}
    match = enumerated == brute
    results = {
        "enumerated": len(enumerated),
        "swept": len(brute),
        "match": match,
        "pyramids": len(center_torus(spec).pyramids(p)),
    }
    lines = [f"partition {p} in {spec.family.value.lower()}_{spec.size}:",
             f"  enumerated gradings: {len(enumerated)}",
             f"  sweep oracle found:  {len(brute)}",
             f"  sets match: {'yes' if match else 'NO'}"]
    _emit(_report("verify", {"family": args.family, "partition": args.partition,
                             "bound": args.bound, "step": args.step},
                  results, started), args.format, lines)
    if not match:
        print("verification mismatch between enumeration and sweep oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_pyramids(args) -> int:
    started = time.monotonic()
    p = _parse_partition(args.partition)
    spec = _family_spec(args.family, p)
    try:
        pyrs = center_torus(spec).pyramids(p)
    except ValueError as exc:
        raise InputError(str(exc))
    results = {
        "count": len(pyrs),
        "pyramids": [{
            "rows": [{"y": r.y, "first": _frac(r.first), "count": r.count,
                      "role": r.role} for r in pyr.rows],
        } for pyr in pyrs],
    }
    lines = [f"{len(pyrs)} pyramid(s) for partition {p} (family {args.family.upper()})"]
    for k, pyr in enumerate(pyrs):
        lines.append(f"-- pyramid {k}:")
        lines.append(render_pyramid(pyr))
    _emit(_report("pyramids", {"family": args.family, "partition": args.partition},
                  results, started), args.format, lines)
    return 0


def _cmd_series(args) -> int:
    started = time.monotonic()
    order = args.order
    if order < 1:
        raise InputError("order must be >= 1")
    closed = pyramid_count_series(order)
    direct = pyramid_counts_by_partition(order)
    unimodal = unimodal_count_series(order)
    identity = pyramid_series_identity_check(order)
    results = {
        "order": order,
        "pyramid_counts": list(closed.coeffs),
        "pyramid_counts_by_partition": direct,
        "unimodal_counts": list(unimodal.coeffs),
        "product_form_identity": identity,
        "series_match": list(closed.coeffs) == direct,
    }
    lines = [f"pyramid counts through q^{order}: {list(closed.coeffs)[1:]}",
             f"unimodal counts through q^{order}: {list(unimodal.coeffs)[1:]}",
             f"product form identity holds: {identity}"]
    _emit(_report("series", {"order": order}, results, started),
          args.format, lines)
    return 0


def _richardson_reason(par: ParabolicSpec, good: bool) -> str:
    if par.spec.family is Family.GL:
        return ("composition is unimodal" if good
                else "composition is not unimodal")
    if good:
        return "composition matches the goodness pattern"
    return "composition does not match any goodness pattern"


def _cmd_richardson(args) -> int:
    started = time.monotonic()
    blocks = _parse_ints(args.composition)
    letter = args.family.upper()
    q = args.q
    try:
        if letter in ("A", "GL"):
            spec = AlgebraSpec(Family.GL, sum(blocks))
        elif letter == "C":
            spec = AlgebraSpec(Family.SP, 2 * sum(blocks) + q)
        elif letter in ("B", "D"):
            spec = AlgebraSpec(Family.SO, 2 * sum(blocks) + q)
        else:
            raise InputError(f"unknown family {letter!r}")
        par = ParabolicSpec(spec, blocks, q)
    except ValueError as exc:
        raise InputError(str(exc))
    good = richardson_is_good(par)
    reason = _richardson_reason(par, good)
    results = {"composition": list(blocks), "q": q, "good": good,
               "reason": reason}
    verdict = "good" if good else f"not good ({reason})"
    lines = [f"Richardson element of ({args.composition}; q={q}) in "
             f"{spec.family.value.lower()}_{spec.size}: {verdict}"]
    _emit(_report("richardson", {"family": args.family,
                                 "composition": args.composition, "q": q},
                  results, started), args.format, lines)
    return 0


def _cmd_exceptional(args) -> int:
    started = time.monotonic()
    try:
        entry = exceptional_lookup(args.algebra, args.orbit)
    except ValueError as exc:
        raise InputError(str(exc))
    chars = entry.expanded_characteristics() if args.expand_symmetry \
        else entry.characteristics
    results = {
        "algebra": entry.algebra,
        "orbit": entry.orbit_label,
        "characteristics": [list(v) for v in chars],
        "table_row": entry.table_row,
        "dynkin_only": entry.dynkin_only,
        "node_order": "chain nodes left to right, branch node last",
    }
    if entry.dynkin_only:
        lines = [f"{entry.algebra} orbit {entry.orbit_label}: Dynkin only"]
    elif not chars:
        lines = [f"{entry.algebra} orbit {entry.orbit_label}: "
                 "no characteristics printed in source"]
    else:
        lines = [f"{entry.algebra} orbit {entry.orbit_label}: "
                 f"{len(chars)} characteristic(s)"]
        lines.extend("  " + " ".join(str(x) for x in v) for v in chars)
    _emit(_report("exceptional", {"algebra": args.algebra, "orbit": args.orbit},
                  results, started), args.format, lines)
    return 0


def _cmd_render(args) -> int:
    started = time.monotonic()
    p = _parse_partition(args.partition)
    spec = _family_spec(args.family, p)
    try:
        pyrs = center_torus(spec).pyramids(p)
    except ValueError as exc:
        raise InputError(str(exc))
    if not 0 <= args.index < len(pyrs):
        raise InputError(f"pyramid index out of range (0..{len(pyrs) - 1})")
    picture = render_pyramid(pyrs[args.index])
    results = {"index": args.index, "render": picture}
    _emit(_report("render", {"family": args.family, "partition": args.partition,
                             "index": args.index}, results, started),
          args.format, [picture])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodgradings",
        description="Good Z-gradings of classical Lie algebras: "
                    "construct, enumerate, verify.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, partition=True):
        sp.add_argument("--family", required=True,
                        help="A, B, C, D, or GL")
        if partition:
            sp.add_argument("--partition", required=True,
                            help="comma-separated parts, e.g. 2,2")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("classify", help="enumerate all good gradings")
    common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("verify",
                        help="check the enumeration against the sweep oracle")
    common(sp)
    sp.add_argument("--bound", default="3", help="grid bound (rational)")
    sp.add_argument("--step", default="1/2", help="grid step (rational)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("pyramids", help="enumerate pyramids")
    common(sp)
    sp.set_defaults(func=_cmd_pyramids)

    sp = sub.add_parser("series", help="pyramid and unimodal counting series")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("richardson",
                        help="closed-form Richardson goodness test")
    sp.add_argument("--family", required=True)
    sp.add_argument("--composition", required=True,
                    help="comma-separated flag jumps, order matters")
    sp.add_argument("--q", type=int, default=0, help="middle flag jump")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_richardson)

    sp = sub.add_parser("exceptional", help="query the exceptional tables")
    sp.add_argument("--algebra", required=True, help="G2, F4, E6, E7, E8")
    sp.add_argument("--orbit", required=True)
    sp.add_argument("--expand-symmetry", action="store_true",
                    help="include diagram-symmetry mirrors (E6)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_exceptional)

    sp = sub.add_parser("render", help="ASCII picture of one pyramid")
    common(sp)
    sp.add_argument("--index", type=int, default=0)
    sp.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ExceptionalDataError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

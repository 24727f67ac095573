"""Command-line front end: classify, verify, count, and query.

Output is plain text for terminals or canonical JSON for programs.
All rational values are serialized as exact fraction strings
("3/2", "-1"), written here from the library's doubled ints; floats
never appear.  Exit codes: 0 success, 2 invalid input, 1 internal
verification failure (a bug, never valid input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import gcd

from .algebras import AlgebraSpec, Family, GradingElement
from .classify import (GoodGradingFamily, center_torus, good_gradings,
                       sweep_oracle)
from .exceptional import ExceptionalDataError, exceptional_lookup
from .gradings import VerificationError
from .parabolic import ParabolicSpec, richardson_is_good
from .partitions import Partition
from .pyramids import render_pyramid
from .series import (pyramid_count_formula, pyramid_count_series,
                     pyramid_counts_by_partition, pyramid_series_identity_check,
                     unimodal_count_series)

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


_FAMILY_LETTERS = {"A": Family.GL, "GL": Family.GL, "B": Family.SO,
                  "C": Family.SP, "D": Family.SO}


# Input limits of classify, verify, pyramids and render, checked before
# the algebra is built; richardson has the dimension limit.  They admit
# so_50 (dim 1225), the largest orbit the tests verify.  In-process on a
# 2-CPU Xeon, verify of (28,5,3) in gl_36 takes 0.13-0.15 s and of
# (9,9,7,7,5,5,3,3,1,1) in so_50 0.13 s (best of 3), at the host speed
# at which perfbench's `calibration` takes 2.4 ms: about 60 calibrations.
MAX_ALGEBRA_DIM = 1300
MAX_PYRAMIDS = 242
# `series` walks every partition up to its order, 646,192 at order 46
# (770,946 at 47), and nearly all of its time goes to that walk and the
# pyramid count product of each partition.  As a subprocess on a 2-CPU
# Xeon the whole command takes 0.83 s at order 46 and 1.0 s at 47,
# scaled to the host speed at which perfbench's `calibration` takes
# 3.5 ms (medians of 7 runs).
MAX_SERIES_ORDER = 46


def _letter_spec(letter: str, size: int) -> AlgebraSpec:
    """The algebra of a family letter and matrix size: A/GL, C, B with
    odd size, D with even size, and dimension at most MAX_ALGEBRA_DIM."""
    letter = letter.upper()
    if letter not in _FAMILY_LETTERS:
        raise InputError(f"unknown family {letter!r} (expected A/B/C/D or GL)")
    if letter == "B" and size % 2 == 0:
        raise InputError("family B needs an odd matrix size")
    if letter == "D" and size % 2 == 1:
        raise InputError("family D needs an even matrix size")
    try:
        spec = AlgebraSpec(_FAMILY_LETTERS[letter], size)
    except ValueError as exc:
        raise InputError(str(exc))
    if spec.dim > MAX_ALGEBRA_DIM:
        raise InputError(f"algebra dimension {spec.dim} exceeds {MAX_ALGEBRA_DIM}")
    return spec


def _family_spec(letter: str, p: Partition) -> AlgebraSpec:
    # the partition is checked first, so that an odd-total partition for
    # C is reported as not symplectic rather than as an odd matrix size
    family = _FAMILY_LETTERS.get(letter.upper())
    if family is Family.SP and not p.is_symplectic():
        raise InputError(f"{p} is not a symplectic partition")
    if family is Family.SO and not p.is_orthogonal():
        raise InputError(f"{p} is not an orthogonal partition")
    spec = _letter_spec(letter, p.n)
    # gl counts its pyramids by the product formula, before any is built;
    # within the dimension limit no sp/so orbit has more than 67 (so_48,
    # p = 23,23,1,1), which tests/test_cli.py checks
    if spec.family is Family.GL:
        count = pyramid_count_formula(p)
        if count > MAX_PYRAMIDS:
            raise InputError(f"{p} has {count} pyramids, more than {MAX_PYRAMIDS}")
    return spec


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def fraction_str(p: int, q: int) -> str:
    """p/q in lowest terms for q > 0, as "p/q", or "p" when q divides p."""
    d = gcd(p, q)
    p, q = p // d, q // d
    return str(p) if q == 1 else f"{p}/{q}"


def _diagonal(H: GradingElement) -> list[str]:
    """The diagonal of H: half the doubled entries for sp/so, and for gl
    the traceless representative, (n x_i - sum x) / 2n of doubled x."""
    x = H.doubled
    if H.spec.family is not Family.GL:
        return [fraction_str(d, 2) for d in x]
    n, total = len(x), sum(x)
    return [fraction_str(n * d - total, 2 * n) for d in x]


def _entry_payload(ent) -> dict:
    kind, values = ent.source
    return {
        "diagonal": _diagonal(ent.H),
        "characteristic": {
            "diagram": ent.characteristic.diagram,
            "rank": ent.characteristic.rank,
            "labels": list(ent.characteristic.labels),
            "node_order": NODE_ORDER_NOTE,
        },
        "is_dynkin": ent.is_dynkin,
        "is_even": ent.is_even,
        "source": {"kind": kind,
                   "values": [fraction_str(v, 2) for v in values]},
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


def _good_gradings(args) -> GoodGradingFamily:
    p = _parse_partition(args.partition)
    spec = _family_spec(args.family, p)
    try:
        return good_gradings(spec, p)
    except ValueError as exc:
        raise InputError(str(exc))


def _pyramids(args) -> tuple[Partition, list]:
    p = _parse_partition(args.partition)
    spec = _family_spec(args.family, p)
    try:
        return p, center_torus(spec, p).pyramids
    except ValueError as exc:
        raise InputError(str(exc))


def _cmd_classify(args):
    fam = _good_gradings(args)
    lines = [f"{len(fam.entries)} good grading(s) for partition {fam.partition} "
             f"in {fam.spec.family.value.lower()}_{fam.spec.size}"]
    for ent in fam.entries:
        tags = [t for t, flag in (("dynkin", ent.is_dynkin),
                                  ("even", ent.is_even)) if flag]
        tag = f"  [{', '.join(tags)}]" if tags else ""
        lines.append(f"  diag({', '.join(_diagonal(ent.H))})"
                     f"  characteristic {ent.characteristic}{tag}")
    return _family_payload(fam), lines


def _cmd_verify(args):
    fam = _good_gradings(args)
    # the sweep runs on a validated orbit: any error it raises is a bug,
    # a grading found twice included
    brute = set(sweep_oracle(fam))
    enumerated = fam.gradings()
    match = enumerated == brute
    results = {
        "enumerated": len(enumerated),
        "swept": len(brute),
        "match": match,
        "pyramids": len(fam),
    }
    lines = [f"partition {fam.partition} in "
             f"{fam.spec.family.value.lower()}_{fam.spec.size}:",
             f"  enumerated gradings: {len(enumerated)}",
             f"  sweep oracle found:  {len(brute)}",
             f"  sets match: {'yes' if match else 'NO'}"]
    return results, lines, 0 if match else 1


def _cmd_pyramids(args):
    p, pyrs = _pyramids(args)
    results = {
        "count": len(pyrs),
        "pyramids": [{
            "rows": [{"y": r.y, "first": fraction_str(r.first, 2),
                      "count": r.count, "role": r.role} for r in pyr.rows],
        } for pyr in pyrs],
    }
    lines = [f"{len(pyrs)} pyramid(s) for partition {p} (family {args.family.upper()})"]
    for k, pyr in enumerate(pyrs):
        lines.append(f"-- pyramid {k}:")
        lines.append(render_pyramid(pyr))
    return results, lines


def _cmd_series(args):
    order = args.order
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise InputError(f"order must be between 1 and {MAX_SERIES_ORDER}")
    closed = pyramid_count_series(order)
    direct = pyramid_counts_by_partition(order)
    unimodal = unimodal_count_series(order)
    identity = pyramid_series_identity_check(order)
    results = {
        "order": order,
        "pyramid_counts": closed,
        "pyramid_counts_by_partition": direct,
        "unimodal_counts": unimodal,
        "product_form_identity": identity,
        "series_match": closed == direct,
    }
    lines = [f"pyramid counts through q^{order}: {closed[1:]}",
             f"unimodal counts through q^{order}: {unimodal[1:]}",
             f"product form identity holds: {identity}"]
    return results, lines


def _richardson_reason(par: ParabolicSpec, good: bool) -> str:
    if par.spec.family is Family.GL:
        return ("composition is unimodal" if good
                else "composition is not unimodal")
    if good:
        return "composition matches the goodness pattern"
    return "composition does not match any goodness pattern"


def _cmd_richardson(args):
    blocks = _parse_ints(args.composition)
    q = args.q
    type_a = _FAMILY_LETTERS.get(args.family.upper()) is Family.GL
    if q < 0 and not type_a:  # before q sizes the algebra
        raise InputError("N - q must be even and q >= 0")
    spec = _letter_spec(args.family,
                        sum(blocks) if type_a else 2 * sum(blocks) + q)
    try:
        par = ParabolicSpec(spec, blocks, q)
        good = richardson_is_good(par)
    except ValueError as exc:
        raise InputError(str(exc))
    reason = _richardson_reason(par, good)
    results = {"composition": list(blocks), "q": q, "good": good,
               "reason": reason}
    verdict = "good" if good else f"not good ({reason})"
    lines = [f"Richardson element of ({args.composition}; q={q}) in "
             f"{spec.family.value.lower()}_{spec.size}: {verdict}"]
    return results, lines


def _cmd_exceptional(args):
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
    return results, lines


def _cmd_render(args):
    _, pyrs = _pyramids(args)
    if not 0 <= args.index < len(pyrs):
        raise InputError(f"pyramid index out of range (0..{len(pyrs) - 1})")
    picture = render_pyramid(pyrs[args.index])
    return {"index": args.index, "render": picture}, [picture]


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand sets `func`, which returns the report's results
    and text lines (verify also its exit code).  Every other argument
    but `--format` is an input the report echoes."""
    parser = argparse.ArgumentParser(
        prog="goodgradings",
        description="Good Z-gradings of classical Lie algebras: "
                    "construct, enumerate, verify.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def orbit_command(name, func, text):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--family", required=True,
                        help="A, B, C, D, or GL")
        sp.add_argument("--partition", required=True,
                        help="comma-separated parts, e.g. 2,2")
        sp.set_defaults(func=func)
        return sp

    orbit_command("classify", _cmd_classify, "enumerate all good gradings")
    orbit_command("verify", _cmd_verify,
                  "check the enumeration against the sweep oracle")
    orbit_command("pyramids", _cmd_pyramids, "enumerate pyramids")

    sp = sub.add_parser("series", help="pyramid and unimodal counting series")
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("richardson",
                        help="closed-form Richardson goodness test")
    sp.add_argument("--family", required=True)
    sp.add_argument("--composition", required=True,
                    help="comma-separated flag jumps, order matters")
    sp.add_argument("--q", type=int, default=0, help="middle flag jump")
    sp.set_defaults(func=_cmd_richardson)

    sp = sub.add_parser("exceptional", help="query the exceptional tables")
    sp.add_argument("--algebra", required=True, help="G2, F4, E6, E7, E8")
    sp.add_argument("--orbit", required=True)
    sp.add_argument("--expand-symmetry", action="store_true",
                    help="include diagram-symmetry mirrors (E6)")
    sp.set_defaults(func=_cmd_exceptional)

    sp = orbit_command("render", _cmd_render, "ASCII picture of one pyramid")
    sp.add_argument("--index", type=int, default=0)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its report, timed here alone."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        results, lines, *code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ExceptionalDataError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.subcommand,
        "input": {key: value for key, value in vars(args).items()
                  if key not in ("subcommand", "func", "format")},
        "results": results,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    sys.stdout.write(canonical_json(report) if args.format == "json"
                     else "\n".join(lines) + "\n")
    if code == [1]:
        print("verification mismatch between enumeration and sweep oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate perfbench/reference.json, the answers the benchmark checks.

Covers every input any seed can draw: each classify and verify orbit of
the pools, every parabolic class of the richardson pool, and the series
coefficients through the highest order the series pool asks for.  The
Richardson verdicts come from the closed form and must agree with the
generic oracle, or this script stops.

    python3 perfbench/make_reference.py

It takes about a minute on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_workloads import (CLASSIFY, REFERENCE_PATH, SERIES,  # noqa: E402
                             VERIFY, _parabolic, _results, execute,
                             parabolic_classes)
from goodgradings import parabolic  # noqa: E402


def main() -> int:
    ref: dict = {"classify": {}, "richardson": {}, "series": {}, "verify": {}}
    for orbit in (x for _, xs in CLASSIFY for x in xs):
        res = _results(execute(f"classify {orbit}"))
        dynkin = [g for g in res["gradings"] if g["is_dynkin"]]
        if len(dynkin) != 1:
            raise SystemExit(f"{orbit}: {len(dynkin)} Dynkin entries")
        ref["classify"][orbit] = {
            "count": res["count"],
            "dynkin_labels": dynkin[0]["characteristic"]["labels"]}
    for orbit in (x for _, xs in VERIFY for x in xs):
        res = _results(execute(f"verify {orbit}"))
        if not res["match"] or res["enumerated"] != res["swept"]:
            raise SystemExit(f"{orbit}: enumeration and sweep disagree")
        ref["verify"][orbit] = {"swept": res["swept"]}
    for key in parabolic_classes():
        par = _parabolic(key)
        good = parabolic.richardson_is_good(par)
        if good != parabolic.generic_richardson_oracle(par):
            raise SystemExit(f"{key}: closed form and oracle disagree")
        ref["richardson"][key] = good
    top = max(int(item.split()[1]) for _, items in SERIES for item in items
              if item.startswith("series "))
    res = _results(execute(f"series {top}"))
    if not (res["series_match"] and res["product_form_identity"]):
        raise SystemExit("series self-checks failed")
    ref["series"] = {"pyramid_counts": res["pyramid_counts"],
                     "unimodal_counts": res["unimodal_counts"]}
    sections = (
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(d.items()))
        + "\n }" for name, d in sorted(ref.items()))
    REFERENCE_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

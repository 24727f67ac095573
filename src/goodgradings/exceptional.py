"""Static classification data for the exceptional algebras.

For G2 and F4 every good grading is a Dynkin grading.  For E6, E7, E8
the table lists, per nilpotent orbit with a non-semisimple reductive
centralizer, the printed characteristics of its good gradings (E6 rows
are given up to the diagram symmetry and can be expanded on demand).
Orbits that the source names but prints no row for are stored with
table_row = false and an empty list rather than guessed.

The data file ships with the package and is read on first use through
this module's own loader (`__loader__.get_data`), which also reads it
from a zipped package; it is checksummed on load and validated (label
ranges, vector lengths, orbit counts) but never re-derived here.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

_DATA_SHA256 = "74dd16c59827200b60f9f887df8778788978841f258a56f416701d2263d7b1ef"

_ALGEBRAS = ("G2", "F4", "E6", "E7", "E8")
_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


class ExceptionalDataError(RuntimeError):
    """The shipped data file is corrupt or inconsistent."""


@dataclass(frozen=True)
class ExceptionalEntry:
    algebra: str
    orbit_label: str
    characteristics: tuple[tuple[int, ...], ...]
    table_row: bool
    dynkin_only_stated: bool

    @property
    def dynkin_only(self) -> bool:
        return self.dynkin_only_stated or self.algebra in ("G2", "F4")

    def expanded_characteristics(self) -> tuple[tuple[int, ...], ...]:
        """Include diagram-symmetry mirrors (E6: reverse the chain labels)."""
        if self.algebra != "E6":
            return self.characteristics
        seen: list[tuple[int, ...]] = []
        for ch in self.characteristics:
            mirror = tuple(reversed(ch[:-1])) + (ch[-1],)
            for v in (ch, mirror):
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


def _load_raw() -> dict:
    blob = __loader__.get_data(os.path.join(
        os.path.dirname(__file__), "data", "exceptional_tables.json"))
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _DATA_SHA256:
        raise ExceptionalDataError(
            f"exceptional table checksum mismatch: {digest}")
    return json.loads(blob)


def _validate(raw: dict) -> dict:
    for alg in ("E6", "E7", "E8"):
        section = raw[alg]
        rank = _RANKS[alg]
        if section["rank"] != rank:
            raise ExceptionalDataError(f"{alg}: wrong rank")
        labels = [o["label"] for o in section["orbits"]]
        if len(set(labels)) != len(labels):
            raise ExceptionalDataError(f"{alg}: duplicate orbit label")
        for orbit in section["orbits"]:
            for vec in orbit["characteristics"]:
                if len(vec) != rank:
                    raise ExceptionalDataError(
                        f"{alg} {orbit['label']}: wrong characteristic length")
                if any(x not in (0, 1, 2) for x in vec):
                    raise ExceptionalDataError(
                        f"{alg} {orbit['label']}: label outside 0/1/2")
    return raw


_tables: dict | None = None


def tables() -> dict:
    global _tables
    if _tables is None:
        _tables = _validate(_load_raw())
    return _tables


def _normalize_label(label: str) -> str:
    return label.replace(" ", "").upper().replace("(A", "(a")


def orbit_labels(algebra: str) -> tuple[str, ...]:
    algebra = algebra.upper()
    if algebra in ("G2", "F4"):
        return ()
    return tuple(o["label"] for o in tables()[algebra]["orbits"])


def exceptional_lookup(algebra: str, orbit_label: str) -> ExceptionalEntry:
    """Table row for one orbit; G2/F4 answer 'Dynkin only' for any orbit."""
    algebra = algebra.upper()
    if algebra not in _ALGEBRAS:
        raise ValueError(f"unknown exceptional algebra {algebra!r}")
    if algebra in ("G2", "F4"):
        return ExceptionalEntry(algebra=algebra, orbit_label=orbit_label,
                                characteristics=(), table_row=False,
                                dynkin_only_stated=True)
    wanted = _normalize_label(orbit_label)
    for orbit in tables()[algebra]["orbits"]:
        if _normalize_label(orbit["label"]) == wanted:
            return ExceptionalEntry(
                algebra=algebra,
                orbit_label=orbit["label"],
                characteristics=tuple(tuple(v) for v in orbit["characteristics"]),
                table_row=bool(orbit["table_row"]),
                dynkin_only_stated=bool(orbit["dynkin_only_stated"]))
    raise ValueError(f"unknown orbit label {orbit_label!r} for {algebra}")

import copy

import pytest

from goodgradings import exceptional
from goodgradings.exceptional import (ExceptionalDataError, exceptional_lookup,
                                      orbit_labels, tables)


def test_checksum_guard(monkeypatch):
    monkeypatch.setattr(exceptional, "_DATA_SHA256", "0" * 64)
    monkeypatch.setattr(exceptional, "_tables", None)
    with pytest.raises(ExceptionalDataError):
        exceptional.tables()


def test_e6_has_exactly_ten_orbits():
    labels = orbit_labels("E6")
    assert len(labels) == 10
    assert set(labels) == {"D5", "D5(a1)", "A4+A1", "D4(a1)", "A4", "A3+A1",
                           "A3", "A2+2A1", "A2+A1", "2A1"}


def test_orbit_counts_e7_e8():
    assert len(orbit_labels("E7")) == 6
    assert len(orbit_labels("E8")) == 7


def test_g2_f4_dynkin_only():
    # the nonzero orbits of G2 and F4 (Collingwood-McGovern 8.4), each
    # Dynkin only and echoed under its canonical label; any other label
    # is refused
    assert orbit_labels("G2") == ("A1", "A1~", "G2(a1)", "G2")
    assert orbit_labels("F4") == (
        "A1", "A1~", "A1+A1~", "A2", "A2~", "A2+A1~", "B2", "A2~+A1",
        "C3(a1)", "F4(a3)", "B3", "C3", "F4(a2)", "F4(a1)", "F4")
    for alg in ("G2", "F4"):
        for label in orbit_labels(alg):
            entry = exceptional_lookup(alg, label)
            assert entry.dynkin_only and not entry.table_row
            assert entry.characteristics == ()
            assert exceptional_lookup(alg.lower(), label.lower()) == entry
        with pytest.raises(ValueError, match="unknown orbit label"):
            exceptional_lookup(alg, "any orbit")
    with pytest.raises(ValueError):
        exceptional_lookup("F4", "E8")


def test_e6_a4_row_byte_for_byte():
    entry = exceptional_lookup("E6", "A4")
    assert entry.characteristics == (
        (2, 0, 0, 0, 2, 2),
        (2, 1, 0, 1, 0, 1),
        (2, 0, 0, 2, 2, 0),
    )
    assert len(entry.characteristics) == 3


def test_e6_a2_plus_a1_empty():
    entry = exceptional_lookup("E6", "A2+A1")
    assert entry.characteristics == ()
    assert entry.dynkin_only


def test_label_normalization():
    assert exceptional_lookup("e6", "a4").orbit_label == "A4"
    assert exceptional_lookup("E6", "D5( a1 )".replace(" ", "")).orbit_label \
        == "D5(a1)"
    with pytest.raises(ValueError):
        exceptional_lookup("E6", "Z9")
    with pytest.raises(ValueError):
        exceptional_lookup("E9", "A4")


def test_all_labels_in_range_and_lengths():
    data = tables()
    for alg, rank in (("E6", 6), ("E7", 7), ("E8", 8)):
        for orbit in data[alg]["orbits"]:
            for vec in orbit["characteristics"]:
                assert len(vec) == rank
                assert all(x in (0, 1, 2) for x in vec)


def test_symmetry_expansion():
    entry = exceptional_lookup("E6", "A4")
    expanded = entry.expanded_characteristics()
    assert (2, 0, 0, 0, 2, 2) in expanded          # symmetric, not doubled
    assert (0, 1, 0, 1, 2, 1) in expanded          # mirror of (2,1,0,1,0;1)
    assert len(expanded) == 5
    # non-E6 entries are returned as stored
    e7 = exceptional_lookup("E7", "A4")
    assert e7.expanded_characteristics() == e7.characteristics


def test_unprinted_orbits_flagged():
    for alg, label in (("E7", "A3+A2"), ("E7", "A2+A1"),
                       ("E8", "E6(a1)+A1"), ("E8", "D5+A2"),
                       ("E8", "A4+2A1"), ("E8", "A4+A1"), ("E8", "A3+A2")):
        entry = exceptional_lookup(alg, label)
        assert not entry.table_row
        assert entry.characteristics == ()
        assert not entry.dynkin_only


def test_printed_rows_per_orbit():
    assert len(exceptional_lookup("E6", "D5").characteristics) == 5
    assert len(exceptional_lookup("E7", "E6(a1)").characteristics) == 5
    assert len(exceptional_lookup("E7", "A4+A1").characteristics) == 5
    assert len(exceptional_lookup("E8", "D7(a1)").characteristics) == 2
    assert len(exceptional_lookup("E8", "D7(a2)").characteristics) == 2


def test_validation_counts_the_distinct_orbit_labels():
    # every algebra lists its expected number of orbits, with labels that
    # stay distinct under the lookup's normalization
    for alg, label in (("F4", "F4(a1)"), ("G2", "A1~"), ("E7", "A4")):
        for change in ("drop", "duplicate"):
            raw = copy.deepcopy(tables())
            orbits = raw[alg]["orbits"]
            orbit = next(o for o in orbits if o["label"] == label)
            if change == "drop":
                orbits.remove(orbit)
            else:
                orbits.append(dict(orbit, label=label.lower()))
            with pytest.raises(ExceptionalDataError, match="distinct"):
                exceptional._validate(raw)

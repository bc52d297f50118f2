"""Value semantics of the package's record types: equal fields make equal
objects with equal hashes, different fields make unequal objects, and no
field can be assigned or deleted."""
import json

import pytest

import permutomino
from permutomino.bijection import PermutominoSequence
from permutomino.boundary import (
    ALPHA, EMPTY, GAMMA, Permutomino, classify, from_boundary_word, reflect_x, reflect_y, transpose,
)
from permutomino.matrix import LabeledMatrix
from permutomino.membership import MembershipVerdict, membership_verdict
from permutomino.perms import Envelopes, Subsequence, envelopes
from permutomino.render import ascii_art, json_chunks, svg_document, to_jsonable
from permutomino.verify import Entry, VerificationReport
from references import cells_from_ascii, cells_from_svg

CELL = from_boundary_word("NESW")
L_SHAPE = from_boundary_word("NENESSWW")
ENVELOPES = envelopes((2, 1, 3))

# (a value, a value with the same fields built anew, a value with other fields, a field)
VALUES = {
    "Permutomino": (CELL, from_boundary_word("NESW"), L_SHAPE, "word"),
    "LabeledMatrix": (LabeledMatrix(1, frozenset({(2, 2, ALPHA)})),
                      LabeledMatrix(1, frozenset({(2, 2, ALPHA)})),
                      LabeledMatrix(1, frozenset({(2, 2, GAMMA)})), "points"),
    "Subsequence": (Subsequence(((1, 2), (2, 1))), Subsequence(((1, 2), (2, 1))),
                    Subsequence(((1, 2),)), "entries"),
    "Envelopes": (ENVELOPES, Envelopes(ENVELOPES.upper, ENVELOPES.lower),
                  envelopes((1, 2, 3)), "upper"),
    "MembershipVerdict": (membership_verdict((3, 1, 2)),
                          MembershipVerdict(False, "decomposable", 1),
                          membership_verdict((1, 2, 3)), "member"),
    "PermutominoSequence": (PermutominoSequence((EMPTY, CELL)),
                            PermutominoSequence((EMPTY, from_boundary_word("NESW"))),
                            PermutominoSequence((CELL, EMPTY)), "parts"),
    "Entry": (Entry("row", "1..3", "pass", "n=3: 1 = 1"), Entry("row", "1..3", "pass", "n=3: 1 = 1"),
              Entry("row", "1..3", "fail", "n=3: 1 != 2"), "status"),
    "VerificationReport": (VerificationReport(3, False, (Entry("row", "1..3", "pass"),)),
                           VerificationReport(3, False, (Entry("row", "1..3", "pass"),)),
                           VerificationReport(3, True, (Entry("row", "1..3", "pass"),)),
                           "max_size"),
}


@pytest.mark.parametrize("name", VALUES)
def test_records_are_read_only_values(name):
    value, same, other, field = VALUES[name]
    assert type(value).__name__ == type(same).__name__ == type(other).__name__ == name
    assert value == same and not value != same and hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == same and repr(value) == repr(same)


def test_record_reprs():
    assert repr(CELL) == "Permutomino(size=2, word='NESW')"
    assert repr(EMPTY) == "Permutomino(size=1, word=None)"
    assert repr(MembershipVerdict(True, "ok")) == \
        "MembershipVerdict(member=True, reason='ok', witness=None)"
    assert repr(Subsequence(((1, 1),))) == "Subsequence(entries=((1, 1),))"
    assert repr(PermutominoSequence((EMPTY, CELL))) == \
        "PermutominoSequence(parts=(Permutomino(size=1, word=None), Permutomino(size=2, word='NESW')))"


def test_every_public_record_has_a_values_row():
    public = {name for name in permutomino.__all__ if isinstance(getattr(permutomino, name), type)}
    assert {"Permutomino", "PermutominoSequence", "Subsequence"} <= public <= set(VALUES)


def test_a_permutomino_is_no_other_type_of_value():
    assert CELL != (2, "NESW") and CELL != Subsequence((2, "NESW"))
    assert {CELL: 1}[from_boundary_word("NESW")] == 1


def test_a_lazy_field_is_stored_on_its_first_read_and_stays_read_only():
    p = from_boundary_word("NENESSWW")
    assert "pi1" not in vars(p)
    assert p.pi1 == (1, 2, 3)
    assert "pi1" in vars(p) and p.pi1 is vars(p)["pi1"]
    for field in ("pi1", "pi2", "flags"):
        with pytest.raises(AttributeError):
            setattr(p, field, (1, 2, 3))
        with pytest.raises(AttributeError):
            delattr(p, field)
    assert p.pi1 == (1, 2, 3) and p.pi2 == (2, 3, 1)


def test_a_permutomino_is_built_only_from_what_validation_found():
    with pytest.raises(TypeError):
        Permutomino(2, "NESW")
    shape = from_boundary_word("NENENESSSWWW")
    for p in (shape, reflect_x(shape), reflect_y(shape), transpose(shape)):
        assert list(vars(p)) == ["size", "word", "corners"]
        assert len(p.corners) == 2 * p.size


def test_the_empty_permutomino_holds_what_every_reader_reads():
    stored = {"size": 1, "word": None, "corners": (), "path": (), "cells": frozenset(),
              "pi1": (1,), "pi2": (1,)}
    assert {name: vars(EMPTY)[name] for name in stored} == stored  # set when EMPTY is built
    assert EMPTY.vertices == EMPTY.salient == EMPTY.reentrant == ()
    flags = classify(EMPTY)
    assert set(flags.values()) == {True}
    assert reflect_x(EMPTY) is reflect_y(EMPTY) is transpose(EMPTY) is EMPTY
    assert EMPTY.sort_key() == (EMPTY.pi1, "")
    assert cells_from_ascii(ascii_art(EMPTY)) == EMPTY.cells
    svg = svg_document(EMPTY)
    assert cells_from_svg(svg) == EMPTY.cells and "<polygon" not in svg
    assert to_jsonable(EMPTY) == {
        "v": 1, "size": 1, "boundary": None, "vertices": [], "pi1": list(EMPTY.pi1),
        "pi2": list(EMPTY.pi2), "salient": [], "reentrant": [], "classes": flags,
    }
    assert "".join(json_chunks([EMPTY])) == json.dumps(to_jsonable(EMPTY), indent=2)

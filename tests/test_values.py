"""Value semantics of the package's record types: equal fields make equal
objects with equal hashes, different fields make unequal objects, and no
field can be assigned or deleted."""
import pytest

from permutomino.bijection import PermutominoSequence
from permutomino.boundary import ALPHA, EMPTY, GAMMA, LabeledMatrix, Permutomino, from_boundary_word
from permutomino.membership import FreeFixedPoints, MembershipVerdict, membership_verdict
from permutomino.perms import Envelopes, Subsequence, envelopes
from permutomino.verify import Entry, VerificationReport

CELL = from_boundary_word("NESW")
L_SHAPE = from_boundary_word("NENESSWW")
ENVELOPES = envelopes((2, 1, 3))

# (a value, a value with the same fields built anew, a value with other fields, a field)
VALUES = {
    "Permutomino": (CELL, Permutomino(2, "NESW"), L_SHAPE, "word"),
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
    "FreeFixedPoints": (FreeFixedPoints(frozenset({2, 3})), FreeFixedPoints(frozenset({3, 2})),
                        FreeFixedPoints(frozenset({2})), "points"),
    "PermutominoSequence": (PermutominoSequence((EMPTY, CELL)),
                            PermutominoSequence((EMPTY, Permutomino(2, "NESW"))),
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
    assert repr(FreeFixedPoints(frozenset({2}))) == "FreeFixedPoints(points=frozenset({2}))"


def test_a_permutomino_is_no_other_type_of_value():
    assert CELL != (2, "NESW") and CELL != Subsequence((2, "NESW"))
    assert {CELL: 1}[Permutomino(2, "NESW")] == 1


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

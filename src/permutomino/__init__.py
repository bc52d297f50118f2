"""Convex permutominoes and the permutations that define them.

The package decides which permutations occur as the odd-vertex permutation of
a convex permutomino, constructs the full fiber of permutominoes over such a
permutation, converts between permutominoes and their labeled reentrant-corner
matrices (permutomino.matrix), realizes the bijection between decomposable
square permutations and sequences of directed-convex/parallelogram
permutominoes, and cross-verifies every closed-form count against exhaustive
enumeration.

The names in __all__ are read lazily from their home modules, which _HOMES
maps them to: `import permutomino` loads no submodule, and `permutomino.fiber`
(or `from permutomino import fiber`) imports permutomino.membership on first
use and returns its `fiber`.  So a command-line job loads only the modules it
runs.
"""
__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "EMPTY", "Permutomino", "classify", "from_boundary_word", "reflect_x", "reflect_y",
        "transpose",
    ), "boundary"),
    **dict.fromkeys((
        "LabeledMatrix", "permutomino_from_matrix", "reentrant_matrix",
    ), "matrix"),
    **dict.fromkeys((
        "PermutominoSequence", "permutation_to_sequence", "sequence_to_permutation",
    ), "bijection"),
    **dict.fromkeys((
        "MembershipVerdict", "canonical_permutomino", "fiber", "free_fixed_points",
        "is_associated", "is_associated_pi2", "membership_verdict",
    ), "membership"),
    **dict.fromkeys((
        "Envelopes", "Subsequence", "as_perm", "complement", "decompose", "direct_difference",
        "envelopes", "is_lower_unimodal", "is_square", "is_square_by_patterns", "reversal",
        "split_points", "square_permutations",
    ), "perms"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

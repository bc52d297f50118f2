"""Convex permutominoes and the permutations that define them.

The package decides which permutations occur as the odd-vertex permutation of
a convex permutomino, constructs the full fiber of permutominoes over such a
permutation, converts between permutominoes and their labeled reentrant-corner
matrices, realizes the bijection between decomposable square permutations and
sequences of directed-convex/parallelogram permutominoes, and cross-verifies
every closed-form count against exhaustive enumeration.
"""
from .boundary import (
    EMPTY,
    LabeledMatrix,
    Permutomino,
    classify,
    from_boundary_word,
    permutomino_from_matrix,
    reentrant_matrix,
    reflect_x,
    reflect_y,
    transpose,
)
from .bijection import (
    PermutominoSequence,
    permutation_to_sequence,
    sequence_to_permutation,
)
from .membership import (
    FreeFixedPoints,
    MembershipVerdict,
    canonical_permutomino,
    fiber,
    free_fixed_points,
    is_associated,
    is_associated_pi2,
    membership_verdict,
)
from .perms import (
    Envelopes,
    Subsequence,
    as_perm,
    complement,
    contains_pattern,
    decompose,
    direct_difference,
    envelopes,
    extrema,
    is_lower_unimodal,
    is_square,
    is_square_by_patterns,
    is_upper_unimodal,
    reversal,
    split_points,
    square_permutations,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY", "LabeledMatrix", "Permutomino", "PermutominoSequence",
    "FreeFixedPoints", "MembershipVerdict", "Envelopes", "Subsequence",
    "as_perm", "canonical_permutomino", "classify",
    "complement", "contains_pattern", "decompose", "direct_difference",
    "envelopes", "extrema", "fiber", "free_fixed_points", "from_boundary_word",
    "is_associated", "is_associated_pi2", "is_lower_unimodal", "is_square",
    "is_square_by_patterns", "is_upper_unimodal", "membership_verdict",
    "permutation_to_sequence", "permutomino_from_matrix", "reentrant_matrix",
    "reflect_x", "reflect_y", "reversal", "sequence_to_permutation",
    "split_points", "square_permutations", "transpose",
]

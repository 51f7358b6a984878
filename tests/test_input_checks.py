"""Input checks of the library functions, each with its error type and message."""

from __future__ import annotations

import numpy as np
import pytest

from genresolvent import (
    ComplementPair,
    Pencil,
    RankProfile,
    ShapeMismatchError,
    SubspaceBasis,
    build_family,
    continuity_check,
    default_grid,
    evaluate_neumann,
    fixed_complements_check,
    full_subspace,
    geninv_from_complements,
    mp_inverse,
    solve,
    transversal,
    verify_mp_axioms,
    zero_subspace,
)

EYE2 = np.eye(2)
PENCIL = Pencil(np.diag([1.0, 0.0]), EYE2)
# complements in C^3 and C^2, where a 2 x 2 operator needs C^2 and C^2
MISPLACED = ComplementPair(e=full_subspace(3), f=zero_subspace(2))

CHECKS = [
    pytest.param(lambda: verify_mp_axioms(np.ones((2, 3)), np.ones((2, 3))),
                 ShapeMismatchError, "must have shape (3, 2), got (2, 3)", id="verify_mp_axioms"),
    pytest.param(lambda: geninv_from_complements(EYE2, MISPLACED),
                 ShapeMismatchError, "operator needs (2, 2)", id="geninv_from_complements"),
    pytest.param(lambda: transversal(np.eye(3), mp_inverse(EYE2)),
                 ShapeMismatchError, "perturbed operator shape (3, 3)", id="transversal"),
    pytest.param(lambda: fixed_complements_check(PENCIL, MISPLACED, default_grid(0.5, 9)),
                 ShapeMismatchError, "pencil needs (2, 2)", id="fixed_complements_check"),
    pytest.param(lambda: continuity_check(PENCIL, lambda lam: np.ones((2, 3)),
                                          default_grid(0.5, 9)),
                 ShapeMismatchError, "must have shape (2, 2), got (2, 3)", id="continuity_check"),
    pytest.param(lambda: solve(EYE2, np.ones((3, 1))),
                 ShapeMismatchError, "right-hand side has 3 rows, expected 2", id="solve"),
    pytest.param(lambda: SubspaceBasis(-1, np.zeros((0, 0))),
                 ValueError, "ambient dimension must be non-negative", id="SubspaceBasis"),
    pytest.param(lambda: default_grid(1.0, 0),
                 ValueError, "at least one point", id="default_grid"),
    pytest.param(lambda: evaluate_neumann(build_family(PENCIL, mp_inverse(PENCIL.t)), 0.1, 0),
                 ValueError, "at least one term", id="evaluate_neumann"),
    pytest.param(lambda: RankProfile((0j, 0.5), (1,), (1,), (1,), (False,)),
                 ValueError, "equal length", id="RankProfile"),
]


@pytest.mark.parametrize("call,error,fragment", CHECKS)
def test_input_check_raises_its_error_naming_the_fault(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert fragment in str(raised.value)

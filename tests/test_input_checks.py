"""Input checks of the library functions, each with its error type and message,
no check of the package written as an ``assert`` statement, and no module
of the package importing another's private name."""

from __future__ import annotations

import ast
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from genresolvent import (
    DEFAULT_TOL,
    ComplementPair,
    DiskGrid,
    Pencil,
    RankProfile,
    ShapeMismatchError,
    SubspaceBasis,
    continuity_check,
    default_grid,
    equivalence_check,
    fixed_complements_check,
    full_subspace,
    generalized_spectrum_scan,
    geninv_from_complements,
    mp_inverse,
    mp_resolvent_characterization,
    rectangular_region,
    solve,
    transversal,
    verify_mp_axioms,
    zero_subspace,
)
from genresolvent.resolvent import grid_pass

EYE2 = np.eye(2)
PENCIL = Pencil(np.diag([1.0, 0.0]), EYE2)
# complements in C^3 and C^2, where a 2 x 2 operator needs C^2 and C^2
MISPLACED = ComplementPair(e=full_subspace(3), f=zero_subspace(2))
G_DIAG = mp_inverse(PENCIL.t)
DIAG12 = Pencil(np.diag([1.0, 2.0]), EYE2)
# 10 * lam overflows on the outer two rings of the grid of radius 5e307: the
# stages that build t - lam s name the first such point in grid order
OVERFLOWING = Pencil(np.diag([1.0, 2.0]), 10.0 * EYE2)
OVERFLOW_GRID = default_grid(5e307)
OVERFLOW_POINT = "t - lam*s is not finite at lam = (3.333333333333333e+307+0j)"

CHECKS = [
    pytest.param(lambda: verify_mp_axioms(np.ones((2, 3)), np.ones((2, 3))),
                 ShapeMismatchError, "must have shape (3, 2), got (2, 3)", id="verify_mp_axioms"),
    pytest.param(lambda: geninv_from_complements(EYE2, MISPLACED),
                 ShapeMismatchError, "operator needs (2, 2)", id="geninv_from_complements"),
    pytest.param(lambda: transversal(np.eye(3), mp_inverse(EYE2)),
                 ShapeMismatchError, "perturbed operator shape (3, 3)", id="transversal"),
    # tbar's shape is checked before ||tbar - t|| is taken, where a (1, 2)
    # tbar broadcasts against t; no deviation exceeds a NaN bound
    pytest.param(lambda: equivalence_check(np.array([[5.0, 5.0]]), G_DIAG, G_DIAG, 0.1),
                 ShapeMismatchError, "perturbed operator shape (1, 2) != (2, 2)",
                 id="equivalence_check-broadcast"),
    pytest.param(lambda: equivalence_check(np.eye(3), G_DIAG, G_DIAG, 0.1),
                 ShapeMismatchError, "perturbed operator shape (3, 3) != (2, 2)",
                 id="equivalence_check-shape"),
    pytest.param(lambda: equivalence_check(PENCIL.t, G_DIAG, G_DIAG, math.nan),
                 ValueError, "perturbation_bound must be a number or inf, got nan",
                 id="equivalence_check-nan-bound"),
    pytest.param(lambda: fixed_complements_check(PENCIL, MISPLACED, default_grid(0.5, 9)),
                 ShapeMismatchError, "operator needs (2, 2)", id="fixed_complements_check"),
    pytest.param(lambda: continuity_check(PENCIL, lambda lam: np.ones((2, 3)),
                                          default_grid(0.5, 9)),
                 ShapeMismatchError, "must have shape (2, 2), got (2, 3)", id="continuity_check"),
    pytest.param(lambda: solve(EYE2, np.ones((3, 1))),
                 ShapeMismatchError, "right-hand side has 3 rows, expected 2", id="solve"),
    pytest.param(lambda: SubspaceBasis(-1, np.zeros((0, 0))),
                 ValueError, "ambient dimension must be non-negative", id="SubspaceBasis"),
    pytest.param(lambda: default_grid(1.0, 0),
                 ValueError, "at least one point", id="default_grid"),
    # a NaN modulus passes every comparison with the radius, and the SVD of
    # t - lam s at a non-finite lam does not converge
    pytest.param(lambda: DiskGrid(1.0, (0.5, complex("nan"))),
                 ValueError, "grid point (nan+0j) is not finite", id="DiskGrid-nan"),
    pytest.param(lambda: generalized_spectrum_scan(PENCIL, [0.5, complex("inf")]),
                 ValueError, "scan point (inf+0j) is not finite",
                 id="generalized_spectrum_scan-inf"),
    # the region's width and t - lam s at lam = -1e308 overflow: the lattice
    # is built without overflow, and the rank pass names the first point
    # where t - lam s is not finite
    pytest.param(lambda: generalized_spectrum_scan(Pencil(np.diag([1.0, 2.0]), 10.0 * EYE2),
                                                   rectangular_region(-1e308, 1e308, 0.0, 0.0, 3)),
                 ValueError, "t - lam*s is not finite at lam = (-1e+308+0j)",
                 id="generalized_spectrum_scan-overflow"),
    pytest.param(lambda: mp_resolvent_characterization(OVERFLOWING, OVERFLOW_GRID),
                 ValueError, OVERFLOW_POINT, id="mp_resolvent_characterization-overflow"),
    pytest.param(lambda: continuity_check(OVERFLOWING, lambda lam: EYE2, OVERFLOW_GRID),
                 ValueError, OVERFLOW_POINT, id="continuity_check-overflow"),
    # from a finite first point the full-rank cover starts; a point that is
    # not finite stays outside its boxes, and the rank pass names it
    pytest.param(lambda: grid_pass(DIAG12, [0.0, math.inf], DEFAULT_TOL),
                 ValueError, "t - lam*s is not finite at lam = (inf+0j)", id="grid_pass-inf"),
    pytest.param(lambda: grid_pass(DIAG12, [0.0, math.nan], DEFAULT_TOL),
                 ValueError, "t - lam*s is not finite at lam = (nan+0j)", id="grid_pass-nan"),
    pytest.param(lambda: RankProfile((0j, 0.5), (1,), (1,), (1,), (False,)),
                 ValueError, "equal length", id="RankProfile"),
    pytest.param(lambda: rectangular_region(0.0, math.inf, 0.0, 1.0, 3),
                 ValueError, "region bound re_max must be finite, got inf",
                 id="rectangular_region-inf"),
    pytest.param(lambda: rectangular_region(0.0, 1.0, math.nan, 1.0, 3),
                 ValueError, "region bound im_min must be finite, got nan",
                 id="rectangular_region-nan"),
]


@pytest.mark.parametrize("call,error,fragment", CHECKS)
def test_input_check_raises_its_error_naming_the_fault(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert fragment in str(raised.value)



PACKAGE = Path(__file__).resolve().parent.parent / "src" / "genresolvent"


def parsed(package):
    """(file name, syntax tree) of every module of a package directory."""
    sources = sorted(package.glob("*.py"))
    assert sources
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in sources]


def private_imports(package):
    """``file:line name`` of each relative import of an underscore name, not a
    dunder such as __version__, in the modules of a package directory."""
    return [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in parsed(package)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_no_check_of_the_package_is_an_assert_statement():
    """python -O strips assert statements, so a check written as one would
    pass unchecked there: every check raises its error explicitly."""
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in parsed(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_of_the_package_imports_a_private_name_of_another():
    """A name with a leading underscore belongs to its module: what another
    module needs is public."""
    assert private_imports(PACKAGE) == []


def test_the_private_import_scan_finds_one_private_name(tmp_path):
    copy = shutil.copytree(PACKAGE, tmp_path / "genresolvent",
                           ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "criteria.py", "a", encoding="utf-8") as module:
        module.write("from .linalg import SCREEN_LIVE, _full_rank_certified\n")
    lines = len((copy / "criteria.py").read_text(encoding="utf-8").splitlines())
    assert private_imports(copy) == [f"criteria.py:{lines} _full_rank_certified"]

"""Metamorphic relations: transformations of a pencil whose verdicts are known
without an oracle, at any size.

* Unitary equivalence: (U t V^H, U s V^H) has the singular values of
  t - lam s at every lam, so the existence verdict, the rank profile and the
  resolvent axioms' verdict are those of (t, s) on the same grid, wherever
  neither rank profile is marginal.
* The adjoint pencil: t^H - conj(lam) s^H = (t - lam s)^H has the rank of
  t - lam s, with nullity and corank swapped, so on the conjugated grid the
  ranks are equal, the nullities are the original's coranks, and the
  rank-constancy verdict is the same.

Pencils come from the framed (constant and switched support) and generic
generators of ``helpers``, with m, n <= 6.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from genresolvent import (
    DiskGrid,
    Pencil,
    build_family,
    check_resolvent_axioms,
    default_grid,
    existence_check,
    finite_rank_criterion,
    mp_inverse,
)
from helpers import framed_pencil, generic_full_pencil, unitary


@st.composite
def pencils(draw):
    """A pencil with m, n <= 6, its seeded generator and the default grid at
    half its family's radius."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "switched", "generic"]))
    if kind == "generic":
        p = generic_full_pencil(rng, m, n)
    else:
        switched = kind == "switched"
        p = framed_pencil(rng, m, n, draw(st.integers(0, min(m, n) - switched)), switched)
    radius = build_family(p, mp_inverse(p.t)).radius
    return p, rng, default_grid(min(radius / 2, 1e6), 25)


@settings(max_examples=60, deadline=None)
@given(pencils())
def test_unitary_equivalence_keeps_every_verdict(case):
    p, rng, grid = case
    m, n = p.shape
    u, v = unitary(rng, m), unitary(rng, n)
    q = Pencil(u @ p.t @ v.conj().T, u @ p.s @ v.conj().T)
    family, equivalent = (build_family(x, mp_inverse(x.t)) for x in (p, q))
    first, second = existence_check(family, grid), existence_check(equivalent, grid)
    if any(first.profile.marginal) or any(second.profile.marginal):
        return
    assert second.verdict == first.verdict
    assert second.profile.ranks == first.profile.ranks
    assert check_resolvent_axioms(equivalent, grid).ok == check_resolvent_axioms(family, grid).ok


@settings(max_examples=60, deadline=None)
@given(pencils())
def test_the_adjoint_pencil_swaps_nullity_and_corank(case):
    p, _, grid = case
    adjoint = Pencil(p.t.conj().T, p.s.conj().T)
    conjugated = DiskGrid(grid.radius, tuple(np.conj(grid.points).tolist()))
    original, swapped = finite_rank_criterion(p, grid), finite_rank_criterion(adjoint, conjugated)
    assert swapped.profile.ranks == original.profile.ranks
    assert swapped.profile.nullities == original.profile.coranks
    assert swapped.profile.coranks == original.profile.nullities
    assert swapped.verdict == original.verdict

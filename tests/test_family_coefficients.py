"""The batched explicit-formula coefficients of a whole index range of D,
cross-checked against the per-D reciprocity-ladder route."""

import numpy as np
import pytest

from ffnewman.fp_poly import is_squarefree, monic_by_index
from ffnewman.lfunction import (
    FAMILY_CHUNK,
    build_lfunction,
    dirichlet_coefficients,
    family_coefficients,
)

# (q, deg D, stride): stride 1 checks every D of the family
FAMILIES = [
    (3, 3, 1),
    (3, 5, 1),
    (3, 7, 1),
    (5, 3, 1),
    (5, 5, 1),
    (7, 3, 1),
    (13, 3, 1),
    (3, 9, 37),
    (7, 5, 29),
]


@pytest.mark.parametrize("q,degree,stride", FAMILIES)
def test_matches_ladder_coefficients(q, degree, stride):
    g = (degree - 1) // 2
    c, squarefree = family_coefficients(q, degree, 0, q**degree)
    assert c.shape == (q**degree, g + 1)
    checked = 0
    for k in range(0, q**degree, stride):
        if squarefree[k]:
            D = monic_by_index(q, degree, k)
            row = tuple(c[k].tolist())
            # the enumeration oracle, then the per-D reciprocity ladder
            assert row == dirichlet_coefficients(q, D)[: g + 1], k
            assert row == build_lfunction(q, D).c[: g + 1], k
            checked += 1
    if stride == 1:
        assert checked == q**degree - q ** (degree - 1)  # all squarefree monic D
    else:
        assert checked > 100


@pytest.mark.parametrize("q,degree,stride", FAMILIES)
def test_squarefree_mask_matches(q, degree, stride):
    _, squarefree = family_coefficients(q, degree, 0, q**degree)
    expect = [is_squarefree(monic_by_index(q, degree, k)) for k in range(q**degree)]
    assert squarefree.tolist() == expect


def test_rows_do_not_depend_on_the_split():
    q, degree = 3, 9
    lo, hi = 1000, 1000 + 3 * FAMILY_CHUNK
    whole_c, whole_sf = family_coefficients(q, degree, lo, hi)
    cuts = [lo, lo + 1, lo + FAMILY_CHUNK - 1, lo + FAMILY_CHUNK, lo + FAMILY_CHUNK + 1, hi]
    parts = [family_coefficients(q, degree, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(whole_c, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(whole_sf, np.concatenate([p[1] for p in parts]))


def test_empty_range_and_bad_arguments():
    c, squarefree = family_coefficients(3, 5, 7, 7)
    assert c.shape == (0, 3) and squarefree.shape == (0,)
    with pytest.raises(ValueError):
        family_coefficients(3, 4, 0, 10)
    with pytest.raises(ValueError):
        family_coefficients(3, 3, 0, 28)
    with pytest.raises(ValueError):
        family_coefficients(4, 3, 0, 10)

"""The explicit-formula coefficients of build_lfunction (one D, a stacked
Euler power per degree) and of family_coefficients (a whole index range of D,
per-P tables that the same Euler kernel fills, and squarefreeness from
D mod P and D' mod P), cross-checked against the reciprocity ladder
quad_character.chi summed over the same monic irreducibles, and the per-P
tables against the ladder residue by residue."""

import random

import numpy as np
import pytest

from ffnewman import lfunction, quad_character
from ffnewman.fp_poly import (
    FpPolynomial,
    _deriv,
    _irreducible_array,
    is_squarefree,
    monic_by_index,
    monic_index,
)
from ffnewman.lfunction import (
    FAMILY_CHUNK,
    _chi_tables,
    _newton_coefficients,
    build_lfunction,
    dirichlet_coefficients,
    family_coefficients,
)
from ffnewman.quad_character import chi


def ladder_coefficients(q, D):
    """c_0..c_g by the explicit formula with the reciprocity ladder as the
    character: chi_D(P) = chi(D, P) at every monic irreducible P of degree
    d <= g, summed and passed through _newton_coefficients."""
    g = (D.degree - 1) // 2
    A = [0] * (g + 1)
    B = [0] * (g + 1)
    for d in range(1, g + 1):
        vals = [chi(D, FpPolynomial(P, q)) for P in _irreducible_array(q, d)]
        A[d] = sum(vals)
        B[d] = len(vals) - vals.count(0)
    return tuple(_newton_coefficients(A, B))


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
            # the enumeration oracle, the reciprocity ladder, build_lfunction
            assert row == dirichlet_coefficients(q, D)[: g + 1], k
            assert row == ladder_coefficients(q, D), k
            assert build_lfunction(q, D).c[: g + 1] == row, k
            checked += 1
    if stride == 1:
        assert checked == q**degree - q ** (degree - 1)  # all squarefree monic D
    else:
        assert checked > 100


def _no_ladder(*args, **kwargs):
    raise AssertionError("build_lfunction must not run the reciprocity ladder")


def test_build_lfunction_runs_no_ladder(monkeypatch):
    # the reciprocity sign of chi_D(P) depends on q mod 4: q = 5, 13, 17 are
    # 1 mod 4, q = 3, 7, 11, 19 are 3 mod 4
    grid = []
    for q, degree in [(3, 3), (3, 5), (3, 7), (5, 3), (5, 5), (7, 3), (7, 5),
                      (11, 3), (13, 3), (13, 5), (17, 3), (17, 5), (19, 3), (19, 5)]:
        rng = random.Random(100 * q + degree)
        found = 0
        while found < 6:
            D = monic_by_index(q, degree, rng.randrange(q**degree))
            if is_squarefree(D):
                grid.append((q, D, ladder_coefficients(q, D)))
                found += 1
    # lfunction binds no name of its own to the ladder, so patching the
    # module's covers every route to it
    assert not hasattr(lfunction, "_chi_ladder")
    monkeypatch.setattr(quad_character, "_chi_ladder", _no_ladder)
    for q, D, c in grid:
        assert build_lfunction(q, D).c[: len(c)] == c, (q, D)


# D with D' = 0, where the mask rests on D mod P alone since every P
# divides D': the 27 cubes T^9 + aT^6 + bT^3 + c over F_3, none squarefree
DERIVATIVE_ZERO = {
    (3, 9): [
        FpPolynomial((c, 0, 0, b, 0, 0, a, 0, 0, 1), 3)
        for a in range(3)
        for b in range(3)
        for c in range(3)
    ],
}


@pytest.mark.parametrize("q,degree,stride", FAMILIES)
def test_squarefree_mask_matches(q, degree, stride):
    _, squarefree = family_coefficients(q, degree, 0, q**degree)
    expect = [is_squarefree(monic_by_index(q, degree, k)) for k in range(q**degree)]
    assert squarefree.tolist() == expect
    for D in DERIVATIVE_ZERO.get((q, degree), []):
        assert _deriv(D.coeffs, q) == ()
        k = monic_index(D)
        assert not squarefree[k], D
        assert family_coefficients(q, degree, k, k + 1)[1].tolist() == [False], D


@pytest.mark.parametrize("q,degree", [(3, 9), (5, 5), (7, 5), (13, 5)])
def test_family_tables_match_ladder_pointwise(q, degree):
    # table d - 1, row j, column r holds chi_D(P_j) for D mod P_j = r: the
    # ladder's character of r modulo P_j times the reciprocity sign
    # (-1)^(((q-1)/2) d), at every residue r = sum r_i q^i
    tables = _chi_tables(q, degree)
    assert len(tables) == (degree - 1) // 2
    for d, table in enumerate(tables, 1):
        sign = (-1) ** ((q - 1) // 2 * d)
        irreducibles = _irreducible_array(q, d)
        assert table.shape == (len(irreducibles), q**d)
        for j, P in enumerate(irreducibles):
            P = FpPolynomial(P, q)
            for r in range(q**d):
                f = FpPolynomial(tuple(r // q**i % q for i in range(d)), q)
                assert table[j, r] == sign * chi(P, f), (d, P, r)


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


def test_rows_divisible_by_t_squared_take_no_residue_work(monkeypatch):
    # an index below q^(degree - 2) has c_0 = c_1 = 0: T^2 divides D
    q, degree = 3, 9
    family_coefficients(q, degree, 0, 1)  # builds the cached tables
    calls = []
    monkeypatch.setattr(lfunction, "_digits", lambda *args: calls.append(args))
    c, squarefree = family_coefficients(q, degree, 0, q ** (degree - 2))
    assert not squarefree.any() and c.shape == (q ** (degree - 2), 5)
    assert calls == []

"""The explicit-formula coefficients of build_lfunction (one D, its value
at one root of each irreducible) and of family_coefficients (a whole index
range of D, D(theta_P) from a digit split of the same roots' powers, and
squarefreeness from D(theta_P) and D'(theta_P)), which share one root table
and one character sum, cross-checked against the reciprocity ladder
quad_character.chi summed over the same monic irreducibles, and the shared
character table and sum against the ladder residue by residue at the
minimal polynomial of every root. The root tables of each F_(q^d) are
checked element by element: the roots against Gauss's count and the tests'
sieve of the irreducibles, the character against the enumeration oracle's
Euler kernel."""

import random

import numpy as np
import pytest

from ffnewman import lfunction, quad_character
from ffnewman.fp_poly import (
    FpPolynomial,
    _deriv,
    is_squarefree,
    monic_by_index,
    monic_index,
)
from ffnewman.lfunction import (
    FAMILY_CHUNK,
    _newton_coefficients,
    build_lfunction,
    dirichlet_coefficients,
    family_coefficients,
)
from ffnewman.quad_character import chi

from irreducibles import irreducible_array


def ladder_coefficients(q, D):
    """c_0..c_g by the explicit formula with the reciprocity ladder as the
    character: chi_D(P) = chi(D, P) at every monic irreducible P of degree
    d <= g, summed and passed through _newton_coefficients."""
    A, B = [], []
    for d in range(1, (D.degree - 1) // 2 + 1):
        vals = [chi(D, FpPolynomial(P, q)) for P in irreducible_array(q, d)]
        A.append(sum(vals))
        B.append(len(vals) - vals.count(0))
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


# Every F_(q^d) with q^d <= 6,561 for q in 3..13: the fields whose root
# tables are checked element by element.
SMALL_FIELDS = [(q, d) for q in (3, 5, 7, 11, 13) for d in range(1, 9) if q**d <= 6561]


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _model(q, d):
    """The model's modulus P0, recomputed from the sieve: the first monic
    irreducible of degree d from index q^(d-1) (T^d + 1) on."""
    irreducibles = irreducible_array(q, d)
    index = irreducibles[:, :d] @ q ** np.arange(d - 1, -1, -1)
    return irreducibles[np.argmax(index >= q ** (d - 1))]


def _field_mul(q, P0, a, b):
    """a b mod P0 for stacks of digit rows (shape (n, d)): the schoolbook
    product, then its top coefficient cancelled by P0 one degree at a time
    (not the reduction table the root tables use)."""
    d = len(P0) - 1
    prod = np.zeros((len(a), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        prod[:, i : i + d] += a[:, i : i + 1] * b
    for k in range(2 * d - 2, d - 1, -1):
        prod[:, k - d : k + 1] -= prod[:, k : k + 1] % q * P0
    return prod[:, :d] % q


def _conjugates(q, P0, roots):
    """theta^(q^k) for k < d at each root row theta, theta^q by plain
    powering with _field_mul (not the Frobenius matrix of the field tables)."""
    out = [roots]
    for _ in range(len(P0) - 2):
        x = power = out[-1]
        for _ in range(q - 1):
            power = _field_mul(q, P0, power, x)
        out.append(power)
    return out


def _minimal_polynomials(q, P0, roots):
    """prod_k (X - theta^(q^k)) at each root row theta, its coefficients in
    F_(q^d), X^0 first: shape (m, d + 1, d)."""
    one = np.zeros_like(roots)
    one[:, 0] = 1
    poly = [one]
    for x in _conjugates(q, P0, roots):
        times_x = [np.zeros_like(one)] + poly
        poly = [(a - _field_mul(q, P0, x, b)) % q for a, b in zip(times_x, poly + [0 * one])]
    return np.stack(poly, axis=1)


@pytest.mark.parametrize("q,d", SMALL_FIELDS)
def test_roots_are_one_per_irreducible(q, d):
    # one root per monic irreducible of degree d: as many as Gauss's count
    # (1/d) sum_(e|d) mu(d/e) q^e, each the least of its d conjugates, and
    # their minimal polynomials are irreducible_array(q, d) as a set
    roots = lfunction._field_tables(q, d)[2].astype(np.int64)
    count = sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d
    assert roots.shape == (count, d) == (len(irreducible_array(q, d)), d)
    P0 = _model(q, d)
    weights = q ** np.arange(d)
    for power in _conjugates(q, P0, roots)[1:]:
        assert (roots @ weights < power @ weights).all()
    poly = _minimal_polynomials(q, P0, roots)
    assert not poly[:, :, 1:].any()  # the coefficients lie in F_q
    assert sorted(map(tuple, poly[:, :, 0].tolist())) == sorted(
        map(tuple, irreducible_array(q, d).tolist())
    )


@pytest.mark.parametrize("q,degree", [(3, 9), (5, 5), (7, 5), (13, 5)])
def test_family_tables_match_ladder_pointwise(q, degree):
    # P_j, the j-th P of the shared root table, is the minimal polynomial of
    # the j-th root theta_j of _field_tables(q, d), and R[i, j] holds theta_j^i
    # padded to g digits. At D mod P_j = r, D(theta_j) = r(theta_j), so the
    # entry of the flat table at offsets[j] + (index of r(theta_j)) must be the
    # ladder's character of r modulo P_j times the reciprocity sign
    # (-1)^(((q-1)/2) d), at every residue r = sum r_i q^i; and
    # _character_sums of an index that is r(theta_j) at root j and 0 (where
    # chi is 0) at every other root must give that value in A at degree d,
    # its square in B, and 0 at every other degree
    g = (degree - 1) // 2
    R, table, offsets, first = lfunction._root_powers(q, degree)
    assert table.shape == (sum(q**d for d in range(1, g + 1)),)
    assert R.shape == (degree + 1, first[-1], g) == (degree + 1, len(offsets), g)
    j = 0
    for d in range(1, g + 1):
        assert first[d - 1] == j
        sign = (-1) ** ((q - 1) // 2 * d)
        P0 = _model(q, d)
        roots = lfunction._field_tables(q, d)[2].astype(np.int64)
        minimal = _minimal_polynomials(q, P0, roots)
        assert not minimal[:, :, 1:].any()
        power = np.zeros_like(roots)
        power[:, 0] = 1
        for i in range(degree + 1):  # theta^i, by _field_mul
            assert np.array_equal(R[i, j : j + len(roots), :d], power)
            power = _field_mul(q, P0, power, roots)
        assert not R[:, j : j + len(roots), d:].any()
        residues = np.arange(q**d)[:, None] // q ** np.arange(d) % q  # rows r_0..r_(d-1)
        for theta, P in zip(roots, minimal[:, :, 0]):
            value = np.zeros_like(residues)  # r(theta) by Horner's rule
            for i in range(d - 1, -1, -1):
                value = _field_mul(q, P0, value, theta[None])
                value[:, 0] = (value[:, 0] + residues[:, i]) % q
            P = FpPolynomial(P, q)
            expect = [sign * chi(P, FpPolynomial(r, q)) for r in residues.tolist()]
            assert table[offsets[j] + value @ q ** np.arange(d)].tolist() == expect, (d, P)
            idx = np.zeros((q**d, len(offsets)), dtype=np.int64)
            idx[:, j] = value @ q ** np.arange(d)
            A, B = lfunction._character_sums(q, degree, idx)
            assert A.shape == B.shape == (g, q**d)
            assert A[d - 1].tolist() == expect, (d, P)
            assert B[d - 1].tolist() == [e * e for e in expect], (d, P)
            assert not np.delete(A, d - 1, axis=0).any() and not np.delete(B, d - 1, axis=0).any()
            j += 1
    assert j == len(offsets)


@pytest.mark.parametrize("q,d", SMALL_FIELDS)
def test_field_character_matches_euler_through_the_norm(q, d):
    # chi at every element against the enumeration oracle's kernel, Euler's
    # criterion through the norm, with the model's one P0 for every column
    low, chi, _ = lfunction._field_tables(q, d)
    assert chi.dtype == np.int8 and chi.shape == (q**d,)
    model = lfunction._model(q, _model(q, d))
    assert np.array_equal(low, model[0])
    r = np.ascontiguousarray(lfunction._digits(q, d, np.arange(q**d)).T)
    assert np.array_equal(chi, lfunction._euler_values(q, *model, r))


@pytest.fixture
def fresh_root_tables():
    """Empty the caches of every table built from the roots, before and
    after the test, so it builds them under its own patches."""
    caches = [lfunction._field_tables, lfunction._root_powers, lfunction.family_tables]
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_root_tables_do_not_depend_on_the_chunk(monkeypatch, fresh_root_tables):
    # 7 elements or roots per step, a size that divides no q^d: every table
    # is run in many ragged steps, and must come out the same
    cases = [(3, 9), (5, 5), (13, 5)]

    def tables():
        out = []
        for q, degree in cases:
            out += [lfunction._field_tables(q, d) for d in range(1, (degree - 1) // 2 + 1)]
            out += [lfunction._root_powers(q, degree), lfunction.family_tables(q, degree)]
            out += family_coefficients(q, degree, q**degree - 50, q**degree)
            for k in range(0, q**degree, q**degree // 50 + 1):
                D = monic_by_index(q, degree, k)
                if is_squarefree(D):
                    out.append(build_lfunction(q, D).c)
        return out

    def flat(tables):
        for t in tables:
            yield from flat(t) if isinstance(t, tuple) else [np.asarray(t)]

    whole = list(flat(tables()))
    for f in (lfunction._field_tables, lfunction._root_powers, lfunction.family_tables):
        f.cache_clear()
    monkeypatch.setattr(lfunction, "FIELD_CHUNK", 7)
    chunked = list(flat(tables()))
    assert len(whole) == len(chunked) > 100
    for a, b in zip(whole, chunked):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_coefficient_routes_run_no_euler_kernel(monkeypatch, fresh_root_tables):
    # the Frobenius norm belongs to the enumeration oracle alone: both
    # coefficient routes, tables and all, take chi from the roots
    calls = []
    monkeypatch.setattr(lfunction, "_euler_values", lambda *args: calls.append(args))
    for q, degree in [(3, 9), (5, 5), (7, 5), (13, 3)]:
        lfunction.family_tables(q, degree)
        build_lfunction(q, monic_by_index(q, degree, q**degree - 1))
    assert calls == []


def test_routes_share_one_root_table(fresh_root_tables):
    # after the family's tables, build_lfunction at that degree builds no
    # table of its own: it reads the same _root_powers entry, and through it
    # the same field tables
    caches = (lfunction._root_powers, lfunction._field_tables)
    for q, degree in [(3, 9), (5, 5), (13, 5)]:
        lfunction.family_tables(q, degree)
        misses = [f.cache_info().misses for f in caches]
        build_lfunction(q, monic_by_index(q, degree, q**degree - 1))
        assert [f.cache_info().misses for f in caches] == misses, (q, degree)


def test_newton_remainder_raises():
    # S_1 = 1, S_2 = 0: 2 c_2 = S_1 c_1 + S_2 = 1 is odd, for one D as Python
    # ints and for the second row of a stack (the first row, 2 c_2 = 2, is fine)
    with pytest.raises(ArithmeticError, match="n=2"):
        _newton_coefficients([1, 0], [0, 0])
    with pytest.raises(ArithmeticError, match="n=2"):
        _newton_coefficients(np.array([[1, 1], [0, 0]]), np.array([[1, 0], [0, 0]]))
    assert _newton_coefficients(np.array([[1], [0]]), np.array([[1], [0]]))[2].tolist() == [1]


@pytest.mark.parametrize("q,degree,rows", [(67, 5, 512), (131, 5, 512), (67, 7, 256)])
def test_large_q_family_rows_match_build_lfunction(q, degree, rows, monkeypatch):
    # past the q <= 13 of FAMILIES: 2(q - 1) >= 128, so the low residues are
    # int16, and at (67, 7) q^g > 2^15, so the residue index is int32. The
    # routes share their tables, so the first squarefree row's c_1 is also
    # checked against the reciprocity ladder's sum over the P = T + a. No
    # block holds more than 64 FIELD_CHUNK rows times roots: at (67, 7),
    # 102,510 roots, a block of FAMILY_CHUNK rows would hold 26M
    g = (degree - 1) // 2
    low = lfunction.family_tables(q, degree)[2]
    R, table = lfunction._root_powers(q, degree)[:2]
    assert low.dtype == np.int16 and R.dtype == np.uint8
    assert table.size == sum(q**d for d in range(1, g + 1))
    blocks, character_sums = [], lfunction._character_sums

    def spy(q, degree, idx):
        blocks.append(idx.shape)
        return character_sums(q, degree, idx)

    monkeypatch.setattr(lfunction, "_character_sums", spy)
    start = random.Random(q * degree).randrange(q ** (degree - 2), q**degree - rows)
    c, squarefree = family_coefficients(q, degree, start, start + rows)
    assert sum(n for n, _ in blocks) == rows
    assert max(n * m for n, m in blocks) <= 64 * lfunction.FIELD_CHUNK, blocks
    for i, k in enumerate(range(start, start + rows)):
        D = monic_by_index(q, degree, k)
        assert squarefree[i] == is_squarefree(D), k
        if i % 16 == 0 and squarefree[i]:
            assert tuple(c[i].tolist()) == build_lfunction(q, D).c[: g + 1], k
    i = int(np.argmax(squarefree))
    D = monic_by_index(q, degree, start + i)
    assert c[i, 1] == sum(chi(D, FpPolynomial((a, 1), q)) for a in range(q))


@pytest.mark.parametrize("q", [99991, 99999989])
def test_root_values_stay_exact_past_float64(q):
    # sum_i C_i R_i mod q with every digit q - 2, odd: at the second q each
    # product passes 2^53, where float64 would round it and the matmul must
    # run in int64. R has 4 powers of 3 roots, 2 digits each; the third root
    # lies in the smaller field, its second digit the pad 0
    C = np.full((1, 4), q - 2)
    R = np.full((4, 3, 2), q - 2, dtype=np.uint32)
    R[:, 2, 1] = 0
    digit = 4 * (q - 2) ** 2 % q
    idx = lfunction._root_values(q, C, R)
    assert idx.dtype == np.int64 and idx.tolist() == [[digit * (1 + q)] * 2 + [digit]]

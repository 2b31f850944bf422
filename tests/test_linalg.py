import collections
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab import cli, linalg
from flagstab.errors import (
    ContainmentError,
    FieldMismatchError,
    ShapeError,
    SingularMatrixError,
)
from flagstab.linalg import (
    GF,
    QQ,
    Field,
    LinearSolver,
    Mat,
    QuotientMap,
    Subspace,
    Vec,
    complement_in,
    echelonize,
    image,
    kernel,
)
from flagstab.series import Series, _minus_one, is_adapted_basis, jump_of, level_of
from flagstab.witness import _RankFactors

F2 = GF(2)
F5 = GF(5)
F7 = GF(7)
FIELDS = [F2, F7, QQ]


def rand_mat(rng, field, n, m=None):
    m = n if m is None else m
    if field.is_prime_field:
        return Mat(field, [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)])
    return Mat(field, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])


def rand_subspace(rng, field, n, d):
    if d == 0:
        return Subspace.zero(field, n)
    while True:
        s = echelonize(rand_mat(rng, field, d, n))
        if s.dim == d:
            return s


def test_field_requires_prime():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(2).p == 2
    assert not QQ.is_prime_field


def test_scalar_normalization():
    assert F5.coerce(7) == 2
    assert F5.coerce(-1) == 4
    x = QQ.coerce(Fraction(2, 4))
    assert x == Fraction(1, 2) and x.denominator == 2
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.format(Fraction(-3, 4)) == "-3/4"
    assert F5.parse("12") == 2


SCALAR_FIELDS = [GF(2), F5, QQ]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SCALAR_FIELDS),
    st.integers(-(2**70), 2**70),
    st.integers(1, 2**40),
)
def test_parse_inverts_format(field, num, den):
    x = field.coerce(num) if field.is_prime_field else Fraction(num, den)
    assert field.parse(field.format(x)) == x


def test_parse_accepts_only_ascii_integers_and_fractions():
    assert QQ.parse("-3/+6") == Fraction(-1, 2) and F5.parse("+7") == 2
    for text in ["1_0", "\u0661", "\uff11", "1.5", "1e3", " 1", "1 ", "", "+", "0x1", "1/2/3", "/2"]:
        for field in SCALAR_FIELDS:
            with pytest.raises(ValueError):
                field.parse(text)
    with pytest.raises(ValueError):
        F5.parse("1/2")


def test_echelonize_examples():
    # full space from swapped unit rows
    s = echelonize(Mat(F2, [[0, 1], [1, 0]]))
    assert s.basis == ((1, 0), (0, 1))
    # scaling normalization over the rationals
    s = echelonize(Mat(QQ, [[2, 4]]))
    assert s.basis == ((Fraction(1), Fraction(2)),)
    # hand-eliminated 3x3 over GF(2)
    s = echelonize(Mat(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert s.dim == 2
    assert s.basis == ((1, 0, 1), (0, 1, 1))


def test_sum_examples():
    n = 3
    x = rand_subspace(random.Random(0), F7, n, 2)
    zero = Subspace.zero(F7, n)
    assert x.sum(zero) == x
    e1 = Subspace.span(F7, 3, [[1, 0, 0]])
    e2 = Subspace.span(F7, 3, [[0, 1, 0]])
    assert e1.sum(e2) == Subspace.span(F7, 3, [[1, 0, 0], [0, 1, 0]])
    a = Subspace.span(F2, 3, [[1, 1, 0]])
    b = Subspace.span(F2, 3, [[1, 0, 1]])
    assert a.sum(b).basis == ((1, 0, 1), (0, 1, 1))


def test_intersect_examples():
    v = Subspace.full(F2, 3)
    x = Subspace.span(F2, 3, [[1, 1, 0], [0, 0, 1]])
    assert x.intersect(v) == x
    e1 = Subspace.span(QQ, 3, [[1, 0, 0]])
    e2 = Subspace.span(QQ, 3, [[0, 1, 0]])
    assert e1.intersect(e2).is_zero()
    y = Subspace.span(F2, 3, [[1, 1, 1]])
    got = x.intersect(y)
    assert got == y  # (1,1,1) = (1,1,0) + (0,0,1)


def test_kernel_image_examples():
    ident = Mat.identity(F5, 3)
    assert kernel(ident - ident).is_full()
    j2 = Mat(F5, [[1, 1], [0, 1]])
    assert kernel(j2 - Mat.identity(F5, 2)).basis == ((0, 1),)
    j3 = Mat(F5, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    n = j3 - ident
    assert kernel(n @ n).basis == ((0, 1, 0), (0, 0, 1))
    assert image(n).basis == ((0, 1, 0), (0, 0, 1))
    assert image(Mat.zero(F5, 3, 3)).is_zero()
    assert image(j3).is_full()


def test_complement_examples():
    w = rand_subspace(random.Random(1), F7, 4, 3)
    zero = Subspace.zero(F7, 4)
    assert complement_in(zero, w) == w
    assert complement_in(w, w).is_zero()
    u = Subspace.span(QQ, 2, [[0, 1]])
    w2 = Subspace.full(QQ, 2)
    assert complement_in(u, w2) == Subspace.span(QQ, 2, [[1, 0]])
    with pytest.raises(ContainmentError):
        complement_in(w2, u)


def test_mismatch_errors():
    with pytest.raises(FieldMismatchError):
        Subspace.span(F2, 2, [[1, 0]]).sum(Subspace.span(F7, 2, [[1, 0]]))
    with pytest.raises(ShapeError):
        Subspace.span(F2, 2, [[1, 0]]).sum(Subspace.span(F2, 3, [[1, 0, 0]]))
    with pytest.raises(ShapeError):
        kernel(Mat(F2, [[1, 0, 1]], ncols=3))
    with pytest.raises(SingularMatrixError):
        Mat(QQ, [[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("field", [F2, F5, QQ])
def test_full_space_contains_every_subspace(field):
    # the full space answers without reducing; the answer must be what
    # reducing each basis row would give, and mismatches must still raise
    rng = random.Random(11)
    for n in (1, 4, 9):
        full = Subspace.full(field, n)
        spaces = [Subspace.zero(field, n), full]
        spaces += [echelonize(rand_mat(rng, field, rng.randint(1, n + 2), n)) for _ in range(6)]
        for x in spaces:
            assert full.contains(x)
            assert all(full.contains_vec(v) for v in x.basis_vecs())
            assert x.contains(full) == x.is_full()
        with pytest.raises(FieldMismatchError):
            full.contains(Subspace.zero(GF(3), n))
        with pytest.raises(ShapeError):
            full.contains(Subspace.full(field, n + 1))
        with pytest.raises(ShapeError):
            full.contains(Subspace.zero(field, n - 1))


def test_canonicity_random_generating_sets():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(20):
            n = rng.randint(2, 6)
            s = rand_subspace(rng, field, n, rng.randint(1, n))
            # random combinations of the basis span the same space
            rows = []
            for _ in range(2 * s.dim):
                v = Vec.zero(field, n)
                for b in s.basis_vecs():
                    c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                    v = v + b.scale(c)
                rows.append(v.entries)
            regen = Subspace.span(field, n, rows)
            assert regen.dim <= s.dim
            if regen.dim == s.dim:
                assert regen == s and regen.basis == s.basis


def test_dim_identity_sum_intersect():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(2, 6)
            a = rand_subspace(rng, field, n, rng.randint(0, n))
            b = rand_subspace(rng, field, n, rng.randint(0, n))
            assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_modular_law():
    # intersect(w, sum(u,x)) == sum(u, intersect(w,x)) whenever u <= w
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(2, 6)
            w = rand_subspace(rng, field, n, rng.randint(1, n))
            u_rows = [w.basis[i] for i in range(w.dim) if rng.random() < 0.5]
            u = Subspace.span(field, n, u_rows)
            x = rand_subspace(rng, field, n, rng.randint(0, n))
            lhs = w.intersect(u.sum(x))
            rhs = u.sum(w.intersect(x))
            assert lhs == rhs


def test_complement_properties():
    rng = random.Random(17)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(2, 6)
            w = rand_subspace(rng, field, n, rng.randint(1, n))
            u_rows = [w.basis[i] for i in range(w.dim) if rng.random() < 0.5]
            u = Subspace.span(field, n, u_rows)
            c = complement_in(u, w)
            assert c.sum(u) == w
            assert c.intersect(u).is_zero()
            # representatives are rows of w's canonical basis
            for row in c.basis:
                assert row in w.basis


@given(st.integers(min_value=2, max_value=97))
def test_prime_field_inverses(p):
    # restrict to primes among the draws
    try:
        field = GF(p)
    except ValueError:
        return
    for a in range(1, min(p, 20)):
        assert field.mul(a, field.inv(a)) == 1


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rational_echelon_idempotent(rows):
    s = Subspace.span(QQ, 3, rows)
    again = Subspace.span(QQ, 3, [list(r) for r in s.basis])
    assert again == s


def test_matrix_algebra_basics():
    rng = random.Random(23)
    for field in FIELDS:
        a = rand_mat(rng, field, 4)
        b = rand_mat(rng, field, 4)
        c = rand_mat(rng, field, 4)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ Mat.identity(field, 4) == a
        assert (a + b) @ c == a @ c + b @ c
        assert a.pow(3) == a @ a @ a
        v = Vec(field, [1, 0, 2, 1])
        assert (v @ a) @ b == v @ (a @ b)


def test_inverse_round_trip():
    rng = random.Random(29)
    for field in FIELDS:
        for _ in range(10):
            n = rng.randint(1, 5)
            m = rand_mat(rng, field, n)
            if not m.is_invertible():
                continue
            assert m @ m.inverse() == Mat.identity(field, n)
            assert m.inverse() @ m == Mat.identity(field, n)


def test_quotient_map_round_trip():
    rng = random.Random(31)
    for field in FIELDS:
        for _ in range(15):
            n = rng.randint(2, 6)
            w = rand_subspace(rng, field, n, rng.randint(1, n))
            u_rows = [w.basis[i] for i in range(w.dim) if rng.random() < 0.5]
            u = Subspace.span(field, n, u_rows)
            if u.dim == w.dim:
                continue
            qm = QuotientMap(u, w)
            assert qm.dim == w.dim - u.dim
            for rep in qm.reps:
                back = qm.lift(qm.project(rep))
                assert back == rep
            # projection kills exactly u
            for row in u.basis:
                assert qm.project(Vec(field, row)).is_zero()


def test_linear_solver():
    rng = random.Random(37)
    for field in FIELDS:
        for _ in range(15):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            rows = [rand_mat(rng, field, 1, n).rows[0] for _ in range(m)]
            solver = LinearSolver(field, rows, n)
            coeffs = [rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                      for _ in range(m)]
            target = [field.zero] * n
            for c, row in zip(coeffs, rows):
                target = [field.add(t, field.mul(field.coerce(c), x)) for t, x in zip(target, row)]
            y = solver.solve(target)
            assert y is not None
            got = [field.zero] * n
            for c, row in zip(y, rows):
                got = [field.add(t, field.mul(c, x)) for t, x in zip(got, row)]
            assert got == target


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:
        return type(e)


@pytest.mark.parametrize("field", [F2, F5, GF(17), QQ], ids=repr)
def test_raw_rows_give_the_answers_of_their_vecs(field):
    # the public entries coerce a row of ints as `Vec` does: negative
    # entries, entries >= p and >= 256 must not reach the packed kernels
    rng = random.Random(29)
    s = Subspace.span(field, 3, [[1, 2, 0]])
    series = Series(field, 3, [Subspace.full(field, 3), s, Subspace.zero(field, 3)])
    solver = LinearSolver(field, [[1, 2, 0], [0, 1, 1]], 3)
    raws = [[11, 2, 0], [-4, 2, 0], [-1, -2, 0], [256, 512, 0], [300, -257, 1], [17, 34, 0]]
    raws += [[rng.randint(-600, 600) for _ in range(3)] for _ in range(30)]
    for raw in raws:
        vec = Vec(field, raw)
        assert s.contains_vec(raw) == s.contains_vec(vec)
        assert solver.solve(raw) == solver.solve(vec)
        assert outcome(level_of, raw, series) == outcome(level_of, vec, series)
        assert outcome(jump_of, raw, series) == outcome(jump_of, vec, series)
    for i in range(0, len(raws) - 2, 3):
        basis = raws[i:i + 3]
        expected = outcome(is_adapted_basis, [Vec(field, r) for r in basis], series)
        assert outcome(is_adapted_basis, basis, series) == expected


# -- differential check of the fraction-free QQ kernels -----------------------
#
# The reference below is the plain `Fraction` Gauss-Jordan elimination,
# reduction and row product that the integer kernels replaced, and over
# GF(p) the same loops with every row reduced mod p.  The reduced row
# echelon form is unique, so every result must agree exactly, and every
# entry handed out must be canonical.


def ref_mod(field, row):
    return [x % field.p for x in row] if field.is_prime_field else row


def ref_rref(field, rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        if pivot != field.one:
            ipiv = field.inv(pivot)
            rows[r] = ref_mod(field, [x * ipiv for x in rows[r]])
        prow = rows[r]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            rows[i] = ref_mod(field, [x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def ref_reduce(basis, pivots, v, field=QQ):
    v = list(v)
    for row, piv in zip(basis, pivots):
        f = v[piv]
        if f == 0:
            continue
        v = ref_mod(field, [x - f * y for x, y in zip(v, row)])
    return v


def ref_row_times(field, row, rows, ncols):
    out = [field.zero] * ncols
    for x, mrow in zip(row, rows):
        if x == 0:
            continue
        for j, y in enumerate(mrow):
            if y != 0:
                out[j] += x * y
    return ref_mod(field, out)


def ref_span(rows, field=QQ):
    if not rows:
        return (), ()
    basis, pivots = ref_rref(field, [[field.coerce(x) for x in r] for r in rows])
    return tuple(tuple(r) for r in basis), tuple(pivots)


def ref_null_rows(rows, n, field=QQ):
    """Right halves of the reduced rows whose left n entries vanish."""
    reduced, _ = ref_rref(field, rows)
    return [r[n:] for r in reduced if all(x == 0 for x in r[:n])]


def ref_tagged(rows, field):
    n = len(rows)
    return [list(r) + [field.one if i == j else field.zero for j in range(n)]
            for i, r in enumerate(rows)]


def ref_inverse(rows, field=QQ):
    n = len(rows)
    reduced, pivots = ref_rref(field, ref_tagged(rows, field))
    if pivots != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in reduced)


def ref_kernel(rows, field=QQ):
    return ref_span(ref_null_rows(ref_tagged(rows, field), len(rows), field), field)


def ref_intersect(a, b, n, field=QQ):
    rows = [list(r) + list(r) for r in a] + [list(r) + [field.zero] * n for r in b]
    return ref_span(ref_null_rows(rows, n, field), field)


def ref_solve(rows, ncols, target, field=QQ):
    m = len(rows)
    unit = [[field.one if j == k else field.zero for k in range(ncols)] for j in range(ncols)]
    aug = [[rows[i][j] for i in range(m)] + unit[j] for j in range(ncols)]
    reduced, pivots = ref_rref(field, aug) if aug else ([], [])
    y = [field.zero] * m
    for row, piv in zip(reduced, pivots):
        val = ref_mod(field, [sum((row[m + k] * t for k, t in enumerate(target)), field.zero)])[0]
        if piv < m:
            y[piv] = val
        elif val != 0:
            return None
    return y


def all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


BIG = 2**64
qq_scalars = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def qq_rows(draw, nrows, ncols):
    """Rational rows mixing random, zero and dependent ones, shuffled."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combo"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combo" and rows:
            row = [Fraction(0)] * ncols
            for other in rows:
                c = draw(st.integers(-2, 2))
                row = [x + c * y for x, y in zip(row, other)]
            rows.append(row)
        else:
            rows.append(draw(st.lists(qq_scalars, min_size=ncols, max_size=ncols)))
    return draw(st.permutations(rows))


def qq_matrix(nrows, ncols):
    return qq_rows(nrows, ncols).map(lambda rows: Mat(QQ, rows, ncols=ncols))


dims = st.integers(1, 10)
widths = st.integers(1, 20)
differential = settings(max_examples=40, deadline=None)


@differential
@given(st.data(), dims, widths)
def test_rref_matches_fraction_reference(data, m, n):
    rows = data.draw(qq_rows(m, n))
    fast = Subspace._span(QQ, n, [list(r) for r in rows])
    basis, pivots = ref_rref(QQ, [list(r) for r in rows])
    assert (fast.basis, fast.pivots) == (tuple(map(tuple, basis)), tuple(pivots))
    assert all_fractions(fast.basis)


@differential
@given(st.data(), dims, dims, widths)
def test_products_match_fraction_reference(data, m, k, n):
    a = data.draw(qq_matrix(m, k))
    b = data.draw(qq_matrix(k, n))
    prod = a @ b
    assert prod.rows == tuple(tuple(ref_row_times(QQ, r, b.rows, n)) for r in a.rows)
    assert all_fractions(prod.rows)
    v = a.row(0)
    w = v @ b
    assert w.entries == tuple(ref_row_times(QQ, v.entries, b.rows, n))
    assert all_fractions([w.entries])


@differential
@given(st.data(), dims, widths)
def test_span_and_contains_match_fraction_reference(data, m, n):
    rows = data.draw(qq_rows(m, n))
    s = Subspace.span(QQ, n, rows)
    assert (s.basis, s.pivots) == ref_span(rows)
    assert all_fractions(s.basis)
    for v in data.draw(qq_rows(4, n)) + rows:
        expected = not any(ref_reduce(s.basis, s.pivots, v))
        assert s.contains_vec(v) == expected
        assert s.contains_vec(Vec(QQ, v)) == expected


@differential
@given(st.data(), dims)
def test_inverse_and_kernel_match_fraction_reference(data, n):
    m = data.draw(qq_matrix(n, n))
    expected = ref_inverse([list(r) for r in m.rows])
    if expected is None:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        inv = m.inverse()
        assert inv.rows == expected
        assert all_fractions(inv.rows)
    k = kernel(m)
    assert (k.basis, k.pivots) == ref_kernel([list(r) for r in m.rows])
    assert all_fractions(k.basis)


@differential
@given(st.data(), dims, dims, widths)
def test_intersect_matches_fraction_reference(data, da, db, n):
    a = Subspace.span(QQ, n, data.draw(qq_rows(da, n)))
    b = Subspace.span(QQ, n, data.draw(qq_rows(db, n)))
    c = a.intersect(b)
    assert (c.basis, c.pivots) == ref_intersect(a.basis, b.basis, n)
    assert all_fractions(c.basis)


@differential
@given(st.data(), dims, widths)
def test_solver_matches_fraction_reference(data, m, n):
    rows = data.draw(qq_rows(m, n))
    solver = LinearSolver(QQ, rows, n)
    coeffs = data.draw(st.lists(qq_scalars, min_size=m, max_size=m))
    inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    for target in [inside] + data.draw(qq_rows(2, n)):
        y = solver.solve(target)
        assert y == ref_solve(rows, n, target)
        if y is not None:
            assert all_fractions([y])
    assert solver.solve(inside) is not None


# -- the same differential check over GF(p) -----------------------------------
#
# For p <= 13 the kernels pack a row into one int with a byte per column,
# and larger p keep lists, so the primes sit on both sides of that
# boundary.  Widths reach 48, the [A | I] width at dim 24, and the rows
# include all-(p - 1) ones, which fill the byte slots to their maximum.

GF_PRIMES = [2, 3, 5, 7, 11, 13, 17, 101]
gf_differential = settings(max_examples=15, deadline=None)


@st.composite
def gf_rows(draw, p, nrows, ncols):
    """GF(p) rows mixing random, dense, all-(p - 1), unit, zero and
    dependent ones, shuffled."""
    rows = []
    entries = st.integers(0, p - 1)
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "dense", "top", "unit", "zero", "combo"]))
        if kind == "dense":
            row = draw(st.lists(st.integers(1, p - 1), min_size=ncols, max_size=ncols))
        elif kind == "top":
            row = [p - 1] * ncols
        elif kind == "unit":
            row = [0] * ncols
            row[draw(st.integers(0, ncols - 1))] = draw(st.integers(1, p - 1))
        elif kind == "zero":
            row = [0] * ncols
        elif kind == "combo" and rows:
            row = [0] * ncols
            for other in rows:
                c = draw(entries)
                row = [(x + c * y) % p for x, y in zip(row, other)]
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append(row)
    return draw(st.permutations(rows))


def gf_matrix(p, nrows, ncols):
    return gf_rows(p, nrows, ncols).map(lambda rows: Mat(GF(p), rows, ncols=ncols))


def assert_reduce_matches(s, v, field):
    """`_reduce` gives the reference residue: whole, or on the non-pivot
    columns only, where the rest vanishes."""
    expected = ref_reduce(s.basis, s.pivots, v, field)
    free = [c for c in range(s.ambient_dim) if c not in s.pivots]
    assert list(s._reduce(list(v))) in (expected, [expected[c] for c in free])
    assert s.contains_vec(v) == (not any(expected))


@pytest.mark.parametrize("p", GF_PRIMES)
@gf_differential
@given(data=st.data(), m=st.integers(1, 24), n=st.integers(1, 48))
def test_gf_span_contains_and_extend_match_reference(p, data, m, n):
    field = GF(p)
    rows = data.draw(gf_rows(p, m, n))
    s = Subspace.span(field, n, rows)
    assert (s.basis, s.pivots) == ref_span(rows, field)
    assert_canonical(s)
    others = data.draw(gf_rows(p, 4, n))
    # a subspace built by the public constructor packs its rows on first use
    rebuilt = Subspace(field, n, s.basis, s.pivots)
    for v in others + rows:
        assert_reduce_matches(s, v, field)
        assert_reduce_matches(rebuilt, v, field)
    t = Subspace.span(field, n, others)
    assert rebuilt.contains(t) == s.contains(t) and rebuilt._extend(t.basis_vecs()) == s._extend(t.basis_vecs())
    for x, y in [(s, t), (t, s), (s, s.sum(t)), (s.sum(t), s)]:
        assert x.contains(y) == all(not any(ref_reduce(x.basis, x.pivots, r, field)) for r in y.basis)
    vecs = [Vec(field, v) for v in others + rows]
    new = t._extend(vecs)
    expected, span = [], t
    for v in vecs:
        if any(ref_reduce(span.basis, span.pivots, v.entries, field)):
            expected.append(v)
            span = Subspace(field, n, *ref_span(list(span.basis) + [v.entries], field))
    assert new == expected
    assert Subspace._span(field, n, [*t.basis_vecs(), *new]) == span == s.sum(t)
    assert t._extend(vecs, t.dim + 1) == expected[:1]


@pytest.mark.parametrize("p", GF_PRIMES)
@gf_differential
@given(data=st.data(), m=st.integers(1, 24), n=st.integers(1, 48))
def test_gf_solver_matches_reference(p, data, m, n):
    # a solve is one `_row_map` product with the solver's tag columns, packed
    # for p <= 13; the targets are a member, one that differs from it in
    # column 0 (a non-member unless the rows span e_0) and drawn rows
    field = GF(p)
    rows = data.draw(gf_rows(p, m, n))
    solver = LinearSolver(field, rows, n)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    inside = ref_row_times(field, coeffs, rows, n)
    outside = [x if j else (x + 1) % p for j, x in enumerate(inside)]
    for target in [inside, outside] + data.draw(gf_rows(p, 3, n)):
        y = solver.solve(target)
        assert y == ref_solve(rows, n, target, field) == solver.solve(Vec(field, target))
    assert solver.solve(inside) is not None


@pytest.mark.parametrize("p", GF_PRIMES)
@gf_differential
@given(data=st.data(), n=st.integers(1, 24), k=st.integers(1, 24))
def test_gf_inverse_kernel_and_products_match_reference(p, data, n, k):
    field = GF(p)
    a = data.draw(gf_matrix(p, n, n))
    b = data.draw(gf_matrix(p, n, k))
    rows = [list(r) for r in a.rows]
    expected = ref_inverse(rows, field)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            a.inverse()
    else:
        assert a.inverse().rows == expected
    ker = kernel(a)
    assert (ker.basis, ker.pivots) == ref_kernel(rows, field)
    for x in (a @ b, a @ a):
        assert_canonical(x)
    assert (a @ b).rows == tuple(tuple(ref_row_times(field, r, b.rows, k)) for r in a.rows)
    assert (a.row(0) @ b).entries == tuple(ref_row_times(field, a.rows[0], b.rows, k))
    img = echelonize(a).apply(b)
    assert (img.basis, img.pivots) == ref_span([ref_row_times(field, r, b.rows, k) for r in a.rows], field)


@pytest.mark.parametrize("p", GF_PRIMES)
@gf_differential
@given(data=st.data(), da=st.integers(0, 24), db=st.integers(0, 24), n=st.integers(1, 48))
def test_gf_sum_matches_reference(p, data, da, db, n):
    # for p <= 13 a sum echelons the packed rows its operands keep: rows
    # their elimination returned, or packed on first use from the basis
    field = GF(p)
    rows_a, rows_b = data.draw(gf_rows(p, da, n)), data.draw(gf_rows(p, db, n))
    a, b = Subspace.span(field, n, rows_a), Subspace.span(field, n, rows_b)
    both = ref_span(rows_a + rows_b, field)
    cases = [(a, b, both), (b, a, both), (Subspace(field, n, a.basis, a.pivots), b, both),
             (a, a.sum(b), both), (a, a, ref_span(rows_a, field))]
    for x, y, expected in cases:
        c = x.sum(y)
        assert (c.basis, c.pivots) == expected
        assert_canonical(c)
        if isinstance(field._ops, linalg._PackedPrimes):
            assert c._packed() == Subspace(field, n, c.basis, c.pivots)._packed()


@pytest.mark.parametrize("p", GF_PRIMES)
@gf_differential
@given(data=st.data(), da=st.integers(1, 24), db=st.integers(1, 24), n=st.integers(1, 48))
def test_gf_intersect_matches_reference(p, data, da, db, n):
    field = GF(p)
    a = Subspace.span(field, n, data.draw(gf_rows(p, da, n)))
    b = Subspace.span(field, n, data.draw(gf_rows(p, db, n)))
    c = a.intersect(b)
    assert (c.basis, c.pivots) == ref_intersect(a.basis, b.basis, n, field)
    assert_canonical(c)


@pytest.mark.parametrize("p", GF_PRIMES)
def test_gf_products_of_full_slots_over_long_inner_dimensions(p):
    # all-(p - 1) rows put the most into every slot, and inner dimensions
    # past 255 / (p - 1)^2 make a packed product reduce its slots midway
    field = GF(p)
    for k in (1, 2, 15, 16, 63, 64, 254, 255, 300):
        a = Mat(field, [[p - 1] * k, [1] * k])
        b = Mat(field, [[p - 1] * 3] * k)
        assert (a @ b).rows == tuple(tuple(ref_row_times(field, r, b.rows, 3)) for r in a.rows)
        assert (a @ b).rows[0] == ((k * (p - 1) ** 2) % p,) * 3


# -- raw elimination output against the reference ----------------------------
#
# `_eliminate` hands out its rows raw: over GF(p) the reduced echelon rows
# (bytes for p <= 13), over QQ primitive integer multiples of them with a
# positive pivot entry, always in pivot order.  The inputs are kernel-form
# rows with zero, duplicate, scaled and dependent ones, more rows than
# columns, and the [A | d*I] blocks that `_tagged` builds.


@st.composite
def kernel_form_rows(draw, field, nrows, ncols):
    """Kernel-form rows (`_form` numerators) of drawn rows, with a duplicate
    and, over QQ, an integer multiple of a drawn row appended."""
    if field.is_prime_field:
        rows = [list(r) for r in draw(gf_rows(field.p, nrows, ncols))]
    else:
        rows = [list(QQ._ops._form(r)[0]) for r in draw(qq_rows(nrows, ncols))]
    i, k = draw(st.integers(0, nrows - 1)), draw(st.integers(2, 6))
    rows.append(list(rows[i]))
    if not field.is_prime_field:
        rows.append([k * x for x in rows[i]])
    return draw(st.permutations(rows))


def assert_raw_echelon(field, rows):
    before = [list(r) for r in rows]
    reduced, pivots = linalg._eliminate(field, rows)
    assert rows == before  # the argument is left as it was
    expected, expected_pivots = ref_rref(field, [[field.coerce(x) for x in r] for r in rows])
    assert pivots == expected_pivots == sorted(pivots)
    assert len(reduced) == len(expected)
    for r, c, e in zip(reduced, pivots, expected):
        if field.is_prime_field:
            assert list(r) == e
        else:
            assert r[c] > 0 and math.gcd(*r) == 1
            assert [Fraction(x, r[c]) for x in r] == e


@pytest.mark.parametrize("field", [GF(p) for p in GF_PRIMES] + [QQ], ids=repr)
@gf_differential
@given(data=st.data(), m=st.integers(1, 12), n=st.integers(1, 10))
def test_eliminate_matches_rref_reference(field, data, m, n):
    assert_raw_echelon(field, data.draw(kernel_form_rows(field, m, n)))
    # [A | d*I] for square A, over QQ with denominators d up to 3
    scale = st.just(1) if field.is_prime_field else st.integers(1, 3)
    square = data.draw(kernel_form_rows(field, n, n))[:n]
    forms = [(r, data.draw(scale)) for r in square]
    tagged = [r + [d if i == j else 0 for j in range(n)] for i, (r, d) in enumerate(forms)]
    assert_raw_echelon(field, tagged)
    assert linalg._tagged(field, forms, range(len(forms))) == linalg._eliminate(field, tagged)
    assert_raw_echelon(field, [])


def trial_division_primes(limit):
    primes = []
    for n in range(2, limit):
        if all(n % q for q in primes if q * q <= n):
            primes.append(n)
    return primes


def test_is_prime_matches_trial_division():
    limit = 10**5
    assert [n for n in range(limit) if linalg._is_prime(n)] == trial_division_primes(limit)


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; the others are strong pseudoprimes to
    # the first 4, 9 and 12 prime bases.
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not linalg._is_prime(n)
        with pytest.raises(ValueError):
            GF(n)


def test_large_prime_fields():
    import time

    t0 = time.perf_counter()
    assert GF(10**18 + 3).p == 10**18 + 3
    assert GF(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 1.0
    # At and beyond the bound the 13 bases no longer decide primality.
    for p in (linalg._MR_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(p)


CANON_FIELDS = [F2, F5, QQ]


def canon_scalars(field):
    if field.is_prime_field:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def canon_mat(field, nrows, ncols):
    row = st.lists(canon_scalars(field), min_size=ncols, max_size=ncols)
    rows = st.lists(row, min_size=nrows, max_size=nrows)
    return rows.map(lambda rs: Mat(field, rs, ncols=ncols))


def canon_vec(field, n):
    return st.lists(canon_scalars(field), min_size=n, max_size=n).map(lambda xs: Vec(field, xs))


def assert_canonical(x):
    """x equals its re-coerced copy and holds only canonical entries."""
    field = x.field
    if isinstance(x, Mat):
        assert Mat(field, x.rows, ncols=x.ncols) == x
        rows = x.rows
    elif isinstance(x, Vec):
        assert Vec(field, x.entries) == x
        rows = [x.entries]
    else:
        assert Subspace.span(field, x.ambient_dim, x.basis) == x
        rows = x.basis
    for r in rows:
        assert type(r) is tuple
        for e in r:
            if field.is_prime_field:
                assert type(e) is int and 0 <= e < field.p
            else:
                assert type(e) is Fraction


@differential
@given(st.data(), st.sampled_from(CANON_FIELDS), st.integers(1, 6), st.integers(1, 6))
def test_kernel_results_are_canonical(data, field, n, k):
    a = data.draw(canon_mat(field, n, n))
    b = data.draw(canon_mat(field, n, n))
    c = data.draw(canon_mat(field, n, k))
    v = data.draw(canon_vec(field, n))
    w = data.draw(canon_vec(field, n))
    x = data.draw(st.integers(-20, 20))
    results = [
        a @ b, a @ c, a + b, a - b, -a, a.scale(x), a.transpose(), c.transpose(),
        Mat.identity(field, n), v @ a, v @ c, v + w, v - w, -v, v.scale(x),
    ]
    try:
        results.append(a.inverse())
    except SingularMatrixError:
        pass
    s, t = echelonize(a), echelonize(b)
    results += [s, s.sum(t), s.intersect(t), s.apply(b), s.apply(c), kernel(a)]
    results += s.basis_vecs() + a.vec_rows()
    for r in results:
        assert_canonical(r)


# -- integer forms kept on QQ objects ----------------------------------------
#
# Over QQ a `Subspace` keeps the primitive integer rows its elimination
# returned, and a `Vec` or `Mat` the (numerators, denominator) pairs a
# product computed.  A kept form must describe exactly the canonical
# entries beside it: a subspace's rows are what `_int_row` makes of its
# basis, and a pair's numerators over its denominator are the entries.


def assert_subspace_rows(s):
    rows = s._rows()
    assert [list(r) for r in rows] == [linalg._int_row(r)[0] for r in s.basis]
    assert Subspace._span(QQ, s.ambient_dim, rows) == s


def assert_forms(x):
    if isinstance(x, Vec):
        pairs, rows = [x._int], [x.entries]
    else:
        pairs, rows = x._int_forms or [], x.rows
    for pair, row in zip(pairs, rows):
        if pair is not None:
            nums, den = pair
            assert tuple(Fraction(x, den) for x in nums) == row


@differential
@given(st.data(), st.integers(1, 6), st.integers(1, 6))
def test_kept_integer_forms_match_canonical_entries(data, m, n):
    rows = data.draw(qq_rows(m, n))
    a = data.draw(qq_matrix(n, n))
    b = data.draw(qq_matrix(n, n))
    s = Subspace.span(QQ, n, rows)
    t = Subspace.span(QQ, n, data.draw(qq_rows(m, n)))
    built = [
        Subspace(QQ, n, s.basis, s.pivots), s, t,
        Subspace._span(QQ, n, rows), Subspace._span(QQ, n, [list(r) for r in s._rows()]),
        s.sum(t), s.intersect(t), kernel(a), s.apply(a), echelonize(a @ b),
        Subspace._span(QQ, n, [*s.basis_vecs(), *s._extend(t.basis_vecs())]),
        Subspace._span(QQ, n, [*s.basis_vecs(), *s._extend(data.draw(qq_rows(3, n)))]),
    ]
    u = s.intersect(t)
    qm = QuotientMap(u, s)
    built += [qm.project_subspace(s), qm.project_subspace(u), qm.lift_subspace(Subspace.full(QQ, qm.dim))]
    # the full space is built with its unit rows as its integer rows
    full = Subspace.full(QQ, n)
    assert full._int_rows == [[int(i == j) for j in range(n)] for i in range(n)]
    for x in built + [full]:
        assert_subspace_rows(x)
    v = Vec(QQ, data.draw(st.lists(qq_scalars, min_size=n, max_size=n)))
    vecs = [v @ a, v @ a @ b, (v + v) @ b] + s.basis_vecs() + (a @ b).vec_rows()
    vecs += linalg.complement_basis(u, s) + [qm.project(w) for w in s.basis_vecs()]
    for x in vecs + [a @ b, a @ b @ a, a.inverse() @ b if a.is_invertible() else b]:
        assert_forms(x)


# -- objects made from integer forms alone --------------------------------------
#
# Over QQ the private constructors given only forms leave `Mat.rows`,
# `Vec.entries` and `Subspace.basis` unbuilt; the first read builds the
# canonical Fractions.  Forms need not be in lowest terms, save a `Vec`'s,
# which `==` compares, and reading only the form (dims, zero tests, pivots,
# equality of subspaces, products, g - 1) must leave the entries unbuilt.


def unbuilt(x, name):
    """Whether the slot name of x is still unset (bypassing `__getattr__`)."""
    try:
        getattr(type(x), name).__get__(x, type(x))
    except AttributeError:
        return True
    return False


@st.composite
def qq_forms(draw, nrows, ncols):
    """(numerators, denominator) rows: zero, sparse or dense numerators of
    either sign over a positive denominator, then often both times a common
    factor, so not in lowest terms."""
    forms = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["zero", "sparse", "dense", "dense"]))
        nums = [0] * ncols
        if kind != "zero":
            nums = draw(st.lists(st.integers(-BIG, BIG), min_size=ncols, max_size=ncols))
            if kind == "sparse":
                nums = [x if j % 3 == 0 else 0 for j, x in enumerate(nums)]
        den, k = draw(st.integers(1, 12)), draw(st.sampled_from([1, 1, 2, 6]))
        forms.append(([k * x for x in nums], k * den))
    return forms


def fractions_of(forms):
    return [[Fraction(x, d) for x in nums] for nums, d in forms]


def lowest(form):
    """A (numerators, denominator > 0) form divided by its content: `Vec._of`
    takes forms in lowest terms, which `Vec.__eq__` compares."""
    nums, den = form
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


def assert_same(lazy, eager, name):
    """lazy, built from forms, reads as eager; both orders of == and hash agree."""
    assert unbuilt(lazy, name) and isinstance(lazy, type(eager))
    assert type(lazy).__name__ == type(eager).__name__
    assert getattr(lazy, name) == getattr(eager, name)
    assert_canonical(lazy)
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)


@differential
@given(st.data(), st.integers(0, 6), st.integers(1, 6))
def test_objects_from_forms_read_as_eager_ones(data, m, n):
    forms = data.draw(qq_forms(m, n))
    sq = data.draw(qq_forms(n, n))
    a, b = Mat._of(QQ, None, n, forms), Mat._of(QQ, None, n, sq)
    eager_a, eager_b = Mat(QQ, fractions_of(forms), ncols=n), Mat(QQ, fractions_of(sq), ncols=n)
    # reads of the forms alone
    nil = _minus_one(b)
    prod, image_of_a = a @ b, echelonize(a)
    assert (a.nrows, a.is_zero(), b.is_zero()) == (m, eager_a.is_zero(), eager_b.is_zero())
    assert a._forms() is forms
    vecs = [Vec._of(QQ, None, lowest(f)) for f in forms]
    assert [(v.dim, v.is_zero()) for v in vecs] == [(n, not any(nums)) for nums, _ in forms]
    full, basis = Subspace.full(QQ, n), image_of_a.basis_vecs()
    assert (image_of_a.dim, image_of_a.is_zero(), full.is_full(), full.dim) == (
        len(image_of_a.pivots), not image_of_a.pivots, True, n)
    assert [v.dim for v in basis] == [n] * image_of_a.dim
    assert image_of_a == image_of_a.apply(Mat.identity(QQ, n)) and full == Subspace.full(QQ, n)
    for x in (a, b, nil, prod):
        assert unbuilt(x, "rows")
    for x in vecs + basis:
        assert unbuilt(x, "entries")
    for x in (image_of_a, full):
        assert unbuilt(x, "basis")
    # then the entries, against eager construction
    assert_same(a, eager_a, "rows")
    assert_same(b, eager_b, "rows")
    ones = Mat.identity(QQ, n)
    assert_same(nil, eager_b - ones, "rows")
    assert_same(_minus_one(nil, 1), eager_b, "rows")
    assert_same(prod, eager_a @ eager_b, "rows")
    for v, row in zip(vecs, fractions_of(forms)):
        assert_same(v, Vec(QQ, row), "entries")
    eager_image = Subspace(QQ, n, *ref_span(fractions_of(forms)))
    assert_same(image_of_a, eager_image, "basis")
    assert_same(full, Subspace(QQ, n, ones.rows, range(n)), "basis")
    for v, row in zip(basis, eager_image.basis):
        assert_same(v, Vec(QQ, row), "entries")
    if eager_b.is_invertible():
        assert_same(Mat._of(QQ, None, n, sq).inverse(), eager_b.inverse(), "rows")
    # over GF(p) the same constructors build the plain classes, entries set
    gf = [Mat._of(F5, None, 2, [([1, 2], 1)]), Vec._of(F5, None, ([1, 2], 1)), Subspace.full(F5, n)]
    assert [type(x) for x in gf] == [Mat, Vec, Subspace]


def test_qq_zero_and_one_are_shared_constants():
    assert QQ.one is QQ.one and QQ.zero is QQ.zero
    assert (QQ.zero, QQ.one, F5.zero, F5.one) == (Fraction(0), Fraction(1), 0, 1)
    assert type(QQ.one) is Fraction and type(F5.one) is int
    ones = Mat.identity(QQ, 3)
    assert ones.rows == tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert ones == Mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) and ones.is_identity()
    assert Vec.zero(QQ, 3) == Vec(QQ, [0, 0, 0]) and Vec.zero(QQ, 3).entries == (Fraction(0),) * 3
    for x in (ones, Vec.zero(QQ, 3), Vec.unit(QQ, 3, 1), Mat.zero(QQ, 2, 3)):
        assert_canonical(x)


# -- one representation over QQ ------------------------------------------------
#
# Every QQ `Vec`, `Mat` and `Subspace` holds its integer form from
# construction, whichever constructor made it, so no read converts a row; a
# `Vec`'s form is in lowest terms over a positive denominator, which makes
# comparing forms the same as comparing entries.


def kept_form(x):
    return x._int if isinstance(x, Vec) else x._int_forms if isinstance(x, Mat) else x._int_rows


def no_conversion(row):
    raise AssertionError("a read converted a row to its integer form")


@differential
@given(st.data(), st.integers(1, 5))
def test_every_qq_object_holds_its_form_from_construction(data, n):
    rows = data.draw(qq_rows(n, n))
    a, b = Mat(QQ, rows), data.draw(qq_matrix(n, n))
    v = Vec(QQ, rows[0])
    s = Subspace.span(QQ, n, rows)
    qm = QuotientMap(s, Subspace.full(QQ, n))
    coords = [qm.project(w) for w in [v, *Subspace.full(QQ, n).basis_vecs()]]
    built = [
        a, b, v, s, Subspace(QQ, n, s.basis, s.pivots), Subspace.zero(QQ, n), Subspace.full(QQ, n),
        Mat.from_vecs(QQ, [v], n), Mat.identity(QQ, n), Mat.zero(QQ, 2, n), Mat(QQ, [], ncols=n),
        a + b, a - b, -a, a.scale(Fraction(2, 3)), a @ b, a.transpose(), a.row(0), *a.vec_rows(),
        v + v, v - v, -v, v.scale(Fraction(-1, 2)), v @ a, Vec.unit(QQ, n, 0), Vec.zero(QQ, n),
        kernel(a), echelonize(a), s.sum(kernel(b)), s.intersect(kernel(b)), s.apply(a),
        *s.basis_vecs(), *coords, *[qm.lift(c) for c in coords], qm.projection_matrix(),
    ]
    if a.is_invertible():
        built.append(a.inverse())
    assert all(kept_form(x) is not None for x in built)
    # reads of the forms convert nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_int_row", no_conversion)
        for x in built:
            if isinstance(x, Vec):
                QQ._ops._form(x)
            elif isinstance(x, Mat):
                assert x._forms() is x._int_forms and x.is_zero() == (not any(map(any, x.rows)))
            else:
                assert x._rows() is x._int_rows


def test_vec_forms_are_in_lowest_terms_and_compared():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    a = Mat(QQ, [[half, 0, 1], [third, 2, 0], [0, 0, Fraction(5, 4)]])
    s = Subspace.span(QQ, 3, [[2, 4, 6], [third, 0, half]])
    v = Vec(QQ, [Fraction(2, 4), Fraction(-6, 8), 3])
    qm = QuotientMap(Subspace.span(QQ, 3, [[0, 0, 1]]), Subspace.full(QQ, 3))
    text = "field q\ndim 2\nmatrix g\n1 0\n0 1\ncertificate\nr 1\nh\n1 0\n0 1\nprobe\n2/4 -6/8\n"
    probe = cli.parse_problem(text).certificate.probe
    vecs = [
        v, Vec._of(QQ, [half, third, QQ.zero]), v @ a, v @ a @ a, *s.basis_vecs(), probe,
        qm.project(v), qm.lift(qm.project(v)), v + v, v - v, -v, v.scale(6), a.row(1),
        Vec.zero(QQ, 3), Vec.unit(QQ, 3, 2),
    ]
    for x in vecs:
        nums, den = x._int
        assert den > 0 and math.gcd(den, *nums) == 1
        assert tuple(Fraction(y, den) for y in nums) == x.entries
    for x in vecs:
        for y in vecs:
            assert (x == y) == (x.entries == y.entries)
            if x == y:
                assert hash(x) == hash(y)
    # numerators as a list or a tuple; == reads no entries
    w = s.basis_vecs()[1]
    nums, den = w._int
    same = [Vec._of(QQ, None, (list(nums), den)), Vec._of(QQ, None, (tuple(nums), den))]
    assert w == same[0] == same[1] and hash(w) == hash(same[0]) == hash(same[1])
    assert all(unbuilt(x, "entries") for x in [w, *same])
    assert w == Vec(QQ, w.entries) and w != Vec(QQ, [0, 1, 0]) and w != Vec(F5, [1, 0, 0])


def test_public_subspace_constructor_coerces_its_basis():
    assert Subspace(F5, 2, [[6, 0]], [0]) == Subspace.span(F5, 2, [[1, 0]])
    assert Subspace(F5, 2, [[6, 0]], [0]).basis == ((1, 0),)
    line = Subspace(QQ, 2, [[1, 0]], [0])
    assert [type(x) for x in line.basis[0]] == [Fraction, Fraction]
    assert line == Subspace.span(QQ, 2, [[3, 0]]) and line._int_rows == [[1, 0]]
    plane = Subspace(QQ, 3, [[1, "1/2", 0], [0, 0, 1]], [0, 2])
    assert plane == Subspace.span(QQ, 3, [[2, 1, 0], [0, 0, 5]])
    for x in (line, plane, Subspace(F5, 3, [[1, 0, 7]], [0]), Subspace(GF(17), 2, [[18, -1]], [0])):
        assert_canonical(x)


@pytest.mark.parametrize("field", [F2, F5, GF(17), QQ], ids=repr)
def test_public_subspace_constructor_rejects_a_basis_not_in_reduced_echelon_form(field):
    bad = [
        ([[1, 0], [0, 1]], [1, 0]),  # pivots out of order
        ([[1, 1], [0, 1]], [0, 1]),  # a pivot column not cleared above
        ([[0, 1], [1, 0]], [1, 0]),  # rows out of order
        ([[1, 0]], [1]),  # the lead is not at the pivot
        ([[0, 1]], [1, 2]),  # fewer rows than pivots
        ([[1, 0], [0, 0]], [0]),  # a zero row
        ([[1, 0], [0, 0]], [0, 1]),
        ([[1, 0, 0]], [0]),  # wider than the space
        ([[1]], [0]),  # narrower
        ([[0, 1]], [-1]),
        ([[1, 0]], [0.5]),
    ]
    if field != F2:
        bad += [([[2, 0]], [0]), ([[1, 3], [0, 2]], [0, 1])]  # pivot entries other than 1
    if field == QQ:
        bad += [([[1, "1/2"], [0, "3/2"]], [0, 1])]
    for basis, pivots in bad:
        with pytest.raises(ValueError):
            Subspace(field, 2, basis, pivots)
    good = [([], []), ([[1, 0], [0, 1]], [0, 1]), ([[0, 1]], [1]), ([[1, 3]], [0]), ([[1, 2]], range(1))]
    for basis, pivots in good:
        assert Subspace(field, 2, basis, pivots) == Subspace.span(field, 2, basis)
    # canonical once coerced: 6 is 1 over GF(5)
    assert Subspace(F5, 2, [[6, 0]], [0]) == Subspace.span(F5, 2, [[1, 0]])


@differential
@given(st.data(), st.integers(1, 6), st.integers(1, 6))
def test_kernels_on_kept_forms_match_fraction_reference(data, m, n):
    a = data.draw(qq_matrix(n, n))
    # operands built by kernels, so that they carry kept forms
    s = Subspace.span(QQ, n, data.draw(qq_rows(m, n))).apply(a)
    t = kernel(data.draw(qq_matrix(n, n))).sum(Subspace.span(QQ, n, data.draw(qq_rows(m, n))))
    vecs = [v @ a for v in Subspace.span(QQ, n, data.draw(qq_rows(m, n))).basis_vecs()]
    vecs.append(Vec(QQ, data.draw(st.lists(qq_scalars, min_size=n, max_size=n))) @ a)

    def ref_contains(x, y):
        return all(not any(ref_reduce(x.basis, x.pivots, r)) for r in y.basis)

    for x, y in [(s, t), (t, s), (s, s.intersect(t)), (t, s.intersect(t))]:
        assert x.contains(y) == ref_contains(x, y)
    assert (s.sum(t).basis, s.sum(t).pivots) == ref_span(list(s.basis) + list(t.basis))
    c = s.intersect(t)
    assert (c.basis, c.pivots) == ref_intersect(s.basis, t.basis, n)
    for v in vecs:
        assert s.contains_vec(v) == (not any(ref_reduce(s.basis, s.pivots, v.entries)))
    new = s._extend(vecs + t.basis_vecs())
    grown = Subspace._span(QQ, n, [*s.basis_vecs(), *new])
    expected, span = [], s
    for v in vecs + t.basis_vecs():
        if any(ref_reduce(span.basis, span.pivots, v.entries)):
            expected.append(v)
            span = Subspace(QQ, n, *ref_span(list(span.basis) + [v.entries]))
    assert new == expected and grown == span
    rows = vecs + s.basis_vecs()
    solver = LinearSolver(QQ, rows, n)
    for target in vecs + t.basis_vecs():
        assert solver.solve(target) == ref_solve([r.entries for r in rows], n, target.entries)


# -- sparse rows ---------------------------------------------------------------
#
# Over QQ and large p a row with at most a quarter of its entries nonzero,
# and at most a quarter of the result's width, is multiplied and reduced by
# combining the rows its nonzero entries select; other rows keep one dot
# product per column; over GF(p) the sums are then reduced mod p.  The rows
# below sit on both sides of that rule (1, n // 4 and n // 4 + 1 nonzeros),
# and the results must match the unedited references either way.

SPARSE_FIELDS = [QQ, GF(17)]
sparse_differential = settings(max_examples=30, deadline=None)


def nonzero_scalars(field):
    if field.is_prime_field:
        return st.integers(1, field.p - 1)
    nums = st.integers(-BIG, BIG).filter(bool)
    return st.one_of(
        st.sampled_from([1, -1, 2]).map(Fraction),
        st.builds(Fraction, nums, st.integers(1, BIG)),
        st.builds(Fraction, nums, st.sampled_from([1, 2, 3, 6, 35])),
    )


def sparse_counts(n):
    return st.sampled_from(sorted({1, max(n // 4, 1), n // 4 + 1}))


@st.composite
def sparse_rows(draw, field, nrows, ncols):
    """Rows with 1, ncols // 4 or ncols // 4 + 1 nonzero entries at random
    places, mixed with dense and zero rows."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "dense", "zero"]))
        row = [field.zero] * ncols
        if kind == "dense":
            row = draw(st.lists(nonzero_scalars(field), min_size=ncols, max_size=ncols))
        elif kind == "sparse":
            places = draw(st.permutations(range(ncols)))[: draw(sparse_counts(ncols))]
            for j in places:
                row[j] = draw(nonzero_scalars(field))
        rows.append(row)
    return rows


def sparse_combination(draw, field, s):
    """A combination of 1, dim // 4 or dim // 4 + 1 basis rows of s, so its
    pivot coefficients are that sparse."""
    picked = draw(st.permutations(range(s.dim)))[: draw(sparse_counts(s.dim))]
    row = [field.zero] * s.ambient_dim
    for i in picked:
        c = draw(nonzero_scalars(field))
        row = [field.coerce(x + c * y) for x, y in zip(row, s.basis[i])]
    return row


def record_paths(monkeypatch):
    """Counts of ("rows", kernel), the rows the product loop `_images` and
    the list path of `Subspace._reduce` take, and of ("sparse", kernel),
    those of them summed by `_combine`: a sum is counted under the kernel
    that called the `_row_map` closure which made it."""
    seen = collections.Counter()
    combine, images, reduce = linalg._combine, linalg._images, Subspace._reduce

    def recorded_combine(*args):
        seen["sparse", sys._getframe(2).f_code.co_name] += 1
        return combine(*args)

    def recorded_images(forms, m):
        seen["rows", "_images"] += len(forms)
        return images(forms, m)

    def recorded_reduce(self, v):
        seen["rows", "_reduce"] += not isinstance(self.field._ops, linalg._PackedPrimes)
        return reduce(self, v)

    monkeypatch.setattr(linalg, "_combine", recorded_combine)
    monkeypatch.setattr(linalg, "_images", recorded_images)
    monkeypatch.setattr(Subspace, "_reduce", recorded_reduce)
    return seen


def test_sparse_path_takes_rows_with_at_most_a_quarter_nonzero(monkeypatch):
    seen = record_paths(monkeypatch)
    for n in (4, 7, 8, 9, 12, 24, 48):
        for width in (1, 4, 7, 8, 12, 33):
            m = Mat(QQ, [[Fraction(i - j, 1 + (i + j) % 3) for j in range(width)] for i in range(n)])
            limit = min(n, width) // 4
            for k in sorted({0, 1, limit, limit + 1}):
                v = Vec(QQ, [Fraction(7, 3)] * k + [0] * (n - k))
                seen.clear()
                assert (v @ m).entries == tuple(ref_row_times(QQ, v.entries, m.rows, width))
                assert seen["sparse", "_images"] == (k <= limit)
    for d, ambient in ((8, 16), (9, 17), (12, 24), (10, 16), (16, 24), (24, 48)):
        s = Subspace.full(QQ, d).apply(Mat(QQ, [[int(i == j) + (j >= d) * (i + j) % 5
                                                   for j in range(ambient)] for i in range(d)]))
        limit = min(d, ambient - d) // 4
        for k in sorted({0, 1, limit, limit + 1}):
            v = [sum(3 * r[j] for r in s._rows()[:k]) + (j == ambient - 1) for j in range(ambient)]
            seen.clear()
            assert s.contains_vec(v) == (not any(ref_reduce(s.basis, s.pivots, v)))
            assert seen["sparse", "_reduce"] == (k <= limit)


@pytest.mark.parametrize("field", SPARSE_FIELDS)
def test_sparse_rows_match_reference(field, monkeypatch):
    seen = record_paths(monkeypatch)

    @sparse_differential
    @given(data=st.data(), m=st.integers(1, 16), k=st.integers(1, 48), n=st.integers(1, 48))
    def check(data, m, k, n):
        a = Mat(field, data.draw(sparse_rows(field, m, k)), ncols=k)
        b = Mat(field, data.draw(sparse_rows(field, k, n)), ncols=n)
        assert (a @ b).rows == tuple(tuple(ref_row_times(field, r, b.rows, n)) for r in a.rows)
        for v in a.vec_rows():
            assert (v @ b).entries == tuple(ref_row_times(field, v.entries, b.rows, n))
        assert_canonical(a @ b)
        img = echelonize(a).apply(b)
        assert (img.basis, img.pivots) == ref_span([ref_row_times(field, r, b.rows, n) for r in a.rows], field)

        s = Subspace.span(field, k, a.rows)
        if not s.dim:
            return
        inside = [sparse_combination(data.draw, field, s) for _ in range(3)]
        vs = inside + [[field.coerce(x + y) for x, y in zip(inside[0], r)] for r in b.transpose().rows[:1]]
        vs += list(a.rows)
        den = s._integer_columns()[0]
        free = [c for c in range(k) if c not in s.pivots]
        for v in vs:
            expected = ref_reduce(s.basis, s.pivots, v, field)
            if field.is_prime_field:
                assert_reduce_matches(s, v, field)
            else:
                nums, d = field._ops._form(v)
                assert list(s._reduce(nums)) == [den * d * expected[c] for c in free]
            assert s.contains_vec(v) == s.contains_vec(Vec(field, v)) == (not any(expected))
        for rows in (inside, inside[:1], vs[-2:]):
            t = Subspace.span(field, k, rows)
            assert s.contains(t) == all(not any(ref_reduce(s.basis, s.pivots, r, field)) for r in t.basis)

    check()
    for kernel_name in ("_images", "_reduce"):
        assert 0 < seen["sparse", kernel_name] < seen["rows", kernel_name]


@pytest.mark.parametrize("field", SPARSE_FIELDS)
@sparse_differential
@given(data=st.data(), n=st.integers(1, 24))
def test_kernel_of_sparse_matrices_matches_reference(field, data, n):
    a = Mat(field, data.draw(sparse_rows(field, n, n)), ncols=n)
    k = kernel(a)
    assert (k.basis, k.pivots) == ref_kernel([list(r) for r in a.rows], field)


# -- one product path ----------------------------------------------------------
#
# Every product runs through a matrix's one right-factor form,
# `Mat._right()` = (den, times): den the common denominator of its rows
# (1 over GF(p)) and times = `_row_map` of den times its rows, a map on
# integer rows.  `_images` multiplies each numerator row by times and the
# denominators together, in lowest terms.  Kept forms exist over QQ only.

PRODUCT_FIELDS = [GF(p) for p in GF_PRIMES] + [QQ]


@st.composite
def product_rows(draw, field, nrows, ncols, limit):
    """Integer rows of width ncols, canonical over GF(p), any ints over QQ:
    zero, dense, or with 1, limit // 4 or limit // 4 + 1 nonzero entries,
    on both sides of the quarter rule of `_sparse` for limit = min(rows of
    the factor, its width)."""
    ints = st.integers(1, field.p - 1) if field.p else st.integers(-BIG, BIG).filter(bool)
    rows = []
    for _ in range(nrows):
        count = draw(st.sampled_from(sorted({0, 1, limit // 4, limit // 4 + 1, ncols})))
        row = [0] * ncols
        for j in draw(st.permutations(range(ncols)))[:count]:
            row[j] = draw(ints)
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=repr)
@sparse_differential
@given(data=st.data(), k=st.integers(0, 20), n=st.integers(0, 20))
def test_row_map_and_images_match_row_times_reference(field, data, k, n):
    factor = data.draw(product_rows(field, k, n, min(k, n)))
    xs = data.draw(product_rows(field, 6, k, min(k, n)))
    times = field._ops._row_map(factor, n)
    for x in xs:
        assert list(times(x)) == ref_row_times(field, x, factor, n)

    # the same rows as a matrix, over QQ each over its own denominator
    dens = data.draw(st.lists(st.sampled_from([1, 2, 6, 35, BIG]), min_size=k, max_size=k))
    if field.p is not None:
        dens = [1] * k
    m = Mat(field, [[Fraction(y, d) for y in r] for r, d in zip(factor, dens)], ncols=n)
    den, times = m._right()
    assert den == (1 if field.p else math.lcm(*[x.denominator for r in m.rows for x in r]))
    scaled = [[den * y for y in r] for r in m.rows]
    for x in xs:
        assert list(times(x)) == ref_row_times(field, x, scaled, n)

    # forms over 1, over a denominator, and scaled out of lowest terms
    forms = [(x, 1) for x in xs]
    if field.p is None:
        forms += [(x, d) for x, d in zip(xs, [2, 6, BIG] * 2)] + [([2 * c for c in x], 2) for x in xs]
    for (nums, d), (x, e) in zip(linalg._images(forms, m), forms):
        assert d > 0 and math.gcd(d, *nums) == 1
        assert d == 1 or field.p is None
        row = [field.coerce(Fraction(c, e)) for c in x]
        assert list(field._ops._entries(nums, d)) == ref_row_times(field, row, m.rows, n)


@pytest.mark.parametrize("field", [F2, F5, GF(17), QQ], ids=repr)
def test_vec_of_keeps_a_form_over_qq_only(field):
    one, zero = field.one, field.zero
    form = (linalg._pack([1, 0]) if isinstance(field._ops, linalg._PackedPrimes) else [1, 0], 1)
    kept = form if field.p is None else None
    assert Vec._of(field, [one, zero], form)._int == kept
    # a product and a parsed probe hand `Vec._of` a form
    v = Vec(field, [one, one]) @ Mat(field, [[one, zero], [zero, one]])
    assert (v._int is None) == (field.p is not None)
    name = "q" if field.p is None else f"gf {field.p}"
    text = f"field {name}\ndim 2\nmatrix g\n1 0\n0 1\ncertificate\nr 1\nh\n1 0\n0 1\nprobe\n1 1\n"
    probe = cli.parse_problem(text).certificate.probe
    assert probe.entries == (one, one) and (probe._int is None) == (field.p is not None)


@pytest.mark.parametrize("field", [F2, F5, GF(17), QQ], ids=repr)
def test_mat_of_keeps_forms_over_qq_only(field):
    one, zero = field.one, field.zero
    rows = [[one, zero], [one, one]]
    forms = [([1, 0], 1), ([1, 1], 1)]
    assert Mat._of(field, rows, 2, forms)._int_forms == (forms if field.p is None else None)
    # parsed rows, products, g - 1 and the forms of a rank factorization
    g = cli.parse_problem(f"field {'q' if field.p is None else f'gf {field.p}'}"
                          "\ndim 2\nmatrix g\n1 0\n1 1\n").matrices["g"]
    built = [g, g @ g, _minus_one(g), _RankFactors.of(_minus_one(g)).cols]
    for m in built:
        assert (m._int_forms is None) == (field.p is not None)
    assert [list(nums) for nums, _ in g._forms()] == [[1, 0], [1, 1]]


# -- precondition checks without the constructions they used to run ----------
#
# `Mat.is_invertible` built the inverse, `QuotientMap.projection_matrix`
# projected each unit row, and normalization compared x.apply(g) with x;
# the references below are those constructions.

CHECK_FIELDS = [F2, GF(3), GF(13), GF(17), GF(101), QQ]


def ref_is_invertible(m):
    try:
        m.inverse()
        return True
    except SingularMatrixError:
        return False


def ref_projection_matrix(qm):
    n = qm.u.ambient_dim
    rows = [qm.project(Vec.unit(qm.field, n, i)).entries for i in range(n)]
    return Mat._of(qm.field, rows, qm.dim)


def rand_scalar(rng, field):
    if field.is_prime_field:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_rows(rng, field, nrows, ncols):
    return [[rand_scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)]


def rand_invertible(rng, field, n):
    while True:
        m = Mat(field, rand_rows(rng, field, n, n), ncols=n)
        if ref_inverse([list(r) for r in m.rows], field) is not None:
            return m


def linear_combination(field, coeffs, rows, width):
    out = [field.zero] * width
    for c, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(field.coerce(c), y)) for x, y in zip(out, row)]
    return out


def combination(rng, field, rows, width):
    return linear_combination(field, [rand_scalar(rng, field) for _ in rows], rows, width)


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_is_invertible_matches_inverse_reference(field):
    rng = random.Random(41)
    for n in range(9):
        for _ in range(4):
            a = rand_invertible(rng, field, n)
            rows = [list(r) for r in a.rows]
            if n:  # rank n - 1: one row a combination of the others
                k = rng.randrange(n)
                rows[k] = combination(rng, field, rows[:k] + rows[k + 1:], n)
            cases = [
                (a, True),
                (a @ a, True),  # over QQ with the row forms of the product kept
                (Mat(field, rows, ncols=n), not n),
                (Mat.zero(field, n, n), not n),
                (Mat(field, rand_rows(rng, field, n, n + 1), ncols=n + 1), False),
                (Mat(field, rand_rows(rng, field, n + 1, n), ncols=n), False),
            ]
            for m, expected in cases:
                assert m.is_invertible() == ref_is_invertible(m) == expected


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_projection_matrix_matches_projected_unit_rows(field):
    rng = random.Random(43)
    for n in range(8):
        full = Subspace.full(field, n)
        for d in sorted({0, n, rng.randint(0, n), rng.randint(0, n)}):
            u = rand_subspace(rng, field, n, d)
            qms = [QuotientMap(u, full)]
            # explicit representatives: an invertible combination of the
            # deterministic ones, each moved by a vector of u
            mix = rand_invertible(rng, field, n - d)
            reps = [[field.add(x, y) for x, y in zip(linear_combination(field, row, qms[0].reps, n),
                                                      combination(rng, field, u.basis, n))]
                    for row in mix.rows]
            qms.append(QuotientMap(u, full, reps))
            for qm in qms:
                got = qm.projection_matrix()
                assert got == ref_projection_matrix(qm)
                assert (got.nrows, got.ncols) == (n, n - d)
                assert_canonical(got)
                # the quotient coordinates of each representative are a unit row
                for i, rep in enumerate(qm.reps):
                    assert Vec(field, rep.entries) @ got == Vec.unit(field, n - d, i)


def test_quotient_map_checks_explicit_representatives():
    u = Subspace.span(F5, 3, [[0, 0, 1]])
    full = Subspace.full(F5, 3)
    message = "^representatives do not complete a basis of u to one of w$"
    for reps in ([[1, 0, 0], [2, 0, 0]],  # dependent
                 [[1, 0, 0], [0, 0, 1]],  # one lies in u
                 [[1, 0, 0]],  # too few
                 [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):  # too many
        with pytest.raises(ContainmentError, match=message):
            QuotientMap(u, full, reps)
    w = Subspace.span(F5, 3, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ContainmentError, match=message):
        QuotientMap(u, w, [[0, 1, 0]])  # outside w
    with pytest.raises(ContainmentError, match="^first subspace is not contained"):
        QuotientMap(full, w, [])
    with pytest.raises(ShapeError, match="^row width differs$"):
        QuotientMap(u, full, [[1, 0], [0, 1]])
    # lists and rows of another field become Vecs of the map's field
    qm = QuotientMap(u, full, [[1, 0, 3], Vec(F7, [1, 1, 5])])
    assert qm.reps == (Vec(F5, [1, 0, 3]), Vec(F5, [1, 1, 0]))
    assert qm.lift([2, 1]) == Vec(F5, [3, 1, 1])
    assert qm.project(Vec(F5, [3, 1, 4])) == Vec(F5, [2, 1])
    assert QuotientMap(u, w, [[1, 0, 1]]).lift(Vec(F5, [3])) == Vec(F5, [3, 0, 3])


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_invariance_matches_image_containment(field):
    # x m <= x against the span of x m; for invertible m that is x m = x
    rng = random.Random(47)
    for n in range(7):
        for _ in range(6):
            x = rand_subspace(rng, field, n, rng.randint(0, n))
            # a matrix mapping x into itself: rows of x's basis go into x
            rows = [combination(rng, field, x.basis, n) for _ in range(n)]
            inner = Mat(field, rows, ncols=n)
            for m in (rand_invertible(rng, field, n), Mat(field, rand_rows(rng, field, n, n), ncols=n),
                      inner, Mat.identity(field, n) + inner, Mat.zero(field, n, n)):
                assert x._is_invariant(m) == (x.apply(m) <= x)
                if ref_is_invertible(m):
                    assert x._is_invariant(m) == (x.apply(m) == x)

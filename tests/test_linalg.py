import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab import linalg
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


# -- differential check of the fraction-free QQ kernels -----------------------
#
# The reference below is the plain `Fraction` Gauss-Jordan elimination,
# reduction and row product that the integer kernels replaced.  Over QQ
# the reduced row echelon form is unique, so every result must agree
# exactly, and every entry handed out must be a canonical `Fraction`.


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
            rows[r] = [x * ipiv for x in rows[r]]
        prow = rows[r]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def ref_reduce(basis, pivots, v):
    v = list(v)
    for row, piv in zip(basis, pivots):
        f = v[piv]
        if f == 0:
            continue
        v = [x - f * y for x, y in zip(v, row)]
    return v


def ref_row_times(field, row, rows, ncols):
    out = [field.zero] * ncols
    for x, mrow in zip(row, rows):
        if x == 0:
            continue
        for j, y in enumerate(mrow):
            if y != 0:
                out[j] += x * y
    return out


def ref_span(rows):
    if not rows:
        return (), ()
    basis, pivots = ref_rref(QQ, [[Fraction(x) for x in r] for r in rows])
    return tuple(tuple(r) for r in basis), tuple(pivots)


def ref_null_rows(rows, n):
    """Right halves of the reduced rows whose left n entries vanish."""
    reduced, _ = ref_rref(QQ, rows)
    return [r[n:] for r in reduced if all(x == 0 for x in r[:n])]


def ref_inverse(rows):
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = ref_rref(QQ, aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in reduced)


def ref_kernel(rows):
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    return ref_span(ref_null_rows(aug, n))


def ref_intersect(a, b, n):
    rows = [list(r) + list(r) for r in a] + [list(r) + [Fraction(0)] * n for r in b]
    return ref_span(ref_null_rows(rows, n))


def ref_solve(rows, ncols, target):
    m = len(rows)
    aug = [[rows[i][j] for i in range(m)] + [Fraction(int(j == k)) for k in range(ncols)]
           for j in range(ncols)]
    reduced, pivots = ref_rref(QQ, aug) if aug else ([], [])
    y = [Fraction(0)] * m
    for row, piv in zip(reduced, pivots):
        val = sum((row[m + k] * t for k, t in enumerate(target)), Fraction(0))
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
        s._extend(t.basis_vecs())[1], s._extend(data.draw(qq_rows(3, n)))[1],
    ]
    u = s.intersect(t)
    qm = QuotientMap(u, s)
    built += [qm.project_subspace(s), qm.project_subspace(u), qm.lift_subspace(Subspace.full(QQ, qm.dim))]
    for x in built:
        assert_subspace_rows(x)
    v = Vec(QQ, data.draw(st.lists(qq_scalars, min_size=n, max_size=n)))
    vecs = [v @ a, v @ a @ b, (v + v) @ b] + s.basis_vecs() + (a @ b).vec_rows()
    vecs += linalg.complement_basis(u, s) + [qm.project(w) for w in s.basis_vecs()]
    for x in vecs + [a @ b, a @ b @ a, a.inverse() @ b if a.is_invertible() else b]:
        assert_forms(x)


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
    new, grown = s._extend(vecs + t.basis_vecs())
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

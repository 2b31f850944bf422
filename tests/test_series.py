import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab import linalg, series
from flagstab.errors import FlagstabError, SeriesError, SingularMatrixError
from flagstab.instances import (
    random_invertible,
    random_scalar,
    random_series,
    random_stabilizer_element,
    random_transvection,
)
from flagstab.linalg import GF, QQ, Mat, Subspace, Vec
from flagstab.series import (
    Series,
    canonical_coarsening,
    extend_to_full_flag,
    in_stabilizer,
    is_adapted_basis,
    jump_of,
    section_series,
    validate,
)
from flagstab.unipotent import jordan_matrix, unipotent_exponent

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def full_flag(field, n):
    members = [Subspace.full(field, n)]
    for i in range(1, n):
        rows = [[field.one if j == c else field.zero for j in range(n)] for c in range(i, n)]
        members.append(Subspace.span(field, n, rows))
    members.append(Subspace.zero(field, n))
    return Series(field, n, members)


def test_validate_examples():
    v = Subspace.full(F5, 3)
    z = Subspace.zero(F5, 3)
    s = validate(F5, 3, [v, z])
    assert s.length == 0 and s.num_jumps == 1
    v2 = Subspace.span(F5, 3, [[0, 1, 0], [0, 0, 1]])
    v3 = Subspace.span(F5, 3, [[0, 0, 1]])
    s = validate(F5, 3, [v, v2, v3, z, v2])  # duplicate removed
    assert s.length == 2 and len(s.members) == 4
    with pytest.raises(SeriesError):
        validate(
            F5,
            3,
            [v, Subspace.span(F5, 3, [[1, 0, 0]]), Subspace.span(F5, 3, [[0, 1, 0]]), z],
        )
    with pytest.raises(SeriesError):
        validate(F5, 3, [v, v2])  # missing zero
    with pytest.raises(SeriesError):
        validate(F5, 3, [v2, z])  # missing full space


def test_jump_of_examples():
    s = full_flag(F5, 3)
    j = jump_of(Vec(F5, [0, 0, 1]), s)
    assert j.bottom.is_zero() and j.top.dim == 1
    j = jump_of(Vec(F5, [1, 0, 1]), s)
    assert j.top.is_full() and j.bottom.dim == 2
    triv = validate(F5, 3, [Subspace.full(F5, 3), Subspace.zero(F5, 3)])
    j = jump_of(Vec(F5, [2, 1, 0]), triv)
    assert j.bottom.is_zero() and j.top.is_full()
    with pytest.raises(SeriesError):
        jump_of(Vec(F5, [0, 0, 0]), s)


def test_jump_consecutive_invariant():
    rng = random.Random(3)
    for _ in range(20):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(2, 6)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        v = Vec(field, [rng.randint(0, 4) for _ in range(n)])
        if v.is_zero():
            continue
        j = jump_of(v, s)
        i = s.members.index(j.top)
        assert s.members[i + 1] == j.bottom
        assert j.top.contains_vec(v) and not j.bottom.contains_vec(v)


def test_is_adapted_basis_examples():
    s = full_flag(QQ, 3)
    std = [Vec(QQ, r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert is_adapted_basis(std, s)
    flag2 = validate(
        QQ, 2, [Subspace.full(QQ, 2), Subspace.span(QQ, 2, [[0, 1]]), Subspace.zero(QQ, 2)]
    )
    assert is_adapted_basis([Vec(QQ, [1, 1]), Vec(QQ, [0, 1])], flag2)
    assert not is_adapted_basis([Vec(QQ, [1, 1]), Vec(QQ, [1, -1])], flag2)


def test_section_series_examples():
    s = full_flag(F5, 3)
    got = section_series(s, s.members[0], s.members[-1])
    assert got.num_jumps == 3 and got.ambient_dim == 3
    sub = section_series(s, s.members[1], s.members[2])
    assert sub.ambient_dim == 1 and sub.num_jumps == 1
    s4 = full_flag(F5, 4)
    sec = section_series(s4, s4.members[1], s4.members[3])
    assert sec.ambient_dim == 2 and len(sec.members) == 3


def test_in_stabilizer_examples():
    s = full_flag(F5, 3)
    assert in_stabilizer(Mat.identity(F5, 3), s)
    j3 = jordan_matrix(F5, [3])
    assert in_stabilizer(j3, s)
    triv = validate(F5, 3, [Subspace.full(F5, 3), Subspace.zero(F5, 3)])
    assert not in_stabilizer(j3, triv)


def test_in_stabilizer_rejects_singular_and_non_square():
    for field in (F2, F5, QQ):
        s = full_flag(field, 4)
        one = Mat.identity(field, 4)
        nilpotent = jordan_matrix(field, [4]) - one
        almost = Mat(field, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]])
        for g in (Mat.zero(field, 4, 4), nilpotent, almost):
            with pytest.raises(SingularMatrixError):
                in_stabilizer(g, s)
        for g in (Mat.zero(field, 4, 3), Mat.zero(field, 3, 4)):
            with pytest.raises(SingularMatrixError):
                in_stabilizer(g, s)
        trivial = validate(field, 4, [Subspace.full(field, 4), Subspace.zero(field, 4)])
        with pytest.raises(SingularMatrixError):
            in_stabilizer(nilpotent, trivial)


def test_in_stabilizer_accepts_unipotent_stabilizing_elements():
    rng = random.Random(11)
    for _ in range(20):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(1, 6)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        g = random_stabilizer_element(rng, s)
        assert unipotent_exponent(g) is not None
        assert in_stabilizer(g, s)
    s = full_flag(F5, 5)
    assert in_stabilizer(jordan_matrix(F5, [5]), s)
    assert not in_stabilizer(jordan_matrix(F5, [5]).transpose(), s)


def test_stabilizer_is_group():
    rng = random.Random(5)
    for _ in range(15):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(2, 6)
        s = random_series(rng, field, n, rng.randint(1, n - 1))
        g = random_stabilizer_element(rng, s)
        h = random_stabilizer_element(rng, s)
        assert in_stabilizer(g @ h, s)
        assert in_stabilizer(g.inverse(), s)


def test_stabilizer_power_vanishes():
    # (g-1)^(num_jumps) = 0 for any stabilizer element
    rng = random.Random(7)
    for _ in range(15):
        field = rng.choice([F2, F3, QQ])
        n = rng.randint(2, 6)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        g = random_stabilizer_element(rng, s)
        nil = g - Mat.identity(field, n)
        assert nil.pow(s.num_jumps).is_zero()


def test_coarsening_examples():
    s = full_flag(F5, 4)
    c = canonical_coarsening(Mat.identity(F5, 4), s)
    assert len(c.members) == 2
    j4 = jordan_matrix(F5, [4])
    assert canonical_coarsening(j4, s) == s
    # block pair aligned two levels down: chains e1->e3, e2->e4
    nil = Mat(
        F5,
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    g = Mat.identity(F5, 4) + nil
    c = canonical_coarsening(g, s)
    assert c.num_jumps == 2
    assert [m.dim for m in c.members] == [4, 2, 0]
    with pytest.raises(SeriesError):
        canonical_coarsening(Mat(F5, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), s)


def brute_force_minimal_jumps(g, s):
    inner = s.members[1:-1]
    best = None
    for size in range(len(inner) + 1):
        for pick in combinations(inner, size):
            cand = Series(s.field, s.ambient_dim, [s.members[0], *pick, s.members[-1]])
            if in_stabilizer(g, cand):
                best = cand.num_jumps if best is None else min(best, cand.num_jumps)
        if best is not None:
            break
    return best


def test_coarsening_minimality_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 6)
        s = random_series(rng, F2, n, rng.randint(1, min(4, n - 1)))
        g = random_stabilizer_element(rng, s)
        c = canonical_coarsening(g, s)
        assert in_stabilizer(g, c)
        best = brute_force_minimal_jumps(g, s)
        assert c.num_jumps == best


def test_extend_to_full_flag():
    rng = random.Random(13)
    for _ in range(10):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(2, 6)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        flag = extend_to_full_flag(s)
        assert flag.num_jumps == n
        for x in s.members:
            assert x in flag.members


def test_random_transvections_stabilize():
    rng = random.Random(17)
    for _ in range(10):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(2, 6)
        s = random_series(rng, field, n, rng.randint(1, n - 1))
        x = random_transvection(rng, s)
        assert in_stabilizer(x, s)
        assert unipotent_exponent(x) in (1, 2)


# Span-based references: the versions of in_stabilizer, canonical_coarsening,
# jump_of and Subspace.intersect that span every image and scan every
# member.  The fast versions must give the same answers and raise the same
# errors.


def ref_in_stabilizer(g, s):
    if not g.is_square():
        raise SingularMatrixError("stabilizer membership needs an invertible matrix")
    gm1 = g - Mat.identity(g.field, g.nrows)
    for jump in s.jumps():
        if not jump.bottom.contains(jump.top.apply(gm1)):
            if not g.is_invertible():
                raise SingularMatrixError("stabilizer membership needs an invertible matrix")
            return False
    return True


def ref_canonical_coarsening(g, s):
    if not ref_in_stabilizer(g, s):
        raise SeriesError("element does not stabilize the series")
    gm1 = g - Mat.identity(g.field, g.nrows)
    chain = [s.members[0]]
    current = s.members[0]
    while not current.is_zero():
        img = current.apply(gm1)
        nxt = None
        for member in reversed(s.members):
            if member.contains(img):
                nxt = member
                break
        assert nxt is not None and nxt.dim < current.dim
        chain.append(nxt)
        current = nxt
    return Series(s.field, s.ambient_dim, chain)


def ref_jump_of(v, s):
    if isinstance(v, Vec) and v.is_zero():
        raise SeriesError("the zero vector belongs to no jump")
    level = None
    for i, member in enumerate(s.members):
        if member.contains_vec(v):
            level = i
        else:
            break
    if level is None or level == len(s.members) - 1:
        raise SeriesError("vector lies in the zero member")
    return series.Jump(s.members[level + 1], s.members[level], level + 1)


def ref_intersect(a, b):
    a._match(b)
    n = a.ambient_dim
    z = a.field.zero
    rows = [list(r) + list(r) for r in a.basis]
    rows += [list(r) + [z] * n for r in b.basis]
    if not rows:
        return Subspace.zero(a.field, n)
    reduced, pivots = linalg._eliminate(a.field, [linalg._form(a.field, r)[0] for r in rows])
    out = [r[n:] for r, c in zip(reduced, pivots) if c >= n]
    return Subspace._span(a.field, n, out)


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except FlagstabError as exc:
        return type(exc), str(exc)


def random_rows(rng, field, count, n):
    return [[random_scalar(rng, field) for _ in range(n)] for _ in range(count)]


ELEMENT_KINDS = [
    "stabilizing", "sparse", "product", "identity", "invertible",
    "foreign", "singular", "non-square", "wrong-size",
]


def element_of_kind(rng, kind, s):
    field, n = s.field, s.ambient_dim
    if kind == "stabilizing":
        return random_stabilizer_element(rng, s)
    if kind == "sparse":
        return random_stabilizer_element(rng, s, sparsity=rng.randint(0, 3))
    if kind == "product":
        a = random_stabilizer_element(rng, s, sparsity=rng.randint(0, 2))
        return a @ random_stabilizer_element(rng, s, sparsity=rng.randint(0, 2))
    if kind == "identity":
        return Mat.identity(field, n)
    if kind == "invertible":
        return random_invertible(rng, field, n)
    if kind == "foreign":
        other = random_series(rng, field, n, rng.randint(0, n - 1))
        return random_stabilizer_element(rng, other)
    if kind == "singular":
        rows = random_rows(rng, field, n, n)
        rows[rng.randrange(n)] = [field.zero] * n
        return Mat(field, rows)
    if kind == "non-square":
        return Mat(field, random_rows(rng, field, n, n + 1))
    return random_invertible(rng, field, n + 1)


FIELDS = [F2, F5, QQ]
differential = settings(max_examples=60, deadline=None)


def draw_series(data, max_dim=7):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, max_dim))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    return rng, random_series(rng, field, n, data.draw(st.integers(0, n - 1)))


@differential
@given(st.data())
def test_complement_rows_complete_every_nested_pair(data):
    _, s = draw_series(data)
    for i, upper in enumerate(s.members):
        for lower in s.members[i:]:
            rows = series._complement_rows(lower, upper)
            assert len(rows) == upper.dim - lower.dim
            assert Subspace.span(s.field, s.ambient_dim, list(lower.basis) + rows) == upper


@differential
@given(st.data(), st.sampled_from(ELEMENT_KINDS))
def test_stabilizer_and_coarsening_match_span_reference(data, kind):
    rng, s = draw_series(data)
    g = element_of_kind(rng, kind, s)
    assert outcome(in_stabilizer, g, s) == outcome(ref_in_stabilizer, g, s)
    assert outcome(canonical_coarsening, g, s) == outcome(ref_canonical_coarsening, g, s)


@differential
@given(st.data())
def test_jump_of_matches_span_reference(data):
    rng, s = draw_series(data)
    field, n = s.field, s.ambient_dim
    vecs = [Vec.zero(field, n), (field.zero,) * n, Vec.zero(field, n + 1)]
    vecs += [Vec(field, r) for r in random_rows(rng, field, 3, n)]
    vecs.append(tuple(random_rows(rng, field, 1, n + 1)[0]))
    for member in s.members:
        vec = Vec.zero(field, n)
        for row in member.basis:
            vec = vec + Vec(field, row).scale(random_scalar(rng, field))
        vecs += [vec, vec.entries]
    for v in vecs:
        assert outcome(jump_of, v, s) == outcome(ref_jump_of, v, s)


@differential
@given(st.data())
def test_intersect_matches_span_reference(data):
    rng, s = draw_series(data)
    field, n = s.field, s.ambient_dim
    spaces = list(s.members)
    for _ in range(3):
        rows = random_rows(rng, field, rng.randint(0, n), n)
        spaces.append(Subspace.span(field, n, rows))
    spaces.append(spaces[-1].sum(s.members[len(s.members) // 2]))
    for a in spaces:
        for b in spaces:
            got = a.intersect(b)
            want = ref_intersect(a, b)
            assert (got.basis, got.pivots) == (want.basis, want.pivots)

import random
from itertools import combinations

import pytest

from flagstab.errors import SeriesError, SingularMatrixError
from flagstab.instances import (
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

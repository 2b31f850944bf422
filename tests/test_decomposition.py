import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.decomposition import (
    SectionAssignment,
    patch_sections,
    section_basis,
    split_chain,
)
from flagstab.errors import SectionError, SeriesError
from flagstab.instances import adapted_basis_of, random_series, random_stabilizer_element
from flagstab.linalg import GF, QQ, Mat, Subspace, Vec, complement_basis
from flagstab.series import Series, in_stabilizer, section_series, validate

F2 = GF(2)
F7 = GF(7)
FIELDS = [F2, F7, QQ]


def full_flag(field, n):
    members = [Subspace.full(field, n)]
    for i in range(1, n):
        rows = [[field.one if j == c else field.zero for j in range(n)] for c in range(i, n)]
        members.append(Subspace.span(field, n, rows))
    members.append(Subspace.zero(field, n))
    return Series(field, n, members)


def test_split_chain_examples():
    s = full_flag(F7, 3)
    cs = split_chain(list(s.members))
    assert [a.dim for a in cs.parts] == [1, 1, 1]
    w = Subspace.span(F7, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    cs = split_chain([Subspace.full(F7, 4), w, Subspace.zero(F7, 4)])
    assert [a.dim for a in cs.parts] == [2, 2]
    with pytest.raises(SeriesError):
        split_chain([Subspace.full(F7, 2)])
    with pytest.raises(SeriesError):
        split_chain([Subspace.full(F7, 2), w])


def test_split_chain_random_rank_certificates():
    rng = random.Random(1)
    for field in FIELDS:
        for _ in range(20):
            n = rng.randint(2, 7)
            s = random_series(rng, field, n, rng.randint(0, n - 1))
            cs = split_chain(list(s.members))
            stacked = [row for a in cs.parts for row in a.basis]
            assert Subspace.span(field, n, stacked).dim == n
            for a, top, bottom in zip(cs.parts, s.members, s.members[1:]):
                assert a.dim == top.dim - bottom.dim


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unit_rows_picked_for_a_member_are_picked_below_it(data):
    # the unit-row lemma behind split_chain: along a series, the unit rows
    # complement_basis(V_(i-1), V) picks are among those picked for V_i
    field = data.draw(st.sampled_from([F2, GF(3), QQ]))
    n = data.draw(st.integers(1, 8))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    s = random_series(rng, field, n, data.draw(st.integers(0, n - 1)))
    full = s.members[0]
    units = set(full.basis)
    picked = [complement_basis(x, full) for x in s.members]
    for above, below in zip(picked, picked[1:]):
        assert {v.entries for v in above} <= {v.entries for v in below} <= units
    assert [len(p) for p in picked] == [n - x.dim for x in s.members]


def test_section_basis_examples():
    s = full_flag(F7, 3)
    basis = adapted_basis_of(s)
    got = section_basis(basis, s, s.members[0], s.members[2])
    assert len(got) == 2
    flag2 = validate(
        QQ, 2, [Subspace.full(QQ, 2), Subspace.span(QQ, 2, [[0, 1]]), Subspace.zero(QQ, 2)]
    )
    got = section_basis([Vec(QQ, [1, 1]), Vec(QQ, [0, 1])], flag2, flag2.members[0], flag2.members[1])
    assert got == [Vec(QQ, [1, 1])]
    with pytest.raises(SeriesError):
        section_basis(basis, s, s.members[1], s.members[1])


def test_section_basis_randomized():
    rng = random.Random(2)
    for field in FIELDS:
        for _ in range(15):
            n = rng.randint(3, 7)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            basis = adapted_basis_of(s)
            idx = sorted(rng.sample(range(len(s.members)), 2))
            w, u = s.members[idx[0]], s.members[idx[1]]
            got = section_basis(basis, s, w, u)
            assert len(got) == w.dim - u.dim
            rows = [v.entries for v in got] + [list(r) for r in u.basis]
            assert Subspace.span(field, n, rows).dim == u.dim + len(got)


def test_patch_sections_examples():
    s = full_flag(F7, 3)
    basis = adapted_basis_of(s)
    assert patch_sections(basis, s, SectionAssignment([])).is_identity()
    whole = Mat(F7, [[1, 2, 3], [0, 1, 5], [0, 0, 1]])
    h = patch_sections(basis, s, SectionAssignment([(s.members[-1], s.members[0], whole)]))
    assert h == whole  # adapted basis is the standard one here
    with pytest.raises(SectionError):
        patch_sections(
            basis,
            s,
            SectionAssignment(
                [
                    (s.members[2], s.members[0], Mat.identity(F7, 2)),
                    (s.members[3], s.members[1], Mat.identity(F7, 2)),
                ]
            ),
        )


def test_patch_sections_randomized():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(12):
            n = rng.randint(4, 7)
            s = random_series(rng, field, n, rng.randint(2, n - 1))
            basis = adapted_basis_of(s)
            members = s.members
            cut = rng.randrange(1, len(members) - 1)
            sections = []
            for u_idx, w_idx in ((cut, 0), (len(members) - 1, cut)):
                u, w = members[u_idx], members[w_idx]
                if w.dim - u.dim == 0:
                    continue
                induced = section_series(s, w, u)
                hmap = random_stabilizer_element(rng, induced, sparsity=2)
                sections.append((u, w, hmap))
            if not sections:
                continue
            h = patch_sections(basis, s, SectionAssignment(sections))
            assert in_stabilizer(h, s)
            assert h.is_invertible()


def test_patch_sections_composability():
    rng = random.Random(4)
    for _ in range(10):
        field = rng.choice(FIELDS)
        n = rng.randint(4, 7)
        s = random_series(rng, field, n, rng.randint(2, n - 1))
        basis = adapted_basis_of(s)
        members = s.members
        cut = rng.randrange(1, len(members) - 1)
        pieces = []
        for u_idx, w_idx in ((cut, 0), (len(members) - 1, cut)):
            u, w = members[u_idx], members[w_idx]
            if w.dim - u.dim == 0:
                continue
            induced = section_series(s, w, u)
            hmap = random_stabilizer_element(rng, induced, sparsity=2)
            pieces.append((u, w, hmap))
        if len(pieces) < 2:
            continue
        joint = patch_sections(basis, s, SectionAssignment(pieces))
        parts = [patch_sections(basis, s, SectionAssignment([p])) for p in pieces]
        prod = parts[0]
        for p in parts[1:]:
            prod = prod @ p
        assert joint == prod
        prod_rev = parts[-1]
        for p in reversed(parts[:-1]):
            prod_rev = prod_rev @ p
        assert joint == prod_rev

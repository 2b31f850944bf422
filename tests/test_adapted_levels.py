"""Differential tests for adaptedness read off the levels of a basis.

`is_adapted_basis`, `section_basis` and `section_series` now decide
adapted bases and sections from the levels of the basis vectors, by the
lemma in the `series` docstring: a basis is adapted exactly when each
jump holds as many of its vectors as its dimension, and the adapted
vectors of the section V_i/V_j are those of level in (i, j].  The
references below are the versions they replace: one span per jump, two
membership tests per vector and a closing rank check, and a meet with w
of every member.  Results and errors must agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.decomposition import section_basis
from flagstab.errors import FlagstabError, SeriesError, ShapeError
from flagstab.instances import adapted_basis_of, random_invertible, random_scalar, random_series
from flagstab.linalg import GF, QQ, QuotientMap, Subspace, Vec
from flagstab.series import Series, is_adapted_basis, level_of, section_series

FIELDS = [GF(2), GF(7), QQ]


def ref_is_adapted_basis(basis, s):
    basis = list(basis)
    field = s.field
    n = s.ambient_dim
    if len(basis) != n:
        raise ShapeError("wrong number of basis vectors")
    stacked = Subspace.span(field, n, basis)
    if stacked.dim != n:
        raise ShapeError("vectors do not form a basis")
    by_level = {}
    for v in basis:
        by_level.setdefault(level_of(v, s), []).append(v)
    for jump in s.jumps():
        group = by_level.get(jump.index, [])
        if len(group) != jump.top.dim - jump.bottom.dim:
            return False
        got = Subspace.span(field, n, group + jump.bottom.basis_vecs())
        if got.dim != jump.bottom.dim + len(group):
            return False
    return True


def ref_section_basis(adapted, s, w, u):
    if w not in s.members or u not in s.members:
        raise SeriesError("section endpoints must be members")
    if not (w.contains(u) and u.dim < w.dim):
        raise SeriesError("section endpoints must be strictly nested")
    adapted = list(adapted)
    if not ref_is_adapted_basis(adapted, s):
        raise SeriesError("basis is not adapted to the series")
    chosen = [v for v in adapted if w.contains_vec(v) and not u.contains_vec(v)]
    rows = [v.entries for v in chosen] + [list(r) for r in u.basis]
    got = Subspace._span(s.field, s.ambient_dim, rows)
    if len(chosen) != w.dim - u.dim or got.dim != w.dim:
        raise SeriesError("adapted vectors do not give a basis of the section")
    return chosen


def ref_section_series(s, w, u):
    if w not in s.members or u not in s.members:
        raise SeriesError("section endpoints must be members")
    if not (w.contains(u) and u.dim < w.dim):
        raise SeriesError("section endpoints must be strictly nested")
    qm = QuotientMap(u, w)
    members = []
    for x in s.members:
        y = qm.project_subspace(x.intersect(w))
        if y not in members:
            members.append(y)
    return Series(s.field, qm.dim, members)


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except FlagstabError as exc:
        return type(exc), str(exc)


def combination(rng, field, vecs, n):
    out = Vec.zero(field, n)
    for v in vecs:
        out = out + v.scale(random_scalar(rng, field))
    return out


def candidate_bases(rng, s):
    """Adapted bases and near misses: the deterministic adapted basis,
    permuted, and with deeper members added; random invertible rows; one
    vector moved to a shallower level; a zero vector; a repeated vector;
    one vector too few or too many; the same vectors as entry tuples."""
    field, n = s.field, s.ambient_dim
    base = adapted_basis_of(s)
    permuted = rng.sample(base, n)
    deeper = [v + combination(rng, field, s.members[level_of(v, s)].basis_vecs(), n)
              for v in permuted]
    out = [base, permuted, deeper, random_invertible(rng, field, n).vec_rows()]
    k = rng.randrange(n)
    shallower = [v for v in base if level_of(v, s) < level_of(base[k], s)]
    if shallower:
        out.append(base[:k] + [base[k] + rng.choice(shallower)] + base[k + 1:])
    out.append(base[:k] + [Vec.zero(field, n)] + base[k + 1:])
    if n > 1:
        out.append(base[:k] + [base[k - 1]] + base[k + 1:])
    out += [base[1:], base + [base[k]], [v.entries for v in deeper]]
    return out


def endpoints(rng, s):
    """(w, u) pairs: every nested pair of members, the same member twice,
    a reversed pair, and a subspace that is not a member at either end."""
    members = s.members
    pairs = [(members[i], members[j])
             for i in range(len(members)) for j in range(i, len(members))]
    pairs.append((members[-1], members[0]))
    n = s.ambient_dim
    other = Subspace.span(s.field, n, [combination(rng, s.field, members[0].basis_vecs(), n)])
    if other not in members:
        pairs += [(other, members[-1]), (members[0], other)]
    return pairs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 7), st.data())
def test_adaptedness_and_sections_match_reference(field, n, data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    s = random_series(rng, field, n, data.draw(st.integers(0, n - 1), label="length"))
    bases = candidate_bases(rng, s)
    for basis in bases:
        assert outcome(is_adapted_basis, basis, s) == outcome(ref_is_adapted_basis, basis, s)
    assert is_adapted_basis(bases[2], s)
    for w, u in endpoints(rng, s):
        assert outcome(section_series, s, w, u) == outcome(ref_section_series, s, w, u)
        for basis in bases[:-1]:
            got = outcome(section_basis, basis, s, w, u)
            assert got == outcome(ref_section_basis, basis, s, w, u)

"""Differential tests for the span-extension primitive and the quotient map.

`complement_basis`, `split_chain`, `jordan_chains`, the series-splitting
complement of `extend_witness` and `patch_sections` grow spans through
`Subspace._extend` and read section coordinates through `QuotientMap`.
The references below are the hand-rolled loops and solvers they replace:
each tests membership and then re-echelons the whole span (as the first
`_extend` did, before it kept an incremental echelon), and
`patch_sections` solves against "representatives + u.basis" directly.
The new code must return equal vectors in the same order and raise the
same errors.  Closing checks that were `assert`s in the old loops raise
here what the new code raises.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.decomposition import (
    SectionAssignment,
    _check_disjoint,
    patch_sections,
    section_basis,
    split_chain,
)
from flagstab.errors import ContainmentError, FlagstabError, SectionError, SeriesError
from flagstab.instances import (
    adapted_basis_of,
    random_invertible,
    random_scalar,
    random_series,
    random_stabilizer_element,
    witness_instance,
)
from flagstab.linalg import (
    GF,
    QQ,
    LinearSolver,
    Mat,
    Subspace,
    Vec,
    _form,
    complement_basis,
)
from flagstab.series import in_stabilizer, is_adapted_basis, section_series
from flagstab.unipotent import jordan_chains, kernel_chain
from flagstab.witness import _series_split_complement, invariant_core

FIELDS = [GF(2), GF(5), QQ]
differential = settings(max_examples=40, deadline=None)


def ref_complement_basis(u, w):
    u._match(w)
    if not w.contains(u):
        raise ContainmentError("first subspace is not contained in the second")
    field = u.field
    state = u
    chosen = []
    for row in w.basis:
        if not state.contains_vec(row):
            chosen.append(Vec._of(field, row))
            state = Subspace._span(field, u.ambient_dim, state.basis + (row,))
    assert len(chosen) == w.dim - u.dim
    return chosen


def ref_extend(sub, rows, dim=None):
    field, n = sub.field, sub.ambient_dim
    dim = n if dim is None else dim
    span, new = sub, []
    for row in rows:
        if span.dim >= dim:
            break
        if not span.contains_vec(row):
            new.append(row)
            span = Subspace._of_rows(field, n, [*span._rows(), _form(field, row)[0]])
    return new, span


def ref_split_chain(chain):
    chain = list(chain)
    if len(chain) < 2:
        raise SeriesError("chain needs at least the two endpoints")
    if not chain[0].is_full():
        raise SeriesError("chain must start at the full space")
    if not chain[-1].is_zero():
        raise SeriesError("chain must end at zero")
    for a, b in zip(chain, chain[1:]):
        if not (a.contains(b) and b.dim < a.dim):
            raise SeriesError("chain must strictly descend")
    field = chain[0].field
    n = chain[0].ambient_dim
    parts = []
    prev_b = Subspace.zero(field, n)
    for i in range(1, len(chain)):
        ext = []
        current = prev_b.sum(chain[i])
        for row in chain[0].basis:
            if current.dim == n:
                break
            if not current.contains_vec(row):
                ext.append(row)
                current = current.sum(Subspace._span(field, n, [row]))
        b_i = prev_b.sum(Subspace._span(field, n, ext))
        assert b_i.intersect(chain[i]).is_zero()
        assert b_i.sum(chain[i]).is_full()
        a_i = b_i.intersect(chain[i - 1])
        assert b_i == prev_b.sum(a_i)
        assert prev_b.intersect(a_i).is_zero()
        parts.append(a_i)
        prev_b = b_i
    return parts


def ref_jordan_chains(g, candidate_order=None):
    kc = kernel_chain(g)
    field = g.field
    n = g.nrows
    nil = g - Mat.identity(field, n)
    chains = []
    for height in range(kc.exponent, 0, -1):
        base_rows = []
        if height >= 2:
            base_rows += [list(r) for r in kc.chain[height - 2].basis]
        for chain in chains:
            base_rows.append(list(chain[len(chain) - height].entries))
        span = Subspace._span(field, n, base_rows)
        target = kc.chain[height - 1]
        if candidate_order is not None:
            candidates = candidate_order(height, target)
        else:
            candidates = target.basis_vecs()
        new_heads = []
        for cand in candidates:
            if span.dim == target.dim:
                break
            if not target.contains_vec(cand):
                continue
            if span.contains_vec(cand):
                continue
            new_heads.append(cand)
            span = span.sum(Subspace._span(field, n, [cand.entries]))
        if span.dim != target.dim:
            raise ContainmentError(f"candidates do not complete the kernel at height {height}")
        for head in new_heads:
            chain = [head]
            for _ in range(height - 1):
                chain.append(chain[-1] @ nil)
            chains.append(chain)
    if sum(len(c) for c in chains) != n:
        raise ContainmentError("Jordan chains do not span the space")
    chains.sort(key=lambda c: -len(c))
    return chains


def ref_series_split_complement(w, s):
    field = s.field
    comp = []
    for jump in reversed(s.jumps()):
        current = jump.bottom.sum(jump.top.intersect(w))
        current = current.sum(Subspace._span(field, s.ambient_dim, [v.entries for v in comp]))
        for row in jump.top.basis:
            if not current.contains_vec(row):
                comp.append(Vec._of(field, row))
                current = current.sum(Subspace._span(field, s.ambient_dim, [row]))
    return comp


def ref_patch_sections(adapted, s, assignment):
    adapted = list(adapted)
    if not is_adapted_basis(adapted, s):
        raise SeriesError("basis is not adapted to the series")
    sections = list(assignment)
    _check_disjoint(sections)
    field = s.field
    n = s.ambient_dim
    images = {}
    for u, w, hmap in sections:
        if u not in s.members or w not in s.members:
            raise SectionError("section endpoints must be members")
        if not (w.contains(u) and u.dim < w.dim):
            raise SectionError("section endpoints must be strictly nested")
        induced = section_series(s, w, u)
        if hmap.nrows != induced.ambient_dim or not hmap.is_square():
            raise SectionError("map shape differs from the section dimension")
        if not in_stabilizer(hmap, induced):
            raise SectionError("map does not stabilize the induced section series")
        reps = ref_complement_basis(u, w)
        vecs = section_basis(adapted, s, w, u)
        solver = LinearSolver(field, [v.entries for v in reps] + [r for r in u.basis], n)
        q = len(reps)

        def coords(v, solver=solver, q=q):
            y = solver.solve(v)
            assert y is not None
            return Vec._of(field, y[:q])

        sec_solver = LinearSolver(field, [coords(v).entries for v in vecs], q)
        for v in vecs:
            a = sec_solver.solve(coords(v) @ hmap)
            assert a is not None
            out = Vec.zero(field, n)
            for c, bvec in zip(a, vecs):
                if c != 0:
                    out = out + bvec.scale(c)
            images[id(v)] = (v, out)
    index_of = {id(v): i for i, v in enumerate(adapted)}
    p = Mat.from_vecs(field, adapted, ncols=n)
    coords_rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    basis_solver = LinearSolver(field, [v.entries for v in adapted], n)
    for key, (v, out) in images.items():
        y = basis_solver.solve(out)
        assert y is not None
        coords_rows[index_of[key]] = list(y)
    h = p.inverse() @ Mat._of(field, coords_rows, n) @ p
    if not h.is_invertible():
        raise SectionError("patched map is singular")
    if not in_stabilizer(h, s):
        raise SectionError("patched map escapes the stabilizer")
    for u, w, hmap in sections:
        reps = ref_complement_basis(u, w)
        solver = LinearSolver(field, [v.entries for v in reps] + [r for r in u.basis], n)
        q = len(reps)
        got_rows = []
        for rep in reps:
            y = solver.solve(rep @ h)
            assert y is not None
            got_rows.append(y[:q])
        assert Mat._of(field, got_rows, q) == hmap
    return h


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except FlagstabError as exc:
        return type(exc), str(exc)


def draw_series(data, max_dim=7, min_dim=1):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(min_dim, max_dim))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    return rng, random_series(rng, field, n, data.draw(st.integers(0, n - 1)))


def random_vec(rng, field, n):
    return Vec(field, [random_scalar(rng, field) for _ in range(n)])


def combination(rng, field, rows, n):
    out = Vec.zero(field, n)
    for row in rows:
        out = out + Vec._of(field, row).scale(random_scalar(rng, field))
    return out


def random_subspace(rng, field, n):
    return Subspace.span(field, n, [random_vec(rng, field, n) for _ in range(rng.randint(0, n))])


@differential
@given(st.data())
def test_complement_basis_matches_loop_reference(data):
    rng, s = draw_series(data)
    field, n = s.field, s.ambient_dim
    spaces = list(s.members) + [random_subspace(rng, field, n) for _ in range(3)]
    spaces.append(spaces[-1].sum(random_subspace(rng, field, n)))
    spaces.append(Subspace.zero(field, n + 1))
    for u in spaces:
        for w in spaces:
            assert outcome(complement_basis, u, w) == outcome(ref_complement_basis, u, w)


@differential
@given(st.data())
def test_split_chain_matches_loop_reference(data):
    rng, s = draw_series(data)
    inner = s.members[1:-1]
    sub = sorted(rng.sample(range(len(inner)), rng.randint(0, len(inner))))
    chains = [list(s.members), [s.members[0]] + [inner[i] for i in sub] + [s.members[-1]]]
    chains += [list(s.members[:-1]), list(s.members[1:]), s.members[:1]]
    if len(s.members) > 2:
        chains.append([s.members[0], s.members[-2], s.members[1], s.members[-1]])
    for chain in chains:
        got = outcome(split_chain, chain)
        want = outcome(ref_split_chain, chain)
        if got[0] == "ok":
            got = ("ok", list(got[1].parts))
        assert got == want


def candidate_order_of(seed, n, complete):
    """Candidates mixing non-basis kernel vectors, repeats and vectors
    outside the kernel; the kernel basis comes last when `complete`."""

    def order(height, target):
        rng = random.Random(seed * 1000 + height)
        field = target.field
        cands = []
        for _ in range(rng.randint(0, 2 * target.dim + 2)):
            kind = rng.randrange(4)
            if kind == 0:
                cands.append(random_vec(rng, field, n))
            elif kind == 1:
                cands.append(combination(rng, field, target.basis, n))
            elif kind == 2 and cands:
                cands.append(rng.choice(cands))
            else:
                cands.append(Vec.zero(field, n))
        if complete:
            cands += target.basis_vecs()
        return cands

    return order


def deep_first_of(s):
    def order(height, target):
        cands, seen = [], set()
        for member in reversed(s.members):
            for row in target.intersect(member).basis:
                if row not in seen:
                    seen.add(row)
                    cands.append(Vec._of(s.field, row))
        return cands

    return order


@differential
@given(st.data())
def test_jordan_chains_match_loop_reference(data):
    rng, s = draw_series(data)
    field, n = s.field, s.ambient_dim
    elements = [
        random_stabilizer_element(rng, s),
        random_stabilizer_element(rng, s, sparsity=1),
        Mat.identity(field, n),
        random_invertible(rng, field, n),
    ]
    seed = data.draw(st.integers(0, 2**16))
    orders = [
        None,
        deep_first_of(s),
        candidate_order_of(seed, n, True),
        candidate_order_of(seed, n, False),
    ]
    for g in elements:
        for order in orders:
            assert outcome(jordan_chains, g, order) == outcome(ref_jordan_chains, g, order)


@differential
@given(st.data())
def test_jordan_chains_match_on_witness_instances(data):
    field = data.draw(st.sampled_from(FIELDS))
    length = data.draw(st.integers(5, 7))
    k = data.draw(st.integers(2, length - 3))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    g, s = witness_instance(rng, field, length, k, pad=rng.randint(0, 2),
                            scramble=data.draw(st.booleans()))
    for order in (None, deep_first_of(s), candidate_order_of(rng.randrange(2**16), g.nrows, True)):
        assert outcome(jordan_chains, g, order) == outcome(ref_jordan_chains, g, order)


@differential
@given(st.data())
def test_series_split_complement_matches_loop_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    length = data.draw(st.integers(5, 7))
    k = data.draw(st.integers(2, length - 3))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    g, s = witness_instance(
        rng, field, length, k, pad=rng.randint(0, 3), scramble=data.draw(st.booleans()),
        extra_level_pad=rng.randint(0, 1),
    )
    for cut in range(2, length + 1):
        _, w = invariant_core(g, s, cut)
        got = _series_split_complement(w, s)
        assert got == ref_series_split_complement(w, s)
        assert Subspace.span(field, s.ambient_dim, list(w.basis) + got).is_full()


def random_sections(rng, s):
    """Disjoint sections along a random sub-chain, each with a map that
    stabilizes its section series, or one drawn to fail."""
    members = s.members
    cuts = sorted(rng.sample(range(len(members)), rng.randint(2, len(members))))
    sections = []
    for top, bottom in zip(cuts, cuts[1:]):
        if rng.random() < 0.3:
            continue
        u, w = members[bottom], members[top]
        induced = section_series(s, w, u)
        kind = rng.randrange(8)
        if kind == 0:
            hmap = random_invertible(rng, s.field, induced.ambient_dim)
        elif kind == 1:
            hmap = Mat.identity(s.field, induced.ambient_dim + 1)
        else:
            hmap = random_stabilizer_element(rng, induced)
        sections.append((u, w, hmap))
    if sections and rng.random() < 0.1:
        sections.append(sections[0])
    return sections


@differential
@given(st.data())
def test_patch_sections_matches_solver_reference(data):
    rng, s = draw_series(data, min_dim=2)
    t = random_stabilizer_element(rng, s)
    for adapted in (adapted_basis_of(s), [v @ t for v in adapted_basis_of(s)]):
        sections = SectionAssignment(random_sections(rng, s))
        got = outcome(patch_sections, adapted, s, sections)
        assert got == outcome(ref_patch_sections, adapted, s, sections)


def extend_rows(rng, field, n, base):
    """Rows to extend by: random vectors, zero rows, repeats and rows
    already in the span so far, each a `Vec` or a canonical tuple."""
    rows, spanned = [], [list(r) for r in base.basis]
    for _ in range(rng.randint(0, 2 * n + 2)):
        kind = rng.randrange(4)
        if kind == 0:
            v = random_vec(rng, field, n)
        elif kind == 1:
            v = Vec.zero(field, n)
        elif kind == 2 and rows:
            rows.append(rng.choice(rows))
            continue
        else:
            v = combination(rng, field, spanned, n)
        spanned.append(list(v.entries))
        rows.append(v if rng.random() < 0.5 else v.entries)
    return rows


@differential
@given(st.data())
def test_extend_matches_membership_and_full_span_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 7))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(4):
        base = random_subspace(rng, field, n)
        rows = extend_rows(rng, field, n, base)
        for dim in (None, rng.randint(0, n), base.dim + 1):
            new, got = base._extend(iter(rows), dim)
            want_new, want = ref_extend(base, rows, dim)
            assert new == want_new
            assert [type(r) for r in new] == [type(r) for r in want_new]
            assert got == want and got.pivots == want.pivots
            assert got._int_rows == want._int_rows
            assert got._rows() == want._rows()

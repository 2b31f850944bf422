"""Constructive chain splitting and block patching of section maps."""

from .errors import SectionError, SeriesError
from .linalg import LinearSolver, Mat, Subspace, Vec, complement_basis
from .series import in_stabilizer, is_adapted_basis, section_series

__all__ = [
    "ChainSplit",
    "SectionAssignment",
    "split_chain",
    "section_basis",
    "patch_sections",
]


class ChainSplit:
    """Direct sum decomposition matching the factors of a chain."""

    __slots__ = ("chain", "parts")

    def __init__(self, chain, parts):
        self.chain = tuple(chain)
        self.parts = tuple(parts)

    def __repr__(self):
        dims = ",".join(str(a.dim) for a in self.parts)
        return f"ChainSplit(parts={dims})"


def split_chain(chain):
    """Split V along a descending chain: V = A_1 + ... + A_m directly.

    Ascending complements B_i to each chain member produce the parts as
    A_i = B_i & V_{i-1}; each step checks the modular-law identity
    B_i = B_{i-1} + A_i and the final stack has full rank.
    """
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
        # extend the previous complement to a complement of chain[i]
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
    assert prev_b.is_full()
    stacked = [row for a in parts for row in a.basis]
    assert Subspace._span(field, n, stacked).dim == n
    for a, top, bottom in zip(parts, chain, chain[1:]):
        assert a.dim == top.dim - bottom.dim
    return ChainSplit(chain, parts)


def section_basis(adapted, s, w, u):
    """Adapted basis vectors belonging to jumps inside (u, w].

    Their cosets form a basis of w/u; verified by a rank check.
    """
    if w not in s.members or u not in s.members:
        raise SeriesError("section endpoints must be members")
    if not (w.contains(u) and u.dim < w.dim):
        raise SeriesError("section endpoints must be strictly nested")
    adapted = list(adapted)
    if not is_adapted_basis(adapted, s):
        raise SeriesError("basis is not adapted to the series")
    chosen = [v for v in adapted if w.contains_vec(v) and not u.contains_vec(v)]
    assert len(chosen) == w.dim - u.dim
    rows = [v.entries for v in chosen] + [list(r) for r in u.basis]
    got = Subspace._span(s.field, s.ambient_dim, rows)
    assert got.dim == u.dim + len(chosen)
    return chosen


class SectionAssignment:
    """Nested-disjoint sections (u < w) with stabilizer maps on each.

    Maps are square matrices in the quotient coordinates of the
    deterministic complement of u in w.
    """

    __slots__ = ("sections",)

    def __init__(self, sections):
        self.sections = tuple((u, w, h) for (u, w, h) in sections)

    def __iter__(self):
        return iter(self.sections)

    def __len__(self):
        return len(self.sections)


def _check_disjoint(sections):
    for i, (u_a, w_a, _) in enumerate(sections):
        for u_b, w_b, _ in sections[i + 1 :]:
            if not (u_a.contains(w_b) or u_b.contains(w_a)):
                raise SectionError("sections overlap")


def patch_sections(adapted, s, assignment):
    """Single stabilizer element inducing every section map at once.

    Each map must stabilize its induced section series (checked); the
    result acts through the adapted basis, fixing all vectors outside
    the sections, and its induced action on every section is verified.
    """
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
        # move the map from deterministic-complement coordinates to the
        # adapted section basis of this section
        reps = complement_basis(u, w)
        vecs = section_basis(adapted, s, w, u)
        solver = LinearSolver(
            field, [v.entries for v in reps] + [r for r in u.basis], n
        )
        q = len(reps)

        def coords(v, solver=solver, q=q):
            y = solver.solve(v)
            assert y is not None
            return Vec._of(field, y[:q])

        sec_solver = LinearSolver(
            field, [coords(v).entries for v in vecs], q
        )
        for v in vecs:
            target = coords(v) @ hmap
            a = sec_solver.solve(target)
            assert a is not None, "section basis failed to span the quotient"
            out = Vec.zero(field, n)
            for c, bvec in zip(a, vecs):
                if c != 0:
                    out = out + bvec.scale(c)
            images[id(v)] = (v, out)
    rows = []
    index_of = {id(v): i for i, v in enumerate(adapted)}
    p = Mat.from_vecs(field, adapted, ncols=n)
    coords_rows = [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]
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
    # verify the induced action on every section equals the given map
    for u, w, hmap in sections:
        reps = complement_basis(u, w)
        solver = LinearSolver(
            field, [v.entries for v in reps] + [r for r in u.basis], n
        )
        q = len(reps)
        got_rows = []
        for rep in reps:
            y = solver.solve(rep @ h)
            assert y is not None
            got_rows.append(y[:q])
        assert Mat._of(field, got_rows, q) == hmap, "induced action mismatch"
    return h

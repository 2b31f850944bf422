"""Constructive chain splitting and block patching of section maps.

Unit-row lemma: for W' <= W <= F^n, `complement_basis(W, F^n)` picks the
unit row e_k iff e_k lies outside W + <e_1, ..., e_(k-1)>, a space that
contains W' + <e_1, ..., e_(k-1)>; so the rows picked for W are picked for
W'.  Invertibility: `patch_sections` acts on an adapted basis by disjoint
blocks C hmap C^-1, C the section's adapted vectors in its quotient
coordinates (a basis there) and hmap unipotent, as it stabilizes a series.
"""

from .errors import SectionError, SeriesError
from .linalg import Mat, QuotientMap, Subspace
from .series import _basis_levels, _section_indices, _section_series, in_stabilizer

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

    A_i = B_i & V_(i-1), B_i the span of the unit rows picked by
    `complement_basis(V_i, V)`; B_(i-1) <= B_i by the unit-row lemma.  The
    closing check (the parts span V, dim A_i = dim V_(i-1) - dim V_i) makes
    the sum direct and along the chain, as each A_i lies in V_(i-1).
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
    units = chain[0].basis_vecs()
    parts = [Subspace._span(field, n, bottom._extend(units)).intersect(top)
             for top, bottom in zip(chain, chain[1:])]
    stacked = [v for a in parts for v in a.basis_vecs()]
    if (
        Subspace._span(field, n, stacked).dim != n
        or any(a.dim != top.dim - bottom.dim for a, top, bottom in zip(parts, chain, chain[1:]))
    ):
        raise SeriesError("chain parts do not split the space")
    return ChainSplit(chain, parts)


def section_basis(adapted, s, w, u):
    """Adapted basis vectors belonging to jumps inside (u, w].

    For w, u = s.members[i], s.members[j] they are the vectors of level in
    (i, j], whose cosets are a basis of w/u (the lemma in `series`).
    """
    i, j = _section_indices(s, w, u, SeriesError)
    adapted = list(adapted)
    levels = _basis_levels(adapted, s)
    if levels is None:
        raise SeriesError("basis is not adapted to the series")
    return [v for v, lvl in zip(adapted, levels) if i < lvl <= j]


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
    the sections, so it is invertible (module docstring); that it
    stabilizes s and induces every section map is verified.
    """
    adapted = list(adapted)
    levels = _basis_levels(adapted, s)
    if levels is None:
        raise SeriesError("basis is not adapted to the series")
    sections = list(assignment)
    _check_disjoint(sections)
    field = s.field
    n = s.ambient_dim
    coords_rows = [list(r) for r in Mat.identity(field, n).rows]
    qmaps = []
    for u, w, hmap in sections:
        i, j = _section_indices(s, w, u, SectionError)
        qm = QuotientMap(u, w)
        induced = _section_series(s, i, j, qm)
        if hmap.nrows != induced.ambient_dim or not hmap.is_square():
            raise SectionError("map shape differs from the section dimension")
        if not in_stabilizer(hmap, induced):
            raise SectionError("map does not stabilize the induced section series")
        # the map moved to the adapted vectors of level in (i, j], whose
        # coefficients are basis coordinates: C hmap C^-1
        index = [k for k, lvl in enumerate(levels) if i < lvl <= j]
        c = Mat._of(field, [qm.project(adapted[k]).entries for k in index], qm.dim)
        block = c @ hmap @ c.inverse()
        for k, a in zip(index, block.rows):
            row = [field.zero] * n
            for x, b in zip(a, index):
                row[b] = x
            coords_rows[k] = row
        qmaps.append(qm)
    p = Mat.from_vecs(field, adapted, ncols=n)
    h = p.inverse() @ Mat._of(field, coords_rows, n) @ p
    if not in_stabilizer(h, s):
        raise SectionError("patched map escapes the stabilizer")
    # verify the induced action on every section equals the given map
    for (_, _, hmap), qm in zip(sections, qmaps):
        if qm.induced_matrix(h) != hmap:
            raise SectionError("patched map induces a different section map")
    return h

"""Finite series of subspaces, jumps, stabilizer membership, coarsening.

A series here is a strictly descending chain V = V_1 > ... > V_{m+1} = 0.
Its `length` counts the members other than V and 0; `num_jumps` counts
consecutive pairs, which is length + 1.

The public `Series(...)` checks that its members descend strictly from V
to 0, one containment test per consecutive pair.  Members that are
already known to do so (those `validate` has checked, subsequences of
a series' members) go through the private `Series._of`, which trusts
them and keeps only the field and ambient-dimension check.

Adapted bases.  Say v has level l when v is in V_l but not in V_{l+1}.
If a basis of V has dim V_l - dim V_{l+1} vectors at each level l, its
vectors of level i or deeper are dim V_i independent vectors of V_i, so
they span it: the level-i vectors give a basis of V_i/V_{i+1}, and the
basis is adapted (`_fills_jumps`).  For w, u = s.members[i], s.members[j],
the adapted vectors in the section w/u are those of level in (i, j].
"""

from .errors import SeriesError, ShapeError, SingularMatrixError
from .linalg import Mat, QuotientMap, Subspace, Vec, _coerced, _form, _images, complement_basis

__all__ = [
    "Series",
    "Jump",
    "validate",
    "jump_of",
    "is_adapted_basis",
    "section_series",
    "in_stabilizer",
    "canonical_coarsening",
    "extend_to_full_flag",
]


class Jump:
    """Consecutive pair (bottom, top) of a series; index is the level."""

    __slots__ = ("bottom", "top", "index")

    def __init__(self, bottom, top, index):
        self.bottom = bottom
        self.top = top
        self.index = index

    def __eq__(self, other):
        return (
            isinstance(other, Jump)
            and self.bottom == other.bottom
            and self.top == other.top
            and self.index == other.index
        )

    def __repr__(self):
        return f"Jump(level={self.index}, {self.top.dim}/{self.bottom.dim})"


def _check_space(field, ambient_dim, members):
    for x in members:
        if x.field != field or x.ambient_dim != ambient_dim:
            raise SeriesError("member field or ambient dimension differs")


class Series:
    """Strictly descending chain of subspaces from V to 0."""

    __slots__ = ("field", "ambient_dim", "members")

    def __init__(self, field, ambient_dim, members):
        members = tuple(members)
        if not members:
            raise SeriesError("empty series")
        _check_space(field, ambient_dim, members)
        if not members[0].is_full():
            raise SeriesError("first member must be the full space")
        if not members[-1].is_zero():
            raise SeriesError("last member must be zero")
        for a, b in zip(members, members[1:]):
            if not (a.contains(b) and b.dim < a.dim):
                raise SeriesError("members must strictly descend")
        self.field = field
        self.ambient_dim = ambient_dim
        self.members = members

    @classmethod
    def _of(cls, field, ambient_dim, members):
        """Trusted constructor for members that descend strictly from V to
        0; only their field and ambient dimension are checked."""
        members = tuple(members)
        _check_space(field, ambient_dim, members)
        s = object.__new__(cls)
        s.field = field
        s.ambient_dim = ambient_dim
        s.members = members
        return s

    @property
    def length(self):
        """Number of members other than V and 0."""
        return len(self.members) - 2

    @property
    def num_jumps(self):
        return len(self.members) - 1

    def jumps(self):
        return [
            Jump(self.members[i], self.members[i - 1], i)
            for i in range(1, len(self.members))
        ]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.members))

    def __repr__(self):
        dims = ">".join(str(x.dim) for x in self.members)
        return f"Series[{dims}]"


def validate(field, ambient_dim, subspaces):
    """Normalize a collection of subspaces into a Series.

    Duplicates are removed and members are sorted by dimension; any
    incomparable pair or a missing endpoint raises SeriesError.  Each
    consecutive pair is tested once, here, so the result is built
    through `Series._of`.
    """
    seen = []
    for x in subspaces:
        if x not in seen:
            seen.append(x)
    seen.sort(key=lambda x: -x.dim)
    if not seen or not seen[0].is_full():
        raise SeriesError("the full space is missing")
    if not seen[-1].is_zero():
        raise SeriesError("the zero subspace is missing")
    for a, b in zip(seen, seen[1:]):
        if a.dim == b.dim:
            raise SeriesError("incomparable members of equal dimension")
        if not a.contains(b):
            raise SeriesError(
                f"incomparable members of dimensions {a.dim} and {b.dim}"
            )
    return Series._of(field, ambient_dim, seen)


def _deepest(members, row, lo, hi):
    """(d, residue): d the largest index below hi of a member holding the row,
    given members[lo] does, and the row's residue modulo members[d + 1] (None
    if hi = d + 1 from the start); the row is in the kernels' form.

    The members holding the row form a prefix of the nested chain, so
    binary search finds its end.
    """
    residue = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rest = [*members[mid]._reduce(row)]
        if any(rest):
            hi, residue = mid, rest
        else:
            lo = mid
    return lo, residue


def _level_residue(v, s):
    """(l, residue): v's jump index l and its `_deepest` residue modulo the
    member below, from one search over all members; `jump_of`'s errors."""
    if isinstance(v, Vec) and v.is_zero():
        raise SeriesError("the zero vector belongs to no jump")
    v = _coerced(s.field, v, s.ambient_dim, "vector dim differs from ambient dimension")
    members = s.members
    row = _form(s.field, v)[0]
    level, residue = _deepest(members, row, 0, len(members))
    if level == len(members) - 1:
        raise SeriesError("vector lies in the zero member")
    return level + 1, residue


def jump_of(v, s):
    """The unique jump (B, T) with v in T \\ B."""
    level = _level_residue(v, s)[0]
    return Jump(s.members[level], s.members[level - 1], level)


def level_of(v, s):
    """Index l with v in V_l \\ V_{l+1}; 1 is the top level."""
    return jump_of(v, s).index


def _jump_levels(s):
    """The levels of an adapted basis of s, top jump first: level l once
    per dimension of V_l/V_{l+1}."""
    m = s.members
    return [i for i in range(1, len(m)) for _ in range(m[i - 1].dim - m[i].dim)]


def _fills_jumps(levels, s):
    """Whether the levels, in lists (one per chain of vectors), fill each
    jump of s once per dimension: for a basis of V, whether it is adapted."""
    return sorted(lvl for lvls in levels for lvl in lvls) == _jump_levels(s)


def _basis_levels(basis, s):
    """The levels of a list of vectors if they form an adapted basis of s,
    else None; `is_adapted_basis`'s ShapeErrors."""
    n = s.ambient_dim
    if len(basis) != n:
        raise ShapeError("wrong number of basis vectors")
    if Subspace.span(s.field, n, basis).dim != n:
        raise ShapeError("vectors do not form a basis")
    levels = [level_of(v, s) for v in basis]
    return levels if _fills_jumps([levels], s) else None


def is_adapted_basis(basis, s):
    """True iff the basis vectors, grouped by jump, give bases of T/B: by
    the lemma in the module docstring, iff they form a basis (one
    elimination) with the levels of an adapted basis."""
    return _basis_levels(list(basis), s) is not None


def _section_indices(s, w, u, error):
    """(i, j) with w, u = s.members[i], s.members[j] and i < j, else error."""
    if w not in s.members or u not in s.members:
        raise error("section endpoints must be members")
    i, j = s.members.index(w), s.members.index(u)
    if not i < j:
        raise error("section endpoints must be strictly nested")
    return i, j


def section_series(s, w, u):
    """Series induced on the section w/u, in quotient coordinates."""
    i, j = _section_indices(s, w, u, SeriesError)
    return _section_series(s, i, j, QuotientMap(u, w))


def _section_series(s, i, j, qm):
    """`section_series` of w/u = s.members[i]/s.members[j] through its
    quotient map qm: a member above w meets w in w, one below u lies in u."""
    members = [qm.project_subspace(x) for x in s.members[i:j + 1]]
    return Series._of(s.field, qm.dim, members)


def _complement_rows(lower, upper):
    """Rows of upper's basis completing lower to upper, in the kernels'
    row form (integer rows over QQ).

    For canonical lower <= upper, the pivots of lower are pivots of
    upper, so the rows of upper whose pivot lower lacks will do.
    """
    pivots = set(lower.pivots)
    return [r for r, c in zip(upper._rows(), upper.pivots) if c not in pivots]


def _minus_one(g, c=-1):
    """g - 1, or g + c for another integer c: only the diagonal of g changes,
    over QQ that of its row forms alone (c times each denominator added);
    SingularMatrixError for a non-square g, as in the stabilizer test."""
    if not g.is_square():
        raise SingularMatrixError("stabilizer membership needs an invertible matrix")
    p = g.field.p
    if p is None:
        forms = [([*x[:i], x[i] + c * d, *x[i + 1:]], d) for i, (x, d) in enumerate(g._forms())]
        return Mat._of(g.field, None, g.ncols, forms)
    rows = [(*r[:i], (r[i] + c) % p, *r[i + 1:]) for i, r in enumerate(g.rows)]
    return Mat._of(g.field, rows, g.ncols)


def _adapted_rows(s):
    """The `_complement_rows` of every jump, top jump first: a basis of V in
    which member V_i is spanned by the rows from dim V - dim V_i on."""
    m = s.members
    return [r for i in range(1, len(m)) for r in _complement_rows(m[i], m[i - 1])]


def _jump_images(g, s, nil):
    """For each level i, the complement rows of V_{i-1} over V_i times nil = g - 1,
    as (numerators, denominator).

    Returns None when some image leaves V_i, i.e. when g is not in the
    stabilizer; with the rows of V_i these rows span V_{i-1}, so that
    test covers every jump.  A singular g raises SingularMatrixError,
    one of the wrong size ShapeError.
    """
    members = s.members
    if len(members) > 1 and g.nrows != s.ambient_dim:
        raise ShapeError("matrix height differs from ambient dimension")
    images = []
    for i in range(1, len(members)):
        rows = _complement_rows(members[i], members[i - 1])
        imgs = _images([(r, 1) for r in rows], nil)
        if any(any(members[i]._reduce(v)) for v, _ in imgs):
            if not g.is_invertible():
                raise SingularMatrixError("stabilizer membership needs an invertible matrix")
            return None
        images.append(imgs)
    return images


def in_stabilizer(g, s):
    """True iff [T, g] <= B for every jump (B, T) of s.

    A g that passes every jump has g - 1 nilpotent, so it is invertible;
    only a g that fails is checked for invertibility, and a singular one
    raises SingularMatrixError as a non-square one does.
    """
    return _jump_images(g, s, _minus_one(g)) is not None


def canonical_coarsening(g, s):
    """Shortest subseries of s stabilized by g, built greedily top down.

    Each next member is the smallest member of s containing the image of
    the previous one under g - 1; minimality of the result's length holds
    level by level against any stabilized subseries.  V_j (g - 1) is the
    sum of the images of the complement rows below V_j, so the deepest
    member holding it is a suffix minimum over those rows' depths.
    """
    images = _jump_images(g, s, _minus_one(g))
    if images is None:
        raise SeriesError("element does not stabilize the series")
    return _coarsening(s, images)


def _coarsening(s, images):
    """`canonical_coarsening` from the `_jump_images` of a stabilizing g."""
    members = s.members
    last = len(members) - 1
    deepest = [last] * len(members)
    for i in range(last, 0, -1):
        depth = deepest[i]
        for v, _ in images[i - 1]:
            depth = _deepest(members, v, i, depth + 1)[0]
        deepest[i - 1] = depth
    chain = [members[0]]
    j = 0
    while j < last:
        j = deepest[j]
        chain.append(members[j])
    return Series._of(s.field, s.ambient_dim, chain)


def extend_to_full_flag(s):
    """Insert members until every jump has dimension one."""
    members = [s.members[0]]
    for jump in s.jumps():
        reps = complement_basis(jump.bottom, jump.top)
        stack = jump.bottom.basis_vecs()
        inter = []
        for rep in reps[:-1]:
            stack = stack + [rep]
            inter.append(Subspace._span(s.field, s.ambient_dim, stack))
        members.extend(reversed(inter))
        members.append(jump.bottom)
    return Series(s.field, s.ambient_dim, members)

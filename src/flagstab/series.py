"""Finite series of subspaces, jumps, stabilizer membership, coarsening.

A series here is a strictly descending chain V = V_1 > ... > V_{m+1} = 0.
Its `length` counts the members other than V and 0; `num_jumps` counts
consecutive pairs, which is length + 1.
"""

from .errors import SeriesError, ShapeError, SingularMatrixError
from .linalg import Mat, QuotientMap, Subspace, Vec, _form, _images

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


class Series:
    """Strictly descending chain of subspaces from V to 0."""

    __slots__ = ("field", "ambient_dim", "members")

    def __init__(self, field, ambient_dim, members):
        members = tuple(members)
        if not members:
            raise SeriesError("empty series")
        for x in members:
            if x.field != field or x.ambient_dim != ambient_dim:
                raise SeriesError("member field or ambient dimension differs")
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
    incomparable pair or a missing endpoint raises SeriesError.
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
    return Series(field, ambient_dim, seen)


def _deepest(members, row, lo, hi):
    """Largest index below hi of a member holding the row, given members[lo]
    does; the row is in the kernels' form (the numerators of `linalg._form`).

    The members holding the row form a prefix of the nested chain, so
    binary search finds its end.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if any(members[mid]._reduce(row)):
            hi = mid
        else:
            lo = mid
    return lo


def jump_of(v, s):
    """The unique jump (B, T) with v in T \\ B."""
    if isinstance(v, Vec) and v.is_zero():
        raise SeriesError("the zero vector belongs to no jump")
    entries = v.entries if isinstance(v, Vec) else tuple(v)
    if len(entries) != s.ambient_dim:
        raise ShapeError("vector dim differs from ambient dimension")
    members = s.members
    row = _form(s.field, v if isinstance(v, Vec) else entries)[0]
    level = _deepest(members, row, 0, len(members))
    if level == len(members) - 1:
        raise SeriesError("vector lies in the zero member")
    return Jump(members[level + 1], members[level], level + 1)


def level_of(v, s):
    """Index l with v in V_l \\ V_{l+1}; 1 is the top level."""
    return jump_of(v, s).index


def is_adapted_basis(basis, s):
    """True iff the basis vectors, grouped by jump, give bases of T/B."""
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


def section_series(s, w, u):
    """Series induced on the section w/u, in quotient coordinates."""
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


def _complement_rows(lower, upper):
    """Rows of upper's basis completing lower to upper, in the kernels'
    row form (integer rows over QQ).

    For canonical lower <= upper, the pivots of lower are pivots of
    upper, so the rows of upper whose pivot lower lacks will do.
    """
    pivots = set(lower.pivots)
    return [r for r, c in zip(upper._rows(), upper.pivots) if c not in pivots]


def _minus_one(g):
    """g - 1; SingularMatrixError for a non-square g, as in the stabilizer test."""
    if not g.is_square():
        raise SingularMatrixError("stabilizer membership needs an invertible matrix")
    return g - Mat.identity(g.field, g.nrows)


def _jump_images(g, s, nil):
    """For each level i, the complement rows of V_{i-1} over V_i times nil = g - 1.

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
        imgs = _images(s.field, rows, nil)
        if any(any(members[i]._reduce(v)) for v in imgs):
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
        for v in images[i - 1]:
            depth = _deepest(members, v, i, depth + 1)
        deepest[i - 1] = depth
    chain = [members[0]]
    j = 0
    while j < last:
        j = deepest[j]
        chain.append(members[j])
    return Series(s.field, s.ambient_dim, chain)


def extend_to_full_flag(s):
    """Insert members until every jump has dimension one."""
    from .linalg import complement_basis

    members = [s.members[0]]
    for jump in s.jumps():
        reps = complement_basis(jump.bottom, jump.top)
        stack = [list(r) for r in jump.bottom.basis]
        inter = []
        for rep in reps[:-1]:
            stack = stack + [list(rep.entries)]
            inter.append(Subspace._span(s.field, s.ambient_dim, stack))
        members.extend(reversed(inter))
        members.append(jump.bottom)
    return Series(s.field, s.ambient_dim, members)

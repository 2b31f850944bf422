"""Finite series of subspaces, jumps, stabilizer membership, coarsening.

A series here is a strictly descending chain V = V_1 > ... > V_{m+1} = 0.
Its `length` counts the members other than V and 0; `num_jumps` counts
consecutive pairs, which is length + 1.
"""

from .errors import SeriesError, ShapeError, SingularMatrixError
from .linalg import Mat, QuotientMap, Subspace, Vec

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

    def jump_at(self, level):
        return Jump(self.members[level], self.members[level - 1], level)

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


def jump_of(v, s):
    """The unique jump (B, T) with v in T \\ B."""
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
    return Jump(s.members[level + 1], s.members[level], level + 1)


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
    stacked = Subspace.span(field, n, [v.entries for v in basis])
    if stacked.dim != n:
        raise ShapeError("vectors do not form a basis")
    by_level = {}
    for v in basis:
        by_level.setdefault(level_of(v, s), []).append(v)
    for jump in s.jumps():
        group = by_level.get(jump.index, [])
        if len(group) != jump.top.dim - jump.bottom.dim:
            return False
        rows = [v.entries for v in group] + [list(r) for r in jump.bottom.basis]
        got = Subspace.span(field, n, rows)
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


def in_stabilizer(g, s):
    """True iff [T, g] <= B for every jump (B, T) of s.

    A g that passes every jump has g - 1 nilpotent, so it is invertible;
    only a g that fails is checked for invertibility, and a singular one
    raises SingularMatrixError as a non-square one does.
    """
    if not g.is_square():
        raise SingularMatrixError("stabilizer membership needs an invertible matrix")
    gm1 = g - Mat.identity(g.field, g.nrows)
    for jump in s.jumps():
        if not jump.bottom.contains(jump.top.apply(gm1)):
            if not g.is_invertible():
                raise SingularMatrixError("stabilizer membership needs an invertible matrix")
            return False
    return True


def canonical_coarsening(g, s):
    """Shortest subseries of s stabilized by g, built greedily top down.

    Each next member is the smallest member of s containing the image of
    the previous one under g - 1; minimality of the result's length holds
    level by level against any stabilized subseries.
    """
    if not in_stabilizer(g, s):
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
            inter.append(Subspace.span(s.field, s.ambient_dim, stack))
        members.extend(reversed(inter))
        members.append(jump.bottom)
    return Series(s.field, s.ambient_dim, members)

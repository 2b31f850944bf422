"""Series construction from module lower central chains, plus a finitary
McLain-style playground over rational indices.

A factor's lower central chain is built in V: for B <= W normalized by N,
[W/B, N] = ([W, N] + B)/B, one elimination per term.

Normalization is tested by residues: for invertible g, x g has the
dimension of x, so x g <= x implies x g = x.  Each basis row of x times
g is reduced modulo x, and no span of x g is built.
"""

from fractions import Fraction

from .errors import McLainError, NormalizationError, RefinementObstruction, ShapeError
from .linalg import Mat, Subspace, _images
from .series import Series, _jump_images, _minus_one, in_stabilizer

__all__ = [
    "GeneratorSet",
    "LowerCentralChain",
    "module_lcs",
    "refine_series",
    "McLainElement",
    "mclain_matrices",
    "mclain_truncate",
]


class GeneratorSet:
    """Nonempty list of invertible matrices of one size over one field."""

    __slots__ = ("gens",)

    def __init__(self, gens):
        gens = tuple(gens)
        if not gens:
            raise ShapeError("generator set is empty")
        first = gens[0]
        for g in gens:
            if g.field != first.field or g.nrows != first.nrows or not g.is_square():
                raise ShapeError("generators must share a square size and field")
            if not g.is_invertible():
                raise ShapeError("generators must be invertible")
        self.gens = gens

    @property
    def field(self):
        return self.gens[0].field

    @property
    def dim(self):
        return self.gens[0].nrows

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)


class LowerCentralChain:
    """Descending chain V >= [V,N] >= [V,2 N] >= ..., with its outcome."""

    __slots__ = ("chain", "reaches_zero")

    def __init__(self, chain, reaches_zero):
        self.chain = tuple(chain)
        self.reaches_zero = reaches_zero

    def __iter__(self):
        return iter(self.chain)

    def __repr__(self):
        dims = ">".join(str(x.dim) for x in self.chain)
        return f"LowerCentralChain[{dims}] zero={self.reaches_zero}"


def _lcs(top, bottom, nils):
    """W_0 = top, W_(j+1) = bottom + the sum of W_j (g - 1) over the nils
    g - 1, up to bottom or to the first stationary term."""
    field, n = top.field, top.ambient_dim
    chain = [top]
    while chain[-1].dim > bottom.dim:
        forms = [(r, 1) for r in chain[-1]._rows()]
        images = [nums for nil in nils for nums, _ in _images(forms, nil)]
        nxt = Subspace._of_rows(field, n, [*bottom._rows(), *images])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain


def module_lcs(gens):
    """Lower central chain of the natural module under the generators.

    Stops at the first stationary term; reaching zero means the
    generated action stabilizes the chain as a series.
    """
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(gens)
    chain = _lcs(Subspace.full(gens.field, gens.dim), Subspace.zero(gens.field, gens.dim),
                 [_minus_one(g) for g in gens])
    return LowerCentralChain(chain, chain[-1].is_zero())


def refine_series(s, gens):
    """Insert each factor's lower central chain preimages into s.

    Every generator must normalize every member, so each factor's chain
    is built in V by `_lcs`, as [W/B, N] = ([W, N] + B)/B.  If some factor
    chain stalls above zero, RefinementObstruction reports that jump.
    """
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(gens)
    if gens.dim != s.ambient_dim or gens.field != s.field:
        raise ShapeError("generators do not act on the series' space")
    for g in gens:
        for x in s.members:
            if not x._is_invariant(g):  # g is invertible: x g <= x means x g = x
                raise NormalizationError("a generator does not normalize a member")
    nils = [_minus_one(g) for g in gens]
    members = [s.members[0]]
    for jump in s.jumps():
        chain = _lcs(jump.top, jump.bottom, nils)
        if chain[-1].dim > jump.bottom.dim:
            raise RefinementObstruction(
                jump.index, f"factor at jump {jump.index} has a non-vanishing chain")
        members += chain[1:]
    refined = Series(s.field, s.ambient_dim, members)
    if any(_jump_images(g, refined, nil) is None for g, nil in zip(gens, nils)):
        raise NormalizationError("a generator does not stabilize the refined series")
    return refined


class McLainElement:
    """1 + sum of c_{rs} e_{rs} over rational pairs r < s."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        canon = []
        seen = set()
        for (r, idx_s), c in terms:
            r = Fraction(r)
            t = Fraction(idx_s)
            if not r < t:
                raise McLainError(f"index pair needs r < s, got ({r}, {t})")
            if (r, t) in seen:
                raise McLainError(f"repeated index pair ({r}, {t})")
            seen.add((r, t))
            c = field.coerce(c)
            if c != 0:
                canon.append(((r, t), c))
        canon.sort(key=lambda item: item[0])
        self.field = field
        self.terms = tuple(canon)

    def indices(self):
        out = set()
        for (r, t), _ in self.terms:
            out.add(r)
            out.add(t)
        return out

    def __repr__(self):
        body = ", ".join(f"e[{r},{t}]*{c}" for (r, t), c in self.terms)
        return f"McLainElement(1 + {body or '0'})"


def mclain_matrices(elems):
    """Matrices of finitely many McLain elements on their joint support.

    Indices are collected and ordered; each element becomes a d x d
    unitriangular matrix and the full suffix flag of the ordered basis
    comes along.  Every matrix is checked to stabilize the flag.
    """
    elems = list(elems)
    if not elems:
        raise McLainError("no elements given")
    field = elems[0].field
    for el in elems:
        if el.field != field:
            raise McLainError("elements live over different fields")
    support = sorted(set().union(*[el.indices() for el in elems]))
    index = {q: i for i, q in enumerate(support)}
    d = len(support)
    if d == 0:
        raise McLainError("elements have empty support")
    mats = []
    for el in elems:
        rows = [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]
        for (r, t), c in el.terms:
            i, j = index[r], index[t]
            rows[i][j] = field.add(rows[i][j], c)
        mats.append(Mat(field, rows))
    members = [Subspace.full(field, d)]
    for lvl in range(1, d):
        rows = [
            [field.one if j == i else field.zero for j in range(d)]
            for i in range(lvl, d)
        ]
        members.append(Subspace.span(field, d, rows))
    members.append(Subspace.zero(field, d))
    flag = Series(field, d, members)
    if not all(in_stabilizer(m, flag) for m in mats):
        raise McLainError("an element does not stabilize its support flag")
    return mats, flag


def mclain_truncate(elems):
    """Product of the realized McLain elements with the support flag."""
    mats, flag = mclain_matrices(elems)
    product = Mat.identity(flag.field, flag.ambient_dim)
    for m in mats:
        product = product @ m
    return product, flag

"""Exact scalars, vectors, matrices and canonical subspaces.

Scalars are plain ints reduced mod p for prime fields and
`fractions.Fraction` for the rationals; no floating point anywhere.
Vectors are rows and act on the right of matrices (v @ g), so kernels
are left null spaces and images are row spaces.

Kernels read a row as `_form` gives it, (numerators, denominator): over
GF(p) the canonical entries over 1, over QQ integer numerators over one
common denominator.  All elimination is one `_echelon`, row by row: a
forward pass clears each row by the (key, row) pairs so far (`_residue`)
and keeps its nonzero residue, monic over GF(p), primitive with a positive
lead over QQ (`_lead`); then one back-substitution, in pivot order from
the bottom up, clears each row by the reduced rows below it.  Kernels,
inverses and solvers eliminate one [A | d*I] block built by `_tagged`.

For p <= 13 the kernels pack a GF(p) row into one int, an 8-bit slot per
column, column 0 in the top byte (Albrecht, Bard and Hart 2010; Dumas,
Fousse and Salvy 2011), keyed by the shift of its leading slot.  A slot
cleared by adding (p - f) times a monic row holds at most
(p - 1) + (p - 1)^2 <= 156, so one byte translation reduces every slot
mod p; over GF(2) a clear is an XOR.  Larger p would overflow a byte, so
their rows stay lists, keyed by pivot column and cleared by `_clear` as
QQ's are, there fraction-free (Bareiss 1968).  Membership of a list row
(`Subspace._reduce`) is decided on the non-pivot columns alone, as den * v
minus a product of its pivot entries with the basis there: clearing it
pivot by pivot would take a gcd and a whole-row rescaling per pivot.

Over QQ every `Vec`, `Mat` and `Subspace` holds its integer form from
construction, set in one place, the class's trusted `_of`, which the public
constructors build through: a `Vec` its (numerators, denominator) in lowest
terms (`_int`), which `==` compares; a `Mat` one pair per row
(`_int_forms`); a `Subspace` its primitive integer rows, basis row i times
its pivot entry, which is also its lcm denominator (`_int_rows`).  Given
entries, `_of` computes the form once with `_int_row`, a `Mat`'s over one
denominator.  Kernel results and parsed rows (`Field._ratio`, `_row_form`)
hand `_of` their forms alone, and the canonical `Fraction`s are built on
first read (`_lazy`).  Over GF(p) a row is its own form and none is kept;
a `Subspace` keeps its `_packed` pairs for p <= 13.  Besides:
- a `Mat` has one right-factor form (`_right`, kept in `_as_factor`),
  (den, times): den * m has integer rows (`_common`; den = 1 over GF(p))
  and times is x -> x @ (den * m) on integer rows x (`_row_map`), for
  p <= 13 over packed rows.  Every product is one loop over it (`_images`);
- the other integer sums are `_row_map` products too: a `Subspace`'s
  residues on its non-pivot columns (`_int_cols`, derived on first use) and
  a `LinearSolver`'s products of a target with its tag columns (`_dots`);
- over QQ and p > 13 a row with at most a quarter of its entries nonzero,
  and of the result's columns (`_sparse`), is multiplied as the sum of the
  integer rows its nonzero entries select (`_combine`; Gustavson 1978);
  others take a dot product per column, the same integer sums.
Rows of plain ints, such as images and elimination output, are read as
they are.

Canonical in, canonical out: every entry held by a `Vec`, `Mat` or
`Subspace` is canonical (an int in [0, p) over GF(p), a `Fraction` over
QQ), and every kernel returns canonical entries when given canonical
ones.  The public constructors `Vec(...)`, `Mat(...)`, `Subspace(...)` and
`Subspace.span(...)` coerce their input, and so do the public entries that
take one raw row (`Subspace.contains_vec`, `LinearSolver.solve`, and through
`series._level_residue` `jump_of`, `level_of` and `is_adapted_basis`): a
packed kernel reads only entries in [0, p).  Kernel results go through the
private `Vec._of`, `Mat._of` and `Subspace._span`, which trust them.

Spans grow through one private primitive, `Subspace._extend`: given rows
in order, it returns those that lie outside the span so far, found by
the forward pass of `_echelon` from the subspace's own pairs
(`Subspace._packed`); it builds no span.  Complements, chain splittings,
new Jordan-chain heads and series-splitting complements are all built
with it.
"""

import math
import re
from fractions import Fraction
from itertools import compress, repeat
from operator import add, itemgetter, mul

from .errors import (
    ContainmentError,
    FieldMismatchError,
    ShapeError,
    SingularMatrixError,
)

__all__ = [
    "Field",
    "GF",
    "QQ",
    "Vec",
    "Mat",
    "Subspace",
    "LinearSolver",
    "QuotientMap",
    "echelonize",
    "kernel",
    "image",
    "complement_in",
    "complement_basis",
]


# The first 13 primes as Miller-Rabin bases decide primality exactly
# below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# `int` alone would also take underscores, whitespace and non-ASCII digits.
_SCALAR = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?")


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primes must be below {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_ZERO, _ONE = Fraction(0), Fraction(1)


class Field:
    """GF(p) for prime p, or the rationals when p is None."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def is_prime_field(self):
        return self.p is not None

    @property
    def zero(self):
        return 0 if self.p is not None else _ZERO

    @property
    def one(self):
        return 1 if self.p is not None else _ONE

    def coerce(self, x):
        if self.p is not None:
            return int(x) % self.p
        if type(x) is Fraction:
            return x
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        return 1 / a

    def parse(self, text):
        """Parse 'a', or 'a/b' over QQ, into a canonical scalar; a and b
        are ASCII decimal integers with an optional sign."""
        num, den = self._ratio(text)
        return num if self.p is not None else Fraction(num, den)

    def _ratio(self, text):
        """`parse` as (numerator, denominator > 0) in lowest terms, (value, 1) over GF(p)."""
        if not (text.isascii() and text.isdigit() or _SCALAR.fullmatch(text)):
            raise ValueError(f"bad scalar {text!r}")
        if self.p is not None:
            return int(text) % self.p, 1
        num, _, den = text.partition("/")
        num, den = int(num), int(den or 1)
        if not den:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return num // g, den // g

    def format(self, x):
        if self.p is not None:
            return str(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p is not None else "QQ"


def GF(p):
    return Field(p)


QQ = Field(None)


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


def _add(p, r, s):
    """Entrywise r + s of canonical rows; zero operands are free over QQ."""
    if p is not None:
        return [(x + y) % p for x, y in zip(r, s)]
    return [x + y if x and y else x or y for x, y in zip(r, s)]


def _sub(p, r, s):
    """Entrywise r - s of canonical rows; zeros in s are free over QQ."""
    if p is not None:
        return [(x - y) % p for x, y in zip(r, s)]
    return [x - y if y else x for x, y in zip(r, s)]


def _scale(p, c, r):
    """c times a canonical row, for a canonical scalar c."""
    if p is not None:
        return [c * x % p for x in r]
    return [c * x if x else x for x in r]


def _lazy(cls, name, build):
    """The subclass of cls, of the same name, for QQ objects made from their
    integer forms alone: they leave slot name unset, and its first read fills
    it with build(self).  cls has no `__getattr__`, which would slow every
    attribute read of its other objects, GF(p) ones included."""
    def __getattr__(self, attr):
        if attr != name:
            raise AttributeError(attr)
        value = build(self)
        object.__setattr__(self, name, value)
        return value
    return type(cls.__name__, (cls,), {"__slots__": (), "__getattr__": __getattr__})


class Vec:
    """Immutable row vector with exact entries."""

    __slots__ = ("field", "entries", "_int")

    def __new__(cls, field, entries):
        return cls._of(field, [field.coerce(x) for x in entries])

    @classmethod
    def _of(cls, field, entries, form=None):
        """Trusted constructor for entries that are already canonical; over QQ
        it keeps them as (numerators, denominator) in lowest terms, form if
        given, else from `_int_row`.  Without entries they are the form's:
        over QQ built on first read."""
        lazy = entries is None and field.p is None
        v = object.__new__(_LazyVec if lazy else cls)
        object.__setattr__(v, "field", field)
        if not lazy:
            entries = tuple(form[0] if entries is None else entries)
            object.__setattr__(v, "entries", entries)
        object.__setattr__(v, "_int", None if field.p else form or _int_row(entries))
        return v

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    @property
    def dim(self):
        return len(self._int[0] if self._int else self.entries)

    def is_zero(self):
        return not any(self._int[0]) if self._int else all(x == 0 for x in self.entries)

    def _match(self, other):
        _check_same_field(self, other)
        if self.dim != other.dim:
            raise ShapeError("vector dims differ")

    def __add__(self, other):
        self._match(other)
        return Vec._of(self.field, _add(self.field.p, self.entries, other.entries))

    def __sub__(self, other):
        self._match(other)
        return Vec._of(self.field, _sub(self.field.p, self.entries, other.entries))

    def __neg__(self):
        return Vec._of(self.field, _scale(self.field.p, -1, self.entries))

    def scale(self, c):
        c = self.field.coerce(c)
        return Vec._of(self.field, _scale(self.field.p, c, self.entries))

    def __matmul__(self, m):
        """Row action v @ g."""
        if not isinstance(m, Mat):
            return NotImplemented
        _check_same_field(self, m)
        if self.dim != m.nrows:
            raise ShapeError("vector/matrix shapes differ")
        (form,) = _images([_form(self.field, self)], m)
        return Vec._of(self.field, None, form)

    def __eq__(self, other):
        """Over QQ the forms, which are in lowest terms, hence canonical."""
        if not (isinstance(other, Vec) and self.field == other.field):
            return False
        if self._int is None:
            return self.entries == other.entries
        (a, d), (b, e) = self._int, other._int
        return d == e and tuple(a) == tuple(b)  # lists and tuples both occur

    def __hash__(self):
        if self._int is None:
            return hash((self.field, self.entries))
        return hash((self.field, tuple(self._int[0]), self._int[1]))

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self):
        fmt = self.field.format
        return "Vec(" + " ".join(fmt(x) for x in self.entries) + ")"

    @classmethod
    def unit(cls, field, dim, i):
        return cls._of(field, [field.one if j == i else field.zero for j in range(dim)])

    @classmethod
    def zero(cls, field, dim):
        return cls._of(field, [field.zero] * dim)


_LazyVec = _lazy(Vec, "entries", lambda v: tuple(_entries(None, *v._int)))


def _int_row(row):
    """(numerators, denominator) of a row of Fractions or ints over its
    lcm denominator: the integer form of a row that lacks one."""
    pairs = [x.as_integer_ratio() for x in row]
    den = math.lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def _form(field, row):
    """(numerators, denominator) of a `Vec` or canonical row: the kernels'
    form, whose numerators alone do for spans and membership.

    Over GF(p) it is the entries over 1.  Over QQ a `Vec` keeps its form, a
    row of ints is its own numerators over 1, and other rows go through
    `_int_row`.
    """
    if isinstance(row, Vec):
        return row._int or (row.entries, 1)
    if field.p is not None or all(type(x) is int for x in row):
        return row, 1
    return _int_row(row)


def _row_form(field, ratios):
    """(entries, kernel form, lead column) of a parsed row, at least one
    `Field._ratio`: over QQ no entries (the constructors build them from the
    form) and the numerators over their lcm denominator, for p <= 13 the
    packed int, else the entries; the lead column is the first nonzero one,
    the width for a zero row."""
    entries = ints = [n for n, _ in ratios]
    form = _pack(entries) if field.p in _MOD else entries
    if field.p is None:
        den = math.lcm(*[d for _, d in ratios])
        ints = [n * (den // d) for n, d in ratios]
        entries, form = None, (ints, den)
    lead = next(filter(None, ints), 0)  # the first nonzero entry, at C speed
    return entries, form, ints.index(lead) if lead else len(ints)


def _coerced(field, r, width, message):
    """A row as a `Vec` of the field, one of the field kept whole;
    ShapeError(message) unless it has the width."""
    if not (isinstance(r, Vec) and r.field == field):
        r = Vec(field, r)
    if r.dim != width:
        raise ShapeError(message)
    return r


def _entries(p, nums, den):
    """Canonical entries of the form (nums, den): over GF(p), where forms and
    echelon pivots are over 1, nums; over QQ the Fractions nums[j] / den."""
    if p is not None:
        return nums
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in nums]
    return [Fraction(x, den) if x else _ZERO for x in nums]


def _common(forms):
    """(den, rows): den the lcm of the forms' denominators, and each form's
    numerators brought over it."""
    den = math.lcm(*[d for _, d in forms])
    return den, [nums if d == den else _scale(None, den // d, nums) for nums, d in forms]


def _sparse(coeffs, width):
    """Whether at most a quarter of the coefficients (ints), and of width, are
    nonzero: then combining their rows beats width dot products."""
    return 4 * (len(coeffs) - coeffs.count(0)) <= min(len(coeffs), width)


def _combine(acc, coeffs, rows):
    """acc + c * row for each nonzero c of coeffs and its row."""
    for c, row in zip(filter(None, coeffs), compress(rows, coeffs)):
        acc = list(map(add, acc, row if c == 1 else map(mul, repeat(c), row)))
    return acc


def _row_map(field, rows, ncols):
    """x -> x @ M on integer rows x, for M the matrix with these integer rows.
    For p <= 13 the rows are packed once (`_pack`) and x @ M is summed in
    their slots, reduced mod p whenever another term could carry out of a
    byte.  Otherwise a sparse x (`_sparse`) is the sum of the rows it
    selects (`_combine`), a dense one a dot product per column, the same
    integer sums, reduced mod p over GF(p)."""
    p = field.p
    if p in _MOD:
        words, mod, room = [_pack(r) for r in rows], _MOD[p], (256 - p) // (p - 1) ** 2

        def times(x):
            acc, left = 0, room
            for a, w in zip(x, words):
                if a:
                    if not left:
                        acc = int.from_bytes(acc.to_bytes(ncols, "big").translate(mod), "big")
                        left = room
                    acc += a * w
                    left -= 1
            return acc.to_bytes(ncols, "big").translate(mod)
        return times

    cols = None

    def times(x):
        nonlocal cols
        if _sparse(x, ncols):
            out = _combine([0] * ncols, x, rows)
        else:
            cols = cols or list(zip(*rows))
            out = [sum(map(mul, x, col)) for col in cols]
        return out if p is None else [y % p for y in out]
    return times


def _images(forms, m):
    """r @ m for rows r given as (numerators, denominator), in the same
    form and in lowest terms: each numerator row through m's right factor
    (`Mat._right`), the denominators multiplied."""
    den, times = m._right()
    out = []
    for nums, d in forms:
        prod, d = times(nums), d * den
        if d > 1:
            g = math.gcd(d, *prod)
            if g > 1:
                prod = [x // g for x in prod]
                d //= g
        out.append((prod, d))
    return out


def _plus(p, a, b, sign):
    """a + sign * b (sign +-1) for rows as (numerators, denominator), over their lcm."""
    m, (x, y) = _common([a, b])
    return (_add if sign > 0 else _sub)(p, x, y), m


class Mat:
    """Immutable dense matrix, row major."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_int_forms", "_as_factor")

    def __new__(cls, field, rows, ncols=None):
        rows = [[field.coerce(x) for x in r] for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeError("ragged rows")
        elif ncols is None:
            raise ShapeError("empty matrix needs explicit ncols")
        return cls._of(field, rows, ncols)

    @classmethod
    def _of(cls, field, rows, ncols, forms=None):
        """Trusted constructor for rectangular rows of canonical entries; over
        QQ it keeps each row as (numerators, denominator), forms if given,
        else all entries from one `_int_row` over one denominator.  Without
        rows they are the forms': over QQ built on first read."""
        lazy = rows is None and field.p is None
        m = object.__new__(_LazyMat if lazy else cls)
        if not lazy:
            rows = tuple(map(tuple, [nums for nums, _ in forms] if rows is None else rows))
            object.__setattr__(m, "rows", rows)
        if forms is None and field.p is None:
            flat, den = _int_row([x for r in rows for x in r])
            forms = [(flat[i * ncols:(i + 1) * ncols], den) for i in range(len(rows))]
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(forms if rows is None else rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "_int_forms", forms if field.p is None else None)
        object.__setattr__(m, "_as_factor", None)
        return m

    def _forms(self):
        """Each row as (numerators, denominator): over GF(p) over 1, over QQ
        the kept `_int_forms`."""
        return self._int_forms if self.field.p is None else [(r, 1) for r in self.rows]

    def _right(self):
        """(den, times): den * self has integer rows, den = 1 over GF(p), and
        times is x -> x @ (den * self) on integer rows (`_row_map`); cached."""
        factor = self._as_factor
        if factor is None:
            den, rows = (1, self.rows) if self.field.p is not None else _common(self._forms())
            factor = den, _row_map(self.field, rows, self.ncols)
            object.__setattr__(self, "_as_factor", factor)
        return factor

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls._of(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls._of(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_vecs(cls, field, vecs, ncols=None):
        return cls(field, [v.entries for v in vecs], ncols=ncols)

    def row(self, i):
        return Vec._of(self.field, self.rows[i])

    def vec_rows(self):
        return [Vec._of(self.field, r) for r in self.rows]

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        return not any(any(nums) for nums, _ in self._forms())

    def is_identity(self):
        if not self.is_square():
            return False
        one = self.field.one
        return all(
            x == (one if i == j else 0)
            for i, r in enumerate(self.rows)
            for j, x in enumerate(r)
        )

    def __add__(self, other):
        self._match(other)
        p = self.field.p
        rows = [_add(p, r, s) for r, s in zip(self.rows, other.rows)]
        return Mat._of(self.field, rows, self.ncols)

    def __sub__(self, other):
        self._match(other)
        p = self.field.p
        rows = [_sub(p, r, s) for r, s in zip(self.rows, other.rows)]
        return Mat._of(self.field, rows, self.ncols)

    def _match(self, other):
        _check_same_field(self, other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("matrix shapes differ")

    def __neg__(self):
        p = self.field.p
        return Mat._of(self.field, [_scale(p, -1, r) for r in self.rows], self.ncols)

    def scale(self, c):
        c = self.field.coerce(c)
        p = self.field.p
        return Mat._of(self.field, [_scale(p, c, r) for r in self.rows], self.ncols)

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        _check_same_field(self, other)
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions differ")
        field = self.field
        if field.p is None:
            return Mat._of(field, None, other.ncols, _images(self._forms(), other))
        times = other._right()[1]  # den is 1: the rows go through times as they are
        return Mat._of(field, [times(r) for r in self.rows], other.ncols)

    def pow(self, e):
        if not self.is_square():
            raise ShapeError("power of a non-square matrix")
        if e < 0:
            return self.inverse().pow(-e)
        acc = Mat.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                acc = acc @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return acc

    def transpose(self):
        cols = zip(*self.rows) if self.rows else [()] * self.ncols
        return Mat._of(self.field, cols, self.nrows)

    def inverse(self):
        return self._inverse_columns(range(self.nrows))

    def _inverse_columns(self, cols):
        """Columns `cols` (a sequence) of the inverse, as an n x len(cols)
        matrix: one elimination of [self | those columns of the identity]."""
        if not self.is_square():
            raise SingularMatrixError("non-square matrix")
        n = self.nrows
        reduced, pivots = _tagged(self.field, self._forms(), cols)
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        forms = [(r[n:], r[c]) for r, c in zip(reduced, pivots)]
        return Mat._of(self.field, None, len(cols), forms)

    def is_invertible(self):
        """Whether the matrix is square of full rank: one elimination of its
        rows, with no tag block and no inverse rows built."""
        if not self.is_square():
            return False
        return len(_eliminate(self.field, [nums for nums, _ in self._forms()])[1]) == self.nrows

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"


_LazyMat = _lazy(Mat, "rows", lambda m: tuple(tuple(_entries(None, *f)) for f in m._int_forms))


# -- one elimination for every row form (see the module docstring) ------------
_MOD = {p: bytes(x % p for x in range(256)) for p in (2, 3, 5, 7, 11, 13)}  # byte -> byte % p


def _pack(row):
    """A row of canonical GF(p) entries as one int."""
    return int.from_bytes(bytes(row), "big")


def _residue(p, n, v, echelon):
    """Row v of width n cleared in turn by each (key, row) pair of echelon,
    whose row is normalized at its key and zero at the keys before it.

    For p <= 13 v may be a list and comes back packed, and a slot holding f
    is cleared by adding (p - f) times the row, over GF(2) by an XOR.
    """
    if p not in _MOD:
        for c, e in echelon:
            if v[c]:
                v = _clear(p, v, e, c)
        return v
    if type(v) is not int:
        v = _pack(v)
    for s, e in echelon:
        f = v >> s & 255
        if f:
            v = v ^ e if p == 2 else int.from_bytes(
                (v + (p - f) * e).to_bytes(n, "big").translate(_MOD[p]), "big")
    return v


def _lead(p, n, v):
    """(key, v normalized there) for the leading entry of a `_residue` v, or
    None when v is zero: monic over GF(p), primitive with a positive leading
    entry over QQ."""
    if p in _MOD:
        if not v:
            return None
        s = v.bit_length() - 1 & ~7
        if v >> s != 1:
            v = int.from_bytes(
                (v * pow(v >> s, -1, p)).to_bytes(n, "big").translate(_MOD[p]), "big")
        return s, v
    lead = next(filter(None, v), 0)  # the first nonzero entry, at C speed
    if not lead:
        return None
    if p is not None:
        return v.index(lead), v if lead == 1 else _scale(p, pow(lead, -1, p), v)
    g = math.gcd(*v) if lead > 0 else -math.gcd(*v)
    return v.index(lead), v if g == 1 else [x // g for x in v]


def _echelon(p, n, rows, start=()):
    """The (key, row) pairs of the reduced echelon form of rows of width n
    (lists, or for p <= 13 also packed ints), in pivot order, together with
    start, pairs already in reduced echelon form.

    A forward pass, from start, clears each row by the pairs so far and
    appends its nonzero residue, normalized by `_lead`, until the width is
    reached; a back-substitution from the bottom up then clears each row by
    the rows below it, which are reduced already."""
    out = list(start)
    for v in rows:
        if len(out) == n:
            break
        v = _residue(p, n, v, out)
        pair = v and _lead(p, n, v)  # a zero packed residue is 0
        if pair:
            out.append(pair)
    out.sort(reverse=p in _MOD)  # a larger shift is an earlier column
    for i in range(len(out) - 2, -1, -1):
        out[i] = out[i][0], _residue(p, n, out[i][1], out[i + 1:])
    return out


def _unpacked(p, n, pairs):
    """(rows, pivot columns) of `_echelon` pairs, packed rows as bytes."""
    if p in _MOD:
        return [e.to_bytes(n, "big") for _, e in pairs], [n - 1 - (s >> 3) for s, _ in pairs]
    return [e for _, e in pairs], [c for c, _ in pairs]


def _eliminate(field, rows):
    """(nonzero rows, pivot cols) of the reduced row echelon form of rows in
    kernel form (the numerators of `_form`), by one `_echelon`: over GF(p)
    monic, for p <= 13 as bytes; over QQ primitive, each its reduced row
    times its pivot entry, which is positive and which `_entries` divides out."""
    n = len(rows[0]) if rows else 0
    return _unpacked(field.p, n, _echelon(field.p, n, rows))


def _clear(p, v, e, c):
    """v with column c cleared by the echelon row e whose pivot is c, for
    v[c] nonzero; both are lists in kernel form.  Over GF(p) e is monic.
    Over QQ v becomes a*v - b*e, with a and b the pivot and the entry
    divided by their gcd, divided by its content."""
    f = v[c]
    if p is not None:
        return [(x - f * y) % p for x, y in zip(v, e)]
    g = math.gcd(e[c], f)
    a, b = e[c] // g, f // g
    v = [a * x - b * y for x, y in zip(v, e)]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


class Subspace:
    """Row space in canonical reduced echelon form; equality is syntactic."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_int_rows", "_int_cols")

    def __new__(cls, field, ambient_dim, basis, pivots):
        """The subspace with this basis in reduced echelon form and its pivots."""
        rows = [[field.coerce(x) for x in r] for r in basis]
        if field.p is None:
            rows = [_int_row(r)[0] for r in rows]
        return cls._of(field, ambient_dim, rows, pivots)

    @classmethod
    def _of(cls, field, ambient_dim, rows, pivots, packed=None):
        """Trusted constructor from the rows of `_rows()` and the pivots: over
        QQ the primitive integer rows, kept, and the basis built from them on
        first read; over GF(p) the basis, with the `_packed` pairs if given."""
        lazy = field.p is None
        s = object.__new__(_LazySubspace if lazy else cls)
        if not lazy:
            object.__setattr__(s, "basis", tuple(map(tuple, rows)))
        object.__setattr__(s, "field", field)
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "pivots", tuple(pivots))
        object.__setattr__(s, "_int_rows", rows if lazy else packed)
        object.__setattr__(s, "_int_cols", None)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field, ambient_dim, rows):
        """Canonical subspace spanned by the given rows or `Vec`s."""
        message = "row width differs from ambient dimension"
        rows = [_coerced(field, r, ambient_dim, message) for r in rows]
        return cls._span(field, ambient_dim, rows)

    @classmethod
    def _span(cls, field, ambient_dim, rows):
        """`span` of `Vec`s or canonical rows of width ambient_dim; over QQ
        also of integer rows, as a span ignores scaling."""
        return cls._of_rows(field, ambient_dim, [_form(field, r)[0] for r in rows])

    @classmethod
    def _of_rows(cls, field, ambient_dim, rows, start=()):
        """Span of rows in kernel form (see `_eliminate`; for p <= 13 also
        packed ints) and of the `_echelon` pairs start.  Each basis row is its
        echelon row over the pivot entry, 1 over GF(p); the subspace keeps the
        `_echelon` pairs for p <= 13 and over QQ the primitive integer rows,
        with positive pivot entries."""
        p = field.p
        pairs = _echelon(p, ambient_dim, rows, start)
        ints, pivots = _unpacked(p, ambient_dim, pairs)
        return cls._of(field, ambient_dim, ints, pivots, pairs if p in _MOD else None)

    @classmethod
    def _parsed(cls, field, ambient_dim, rows):
        """Span of `_row_form` rows: a block in reduced echelon form (leads
        strictly increasing, each lead entry 1 and alone in its column, read
        off the integer rows) is its own canonical basis and keeps its forms,
        over QQ the numerators (the lead entry is the denominator), for
        p <= 13 (shift, packed) pairs; any other block goes through `_span`."""
        p, c = field.p, -1
        ints = [f[0] if p is None else e for e, f, _ in rows]
        for i, ((_, f, lead), r) in enumerate(zip(rows, ints)):
            if not c < lead < ambient_dim or r[lead] != (1 if p else f[1]) or any(
                    map(itemgetter(lead), ints[:i])):
                return cls._span(field, ambient_dim, ints)
            c = lead
        return cls._of(field, ambient_dim, ints, [lead for _, _, lead in rows], [
            (8 * (ambient_dim - 1 - lead), f) for _, f, lead in rows] if p in _MOD else None)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls._of(field, ambient_dim, [], ())

    @classmethod
    def full(cls, field, ambient_dim):
        n = ambient_dim
        units = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls._of(field, n, units, range(n))  # over QQ their own integer rows

    @property
    def dim(self):
        return len(self.pivots)

    def is_zero(self):
        return not self.pivots

    def is_full(self):
        return len(self.pivots) == self.ambient_dim

    def basis_vecs(self):
        return [Vec._of(self.field, None, f) for f in self._forms()]

    def _forms(self):
        """Each basis row as (numerators, denominator): `_rows()` over the
        pivot entry, 1 over GF(p)."""
        return [(r, r[c]) for r, c in zip(self._rows(), self.pivots)]

    def _rows(self):
        """The basis in kernel form (see `_eliminate`): over QQ row i is the
        primitive integer multiple of basis[i], its pivot entry its denominator,
        kept (`_int_rows`)."""
        return self.basis if self.field.p is not None else self._int_rows

    def _packed(self):
        """The basis as `_echelon` gives it, (key, row) pairs: for p <= 13
        (shift, packed row), kept or packed once; else (pivot, `_rows()` row)."""
        if self.field.p not in _MOD:
            return list(zip(self.pivots, self._rows()))
        pairs = self._int_rows
        if pairs is None:
            n = self.ambient_dim
            pairs = [(8 * (n - 1 - c), _pack(r)) for r, c in zip(self.basis, self.pivots)]
            object.__setattr__(self, "_int_rows", pairs)
        return pairs

    def _integer_columns(self):
        """(den, non-pivot columns, times), cached: times is x -> x @ B
        (`_row_map`) for B den * basis on those columns, an integer matrix."""
        form = self._int_cols
        if form is None:
            den, rows = _common(self._forms())
            free = sorted(set(range(self.ambient_dim)).difference(self.pivots))
            form = den, free, _row_map(self.field, [[r[c] for c in free] for r in rows], len(free))
            object.__setattr__(self, "_int_cols", form)
        return form

    def _reduce(self, v):
        """Residue of v, a row in kernel form, after elimination against
        the basis.  For p <= 13 it is the packed residue, as bytes.  Otherwise
        it is taken on the non-pivot columns only (it vanishes on the others),
        over QQ scaled to integers: den * v there minus v's pivot entries
        times the basis there (`_integer_columns`)."""
        p = self.field.p
        if p in _MOD:
            n = self.ambient_dim
            return _residue(p, n, v, self._packed()).to_bytes(n, "big")
        den, free, times = self._integer_columns()
        residue = [den * v[c] - y for c, y in zip(free, times([v[c] for c in self.pivots]))]
        return residue if p is None else [x % p for x in residue]

    def contains_vec(self, v):
        v = _coerced(self.field, v, self.ambient_dim, "vector dim differs from ambient dimension")
        return not any(self._reduce(_form(self.field, v)[0]))

    def contains(self, other):
        self._match(other)
        if self.is_full():  # every subspace of F^n lies in F^n
            return True
        if other.dim > self.dim:
            return False
        p, n = self.field.p, self.ambient_dim
        if p in _MOD:
            pairs = self._packed()
            return not any(_residue(p, n, e, pairs) for _, e in other._packed())
        return not any(any(self._reduce(r)) for r in other._rows())

    def _match(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimensions differ")

    def sum(self, other):
        """One forward pass of the smaller operand's rows from the larger
        one's pairs, which are reduced already."""
        self._match(other)
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        rows = [e for _, e in small._packed()]
        return Subspace._of_rows(self.field, self.ambient_dim, rows, big._packed())

    def intersect(self, other):
        """Zassenhaus double-block elimination.

        When the smaller operand lies in the larger one (a full operand
        included), it is the answer: canonical form makes it equal to
        what the elimination builds.
        """
        self._match(other)
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        if big.is_full() or big.contains(small):
            return small
        n = self.ambient_dim
        zeros = [0] * n
        rows = [[*r, *r] for r in self._rows()] + [[*r, *zeros] for r in other._rows()]
        reduced, pivots = _eliminate(self.field, rows)
        out = [r[n:] for r, c in zip(reduced, pivots) if c >= n]
        return Subspace._of_rows(self.field, n, out)

    def __add__(self, other):
        return self.sum(other)

    def __and__(self, other):
        return self.intersect(other)

    def __le__(self, other):
        return other.contains(self)

    def __lt__(self, other):
        return other.contains(self) and self.dim < other.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            # over QQ the primitive integer rows are canonical too
            and (self.basis == other.basis if self.field.p else
                 [*map(tuple, self._rows())] == [*map(tuple, other._rows())])
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def _extend(self, rows, dim=None):
        """The rows, in order, that lie outside the span of this subspace
        and the rows before them.

        Rows are `Vec`s or canonical tuples, in any iterable, and are
        returned as given.  Once the span reaches dimension dim (default:
        the ambient one) it stops, without drawing another row.
        """
        dim = self.ambient_dim if dim is None else dim
        field, p, n = self.field, self.field.p, self.ambient_dim
        # the forward pass of `_echelon`, from this subspace's pairs
        echelon, new = list(self._packed()), []
        for row in rows if len(echelon) < dim else ():
            pair = _lead(p, n, _residue(p, n, _form(field, row)[0], echelon))
            if pair:
                echelon.append(pair)
                new.append(row)
                if len(echelon) >= dim:
                    break
        return new

    def _is_invariant(self, m):
        """Whether x m <= x, for x this subspace and m square: each basis row
        times m reduces to 0 against the basis.  For invertible m, x m has
        the dimension of x, so this is the normalization test x m = x."""
        if self.is_full():
            return True
        images = _images([(r, 1) for r in self._rows()], m)
        return not any(any(self._reduce(v)) for v, _ in images)

    def apply(self, m):
        """Image of this subspace under the row action of m."""
        if m.nrows != self.ambient_dim:
            raise ShapeError("matrix height differs from ambient dimension")
        images = _images([(r, 1) for r in self._rows()], m)
        return Subspace._of_rows(self.field, m.ncols, [nums for nums, _ in images])

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in r) for r in self.basis)
        return f"Subspace<{self.dim} of {self.ambient_dim}: {body}>"


_LazySubspace = _lazy(Subspace, "basis", lambda s: tuple(
    tuple(_entries(None, r, r[c])) for r, c in zip(s._int_rows, s.pivots)))


def echelonize(m):
    """Canonical subspace spanned by the rows of m."""
    return Subspace._of_rows(m.field, m.ncols, [nums for nums, _ in m._forms()])


def image(m):
    """Row space of m; pass g-1 to get the commutator space [V,g]."""
    return echelonize(m)


def _tagged(field, forms, cols):
    """`_eliminate` of [A | d*I]: row i is the numerators of forms[i],
    then for each j in cols its denominator d if j == i, else 0; over QQ
    that is a positive multiple of the rational row it stands for."""
    return _eliminate(field, [list(nums) + [d if i == j else 0 for j in cols]
                              for i, (nums, d) in enumerate(forms)])


def kernel(m):
    """Left null space {v : v @ m = 0} of a square matrix."""
    if not m.is_square():
        raise ShapeError("kernel of a non-square matrix")
    n = m.nrows
    reduced, pivots = _tagged(m.field, m._forms(), range(n))
    out = [r[n:] for r, c in zip(reduced, pivots) if c >= n]
    return Subspace._of_rows(m.field, n, out)


def left_kernel_rows(field, rows, ncols):
    """Coefficient rows c with c @ M = 0 for the stack M; may be rectangular."""
    reduced, pivots = _tagged(field, [_form(field, r) for r in rows], range(len(rows)))
    rows = zip(reduced, pivots)
    return [tuple(_entries(field.p, r[ncols:], r[c])) for r, c in rows if c >= ncols]


def complement_basis(u, w):
    """Rows of w's canonical basis extending u to w, in pivot order.

    The returned vectors are coset representatives: they project to a
    basis of w/u.
    """
    u._match(w)
    if not w.contains(u):
        raise ContainmentError("first subspace is not contained in the second")
    return u._extend(w.basis_vecs(), w.dim)


def complement_in(u, w):
    """Deterministic complement c with u + c = w and u & c = 0."""
    vecs = complement_basis(u, w)
    return Subspace._span(u.field, u.ambient_dim, vecs)


class QuotientMap:
    """Coordinates on w/u through the deterministic complement basis.

    Representatives are the rows of `complement_basis(u, w)`, so the map
    is canonical for a given pair (u, w).  Explicit representatives must
    lie in w and complete u's basis to a basis of w.
    """

    __slots__ = ("u", "w", "reps", "field", "dim", "_solver")

    def __init__(self, u, w, reps=None):
        if reps is None:
            # complement_basis checks u <= w itself
            reps = complement_basis(u, w)
        else:
            u._match(w)
            if not w.contains(u):
                raise ContainmentError("first subspace is not contained in the second")
            reps = [_coerced(u.field, r, u.ambient_dim, "row width differs") for r in reps]
            if len(reps) + u.dim != w.dim or Subspace._span(
                    u.field, u.ambient_dim, [*reps, *u.basis_vecs()]) != w:
                raise ContainmentError("representatives do not complete a basis of u to one of w")
        self.u = u
        self.w = w
        self.reps = tuple(reps)
        self.field = u.field
        self.dim = len(self.reps)
        self._solver = LinearSolver(self.field, [*self.reps, *u.basis_vecs()], u.ambient_dim)

    def project(self, v):
        """Coordinates of v + u in the representative basis."""
        y = self._solver.solve(v)
        if y is None:
            raise ContainmentError("vector lies outside the section")
        return Vec._of(self.field, y[: self.dim])

    def lift(self, c):
        """Representative vector of the coordinate row c."""
        entries = c.entries if isinstance(c, Vec) else tuple(c)
        if len(entries) != self.dim:
            raise ShapeError("coordinate width differs from section dimension")
        out = Vec.zero(self.field, self.u.ambient_dim)
        for x, rep in zip(entries, self.reps):
            if x != 0:
                out = out + rep.scale(x)
        return out

    def project_subspace(self, x):
        """Image of the subspace x (contained in w) in quotient coordinates."""
        rows = [self.project(v) for v in x.basis_vecs()]
        return Subspace._span(self.field, self.dim, rows)

    def lift_subspace(self, q):
        """Preimage in w of a subspace of the quotient."""
        rows = [self.lift(r) for r in q.basis] + self.u.basis_vecs()
        return Subspace._span(self.field, self.u.ambient_dim, rows)

    def induced_matrix(self, g):
        """Matrix of the action induced by g on w/u (g must normalize both)."""
        rows = [self.project(rep @ g).entries for rep in self.reps]
        return Mat._of(self.field, rows, self.dim)

    def projection_matrix(self):
        """Ambient-to-quotient coordinate matrix, only when w is everything:
        row i is `project` of the i-th unit vector.  The representatives and
        u's basis then stack to an invertible M, and column j is column j of
        M^-1, read off the solver's tag row with pivot j."""
        if not self.w.is_full():
            raise ShapeError("projection matrix needs the full space on top")
        s, cols = self._solver, [None] * self.dim
        for tag, scale, piv in zip(s._tags, s._scales, s._pivots):
            if piv < self.dim:
                cols[piv] = _entries(self.field.p, tag, scale)
        rows = zip(*cols) if cols else [()] * self.u.ambient_dim
        return Mat._of(self.field, rows, self.dim)


class LinearSolver:
    """Solves y @ M = target for a fixed stack of rows M.

    Row reduces the transpose of M once, with an identity tag block, so
    each solve costs one small matrix-vector product.  Free coefficients
    are set to zero, which makes the answer deterministic when the rows
    of M are dependent.
    """

    def __init__(self, field, rows, ncols):
        rows = [_coerced(field, r, ncols, "row width differs") for r in rows]
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        # The columns of den * M, for a common denominator den of the rows,
        # with a den * identity tag block: over QQ a positive multiple of
        # each row to eliminate, which elimination divides out.
        den, scaled = _common([_form(field, r) for r in rows])
        columns = [([r[j] for r in scaled], den) for j in range(ncols)]
        reduced, pivots = _tagged(field, columns, range(ncols))
        m = self.nrows
        # Tag blocks of the reduced rows; over QQ each is an integer row
        # that still has to be divided by its row's pivot entry.  Their
        # products with a target are one `_row_map` of the tag columns.
        self._tags = [r[m:] for r in reduced]
        self._scales = [r[c] for r, c in zip(reduced, pivots)]
        self._pivots = pivots
        self._inside = sum(c < m for c in pivots)  # pivots ascend: these rows give y
        cols = [[t[j] for t in self._tags] for j in range(ncols)]
        self._dots = _row_map(field, cols, len(reduced))

    def solve(self, target):
        """Coefficient row y with y @ M = target, or None."""
        target = _coerced(self.field, target, self.ncols, "target width differs")
        nums, den = _form(self.field, target)
        sums = self._dots(nums)
        if any(sums[self._inside:]):
            return None
        y = [self.field.zero] * self.nrows
        for s, scale, piv in zip(sums, self._scales, self._pivots):
            if s:
                y[piv] = s if self.field.p else Fraction(s, scale * den)
        return y

    def contains(self, target):
        return self.solve(target) is not None

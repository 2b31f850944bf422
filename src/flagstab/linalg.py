"""Exact scalars, vectors, matrices and canonical subspaces.

Scalars are plain ints reduced mod p for prime fields and
`fractions.Fraction` for the rationals; no floating point anywhere.
Vectors are rows and act on the right of matrices (v @ g), so kernels
are left null spaces and images are row spaces.

Kernels read a row as `_form` gives it, (numerators, denominator): over
GF(p) the canonical entries over 1, over QQ integer numerators over one
common denominator.  All elimination runs in `_eliminate`, fraction-free
over QQ: it cross-multiplies and divides each row by its content
(Bareiss 1968).  Kernels, inverses and solvers eliminate one [A | d*I]
block built by `_tagged`.  Canonical `Fraction`s are built only where a
`Vec`, `Mat`, `Subspace` or solution row is handed out, so every result
is the same as with `Fraction` arithmetic throughout.

Over QQ each object keeps the integer form of its rows, so no kernel
converts the same row twice:
- a `Subspace` keeps the primitive integer rows its elimination returned
  (`_int_rows`, read through `_rows`): basis row i times its pivot
  entry, which is also its lcm denominator;
- a `Vec` keeps its (numerators, denominator) pair (`_int`), and a
  `Mat` one pair per row (`_int_forms`, read through `_forms`); a
  product stores the pairs it computed, in lowest terms;
- a `Mat`'s columns and a `Subspace`'s non-pivot columns, each over one
  common denominator (`_int_cols`), are derived on first use from those
  rows (for a `Mat` that has none, from its entries).
An object built otherwise (user input, `Fraction` sums and scalings, the
public `Subspace(...)`) gets its form on first use through `_int_row`: a
`Mat` in one conversion of all its entries over a common denominator.
Rows of plain ints, such as images and elimination output, are read as
they are.

Canonical in, canonical out: every entry held by a `Vec`, `Mat` or
`Subspace` is canonical (an int in [0, p) over GF(p), a `Fraction` over
QQ), and every kernel returns canonical entries when given canonical
ones.  The public constructors `Vec(...)`, `Mat(...)` and
`Subspace.span(...)` coerce their input; kernel results go through the
private `Vec._of`, `Mat._of` and `Subspace._span`, which trust it.

Spans grow through one private primitive, `Subspace._extend`: given rows
in order, it keeps each row that lies outside the span so far and
returns the kept rows with the span they complete; it reduces each row
against an incremental echelon of the rows so far and runs one
elimination at the end.  Complements, chain splittings, new Jordan-chain
heads and series-splitting complements are all built with it.
"""

import math
import re
from fractions import Fraction
from operator import mul

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
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

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
        if not (text.isascii() and text.isdigit() or _SCALAR.fullmatch(text)):
            raise ValueError(f"bad scalar {text!r}")
        if self.p is not None:
            return int(text) % self.p
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))

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


def _neg(p, r):
    if p is not None:
        return [-x % p for x in r]
    return [-x if x else x for x in r]


def _scale(p, c, r):
    """c times a canonical row, for a canonical scalar c."""
    if p is not None:
        return [c * x % p for x in r]
    return [c * x if x else x for x in r]


class Vec:
    """Immutable row vector with exact entries."""

    __slots__ = ("field", "entries", "_int")

    def __init__(self, field, entries):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", tuple(field.coerce(x) for x in entries))
        object.__setattr__(self, "_int", None)

    @classmethod
    def _of(cls, field, entries, form=None):
        """Trusted constructor for entries that are already canonical; over
        QQ, form may give them as (numerators, denominator)."""
        v = object.__new__(cls)
        object.__setattr__(v, "field", field)
        object.__setattr__(v, "entries", tuple(entries))
        object.__setattr__(v, "_int", form)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    @property
    def dim(self):
        return len(self.entries)

    def is_zero(self):
        return all(x == 0 for x in self.entries)

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
        return Vec._of(self.field, _neg(self.field.p, self.entries))

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
        if self.field.p is None:
            (form,) = _int_times([_form(self.field, self)], m)
            return Vec._of(self.field, _fractions(*form), form)
        return Vec._of(self.field, _row_times(self.field, self.entries, m.rows, m.ncols))

    def __eq__(self, other):
        return (
            isinstance(other, Vec)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

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


_ZERO = Fraction(0)


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

    Over GF(p) it is the entries over 1.  Over QQ a row of ints is its
    own numerators over 1, and other rows go through `_int_row`.  A `Vec`
    keeps the form of its own field, filled on first use.
    """
    if isinstance(row, Vec):
        form = row._int
        if form is None:
            form = _form(row.field, row.entries)
            object.__setattr__(row, "_int", form)
        return form
    if field.p is not None or all(type(x) is int for x in row):
        return row, 1
    return _int_row(row)


def _coerced(field, rows, width, message):
    """Rows as lists of canonical scalars, `Vec`s of the field kept whole
    (with their integer forms); ShapeError(message) unless each has the
    width."""
    out = [
        r if isinstance(r, Vec) and r.field == field
        else [field.coerce(x) for x in (r.entries if isinstance(r, Vec) else r)]
        for r in rows
    ]
    for r in out:
        if len(r.entries if isinstance(r, Vec) else r) != width:
            raise ShapeError(message)
    return out


def _fractions(nums, den):
    """Canonical Fractions nums[j] / den."""
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in nums]
    return [Fraction(x, den) if x else _ZERO for x in nums]


def _int_times(forms, m):
    """r @ m for each rational row r given as (numerators, denominator),
    in the same form and in lowest terms, as `_int_row` would give it.

    The right factor's columns over one common denominator are cached on
    it, so a matrix used in many products is converted once.
    """
    den, cols = m._integer_columns()
    out = []
    for nums, e in forms:
        prod = [sum(map(mul, nums, col)) for col in cols]
        e *= den
        if e > 1:
            g = math.gcd(e, *prod)
            if g > 1:
                prod = [x // g for x in prod]
                e //= g
        out.append((prod, e))
    return out


def _row_times(field, row, rows, ncols):
    """The row times the matrix with these rows, over GF(p)."""
    p = field.p
    out = [0] * ncols
    for x, mrow in zip(row, rows):
        if x == 0:
            continue
        for j, y in enumerate(mrow):
            if y != 0:
                out[j] += x * y
    return [x % p for x in out]


def _images(field, rows, m):
    """Rows r @ m for rows in kernel form (the numerators of `_form`), in
    kernel form."""
    if field.p is None:
        return [nums for nums, _ in _int_times([(r, 1) for r in rows], m)]
    return [_row_times(field, r, m.rows, m.ncols) for r in rows]


class Mat:
    """Immutable dense matrix, row major."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_int_forms", "_int_cols")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeError("ragged rows")
        elif ncols is None:
            raise ShapeError("empty matrix needs explicit ncols")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_int_forms", None)
        object.__setattr__(self, "_int_cols", None)

    @classmethod
    def _of(cls, field, rows, ncols, forms=None):
        """Trusted constructor for rectangular rows of canonical entries;
        over QQ, forms may give each row as (numerators, denominator)."""
        m = object.__new__(cls)
        rows = tuple(map(tuple, rows))
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "_int_forms", forms)
        object.__setattr__(m, "_int_cols", None)
        return m

    def _forms(self):
        """Each row as (numerators, denominator), over GF(p) over 1.

        Over QQ these are kept from the product that built the matrix,
        else all entries are converted once over a common denominator.
        """
        if self.field.p is not None:
            return [(r, 1) for r in self.rows]
        forms = self._int_forms
        if forms is None:
            n = self.ncols
            flat, den = _int_row([x for r in self.rows for x in r])
            forms = [(flat[i * n:(i + 1) * n], den) for i in range(self.nrows)]
            object.__setattr__(self, "_int_forms", forms)
        return forms

    def _integer_columns(self):
        """(den, [column j of den * self for each j]) over QQ, cached."""
        form = self._int_cols
        if form is None:
            forms = self._int_forms
            if forms is None:
                # a right factor only needs its columns: skip the row forms
                flat, den = _int_row([x for r in self.rows for x in r])
            else:
                den = math.lcm(*[d for _, d in forms])
                flat = []
                for nums, d in forms:
                    flat += nums if d == den else [x * (den // d) for x in nums]
            n = self.ncols
            form = (den, [flat[j::n] for j in range(n)])
            object.__setattr__(self, "_int_cols", form)
        return form

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
        return all(x == 0 for r in self.rows for x in r)

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
        return Mat._of(self.field, [_neg(p, r) for r in self.rows], self.ncols)

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
            forms = _int_times(self._forms(), other)
            return Mat._of(field, [_fractions(*f) for f in forms], other.ncols, forms)
        rows = [_row_times(field, r, other.rows, other.ncols) for r in self.rows]
        return Mat._of(field, rows, other.ncols)

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
        rows = [_canonical(self.field, r, c, n) for r, c in zip(reduced, pivots)]
        return Mat._of(self.field, rows, len(cols))

    def is_invertible(self):
        try:
            self.inverse()
            return True
        except SingularMatrixError:
            return False

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


def _eliminate(field, rows):
    """Gauss-Jordan elimination of rows in kernel form (the numerators of
    `_form`), in place; returns (nonzero rows, pivot cols).

    Over GF(p) the rows are the reduced row echelon form.  Over QQ they
    are primitive integer rows, each its reduced echelon row times the
    pivot entry (Bareiss 1968); `_canonical` divides that out.
    """
    p = field.p
    if p is None:
        return _echelon_int(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            ipiv = field.inv(pivot)
            rows[r] = [(x * ipiv) % p for x in rows[r]]
        prow = rows[r]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _echelon_int(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Row i becomes a*row_i - b*pivot_row, with a and b the pivot and the
    entry divided by their gcd, and is then divided by its content.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    gcd = math.gcd
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pivot = prow[c]
        for i in range(m):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if not f:
                continue
            g = gcd(pivot, f)
            a, b = pivot // g, f // g
            row = [a * x - b * y for x, y in zip(row, prow)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            rows[i] = row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _canonical(field, row, c, start=0):
    """Reduced echelon form, from column start on, of a row of `_eliminate`
    whose pivot is in column c."""
    if field.p is None:
        return _fractions(row[start:], row[c])
    return row[start:]


class Subspace:
    """Row space in canonical reduced echelon form; equality is syntactic."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_int_rows", "_int_cols")

    def __init__(self, field, ambient_dim, basis, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_int_rows", None)
        object.__setattr__(self, "_int_cols", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field, ambient_dim, rows):
        """Canonical subspace spanned by the given rows or `Vec`s."""
        rows = _coerced(field, rows, ambient_dim, "row width differs from ambient dimension")
        return cls._span(field, ambient_dim, rows)

    @classmethod
    def _span(cls, field, ambient_dim, rows):
        """`span` of `Vec`s or canonical rows of width ambient_dim.

        Over QQ the rows may also be integer rows: a span ignores scaling.
        """
        return cls._of_rows(field, ambient_dim, [_form(field, r)[0] for r in rows])

    @classmethod
    def _of_rows(cls, field, ambient_dim, rows):
        """Span of a fresh list of rows in kernel form (see `_eliminate`).

        Over QQ the subspace keeps the primitive integer rows that the
        elimination returns, each with a positive pivot entry.
        """
        reduced, pivots = _eliminate(field, rows)
        if field.p is not None:
            return cls(field, ambient_dim, reduced, pivots)
        ints = [r if r[c] > 0 else [-x for x in r] for r, c in zip(reduced, pivots)]
        s = cls(field, ambient_dim, [_fractions(r, r[c]) for r, c in zip(ints, pivots)], pivots)
        object.__setattr__(s, "_int_rows", ints)
        return s

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field, ambient_dim):
        one, z = field.one, field.zero
        basis = [[one if i == j else z for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(field, ambient_dim, basis, list(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return len(self.basis) == self.ambient_dim

    def basis_vecs(self):
        # over GF(p) the pivot entry is 1, and the form is never read
        return [Vec._of(self.field, r, (ints, ints[c]))
                for r, ints, c in zip(self.basis, self._rows(), self.pivots)]

    def _rows(self):
        """The basis in kernel form (see `_eliminate`).

        Over QQ row i is the primitive integer multiple of basis[i], so
        its pivot entry is its denominator; the rows are kept from the
        elimination that built the subspace, else converted once.
        """
        if self.field.p is not None:
            return self.basis
        rows = self._int_rows
        if rows is None:
            rows = [_int_row(r)[0] for r in self.basis]
            object.__setattr__(self, "_int_rows", rows)
        return rows

    def _integer_columns(self):
        """(den, [(c, column c of den * basis) for each non-pivot c]), cached."""
        form = self._int_cols
        if form is None:
            rows = self._rows()
            dens = [r[c] for r, c in zip(rows, self.pivots)]
            den = math.lcm(*dens)
            scales = [den // d for d in dens]
            free = sorted(set(range(self.ambient_dim)).difference(self.pivots))
            form = (den, [(c, [r[c] * f for r, f in zip(rows, scales)]) for c in free])
            object.__setattr__(self, "_int_cols", form)
        return form

    def _reduce(self, v):
        """Residue of v, a row in kernel form, after elimination against
        the basis.

        Over QQ the residue is taken on the non-pivot columns only (it
        vanishes on the others) and scaled to integers; it is yielded
        lazily, column by column.
        """
        p = self.field.p
        if p is None:
            den, cols = self._integer_columns()
            coeffs = [v[c] for c in self.pivots]
            return (den * v[c] - sum(map(mul, coeffs, col)) for c, col in cols)
        v = list(v)
        for row, piv in zip(self.basis, self.pivots):
            f = v[piv]
            if f == 0:
                continue
            v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    def contains_vec(self, v):
        if not isinstance(v, Vec):
            v = tuple(v)
        if (v.dim if isinstance(v, Vec) else len(v)) != self.ambient_dim:
            raise ShapeError("vector dim differs from ambient dimension")
        return not any(self._reduce(_form(self.field, v)[0]))

    def contains(self, other):
        self._match(other)
        if other.dim > self.dim:
            return False
        return not any(any(self._reduce(r)) for r in other._rows())

    def _match(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimensions differ")

    def sum(self, other):
        self._match(other)
        return Subspace._of_rows(self.field, self.ambient_dim, [*self._rows(), *other._rows()])

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
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def _extend(self, rows, dim=None):
        """(new, span): the rows, in order, that lie outside the span of
        this subspace and the rows before them, and the span they complete.

        Rows are `Vec`s or canonical tuples; `new` holds them as given.
        Stops once the span reaches dimension dim (default: the ambient one).
        """
        dim = self.ambient_dim if dim is None else dim
        field, p = self.field, self.field.p
        # (pivot, row), monic over GF(p), primitive over QQ, and zero left of
        # its pivot and at earlier pivots: one pass clears a new row's pivots
        echelon = list(zip(self.pivots, self._rows()))
        new, residues = [], []
        for row in rows:
            if len(echelon) >= dim:
                break
            v = _form(field, row)[0]
            for c, e in echelon:
                f = v[c]
                if f and p is not None:
                    v = [(x - f * y) % p for x, y in zip(v, e)]
                elif f:
                    g = math.gcd(e[c], f)
                    a, b = e[c] // g, f // g
                    v = [a * x - b * y for x, y in zip(v, e)]
            c = next((j for j, x in enumerate(v) if x), None)
            if c is None:
                continue
            if p is not None:
                v = _scale(p, field.inv(v[c]), v)
            else:
                g = math.gcd(*v)
                v = [x // g for x in v]
            echelon.append((c, v))
            new.append(row)
            residues.append(v)
        if not new:
            return new, self
        return new, Subspace._of_rows(field, self.ambient_dim, [*self._rows(), *residues])

    def apply(self, m):
        """Image of this subspace under the row action of m."""
        if m.nrows != self.ambient_dim:
            raise ShapeError("matrix height differs from ambient dimension")
        return Subspace._of_rows(self.field, m.ncols, _images(self.field, self._rows(), m))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in r) for r in self.basis)
        return f"Subspace<{self.dim} of {self.ambient_dim}: {body}>"


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
    return [tuple(_canonical(field, r, c, ncols)) for r, c in zip(reduced, pivots) if c >= ncols]


def complement_basis(u, w):
    """Rows of w's canonical basis extending u to w, in pivot order.

    The returned vectors are coset representatives: they project to a
    basis of w/u.
    """
    u._match(w)
    if not w.contains(u):
        raise ContainmentError("first subspace is not contained in the second")
    chosen, _ = u._extend(w.basis_vecs(), w.dim)
    return chosen


def complement_in(u, w):
    """Deterministic complement c with u + c = w and u & c = 0."""
    vecs = complement_basis(u, w)
    return Subspace._span(u.field, u.ambient_dim, vecs)


class QuotientMap:
    """Coordinates on w/u through the deterministic complement basis.

    Representatives are the rows of `complement_basis(u, w)`, so the map
    is canonical for a given pair (u, w).
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
        """Ambient-to-quotient coordinate matrix (only when w is everything)."""
        if not self.w.is_full():
            raise ShapeError("projection matrix needs the full space on top")
        n = self.u.ambient_dim
        rows = [self.project(Vec.unit(self.field, n, i)).entries for i in range(n)]
        return Mat._of(self.field, rows, self.dim)


class LinearSolver:
    """Solves y @ M = target for a fixed stack of rows M.

    Row reduces the transpose of M once, with an identity tag block, so
    each solve costs one small matrix-vector product.  Free coefficients
    are set to zero, which makes the answer deterministic when the rows
    of M are dependent.
    """

    def __init__(self, field, rows, ncols):
        rows = _coerced(field, rows, ncols, "row width differs")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        # The columns of den * M, for a common denominator den of the rows,
        # with a den * identity tag block: over QQ a positive multiple of
        # each row to eliminate, which elimination divides out.
        forms = [_form(field, r) for r in rows]
        den = math.lcm(*[d for _, d in forms])
        scaled = [nums if d == den else [x * (den // d) for x in nums] for nums, d in forms]
        columns = [([r[j] for r in scaled], den) for j in range(ncols)]
        reduced, pivots = _tagged(field, columns, range(ncols))
        m = self.nrows
        # Tag blocks of the reduced rows; over QQ each is an integer row
        # that still has to be divided by its row's pivot entry.
        self._tags = [r[m:] for r in reduced]
        self._scales = [r[c] for r, c in zip(reduced, pivots)]
        self._pivots = pivots

    def solve(self, target):
        """Coefficient row y with y @ M = target, or None."""
        entries = target.entries if isinstance(target, Vec) else tuple(target)
        if len(entries) != self.ncols:
            raise ShapeError("target width differs")
        field = self.field
        m = self.nrows
        if field.p is None:
            nums, den = _form(field, target if isinstance(target, Vec) else entries)
            sums = [sum(map(mul, tag, nums)) for tag in self._tags]
            if any(s for s, piv in zip(sums, self._pivots) if piv >= m):
                return None
            y = [_ZERO] * m
            for s, scale, piv in zip(sums, self._scales, self._pivots):
                if s:
                    y[piv] = Fraction(s, scale * den)
            return y
        p = field.p
        y = [0] * m
        for tag, piv in zip(self._tags, self._pivots):
            val = sum(map(mul, tag, entries)) % p
            if piv < m:
                y[piv] = val
            elif val != 0:
                return None
        return y

    def contains(self, target):
        return self.solve(target) is not None

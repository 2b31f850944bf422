"""Exact scalars, vectors, matrices and canonical subspaces.

Scalars are ints reduced mod p over GF(p) and `fractions.Fraction`s over
QQ; no floating point anywhere.  Vectors are rows and act on the right of
matrices (v @ g), so kernels are left null spaces and images are row spaces.

Every kernel works on integer rows through its field's row kernels,
`Field._ops`, chosen once, in `Field.__init__`; no other code reads p to
choose a path.  There are three kinds:
- `_Rationals`, for QQ: a row's form is its integer numerators over one
  denominator, and elimination is fraction-free (Bareiss 1968), each
  echelon row primitive with a positive lead;
- `_ListPrimes`, for GF(p) with p > 13: the same integer lists reduced
  mod p, each row its own form over 1, echelon rows monic;
- `_PackedPrimes`, for GF(p) with p <= 13, with the list primes' scalar
  ops: a row packed into one int, an 8-bit slot per column, column 0 in
  the top byte (Albrecht, Bard and Hart 2010; Dumas, Fousse and Salvy
  2011).  A slot cleared by adding (p - f) times a monic row holds at most
  (p - 1) + (p - 1)^2 <= 156, so one byte translation reduces every slot
  mod p; over GF(2) a clear is an XOR.
A kind holds the forms of rows and their sums and multiples, products
(`_row_map`), the steps of elimination (`_residue`, `_lead`, `_clear`,
`_unpacked`, the order of keys) and of membership (`_reduce`,
`_contains`, `_packed`), and what the trusted constructors `Vec._of`,
`Mat._of` and `Subspace._of` keep.  Kernels bind its methods once per call.

All elimination is one `_echelon`, a forward pass and one
back-substitution, on [A | d*I] blocks (`_tagged`) for kernels, inverses
and solvers.  Every product is one loop, `_images`, over a matrix's
right-factor form (`Mat._right`); a list row's residue modulo a subspace
(taken on its non-pivot columns: clearing pivot by pivot would cost a gcd
and a rescaling per pivot over QQ) and a `LinearSolver`'s solves are
`_row_map` products too.  On list rows a product by a row with at most a
quarter of its entries nonzero, and of the result's columns (`_sparse`),
sums the rows it selects (`_combine`; Gustavson 1978).

Over QQ every `Vec`, `Mat` and `Subspace` holds its integer form from
construction: a `Vec` its numerators over one denominator in lowest terms
(`_int`), which `==` compares; a `Mat` one such pair per row
(`_int_forms`); a `Subspace` its primitive integer rows (`_int_rows`),
each over its pivot entry.  Objects made from forms alone build their
`Fraction`s on first read (`_lazy`).  Over GF(p) a row is its own form.

Canonical in, canonical out: every entry held is an int in [0, p) or a
`Fraction`.  The public constructors and the entries that take one raw
row (`Subspace.contains_vec`, `LinearSolver.solve`) coerce; kernel results
go through the trusted constructors.  Spans grow through
`Subspace._extend`, the forward pass of `_echelon` from a subspace's pairs.
"""

import math
import re
from fractions import Fraction
from itertools import compress, repeat
from operator import add, itemgetter, mul, sub

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
_set = object.__setattr__


class Field:
    """GF(p) for prime p, or the rationals when p is None."""

    __slots__ = ("p", "is_prime_field", "zero", "one", "_ops")

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        _set(self, "p", p)
        _set(self, "is_prime_field", p is not None)
        _set(self, "zero", _ZERO if p is None else 0)
        _set(self, "one", _ONE if p is None else 1)
        # the field's row kernels: the one place a kernel path is chosen
        _set(self, "_ops", _Rationals() if p is None else
             _PackedPrimes(p) if p <= 13 else _ListPrimes(p))

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def coerce(self, x):
        if self.p is not None:
            return int(x) % self.p
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p) if self.p is not None else 1 / a

    def parse(self, text):
        """Parse 'a', or 'a/b' over QQ, into a canonical scalar; a and b
        are ASCII decimal integers with an optional sign."""
        return self._ops._entry(*self._ratio(text))

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
        return str(x)  # a Fraction prints as n, or n/d in lowest terms

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p is not None else "QQ"


def GF(p):
    return Field(p)


# -- the row kernels of each kind of field (see the module docstring) ---------


class _Rationals:
    """QQ's row kernels, on integer list rows: forms are (numerators,
    denominator), and echelon rows are primitive with a positive lead,
    keyed by their pivot column."""

    __slots__ = ()
    _descending = False  # the order of `_echelon` keys: pivot columns ascend

    def _entry(self, num, den):
        return Fraction(num, den)

    def _entries(self, nums, den):
        """Canonical entries of the form (nums, den)."""
        if den == 1:
            return [Fraction(x) if x else _ZERO for x in nums]
        return [Fraction(x, den) if x else _ZERO for x in nums]

    def _form(self, row):
        """(numerators, denominator) of a `Vec` or canonical row; the
        numerators alone do for spans and membership."""
        if isinstance(row, Vec):
            return row._int
        if all(type(x) is int for x in row):
            return row, 1
        return _int_row(row)

    def _row_form(self, ratios):
        """The form of a parsed row, at least one `Field._ratio`."""
        den = math.lcm(*[d for _, d in ratios])
        return [n * (den // d) for n, d in ratios], den

    def _plus(self, a, b, sign):
        """a + sign * b (sign +-1) for forms, over their lcm."""
        den, (x, y) = _common([a, b])
        return list(map(add if sign > 0 else sub, x, y)), den

    def _scale(self, c, form):
        """c times a form, for a canonical scalar c."""
        n, d = c.as_integer_ratio()
        return [n * x for x in form[0]], d * form[1]

    def _shift(self, m, c):
        """The forms of the rows of m + c, for a square `Mat` m and an integer c."""
        return [([*x[:i], x[i] + c * d, *x[i + 1:]], d) for i, (x, d) in enumerate(m._int_forms)]

    def _row_map(self, rows, ncols):
        """x -> x @ M on integer rows x, for M with these integer rows: the
        sum of the rows a sparse x selects, else a dot product per column."""
        cols = None

        def times(x):
            nonlocal cols
            if _sparse(x, ncols):
                return _combine([0] * ncols, x, rows)
            cols = cols or list(zip(*rows))
            return [sum(map(mul, x, col)) for col in cols]
        return times

    def _residue(self, n, v, echelon):
        """Row v of width n cleared in turn by each (key, row) pair of echelon,
        whose row is normalized at its key and zero at the keys before it."""
        clear = self._clear
        for c, e in echelon:
            if v[c]:
                v = clear(v, e, c)
        return v

    def _clear(self, v, e, c):
        """v with column c cleared by the echelon row e whose pivot is c:
        a*v - b*e, for the pivot and v[c] over their gcd, over its content."""
        f = v[c]
        g = math.gcd(e[c], f)
        a, b = e[c] // g, f // g
        v = [a * x - b * y for x, y in zip(v, e)]
        g = math.gcd(*v)
        return [x // g for x in v] if g > 1 else v

    def _lead(self, n, v):
        """(key, v normalized there) for a `_residue` v, or None when v is 0."""
        lead = next(filter(None, v), 0)  # the first nonzero entry, at C speed
        if not lead:
            return None
        g = math.gcd(*v) if lead > 0 else -math.gcd(*v)
        return v.index(lead), v if g == 1 else [x // g for x in v]

    def _unpacked(self, n, pairs):
        """(rows, pivot columns) of `_echelon` pairs."""
        return [e for _, e in pairs], [c for c, _ in pairs]

    def _reduce(self, s, v):
        """`Subspace._reduce`: den * v on s's non-pivot columns minus v's
        pivot entries times the basis there (`_integer_columns`)."""
        den, free, times = s._integer_columns()
        return [den * v[c] - y for c, y in zip(free, times([v[c] for c in s.pivots]))]

    def _contains(self, s, other):
        return not any(any(s._reduce(r)) for r in other._int_rows)

    def _packed(self, s):
        return list(zip(s.pivots, s._int_rows))

    # What the trusted constructors keep of entries, forms or both: always the
    # forms, from `_int_row` if not given (a `Mat`'s over one denominator).
    def _vec(self, entries, form):
        return entries, form or _int_row(entries)

    def _mat(self, rows, ncols, forms):
        if forms is None:
            flat, den = _int_row([x for r in rows for x in r])
            forms = [(flat[i * ncols:(i + 1) * ncols], den) for i in range(len(rows))]
        return rows, forms

    def _subspace(self, rows, pairs):
        """(basis, `_int_rows`, `_packed` pairs) of a `Subspace`."""
        return None, rows, None


class _ListPrimes(_Rationals):
    """GF(p)'s row kernels for p > 13: QQ's integer list rows reduced mod p,
    each its own form over 1; echelon rows are monic."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def _entry(self, num, den):
        return num

    def _entries(self, nums, den):
        return nums

    def _form(self, row):
        return row.entries if isinstance(row, Vec) else row, 1

    def _row_form(self, ratios):
        return [n for n, _ in ratios], 1

    def _plus(self, a, b, sign):
        p = self.p
        return [(x + sign * y) % p for x, y in zip(a[0], b[0])], 1

    def _scale(self, c, form):
        p = self.p
        return [c * x % p for x in form[0]], 1

    def _shift(self, m, c):
        p = self.p
        return [((*r[:i], (r[i] + c) % p, *r[i + 1:]), 1) for i, r in enumerate(m.rows)]

    def _row_map(self, rows, ncols):
        p, cols = self.p, None

        def times(x):
            nonlocal cols
            if _sparse(x, ncols):
                out = _combine([0] * ncols, x, rows)
            else:
                cols = cols or list(zip(*rows))
                out = [sum(map(mul, x, col)) for col in cols]
            return [y % p for y in out]
        return times

    def _clear(self, v, e, c):
        f, p = v[c], self.p
        return [(x - f * y) % p for x, y in zip(v, e)]

    def _lead(self, n, v):
        lead = next(filter(None, v), 0)  # the first nonzero entry, at C speed
        if not lead:
            return None
        i, p = v.index(lead), self.p
        if lead != 1:
            c = pow(lead, -1, p)
            v = [c * x % p for x in v]
        return i, v

    def _reduce(self, s, v):
        p = self.p
        return [x % p for x in _Rationals._reduce(self, s, v)]

    # kept: the entries alone; a `Subspace`'s basis is its integer rows
    def _vec(self, entries, form):
        return form[0] if entries is None else entries, None

    def _mat(self, rows, ncols, forms):
        return tuple([tuple(nums) for nums, _ in forms]) if rows is None else rows, None

    def _subspace(self, rows, pairs):
        basis = tuple(map(tuple, rows))
        return basis, basis, pairs


class _PackedPrimes(_ListPrimes):
    """GF(p)'s row kernels for p <= 13: rows packed into ints (`_pack`),
    echelon rows monic, keyed by the shift of their leading slot."""

    __slots__ = ("_table",)
    _descending = True  # a larger shift is an earlier column
    _MOD = {p: bytes(x % p for x in range(256)) for p in (2, 3, 5, 7, 11, 13)}  # byte -> byte % p

    def __init__(self, p):
        super().__init__(p)
        self._table = self._MOD[p]

    def _row_map(self, rows, ncols):
        """x @ M summed in the slots of M's rows, packed once, over x's nonzero
        entries, reduced mod p whenever another term could carry out of a byte."""
        p, table = self.p, self._table
        words, room = [_pack(r) for r in rows], (256 - p) // (p - 1) ** 2

        def times(x):
            acc, left = 0, room
            for a, w in zip(x, words):
                if a:
                    if not left:
                        acc = int.from_bytes(acc.to_bytes(ncols, "big").translate(table), "big")
                        left = room
                    acc += a * w
                    left -= 1
            return acc.to_bytes(ncols, "big").translate(table)
        return times

    def _residue(self, n, v, echelon):
        """v may be a list and comes back packed; a slot holding f is cleared
        by adding (p - f) times the row, over GF(2) by an XOR."""
        if type(v) is not int:
            v = _pack(v)
        p, table = self.p, self._table
        for s, e in echelon:
            f = v >> s & 255
            if f:
                v = v ^ e if p == 2 else int.from_bytes(
                    (v + (p - f) * e).to_bytes(n, "big").translate(table), "big")
        return v

    def _lead(self, n, v):
        if not v:
            return None
        s = v.bit_length() - 1 & ~7
        if v >> s != 1:
            v = int.from_bytes(
                (v * pow(v >> s, -1, self.p)).to_bytes(n, "big").translate(self._table), "big")
        return s, v

    def _unpacked(self, n, pairs):
        return [e.to_bytes(n, "big") for _, e in pairs], [n - 1 - (s >> 3) for s, _ in pairs]

    def _reduce(self, s, v):
        """The packed residue of the whole row, as bytes."""
        n = s.ambient_dim
        return self._residue(n, v, s._packed()).to_bytes(n, "big")

    def _contains(self, s, other):
        pairs, n = s._packed(), s.ambient_dim
        return not any(self._residue(n, e, pairs) for _, e in other._packed())

    def _packed(self, s):
        n = s.ambient_dim
        pairs = [(8 * (n - 1 - c), _pack(r)) for r, c in zip(s.basis, s.pivots)]
        _set(s, "_pairs", pairs)
        return pairs


QQ = Field(None)


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


def _lazy(cls, name, build):
    """The subclass of cls, of the same name, for QQ objects made from forms
    alone: the first read of slot name fills it with build(self).  cls has no
    `__getattr__`, which would slow every attribute read of its objects."""
    def __getattr__(self, attr):
        if attr != name:
            raise AttributeError(attr)
        value = build(self)
        _set(self, name, value)
        return value
    return type(cls.__name__, (cls,), {"__slots__": (), "__getattr__": __getattr__})


class Vec:
    """Immutable row vector with exact entries."""

    __slots__ = ("field", "entries", "_int")

    def __new__(cls, field, entries):
        return cls._of(field, [field.coerce(x) for x in entries])

    @staticmethod
    def _of(field, entries, form=None):
        """Trusted constructor from canonical entries, a form (`_int`, in
        lowest terms) or both, keeping what the field's `_vec` says."""
        entries, form = field._ops._vec(entries, form)
        if entries is None:
            v = object.__new__(_LazyVec)
        else:
            v = object.__new__(Vec)
            _set(v, "entries", tuple(entries))
        _set(v, "field", field)
        _set(v, "_int", form)
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

    def __add__(self, other, sign=1):
        self._match(other)
        ops = self.field._ops
        nums, den = ops._plus(ops._form(self), ops._form(other), sign)
        return Vec._of(self.field, None, _lowest(nums, den))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        ops = self.field._ops
        nums, den = ops._scale(self.field.coerce(c), ops._form(self))
        return Vec._of(self.field, None, _lowest(nums, den))

    def __matmul__(self, m):
        """Row action v @ g."""
        if not isinstance(m, Mat):
            return NotImplemented
        _check_same_field(self, m)
        if self.dim != m.nrows:
            raise ShapeError("vector/matrix shapes differ")
        (form,) = _images([self.field._ops._form(self)], m)
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


_LazyVec = _lazy(Vec, "entries", lambda v: tuple(v.field._ops._entries(*v._int)))


def _int_row(row):
    """(numerators, denominator) of a row of Fractions or ints over its lcm denominator."""
    pairs = [x.as_integer_ratio() for x in row]
    den = math.lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def _reduced_leads(forms, n):
    """The lead columns of rows of width n, given as forms, when they are in
    reduced echelon form (leads increasing, each lead entry the row's
    denominator and alone in its column), else None."""
    ints, leads = [nums for nums, _ in forms], []
    for i, (nums, d) in enumerate(forms):
        lead = next(filter(None, nums), 0)  # the first nonzero entry, at C speed
        c = nums.index(lead) if lead else n
        if not (leads[-1] if leads else -1) < c < n or lead != d or any(
                map(itemgetter(c), ints[:i])):
            return None
        leads.append(c)
    return leads


def _lowest(nums, den):
    """The form (nums, den > 0) in lowest terms."""
    if den > 1:
        g = math.gcd(den, *nums)
        if g > 1:
            return [x // g for x in nums], den // g
    return nums, den


def _coerced(field, r, width, message):
    """A row as a `Vec` of the field, one of the field kept whole;
    ShapeError(message) unless it has the width."""
    if not (isinstance(r, Vec) and r.field == field):
        r = Vec(field, r)
    if r.dim != width:
        raise ShapeError(message)
    return r


def _common(forms):
    """(den, rows): den the lcm of the forms' denominators, and each form's
    numerators brought over it."""
    den = math.lcm(*[d for _, d in forms])
    return den, [nums if d == den else list(map(mul, repeat(den // d), nums)) for nums, d in forms]


def _sparse(coeffs, width):
    """Whether at most a quarter of the coefficients (ints), and of width, are
    nonzero: then combining their rows beats width dot products."""
    return 4 * (len(coeffs) - coeffs.count(0)) <= min(len(coeffs), width)


def _combine(acc, coeffs, rows):
    """acc + c * row for each nonzero c of coeffs and its row."""
    for c, row in zip(filter(None, coeffs), compress(rows, coeffs)):
        acc = list(map(add, acc, row if c == 1 else map(mul, repeat(c), row)))
    return acc


def _images(forms, m):
    """r @ m for forms r, as forms in lowest terms: each numerator row through
    m's right factor (`Mat._right`), the denominators multiplied."""
    den, times = m._right()
    out = []
    for nums, d in forms:
        prod, d = times(nums), d * den
        out.append((prod, d) if d == 1 else _lowest(prod, d))
    return out


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

    @staticmethod
    def _of(field, rows, ncols, forms=None):
        """Trusted constructor from rectangular rows of canonical entries,
        forms (`_int_forms`) or both, keeping what the field's `_mat` says."""
        rows = rows if rows is None else tuple(map(tuple, rows))
        rows, forms = field._ops._mat(rows, ncols, forms)
        if rows is None:
            m = object.__new__(_LazyMat)
        else:
            m = object.__new__(Mat)
            _set(m, "rows", rows)
        _set(m, "field", field)
        _set(m, "nrows", len(forms if rows is None else rows))
        _set(m, "ncols", ncols)
        _set(m, "_int_forms", forms)
        _set(m, "_as_factor", None)
        return m

    def _forms(self):
        """Each row as a form: the kept `_int_forms`, or the rows over 1."""
        forms = self._int_forms
        return [(r, 1) for r in self.rows] if forms is None else forms

    def _right(self):
        """(den, times): den * self has integer rows, den = 1 over GF(p), and
        times is x -> x @ (den * self) on integer rows (`_row_map`); cached."""
        factor = self._as_factor
        if factor is None:
            forms = self._int_forms  # none kept: the rows are their own forms
            den, rows = (1, self.rows) if forms is None else _common(forms)
            factor = den, self.field._ops._row_map(rows, self.ncols)
            _set(self, "_as_factor", factor)
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
        one = self.field.one
        return self.is_square() and all(
            x == (one if i == j else 0) for i, r in enumerate(self.rows) for j, x in enumerate(r))

    def __add__(self, other, sign=1):
        self._match(other)
        plus = self.field._ops._plus
        forms = [plus(a, b, sign) for a, b in zip(self._forms(), other._forms())]
        return Mat._of(self.field, None, self.ncols, forms)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def _match(self, other):
        _check_same_field(self, other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("matrix shapes differ")

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c, scale = self.field.coerce(c), self.field._ops._scale
        return Mat._of(self.field, None, self.ncols, [scale(c, f) for f in self._forms()])

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        _check_same_field(self, other)
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions differ")
        return Mat._of(self.field, None, other.ncols, _images(self._forms(), other))

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


_LazyMat = _lazy(Mat, "rows", lambda m: tuple(
    tuple(m.field._ops._entries(*f)) for f in m._int_forms))


# -- one elimination for every row form (see the module docstring) ------------


def _pack(row):
    """A row of canonical GF(p) entries as one int."""
    return int.from_bytes(bytes(row), "big")


def _echelon(ops, n, rows, start=()):
    """The (key, row) pairs, in pivot order, of the reduced echelon form of
    rows of width n and of start, pairs in that form already, by the row
    kernels ops: a forward pass from start appends each row's nonzero
    residue, normalized, until the width is reached; a back-substitution
    from the bottom up clears each row by the reduced rows below it."""
    residue, lead = ops._residue, ops._lead
    out = list(start)
    for v in rows:
        if len(out) == n:
            break
        v = residue(n, v, out)
        pair = v and lead(n, v)  # a zero packed residue is 0
        if pair:
            out.append(pair)
    out.sort(reverse=ops._descending)
    for i in range(len(out) - 2, -1, -1):
        out[i] = out[i][0], residue(n, out[i][1], out[i + 1:])
    return out


def _eliminate(field, rows):
    """(nonzero rows, pivot cols) of the reduced echelon form of rows in
    kernel form (the numerators of `_form`), by one `_echelon`."""
    n, ops = len(rows[0]) if rows else 0, field._ops
    return ops._unpacked(n, _echelon(ops, n, rows))


class Subspace:
    """Row space in canonical reduced echelon form; equality is syntactic."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_int_rows", "_pairs", "_int_cols")

    def __new__(cls, field, ambient_dim, basis, pivots):
        """The subspace with this basis and these pivots; ValueError unless
        the coerced basis is in reduced echelon form with exactly those pivots."""
        form = field._ops._form
        forms = [form([field.coerce(x) for x in r]) for r in basis]
        if any(len(nums) != ambient_dim for nums, _ in forms) or (
                _reduced_leads(forms, ambient_dim) != list(pivots)):
            raise ValueError("basis is not in reduced echelon form with these pivots")
        return cls._of(field, ambient_dim, [nums for nums, _ in forms], pivots)

    @staticmethod
    def _of(field, ambient_dim, rows, pivots, pairs=None):
        """Trusted constructor from the kernel rows, the pivots and, if
        given, the `_echelon` pairs, keeping what the field's `_subspace` says."""
        basis, rows, pairs = field._ops._subspace(rows, pairs)
        if basis is None:
            s = object.__new__(_LazySubspace)
        else:
            s = object.__new__(Subspace)
            _set(s, "basis", basis)
        _set(s, "_int_rows", rows)
        _set(s, "_pairs", pairs)
        _set(s, "field", field)
        _set(s, "ambient_dim", ambient_dim)
        _set(s, "pivots", tuple(pivots))
        _set(s, "_int_cols", None)
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
        """`span` of `Vec`s, canonical rows or integer rows of width ambient_dim."""
        form = field._ops._form
        return cls._of_rows(field, ambient_dim, [form(r)[0] for r in rows])

    @classmethod
    def _of_rows(cls, field, ambient_dim, rows, start=()):
        """Span of rows in kernel form (see `_eliminate`; packed ints too for
        packed primes) and of the `_echelon` pairs start."""
        ops = field._ops
        pairs = _echelon(ops, ambient_dim, rows, start)
        ints, pivots = ops._unpacked(ambient_dim, pairs)
        return cls._of(field, ambient_dim, ints, pivots, pairs)

    @classmethod
    def _parsed(cls, field, ambient_dim, forms):
        """Span of parsed row forms: a block in reduced echelon form is its
        own canonical basis and keeps its numerators; others go through `_span`."""
        ints, leads = [nums for nums, _ in forms], _reduced_leads(forms, ambient_dim)
        if leads is None:
            return cls._span(field, ambient_dim, ints)
        return cls._of(field, ambient_dim, ints, leads)

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
        """Each basis row as a form: its kernel row over the pivot entry."""
        return [(r, r[c]) for r, c in zip(self._int_rows, self.pivots)]

    def _rows(self):
        """The basis in kernel form (see `_eliminate`)."""
        return self._int_rows

    def _packed(self):
        """The basis as `_echelon` (key, row) pairs: kept, or the field's `_packed`."""
        return self._pairs or self.field._ops._packed(self)

    def _integer_columns(self):
        """(den, non-pivot columns, times), cached: times is x -> x @ B
        (`_row_map`) for B den * basis on those columns, an integer matrix."""
        form = self._int_cols
        if form is None:
            den, rows = _common(self._forms())
            free = sorted(set(range(self.ambient_dim)).difference(self.pivots))
            times = self.field._ops._row_map([[r[c] for c in free] for r in rows], len(free))
            form = den, free, times
            _set(self, "_int_cols", form)
        return form

    def _reduce(self, v):
        """Residue of v, a row in kernel form, modulo the basis: zero exactly
        for members (the field's `_reduce`)."""
        return self.field._ops._reduce(self, v)

    def contains_vec(self, v):
        v = _coerced(self.field, v, self.ambient_dim, "vector dim differs from ambient dimension")
        return not any(self._reduce(self.field._ops._form(v)[0]))

    def contains(self, other):
        self._match(other)
        if self.is_full():  # every subspace of F^n lies in F^n
            return True
        if other.dim > self.dim:
            return False
        return self.field._ops._contains(self, other)

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
        """Zassenhaus double-block elimination, unless the smaller operand lies
        in the larger one: then it is the answer, by canonical form."""
        self._match(other)
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        if big.is_full() or big.contains(small):
            return small
        n = self.ambient_dim
        zeros = [0] * n
        rows = [[*r, *r] for r in self._int_rows] + [[*r, *zeros] for r in other._int_rows]
        reduced, pivots = _eliminate(self.field, rows)
        out = [r[n:] for r, c in zip(reduced, pivots) if c >= n]
        return Subspace._of_rows(self.field, n, out)

    __add__, __and__ = sum, intersect

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
            # the kernel rows are canonical
            and [*map(tuple, self._int_rows)] == [*map(tuple, other._int_rows)]
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def _extend(self, rows, dim=None):
        """The rows (`Vec`s or canonical tuples, in any iterable), as given
        and in order, that lie outside the span of this subspace and the
        rows before them; it stops, drawing no other row, once the span
        reaches dimension dim (default: the ambient one)."""
        dim = self.ambient_dim if dim is None else dim
        ops, n = self.field._ops, self.ambient_dim
        form, residue, lead = ops._form, ops._residue, ops._lead
        # the forward pass of `_echelon`, from this subspace's pairs
        echelon, new = list(self._packed()), []
        for row in rows if len(echelon) < dim else ():
            pair = lead(n, residue(n, form(row)[0], echelon))
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
        images = _images([(r, 1) for r in self._int_rows], m)
        return not any(any(self._reduce(v)) for v, _ in images)

    def apply(self, m):
        """Image of this subspace under the row action of m."""
        if m.nrows != self.ambient_dim:
            raise ShapeError("matrix height differs from ambient dimension")
        images = _images([(r, 1) for r in self._int_rows], m)
        return Subspace._of_rows(self.field, m.ncols, [nums for nums, _ in images])

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in r) for r in self.basis)
        return f"Subspace<{self.dim} of {self.ambient_dim}: {body}>"


_LazySubspace = _lazy(Subspace, "basis", lambda s: tuple(
    tuple(s.field._ops._entries(r, r[c])) for r, c in zip(s._int_rows, s.pivots)))


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
    ops = field._ops
    reduced, pivots = _tagged(field, [ops._form(r) for r in rows], range(len(rows)))
    return [tuple(ops._entries(r[ncols:], r[c])) for r, c in zip(reduced, pivots) if c >= ncols]


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
        self.u, self.w, self.reps, self.field = u, w, tuple(reps), u.field
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
                cols[piv] = self.field._ops._entries(tag, scale)
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
        self.field, self.nrows, self.ncols = field, len(rows), ncols
        # the columns of den * M, den a common denominator of the rows, with
        # a den * identity tag block: positive multiples of the rows meant
        den, scaled = _common([field._ops._form(r) for r in rows])
        columns = [([r[j] for r in scaled], den) for j in range(ncols)]
        reduced, pivots = _tagged(field, columns, range(ncols))
        m = self.nrows
        # the reduced rows' tag blocks, each over its pivot entry; their
        # products with a target are one `_row_map` of the tag columns
        self._tags = [r[m:] for r in reduced]
        self._scales = [r[c] for r, c in zip(reduced, pivots)]
        self._pivots = pivots
        self._inside = sum(c < m for c in pivots)  # pivots ascend: these rows give y
        cols = [[t[j] for t in self._tags] for j in range(ncols)]
        self._dots = field._ops._row_map(cols, len(reduced))

    def solve(self, target):
        """Coefficient row y with y @ M = target, or None."""
        ops = self.field._ops
        target = _coerced(self.field, target, self.ncols, "target width differs")
        nums, den = ops._form(target)
        sums = self._dots(nums)
        if any(sums[self._inside:]):
            return None
        y = [self.field.zero] * self.nrows
        for s, scale, piv in zip(sums, self._scales, self._pivots):
            if s:
                y[piv] = ops._entry(s, scale * den)
        return y

    def contains(self, target):
        return self.solve(target) is not None

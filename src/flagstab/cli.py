"""Line-oriented problem files and the command line interface.

Grammar (UTF-8, `#` starts a comment):

    field gf <p> | field q
    dim <d>
    matrix <name>          followed by d rows of d scalars
    map <name> <r> <c>     followed by r rows of c scalars
    series <name> <m>      followed by m blocks: `subspace <rows>` + rows
                           (V and 0 are implied members)
    mclain <name> <t>      followed by t lines: `r s coeff` (r < s rational)
    certificate            followed by `r <int>`, `h` + d rows, `probe` + row

Scalars are integers 0..p-1 over GF(p) and `a` or `a/b` over the
rationals, written with ASCII digits and an optional sign; a name may
appear once per kind of section, and a file holds at most one
certificate.  `dim` is at most MAX_DIM (256): each series builds d x d
matrices, so a short file with a large d would run for minutes.

`parse_problem` does each piece of work once: it parses each distinct
scalar token once, over QQ into a (numerator, denominator) pair in lowest
terms with no `Fraction` (`Field._ratio`), reads each distinct row line once
into its kernel form (`linalg._row_form`), hands the parsed objects to the
trusted constructors of `linalg` with their forms, and checks each series
once, in `validate`.  An early end of file is reported on the line after
the last one.  `format_problem` prints each row from its form, each entry
`n` or `n/d` in lowest terms, as `str` prints the canonical scalar.

Reports on stdout are stable `key=value` lines; exit code 0 means
verified/success, 1 a verified negative, 2 an input error (a file that
is not valid UTF-8 included).
"""

import argparse
import contextlib
import math
import re
import sys
from fractions import Fraction
from itertools import repeat

from .builder import GeneratorSet, McLainElement, mclain_truncate, module_lcs, refine_series
from .decomposition import SectionAssignment, patch_sections, split_chain
from .errors import FlagstabError, NotUnipotentError, ParseError, RefinementObstruction
from .errors import ShapeError, WitnessError
from .instances import adapted_basis_of, witness_instance, _chain_layout
from .linalg import GF, QQ, Mat, Subspace, Vec, _form, _row_form
from .series import canonical_coarsening, in_stabilizer, validate
from .transvections import _annihilating_spec, transvection_commutator_check
from .unipotent import jordan_blocks, unipotent_exponent
from .witness import WitnessCertificate, construct_witness, extend_witness, verify_witness

__all__ = ["ProblemFile", "parse_problem", "format_problem", "run", "main"]

MAX_DIM = 256


class ProblemFile:
    """Parsed problem file: named matrices, maps, series, McLain data."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.matrices = {}
        self.maps = {}
        self.series = {}
        self.mclain = {}
        self.certificate = None

    def __eq__(self, other):
        return (
            isinstance(other, ProblemFile)
            and self.field == other.field
            and self.dim == other.dim
            and self.matrices == other.matrices
            and self.maps == other.maps
            and self.series == other.series
            and {k: tuple(v.terms for v in els) or None for k, els in self.mclain.items()}
            == {k: tuple(v.terms for v in els) or None for k, els in other.mclain.items()}
            and self._cert_key() == other._cert_key()
        )

    def _cert_key(self):
        if self.certificate is None:
            return None
        c = self.certificate
        return (c.h, c.r, c.probe)


class _Lines:
    def __init__(self, text):
        raws = text.splitlines()
        lines = ((i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(raws, start=1))
        self.items = [item for item in lines if item[1]]
        self.pos = 0
        self.end = len(raws) + 1  # where an early end of file is reported

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self, context):
        if self.pos >= len(self.items):
            raise ParseError(self.end, f"unexpected end of file while reading {context}")
        item = self.items[self.pos]
        self.pos += 1
        return item


def _is_count(tok):
    return tok.isascii() and tok.isdigit()


def _count(tok):
    """The value of a count token, or None when tok is not one or has more
    digits than `int` converts (4,300 by default)."""
    if _is_count(tok):
        with contextlib.suppress(ValueError):
            return int(tok)
    return None


# `int` alone would also take underscores, whitespace and non-ASCII digits.
_INT = re.compile(r"[+-]?[0-9]+")


def _int(tok):
    """The value of an ASCII decimal integer with an optional sign."""
    if not _INT.fullmatch(tok):
        raise ValueError(f"invalid integer {tok!r}")
    return int(tok)


class _Scalars(dict):
    """(numerator, denominator) of each scalar token of one file in lowest
    terms (`Field._ratio`), and the width and `_row_form` of each distinct
    row line: rows share the forms, which no kernel mutates."""

    def __init__(self, field):
        super().__init__()
        self.field = field
        self.rows = {}

    def __missing__(self, tok):
        ratio = self[tok] = self.field._ratio(tok)
        return ratio

    def scalar(self, tok, lineno):
        try:
            return self[tok]
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad scalar {tok!r}") from None

    def row(self, line, lineno, width):
        """(entries, form, lead) of a row of exactly width scalars."""
        row = self.rows.get(line)
        if row is None:
            toks = line.split()
            if len(toks) != width:
                raise ParseError(lineno, f"expected {width} entries, got {len(toks)}")
            try:
                ratios = [self[t] for t in toks]
            except (ValueError, ZeroDivisionError):
                ratios = [self.scalar(t, lineno) for t in toks]
            row = self.rows[line] = len(toks), _row_form(self.field, ratios)
        elif row[0] != width:
            raise ParseError(lineno, f"expected {width} entries, got {row[0]}")
        return row[1]


def _parse_matrix_rows(lines, scalars, nrows, ncols, context):
    items = lines.items[lines.pos:lines.pos + nrows]
    lines.pos += len(items)
    rows = [scalars.row(line, lineno, ncols) for lineno, line in items]
    if len(rows) < nrows:
        lines.next(context)  # raises: the file ends early
    return rows


def _matrix(field, rows, ncols, square=False):
    """The matrix of parsed rows, over QQ of their forms alone; like `Mat(field,
    rows)`, a square one needs at least one row to know its width."""
    if square and not ncols:
        raise ShapeError("empty matrix needs explicit ncols")
    entries = None if field.p is None else [e for e, _, _ in rows]
    return Mat._of(field, entries, ncols, [f for _, f, _ in rows])


def parse_problem(text):
    """Parse a problem file; raises ParseError with a line number."""
    lines = _Lines(text)
    lineno, line = lines.next("field header")
    toks = line.split()
    if toks[0] != "field":
        raise ParseError(lineno, "file must start with a field line")
    if toks[1:] == ["q"]:
        field = QQ
    elif len(toks) == 3 and toks[1] == "gf":
        try:
            field = GF(_int(toks[2]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    else:
        raise ParseError(lineno, "field line must be 'field gf <p>' or 'field q'")
    lineno, line = lines.next("dimension")
    toks = line.split()
    if len(toks) != 2 or toks[0] != "dim" or not _is_count(toks[1]):
        raise ParseError(lineno, "expected 'dim <d>'")
    digits = toks[1].lstrip("0") or "0"
    if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
        raise ParseError(lineno, f"dim must be at most {MAX_DIM}")
    dim = int(digits)
    pf = ProblemFile(field, dim)
    scalars = _Scalars(field)
    tables = {"matrix": pf.matrices, "map": pf.maps, "series": pf.series, "mclain": pf.mclain}
    while True:
        item = lines.peek()
        if item is None:
            break
        lineno, line = lines.next("section")
        toks = line.split()
        kind = toks[0]
        if kind in tables and len(toks) > 1 and toks[1] in tables[kind]:
            raise ParseError(lineno, f"duplicate {kind} {toks[1]!r}")
        if kind == "certificate" and pf.certificate is not None:
            raise ParseError(lineno, "duplicate certificate")
        if kind == "matrix" and len(toks) == 2:
            rows = _parse_matrix_rows(lines, scalars, dim, dim, f"matrix {toks[1]}")
            pf.matrices[toks[1]] = _matrix(field, rows, dim, square=True)
        elif kind == "map" and len(toks) == 4:
            try:
                r, c = _int(toks[2]), _int(toks[3])
            except ValueError:
                raise ParseError(lineno, "map needs integer row/col counts") from None
            if r < 0 or c < 0:
                raise ParseError(lineno, "map row/col counts must not be negative")
            rows = _parse_matrix_rows(lines, scalars, r, c, f"map {toks[1]}")
            pf.maps[toks[1]] = _matrix(field, rows, c)
        elif kind == "series" and len(toks) == 3:
            try:
                m = _int(toks[2])
            except ValueError:
                raise ParseError(lineno, "series needs a block count") from None
            if m < 0:
                raise ParseError(lineno, "series block count must not be negative")
            subs = []
            for _ in range(m):
                l2, header = lines.next("subspace header")
                htoks = header.split()
                nrows = _count(htoks[1]) if len(htoks) == 2 and htoks[0] == "subspace" else None
                if nrows is None:
                    raise ParseError(l2, "expected 'subspace <rows>'")
                rows = _parse_matrix_rows(lines, scalars, nrows, dim, "subspace")
                subs.append(Subspace._parsed(field, dim, rows))
            try:
                full = Subspace.full(field, dim)
                zero = Subspace.zero(field, dim)
                pf.series[toks[1]] = validate(field, dim, subs + [full, zero])
            except FlagstabError as exc:
                raise ParseError(lineno, f"invalid series: {exc}") from None
        elif kind == "mclain" and len(toks) == 3:
            try:
                t = _int(toks[2])
            except ValueError:
                raise ParseError(lineno, "mclain needs a term count") from None
            if t < 0:
                raise ParseError(lineno, "mclain term count must not be negative")
            terms = []
            for _ in range(t):
                l2, row = lines.next("mclain term")
                parts = row.split()
                if len(parts) != 3:
                    raise ParseError(l2, "mclain term is 'r s coeff'")
                try:
                    r_idx = QQ.parse(parts[0])
                    s_idx = QQ.parse(parts[1])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(l2, "bad rational index") from None
                num, den = scalars.scalar(parts[2], l2)
                terms.append(((r_idx, s_idx), num if field.p is not None else Fraction(num, den)))
            try:
                pf.mclain[toks[1]] = [McLainElement(field, terms)]
            except FlagstabError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif kind == "certificate" and len(toks) == 1:
            l2, rline = lines.next("certificate r")
            rtoks = rline.split()
            r = _count(rtoks[1]) if len(rtoks) == 2 and rtoks[0] == "r" else None
            if r is None:
                raise ParseError(l2, "expected 'r <int>'")
            l3, hline = lines.next("certificate h")
            if hline != "h":
                raise ParseError(l3, "expected 'h'")
            hrows = _parse_matrix_rows(lines, scalars, dim, dim, "certificate h")
            l4, pline = lines.next("certificate probe")
            if pline != "probe":
                raise ParseError(l4, "expected 'probe'")
            l5, prow = lines.next("probe row")
            entries, form, _ = scalars.row(prow, l5, dim)
            probe = Vec._of(field, entries, form)
            pf.certificate = WitnessCertificate(
                _matrix(field, hrows, dim, square=True), r, probe, None, False
            )
        else:
            raise ParseError(lineno, f"unknown section {line!r}")
    return pf


def _format_rows(forms):
    """Text of rows given as (numerators, denominator): each entry n, or n/d
    in lowest terms, as `str` prints a canonical scalar (`field.format`)."""
    return [" ".join(map(str, nums)) if den == 1 else " ".join(
        str(x // g) if g == den else f"{x // g}/{den // g}"
        for x, g in zip(nums, map(math.gcd, nums, repeat(den)))) for nums, den in forms]


def format_problem(pf):
    """Canonical text of a problem file; parse(format(x)) == x, so what
    the reader rejects raises ShapeError: a matrix or certificate at dim 0,
    and rows without entries (empty lines, which it skips)."""
    if not pf.dim and (pf.matrices or pf.certificate) or any(
            m.nrows and not m.ncols for m in pf.maps.values()):
        raise ShapeError("a matrix at dim 0 or a row without entries has no text form")
    field = pf.field
    out = []
    out.append(f"field gf {field.p}" if field.is_prime_field else "field q")
    out.append(f"dim {pf.dim}")
    for name, m in pf.matrices.items():
        out.append(f"matrix {name}")
        out.extend(_format_rows(m._forms()))
    for name, m in pf.maps.items():
        out.append(f"map {name} {m.nrows} {m.ncols}")
        out.extend(_format_rows(m._forms()))
    for name, s in pf.series.items():
        inner = s.members[1:-1]
        out.append(f"series {name} {len(inner)}")
        for member in inner:
            out.append(f"subspace {member.dim}")
            out.extend(_format_rows(member._forms()))
    for name, elems in pf.mclain.items():
        for el in elems:
            out.append(f"mclain {name} {len(el.terms)}")
            for (r, t), c in el.terms:
                out.append(f"{r} {t} {field.format(c)}")
    if pf.certificate is not None:
        cert = pf.certificate
        out.append("certificate")
        out.append(f"r {cert.r}")
        out.append("h")
        out.extend(_format_rows(cert.h._forms()))
        out.append("probe")
        out.extend(_format_rows([_form(field, cert.probe)]))
    return "\n".join(out) + "\n"


def _need(pf, table, name, what):
    if name not in table:
        raise FlagstabError(f"{what} {name!r} is not in the file")
    return table[name]


def _hypothesis_phi(s, u_index, t):
    """Largest-kernel map V/U -> U vanishing on ([V,t]+U)/U, canonically."""
    u = s.members[u_index]
    ub = u.basis_vecs()
    return _annihilating_spec(u, t, lambda k: [ub[i % len(ub)].entries for i in range(k)])


def _series_report(tag, s):
    lines = [f"{tag}.length={s.length}", f"{tag}.jumps={s.num_jumps}"]
    lines.append(f"{tag}.dims=" + ",".join(str(x.dim) for x in s.members))
    return lines


def run(command, pf, options):
    """Execute a subcommand against a parsed problem file.

    Returns (report lines, exit code); input errors raise FlagstabError
    and are mapped to exit 2 by the caller.
    """
    field = pf.field
    out = []
    if command == "check-stab":
        g = _need(pf, pf.matrices, options.matrix, "matrix")
        s = _need(pf, pf.series, options.series, "series")
        ok = in_stabilizer(g, s)
        out.append(f"result={'true' if ok else 'false'}")
        return out, 0 if ok else 1
    if command == "exponent":
        g = _need(pf, pf.matrices, options.matrix, "matrix")
        e = unipotent_exponent(g)
        if e is None:
            out.append("result=not-unipotent")
            return out, 1
        out.append("result=unipotent")
        out.append(f"exponent={e}")
        return out, 0
    if command == "jordan":
        g = _need(pf, pf.matrices, options.matrix, "matrix")
        try:
            jd = jordan_blocks(g)
        except NotUnipotentError:
            out.append("result=not-unipotent")
            return out, 1
        out.append("result=unipotent")
        out.append(f"blocks={jd.num_blocks}")
        out.append("sizes=" + ",".join(str(d) for d in jd.sizes))
        return out, 0
    if command == "coarsen":
        g = _need(pf, pf.matrices, options.matrix, "matrix")
        s = _need(pf, pf.series, options.series, "series")
        if not in_stabilizer(g, s):
            out.append("result=not-in-stabilizer")
            return out, 1
        c = canonical_coarsening(g, s)
        out.append("result=ok")
        out.extend(_series_report("coarsening", c))
        return out, 0
    if command == "comm-check":
        s = _need(pf, pf.series, options.series, "series")
        t = _need(pf, pf.matrices, options.t, "matrix")
        if not 0 <= options.u < len(s.members):
            raise FlagstabError(f"member index {options.u} out of range")
        if options.k < 1:
            raise FlagstabError(f"--k must be at least 1, got {options.k}")
        spec = _hypothesis_phi(s, options.u, t)
        bad = transvection_commutator_check(spec, t, options.k)
        if bad is None:
            out.append("result=ok")
            out.append(f"checked_exponents={options.k}")
            return out, 0
        out.append(f"result=counterexample basis={bad[0]} exponent={bad[1]}")
        return out, 1
    if command in ("witness", "extend-witness"):
        g = _need(pf, pf.matrices, options.matrix, "matrix")
        s = _need(pf, pf.series, options.series, "series")
        try:
            if command == "witness":
                cert = construct_witness(g, s)
            else:
                n = options.n if options.n is not None else s.num_jumps
                cert = extend_witness(g, s, n)
        except WitnessError as exc:
            raise FlagstabError(f"{exc.reason}: {exc}") from exc
        out.append("result=certified")
        out.append(f"r={cert.r}")
        out.append(f"stronger_power_nonzero={'true' if cert.stronger_power_nonzero else 'false'}")
        emit = ProblemFile(field, pf.dim)
        emit.matrices[options.matrix] = g
        emit.series[options.series] = s
        emit.certificate = cert
        text = format_problem(emit)
        if options.out:
            with open(options.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            out.append(f"certificate_file={options.out}")
        else:
            out.append("certificate:")
            out.append(text.rstrip("\n"))
        return out, 0
    if command == "verify":
        g = _need(pf, pf.matrices, options.matrix, "matrix")
        s = _need(pf, pf.series, options.series, "series")
        if pf.certificate is None:
            raise FlagstabError("no certificate block in the file")
        ok = verify_witness(g, s, pf.certificate)
        out.append(f"result={'verified' if ok else 'rejected'}")
        return out, 0 if ok else 1
    if command == "split":
        s = _need(pf, pf.series, options.series, "series")
        cs = split_chain(list(s.members))
        out.append("result=ok")
        out.append("part_dims=" + ",".join(str(a.dim) for a in cs.parts))
        return out, 0
    if command == "patch":
        s = _need(pf, pf.series, options.series, "series")
        sections = []
        for txt in options.section or []:
            try:
                u_i, w_i, name = txt.split(":")
                u_i, w_i = _int(u_i), _int(w_i)
            except ValueError:
                raise FlagstabError(
                    f"--section must be u_index:w_index:map, got {txt!r}"
                ) from None
            for i in (u_i, w_i):
                if not 0 <= i < len(s.members):
                    raise FlagstabError(f"--section member index {i} out of range")
            hmap = _need(pf, pf.maps, name, "map")
            sections.append((s.members[u_i], s.members[w_i], hmap))
        basis = adapted_basis_of(s)
        h = patch_sections(basis, s, SectionAssignment(sections))
        out.append("result=ok")
        out.append("matrix h")
        out.extend(_format_rows(h._forms()))
        return out, 0
    if command in ("lcs", "refine"):
        names = (options.gens or "").split(",") if options.gens else []
        if not names:
            raise FlagstabError("--gens needs a comma-separated matrix list")
        gens = GeneratorSet([_need(pf, pf.matrices, n, "matrix") for n in names])
        if command == "lcs":
            chain = module_lcs(gens)
            out.append(f"result={'zero' if chain.reaches_zero else 'stalled'}")
            out.append("dims=" + ",".join(str(x.dim) for x in chain.chain))
            return out, 0 if chain.reaches_zero else 1
        s = _need(pf, pf.series, options.series, "series")
        try:
            refined = refine_series(s, gens)
        except RefinementObstruction as exc:
            out.append(f"result=obstructed jump={exc.jump_index}")
            return out, 1
        out.append("result=ok")
        out.extend(_series_report("refined", refined))
        return out, 0
    if command == "mclain":
        names = (options.elems or "").split(",") if options.elems else []
        if not names:
            raise FlagstabError("--elems needs a comma-separated element list")
        elems = [
            el for n in names for el in _need(pf, pf.mclain, n, "mclain element")
        ]
        product, flag = mclain_truncate(elems)
        e = unipotent_exponent(product)
        out.append("result=ok")
        out.append(f"support={flag.ambient_dim}")
        out.append(f"product_exponent={e}")
        return out, 0
    raise FlagstabError(f"unknown command {command!r}")


def _cmd_gen(options):
    import random

    field = {"q": QQ}.get(options.field, None)
    if field is None:
        if not options.field.startswith("gf"):
            raise FlagstabError("--field must be q or gf<p>")
        try:
            field = GF(_int(options.field[2:]))
        except ValueError as exc:
            raise FlagstabError(f"--field: {exc}") from None
    n, k = options.length, options.exponent
    if not (n >= 3 and 2 <= k < n - 2):
        raise FlagstabError("need length >= 3 and 2 <= exponent < length - 2")
    if n > MAX_DIM:  # the length bounds the dimension; check it before the layout
        raise FlagstabError(f"dim must be at most {MAX_DIM}")
    min_dim = sum(length for _, length in _chain_layout(n, k))
    if options.dim is not None and options.dim < min_dim:
        raise FlagstabError(f"dim must be at least {min_dim}")
    if max(min_dim, options.dim or 0) > MAX_DIM:
        raise FlagstabError(f"dim must be at most {MAX_DIM}")
    pad = (options.dim - min_dim) if options.dim is not None else 0
    rng = random.Random(options.seed)
    g, s = witness_instance(rng, field, n, k, pad=pad, scramble=options.scramble)
    pf = ProblemFile(field, s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    sys.stdout.write(format_problem(pf))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="flagstab",
        description="exact computations with series stabilizers and certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        "check-stab",
        "exponent",
        "jordan",
        "coarsen",
        "comm-check",
        "witness",
        "extend-witness",
        "verify",
        "split",
        "patch",
        "lcs",
        "refine",
        "mclain",
    ]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file, or - for stdin")
        p.add_argument("--matrix", default="g", help="matrix name (default g)")
        p.add_argument("--series", default="L", help="series name (default L)")
        p.add_argument("--t", default="t", help="matrix name for comm-check (default t)")
        p.add_argument("--u", type=_int, default=1, help="member index for comm-check")
        p.add_argument("--k", type=_int, default=3, help="exponent bound for comm-check")
        p.add_argument("--n", type=_int, default=None, help="length for extend-witness")
        p.add_argument("--out", default=None, help="certificate output file")
        p.add_argument("--section", action="append", help="u:w:map (repeatable)")
        p.add_argument("--gens", default=None, help="comma-separated matrix names")
        p.add_argument("--elems", default=None, help="comma-separated mclain names")
    g = sub.add_parser("gen")
    g.add_argument("--seed", type=_int, default=0)
    g.add_argument("--dim", type=_int, default=None)
    g.add_argument("--length", type=_int, default=6)
    g.add_argument("--exponent", type=_int, default=2)
    g.add_argument("--field", default="gf5", help="q or gf<p>")
    g.add_argument("--scramble", action="store_true")
    options = parser.parse_args(argv)
    if options.command == "gen":
        try:
            return _cmd_gen(options)
        except FlagstabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        if options.file == "-":
            text = sys.stdin.read()
        else:
            with open(options.file, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        pf = parse_problem(text)
        report, code = run(options.command, pf, options)
    except FlagstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

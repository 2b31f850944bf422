"""Non-nilpotency witnesses for stabilizer elements with short exponent.

Given g in S(L) that stabilizes no short subseries and has small
unipotent exponent, the pipeline picks interleaved Jordan pairs along
the levels of L and produces h in S(L) with (h-1)^2 = 0 such that
(g g^h - 1)^(r-1) != 0 for r = floor((n-2)/k).  Every certificate is
re-verified by direct exact arithmetic before it is returned.

The witness is decided in Jordan coordinates.  Let p be the matrix whose
rows are the straightened chain vectors.  Then p g p^-1 = J is 1 plus
the shift along each chain and p h p^-1 = C is 1 plus r - 1 ones at
(y_l, x_{l+1}), whatever the field and however scrambled g is.  So
`build_h` forms h - 1 as r - 1 rank-one terms (columns y_l of p^-1 times
rows x_{l+1} of p), and (h - 1)^2 = 0 becomes an index test.  The probe
candidates are rows of p, i.e. unit rows there, so the probe and the
`stronger_power_nonzero` flag are read off powers of the small integer
matrix J (2 - C) J C - 1 (C^-1 = 2 - C, as (C - 1)^2 = 0).
`verify_witness` re-checks the result in the original coordinates, on
the rank factorisation h - 1 = C E, where now C holds the pivot columns
of h - 1 and E is the echelon basis of its rows: (h - 1)^2 = 0 exactly
when E C = 0, a complement row a has a (h - 1) = (a C) E, and w h^(+-1)
= w +- (w C) E.  `build_h` runs the first two tests on its own factors.

Each fact about (g, s) is computed once and passed down: nil = g - 1, its
jump images (the stabilizer test, the coarsening, and A nil for the basis
A of the jumps' complement rows, adapted to s), its kernel chain in the
basis A (the exponent, the Jordan chains' pullback, and each kernel's
meets with the members, read off its echelon form as in `unipotent`) and
the chain vectors' levels (the last straightening pass and its check).
The level search leaves each chain vector's residue modulo the member below;
that map is linear with the member as kernel, so residues decide dependencies.

`extend_witness` builds the witness for the induced series on a
g-invariant core W and extends it by the identity on a complement that
splits every member.  In the basis made of W's chain vectors, lifted to
V, and that complement, the extension is again 1 + the r - 1 ones at
(y_l, x_{l+1}), so `build_h` forms it, and the lifted inner probe
survives on V.  W's meets with the members come from one elimination in
coordinates adapted to s, and m = g g^h - 1 is block triangular there:
the inner m on W, whose flag decides its block, and the complement's rows.
"""

import itertools

from .errors import (
    AdaptationError,
    FieldMismatchError,
    FlagstabError,
    NotUnipotentError,
    PreorderError,
    SelectionError,
    SeriesError,
    ShapeError,
    WitnessError,
)
from .linalg import Mat, Subspace, Vec, _common, _eliminate, _images
from .linalg import _tagged, echelonize, left_kernel_rows
from .series import Series, _adapted_rows, _coarsening, _complement_rows, _jump_images
from .series import _fills_jumps, _level_residue, _minus_one, canonical_coarsening
from .series import level_of as level
from .unipotent import _jordan_chains, _kernel_chain, kernel_chain, unipotent_exponent

__all__ = [
    "PreorderedBasis",
    "PairSelection",
    "WitnessCertificate",
    "level",
    "select_pairs",
    "validate_selection",
    "build_h",
    "construct_witness",
    "extend_witness",
    "invariant_core",
    "verify_witness",
    "adapted_jordan_chains",
]


class PreorderedBasis:
    """Finite preordered set, partitioned into blocks with level maps.

    Elements are 0..m-1.  `keys[e]` orders the preorder (ties allowed
    across blocks only) and `fvals[e]` is the value of the block's
    order-preserving injection into 1..n.  `k` is the largest block.
    """

    __slots__ = ("blocks", "fvals", "keys", "n", "k")

    def __init__(self, blocks, fvals, n, keys=None):
        self.blocks = tuple(tuple(b) for b in blocks)
        self.fvals = tuple(fvals)
        self.keys = tuple(keys) if keys is not None else self.fvals
        self.n = n
        self.k = max((len(b) for b in self.blocks), default=0)
        self._validate()

    @property
    def size(self):
        return len(self.fvals)

    def _validate(self):
        m = self.size
        if len(self.keys) != m:
            raise PreorderError("keys and fvals disagree in length")
        seen = sorted(e for b in self.blocks for e in b)
        if seen != list(range(m)):
            raise PreorderError("blocks do not partition the element set")
        covered = set()
        for b in self.blocks:
            fs = [self.fvals[e] for e in b]
            if len(set(fs)) != len(fs):
                raise PreorderError("level map is not injective on a block")
            for x in b:
                for y in b:
                    if x == y:
                        continue
                    if self.keys[x] == self.keys[y]:
                        raise PreorderError("preorder ties inside a block")
                    if (self.keys[x] < self.keys[y]) != (self.fvals[x] < self.fvals[y]):
                        raise PreorderError("level map is not order-preserving")
            covered.update(fs)
        for f in covered:
            if not 1 <= f <= self.n:
                raise PreorderError("level value out of range")
        if covered != set(range(1, self.n + 1)):
            raise PreorderError("level images do not cover 1..n")
        for x in range(m):
            for y in range(m):
                if self.fvals[x] > self.fvals[y] and not self.keys[x] > self.keys[y]:
                    raise PreorderError("cross-block monotonicity fails")
        for a in range(2, self.n + 1):
            if not any(
                a in {self.fvals[e] for e in b} and a - 1 in {self.fvals[e] for e in b}
                for b in self.blocks
            ):
                raise PreorderError(f"no block carries the step {a-1} -> {a}")


class PairSelection:
    """Chosen pairs (x_l, y_l) with adjacent level values, one block each."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(tuple(p) for p in pairs)

    @property
    def r(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        return f"PairSelection(r={self.r})"


def validate_selection(pb, sel):
    """Independent checker for the three selection clauses."""
    r_expected = max(0, (pb.n - 2) // pb.k) if pb.k else 0
    if sel.r != r_expected:
        raise SelectionError(f"expected {r_expected} pairs, got {sel.r}")
    blocks_used = []
    for x, y, bi in sel.pairs:
        if x not in pb.blocks[bi] or y not in pb.blocks[bi]:
            raise SelectionError("pair does not lie in its block")
        if bi in blocks_used:
            raise SelectionError("block reused")
        blocks_used.append(bi)
        if pb.fvals[x] != pb.fvals[y] + 1:
            raise SelectionError("pair levels are not adjacent")
    for l in range(sel.r - 1):
        x_next = sel.pairs[l + 1][0]
        x_cur, y_cur = sel.pairs[l][0], sel.pairs[l][1]
        if not (pb.keys[x_next] < pb.keys[y_cur] < pb.keys[x_cur]):
            raise SelectionError("interleaving order fails")
    return True


def select_pairs(pb):
    """Greedy selection: take the top uncovered value, use a block
    carrying it together with its predecessor, retire that block's image.

    Ties between eligible blocks break to the lowest block index.
    """
    r = max(0, (pb.n - 2) // pb.k) if pb.k else 0
    by_block_f = [{pb.fvals[e]: e for e in b} for b in pb.blocks]
    covered = set()
    used = set()
    pairs = []
    for _ in range(r):
        d = max(v for v in range(1, pb.n + 1) if v not in covered)
        choice = None
        for bi, fmap in enumerate(by_block_f):
            if bi in used:
                continue
            if d in fmap and d - 1 in fmap:
                choice = bi
                break
        if choice is None:
            raise WitnessError(
                "selection-failed", "greedy selection failed despite the clauses"
            )
        fmap = by_block_f[choice]
        pairs.append((fmap[d], fmap[d - 1], choice))
        covered.update(fmap.keys())
        used.add(choice)
    sel = PairSelection(pairs)
    validate_selection(pb, sel)
    return sel


def _level_dependency(chains, s):
    """(levels, support): the chain vectors' levels, chain by chain, and the
    first level's dependency modulo the member below, or None if none.

    The level search leaves each vector's residue modulo the member B below
    it.  The residue map is linear with kernel B, so a level's residues have
    the rank and the left kernel of its coordinates in the jump.  Over QQ
    the search reduces d v, for d the denominator of v's form, so the rows
    are brought to the lcm of the d (`_common`) before the left kernel is read.
    """
    found = [[_level_residue(v, s) for v in chain] for chain in chains]
    levels = [[lvl for lvl, _ in pairs] for pairs in found]
    items_by_level = {}
    for ci, (chain, pairs) in enumerate(zip(chains, found)):
        for j, (v, (lvl, residue)) in enumerate(zip(chain, pairs)):
            items_by_level.setdefault(lvl, []).append((ci, j, v, residue))
    for lvl in sorted(items_by_level):
        items = items_by_level[lvl]
        rows = [residue for *_, residue in items]
        if len(_eliminate(s.field, rows)[0]) == len(rows):
            continue
        _, rows = _common([(residue, s.field._ops._form(v)[1]) for _, _, v, residue in items])
        for coeffs in left_kernel_rows(s.field, rows, len(rows[0])):
            support = [(ci, j, v, c) for (ci, j, v, _), c in zip(items, coeffs) if c != 0]
            if support:
                return levels, support
        raise AdaptationError("rank drop without an explicit dependency")
    return levels, None


def _apply_chain_move(chains, support, field):
    """Absorb a level dependency into one chain, keeping chain relations.

    The absorber must sit at the earliest position and carry the longest
    tail among the support; the move adds aligned shifted copies of the
    other chains, which keeps v_{j+1} = v_j (g-1) coherent.
    """
    star = None
    for cand in support:
        ci, j, _, _ = cand
        tail = len(chains[ci]) - j
        ok = True
        for other in support:
            oi, oj, _, _ = other
            otail = len(chains[oi]) - oj
            if oj < j or otail > tail:
                ok = False
                break
        if ok:
            star = cand
            break
    if star is None:
        raise AdaptationError("no valid absorbing chain for a level dependency")
    ci, j, _, c_star = star
    target = list(chains[ci])
    inv = field.inv(c_star)
    for oi, oj, _, c in support:
        if (oi, oj) == (ci, j):
            continue
        shift = oj - j
        lam = field.mul(c, inv)
        other = chains[oi]
        for m in range(len(target)):
            idx = m + shift
            if idx < len(other):
                target[m] = target[m] + other[idx].scale(lam)
    chains[ci] = target


def _member_meets(s, rows):
    """`_jordan_chains` candidates from the rows of a `_kernel_chain` in the
    basis `_adapted_rows(s)`: the canonical bases of each kernel's meets
    with the members, deepest first, each vector once.  The meet with V_i
    is spanned by the rows whose pivot is dim V - dim V_i or later; it is
    built when that count grows, and only as far as candidates are drawn."""
    field, dim = s.field, s.ambient_dim

    def candidates(height, kernel):
        kernel_rows = rows[height - 1]
        seen = set()
        taken = 0
        for member in reversed(s.members):
            if kernel_rows is None:
                meet = member
            else:
                count = sum(c >= dim - member.dim for c, _ in kernel_rows)
                if count == taken:
                    continue
                taken = count
                meet = kernel if count == len(kernel_rows) else Subspace._of_rows(
                    field, dim, [y for _, y in kernel_rows[-count:]])
            # a basis row is known by its kernel row, cheaper to hash than its entries
            for row, v in zip(meet._rows(), meet.basis_vecs()):
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    yield v

    return candidates


def adapted_jordan_chains(g, s):
    """Jordan chains of g whose vectors form an s-adapted basis.

    Chain heads are preferred deep in the series; remaining level
    dependencies are absorbed by coherent chain moves.  Raises
    AdaptationError if no adapted system is reached.
    """
    if not g.is_square():
        raise ShapeError("exponent of a non-square matrix")
    if g.field != s.field or g.nrows != s.ambient_dim:
        kernel_chain(g)  # a g that is not unipotent is reported first
        Subspace.zero(g.field, g.nrows)._match(s.members[0])
    nil = _minus_one(g)
    basis = _adapted_rows(s)
    kernels, rows = _kernel_chain(nil, basis, _images([(r, 1) for r in basis], nil))
    return _straighten(_jordan_chains(nil, kernels, _member_meets(s, rows)), s)[0]


def straighten_chains(chains, g, s):
    """Absorb level dependencies until the chain vectors are s-adapted.
    Caller chains may break v_(j+1) = v_j (g - 1) or the kernel end, so the
    result is checked for both."""
    if not g.is_square():
        raise ShapeError("matrix shapes differ")
    nil = _minus_one(g)
    chains = _straighten(chains, s)[0]
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            if a @ nil != b:
                raise AdaptationError("straightened chain breaks v_(j+1) = v_j (g-1)")
        if not (chain[-1] @ nil).is_zero():
            raise AdaptationError("straightened chain does not end in the kernel")
    return chains


def _straighten(chains, s):
    """`straighten_chains` with the chain vectors' levels.  With no level
    dependency left they are independent, so by the lemma in the `series`
    docstring their level counts decide adaptedness (`_fills_jumps`).  Chain
    relations are not checked: `_jordan_chains` builds each vector as the one
    above it times g - 1, and `_apply_chain_move` keeps that and the kernel end."""
    chains = [list(c) for c in chains]
    max_moves = 4 * s.ambient_dim * max(1, s.num_jumps)
    for _ in range(max_moves):
        levels, dep = _level_dependency(chains, s)
        if dep is None:
            break
        _apply_chain_move(chains, dep, s.field)
    else:
        raise AdaptationError("level straightening did not converge")
    if not _fills_jumps(levels, s):
        raise AdaptationError("chains failed the adapted-basis check")
    return chains, levels


def _preordered_basis_from_chains(levels, n):
    """Preordered basis of adapted chains from their levels in n jumps."""
    fvals = []
    blocks = []
    for lvls in levels:
        blocks.append(range(len(fvals), len(fvals) + len(lvls)))
        fvals += [n + 1 - lvl for lvl in lvls]
    try:
        return PreorderedBasis(blocks, fvals, n)
    except PreorderError as exc:
        raise AdaptationError(f"adapted chains violate a clause: {exc}") from exc


class WitnessCertificate:
    """Constructed h plus the exponent r and a verifying probe vector."""

    __slots__ = ("h", "r", "probe", "selection", "stronger_power_nonzero")

    def __init__(self, h, r, probe, selection, stronger_power_nonzero):
        self.h = h
        self.r = r
        self.probe = probe
        self.selection = selection
        self.stronger_power_nonzero = stronger_power_nonzero

    def __repr__(self):
        return f"WitnessCertificate(r={self.r})"


def build_h(sel, basis, s):
    """The square-zero stabilizer element sending y_l to y_l + x_{l+1}.

    `basis` lists the Jordan basis vectors that the selection indexes;
    every other basis vector is fixed.  h - 1 is the sum over l of
    column y_l of p^-1 times row x_{l+1} of p, for p the basis matrix.
    (h - 1)^2 = 0 when no y_l is an x_{m+1}; with distinct y_l, as in
    pairs from distinct chains, that index test is exact.
    """
    factors = _h_factors(sel, basis, s)
    return _minus_one(factors.cols @ factors.rows, 1)  # 1 + C E


def _h_factors(sel, basis, s):
    """`build_h` as the `_RankFactors` of h - 1, checked."""
    seen_blocks = set()
    for _, _, bi in sel.pairs:
        if bi in seen_blocks:
            raise SelectionError("selection reuses a block")
        seen_blocks.add(bi)
    field, n, basis = s.field, s.ambient_dim, list(basis)
    if len(basis) != n:
        raise SelectionError("basis size differs from the ambient dimension")
    if any(v.field != field for v in basis):
        raise FieldMismatchError(f"a basis vector is not over {field}")
    if any(v.dim != n for v in basis):
        raise ShapeError("basis vector width differs from the ambient dimension")
    ys = [sel.pairs[l][1] for l in range(sel.r - 1)]
    xs = [sel.pairs[l + 1][0] for l in range(sel.r - 1)]
    if not all(0 <= i < n for i in ys + xs):
        raise SelectionError("a pair indexes outside the basis")
    forms = [field._ops._form(v) for v in basis]
    p = Mat._of(field, None, n, forms)
    rows = Mat._of(field, None, n, [forms[x] for x in xs])
    factors = _RankFactors(p._inverse_columns(ys), rows)
    if not factors.square_zero():
        raise WitnessError("h-square", "(h-1)^2 != 0; selection inconsistent")
    if not factors.stabilizes(s):
        raise WitnessError("h-not-in-stabilizer", "constructed h escapes the stabilizer")
    return factors


def _jordan_probe(chains, sel, ops):
    """Index of the probe, and whether m^r != 0, for m = g g^h - 1 and
    r = sel.r.

    In the chain basis m is M = J (2 - C) J C - 1 (module docstring),
    an integer matrix, taken in the field's integers by the row kernels ops.
    The candidates y_1, then every chain vector, are unit rows there,
    so candidate i survives m^(r-1) exactly when row i of M^(r-1) is
    nonzero.  The index is None when no candidate survives.
    """
    shift, n = [], 0
    for chain in chains:
        shift += [(n + j, n + j + 1) for j in range(len(chain) - 1)]
        n += len(chain)
    twists = [(sel.pairs[l][1], sel.pairs[l + 1][0]) for l in range(sel.r - 1)]
    field_plus = ops._plus

    def plus(v, edges, sign=1):
        # v (1 + sign * sum of E(a, b) over the edges)
        w = list(v)
        for a, b in edges:
            w[b] += sign * v[a]
        return w

    def times_m(v):
        w = plus(plus(plus(plus(v, shift), twists, -1), shift), twists)
        return field_plus((w, 1), (v, 1), -1)[0]  # w - v in the field's integers

    powers = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(sel.r - 1):
        powers = [times_m(v) for v in powers]
    order = [sel.pairs[0][1]] + list(range(n))
    probe = next((i for i in order if any(powers[i])), None)
    stronger = any(any(times_m(v)) for v in powers)
    return probe, stronger


def construct_witness(g, s):
    """End-to-end witness for non-coarsenable g with small exponent.

    Preconditions, each reported separately: g stabilizes s, g
    stabilizes no proper subseries of s, and exponent(g) < n - 2 where
    n counts the jumps of s.
    """
    return _witness_with_basis(g, s)[0]


def _witness_with_basis(g, s):
    """`construct_witness`, plus the chain basis that its selection indexes."""
    nil = _minus_one(g)
    images = _jump_images(g, s, nil)
    if images is None:
        raise WitnessError("not-in-stabilizer", "g does not stabilize the series")
    n = s.num_jumps
    try:
        kernels, rows = _kernel_chain(nil, _adapted_rows(s), [f for imgs in images for f in imgs])
    except NotUnipotentError:
        raise WitnessError("not-unipotent", "a stabilizer element is not unipotent") from None
    k = len(kernels)
    coarse = _coarsening(s, images)
    if len(coarse.members) < len(s.members):
        raise WitnessError("coarsenable", "g stabilizes a proper subseries")
    if not k < n - 2:
        raise WitnessError(
            "exponent-too-large", f"exponent {k} is not below n-2 = {n - 2}"
        )
    chains, levels = _straighten(_jordan_chains(nil, kernels, _member_meets(s, rows)), s)
    sel = select_pairs(_preordered_basis_from_chains(levels, n))
    basis = [v for chain in chains for v in chain]
    for x, y, _ in sel.pairs:
        if basis[x] @ nil != basis[y]:
            raise WitnessError("pair-not-chain-step", "a selected pair is not a chain step")
    h = build_h(sel, basis, s)
    r = (n - 2) // k
    if r != sel.r:
        raise WitnessError("selection-size", f"selected {sel.r} pairs, expected {r}")
    probe, stronger = _jordan_probe(chains, sel, g.field._ops)
    if probe is None:
        raise WitnessError("power-vanished", "(g g^h - 1)^(r-1) = 0 unexpectedly")
    cert = WitnessCertificate(h, r, basis[probe], sel, stronger)
    if not verify_witness(g, s, cert):
        raise WitnessError("not-verified", "the built certificate failed re-verification")
    return cert, basis


def verify_witness(g, s, cert):
    """Re-check a certificate by direct exact arithmetic, on the rank
    factorisation h - 1 = C E of `_RankFactors.of`, of rank r - 1 for a
    built h.  (h - 1)^2 = 0 exactly when E C = 0.  A complement row a of
    V_{i-1} over V_i has a (h - 1) = (a C) E, so the stabilizer test needs
    a C and the residues of E's rows modulo V_i.  With h^-1 = 2 - h,
    w h^(+-1) = w +- (w C) E, so a probe step through m = g g^h - 1 keeps
    only its two products with g.  The left kernels of the powers of an
    n x n matrix stop growing by the n-th power, so v m^(r-1) != 0
    exactly when v m^min(r-1, n) != 0.
    """
    try:
        factors = _RankFactors.of(_minus_one(cert.h))
        if not factors.stabilizes(s):
            return False
    except FlagstabError:
        return False
    if not factors.square_zero():
        return False
    if cert.r < 1 or cert.probe.is_zero():
        return False
    v = cert.probe
    if v.field != g.field:
        raise FieldMismatchError(f"{v.field} vs {g.field}")
    if v.dim != g.nrows:
        raise ShapeError("vector/matrix shapes differ")
    g._match(cert.h)  # h^-1 = 2 - h and g act on one space
    return bool(factors.power(g, [g.field._ops._form(v)], min(cert.r - 1, g.nrows)))


class _RankFactors:
    """h - 1 = C E for `cols` C (n x rho) and `rows` E (rho x n), both of
    rank rho; the identities behind the tests are in `verify_witness`."""

    __slots__ = ("cols", "rows")

    def __init__(self, cols, rows):
        self.cols, self.rows = cols, rows

    @classmethod
    def of(cls, m):
        """E the echelon basis of m's rows, C its pivot columns: m[i] = sum_j m[i][pivot_j] E_j."""
        e, field = echelonize(m), m.field
        rows = Mat._of(field, None, m.ncols, e._forms())
        # C from the forms of m, taken at the pivot columns
        cols = [([x[c] for c in e.pivots], d) for x, d in m._forms()]
        return cls(Mat._of(field, None, e.dim, cols), rows)

    def square_zero(self):
        """Whether (h - 1)^2 = C (E C) E is 0, i.e. E C = 0."""
        return not any(any(x) for x, _ in _images(self.rows._forms(), self.cols))

    def stabilizes(self, s):
        """`in_stabilizer(h, s)`, by the residues of E's rows modulo each V_i."""
        members, field, n = s.members, self.cols.field, self.cols.nrows
        if len(members) > 1 and n != s.ambient_dim:
            raise ShapeError("matrix height differs from ambient dimension")
        _, e_rows = _common(self.rows._forms())  # E's rows over one denominator
        for i in range(1, len(members)):
            residues = [list(members[i]._reduce(e)) for e in e_rows]
            if not any(map(any, residues)):
                continue
            rows = [(a, 1) for a in _complement_rows(members[i], members[i - 1])]
            by_residues = field._ops._row_map(residues, n)
            if any(any(by_residues(x)) for x, _ in _images(rows, self.cols)):
                return False
        return True

    def times(self, form, sign):
        """w (1 + sign (h - 1)) = w + sign (w C) E, for forms (see `_images`)."""
        field = self.cols.field
        (wce,) = _images(_images([form], self.cols), self.rows)
        return field._ops._plus(form, wce, sign)

    def power(self, g, forms, e):
        """The nonzero rows among the forms times m^e, for m = g h^-1 g h - 1."""
        plus = g.field._ops._plus
        for _ in range(e):
            ws = _images([self.times(f, -1) for f in _images(forms, g)], g)
            forms = [f for f in (plus(self.times(w, 1), v, -1)
                                 for w, v in zip(ws, forms)) if any(f[0])]
        return forms


def _core_meets(w, s):
    """(pivot, row in V, tag on w's canonical basis) for the echelon rows of
    [X | I], X that basis on A = `_adapted_rows(s)`: as in `_member_meets`,
    those with pivot dim V - dim V_i or later span w & V_i."""
    a, n = _adapted_rows(s), s.ambient_dim
    a_inv = Mat._of(s.field, None, n, [(r, 1) for r in a]).inverse()
    forms = _images(w._forms(), a_inv)
    reduced, pivots = _tagged(s.field, forms, range(w.dim))
    in_v = s.field._ops._row_map(a, n)
    return [(c, in_v(r[:n]), r[n:]) for r, c in zip(reduced, pivots)]


def _series_split_complement(s, meets):
    """Vectors completing a subspace w to V so that every member of s
    splits, from the `_core_meets` of w.

    Processes jumps from the deepest up, extending bottom + (top & w) to
    the top from the top's canonical basis.  Modulo the bottom, top & w is
    spanned by the meet rows with pivot in the jump's block, all independent.
    """
    n, comp = s.ambient_dim, []
    for jump in reversed(s.jumps()):
        # the rows chosen at deeper jumps already lie in jump.bottom
        meet = [v for c, v, _ in meets if n - jump.top.dim <= c < n - jump.bottom.dim]
        # the top's basis vectors built only as far as `_extend` draws them
        tops = (Vec._of(s.field, None, f) for f in jump.top._forms())
        comp += jump.bottom._extend(itertools.chain(meet, tops), jump.top.dim)[len(meet):]
    return comp


def invariant_core(g, s, n):
    """g-invariant subspace spanning n strict coarsening steps.

    Returns (core series of length n, core subspace W); one vector per
    step witnesses that the step cannot be skipped, and W collects their
    orbits under g - 1.
    """
    coarse = canonical_coarsening(g, s)
    return _invariant_core(s, n, coarse, _minus_one(g))


def _invariant_core(s, n, coarse, nil):
    """`invariant_core` from the canonical coarsening of g = 1 + nil."""
    if coarse.num_jumps < n:
        raise WitnessError(
            "coarsenable", f"g stabilizes a subseries of length {coarse.num_jumps} < {n}"
        )
    field = s.field
    dim = s.ambient_dim
    zero = Subspace.zero(field, dim)
    core = Series._of(field, dim, coarse.members[:n] + (zero,))
    if not core.members[0].is_full():  # n <= 0 can cut V off
        raise SeriesError("first member must be the full space")
    vs = []
    for i in range(1, n):
        target = core.members[i + 1]
        found = None
        for f in core.members[i - 1]._forms():
            v = Vec._of(field, None, f)
            if not target.contains_vec(v @ nil):
                found = v
                break
        if found is None:
            raise WitnessError("core-lost-witness", "coarsening step lost its witness vector")
        vs.append(found)
    rows = []
    for v in vs:
        # g stabilizes the coarsening, so (g - 1)^jumps vanishes
        for _ in range(coarse.num_jumps):
            if v.is_zero():
                break
            rows.append(v)
            v = v @ nil
    return core, Subspace._span(field, dim, rows)


def extend_witness(g, s, n):
    """Witness through a finite-dimensional g-invariant core.

    Picks vectors realizing n strict coarsening steps, spans their
    g-orbit W, constructs the witness for the induced series inside W,
    and extends it by the identity on a complement of W that splits
    every member of s.  The certificate is verified on all of V.

    The inner series is the canonical coarsening E of g on the members
    D_i = W & C_i of the coarsening C_0 > ... > C_J = 0 of s; g
    stabilizes the D_i, as W is g-invariant.  E has at least n jumps:
    the core vector v_i lies in D_{i-1} and v_i (g - 1) escapes C_{i+1}
    for i < n - 1, so by induction E_i contains D_i for i <= n - 2, and
    E_{n-1} holds v_{n-1} (g - 1) != 0.  For n = J it has exactly n, as
    E_i <= D_i and D_J = 0.  Below J it may have more: D_{n-1} (g - 1)
    need not vanish, so no subseries of n jumps is stabilized.  Then the
    inner witness has r at least (n - 2) // k, which the certificate
    claims.

    Coordinates on W are read at its pivots; the D_i and the complement
    come from `_core_meets`, and m^r != 0 from `_power_nonzero`.
    """
    nil = _minus_one(g)
    images = _jump_images(g, s, nil)
    if images is None:
        raise WitnessError("not-in-stabilizer", "g does not stabilize the series")
    k = unipotent_exponent(g)
    if k is None:
        raise WitnessError("not-unipotent", "a stabilizer element is not unipotent")
    if not k < n - 2:
        raise WitnessError("exponent-too-large", f"exponent {k} is not below n-2 = {n - 2}")
    field, dim = s.field, s.ambient_dim
    coarse = _coarsening(s, images)
    _, w = _invariant_core(s, n, coarse, nil)
    w_g = [v @ g for v in w.basis_vecs()]
    if any(any(w._reduce(field._ops._form(v)[0])) for v in w_g):
        raise WitnessError("core-not-invariant", "core subspace is not invariant")
    g_w = Mat._of(field, [[v.entries[c] for c in w.pivots] for v in w_g], w.dim)
    meets, members_w = _core_meets(w, s), []
    for x in coarse.members:
        sub = Subspace._of_rows(field, w.dim, [t for c, _, t in meets if c >= dim - x.dim])
        if sub not in members_w:
            members_w.append(sub)
    series_w = canonical_coarsening(g_w, Series._of(field, w.dim, members_w))
    if series_w.num_jumps < n:
        raise WitnessError("core-lost-jump", "induced series lost a jump")
    inner, chain_basis = _witness_with_basis(g_w, series_w)
    # h is the inner h on W and the identity on a splitting complement
    lift, comp = Mat._of(field, None, dim, w._forms()), _series_split_complement(s, meets)
    lifted = [v @ lift for v in chain_basis]
    factors = _h_factors(inner.selection, lifted + comp, s)
    r = (n - 2) // k
    h = Mat.identity(field, dim) + factors.cols @ factors.rows
    cert = WitnessCertificate(h, r, inner.probe @ lift, inner.selection,
                              _power_nonzero(g, factors, r, inner, lifted, comp))
    if not verify_witness(g, s, cert):
        raise WitnessError("not-verified", "the extended certificate failed re-verification")
    return cert


def _power_nonzero(g, factors, e, inner, lifted, comp):
    """m^e != 0 for m = g g^h - 1, h - 1 = `factors`: in the basis `lifted` +
    `comp` it is block triangular, the `inner` m on W, whose e-th power is
    nonzero below the inner r and at it by the inner flag (without which it
    then vanishes), and g^2 - 1 on V/W and a block into W in comp's rows."""
    if e < inner.r or e == inner.r and inner.stronger_power_nonzero:
        return True
    rows = lifted + comp if inner.stronger_power_nonzero else comp
    return bool(factors.power(g, [g.field._ops._form(v) for v in rows], e))

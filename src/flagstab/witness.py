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
`verify_witness` re-checks the result in the original coordinates.

Each fact about (g, s) is computed once and passed down: nil = g - 1, its
jump images (the stabilizer test and the coarsening), its kernel chain
(the exponent, and the Jordan chains' pullback) and the chain vectors'
levels (the last straightening pass).  `build_h` reuses its h - 1.

`extend_witness` builds the witness for the induced series on a
g-invariant core W and extends it by the identity on a complement that
splits every member.  In the basis made of W's chain vectors, lifted to
V, and that complement, the extension is again 1 + the r - 1 ones at
(y_l, x_{l+1}), so `build_h` forms it, and the lifted inner probe
survives on V.  Its `stronger_power_nonzero` flag is still m^r != 0 for
the dense m = g g^h - 1: on V/W, m acts as g^2 - 1, which the chains of
W do not see.
"""

from .errors import (
    AdaptationError,
    ContainmentError,
    FieldMismatchError,
    FlagstabError,
    NotUnipotentError,
    PreorderError,
    SelectionError,
    ShapeError,
    WitnessError,
)
from .linalg import Mat, QuotientMap, Subspace, Vec, left_kernel_rows
from .series import Series, _coarsening, _jump_images, _minus_one, canonical_coarsening
from .series import in_stabilizer, is_adapted_basis
from .series import level_of as level
from .unipotent import _jordan_chains, _kernel_chain, jordan_chains, unipotent_exponent

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
    first level's dependency modulo the member below, or None if none."""
    levels = [[level(v, s) for v in chain] for chain in chains]
    items_by_level = {}
    for ci, (chain, lvls) in enumerate(zip(chains, levels)):
        for j, (v, lvl) in enumerate(zip(chain, lvls)):
            items_by_level.setdefault(lvl, []).append((ci, j, v))
    for lvl in sorted(items_by_level):
        items = items_by_level[lvl]
        below = s.members[lvl]
        rows = [v for (_, _, v) in items] + below.basis_vecs()
        got = Subspace._span(s.field, s.ambient_dim, rows)
        if got.dim == below.dim + len(items):
            continue
        # explicit dependency: kill the projections modulo `below`
        qm = QuotientMap(below, s.members[lvl - 1])
        proj = [qm.project(v).entries for (_, _, v) in items]
        for coeffs in left_kernel_rows(s.field, proj, qm.dim):
            support = [
                (ci, j, v, c)
                for (ci, j, v), c in zip(items, coeffs)
                if c != 0
            ]
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


def _deep_first(s):
    """`jordan_chains` candidates: each kernel's meets with s, deepest first."""

    def order(height, target):
        cands = []
        seen = set()
        for member in reversed(s.members):
            inter = target.intersect(member)
            # a basis row is known by its kernel row, which over QQ is
            # integers and cheaper to hash than the Fractions
            for row, v in zip(inter._rows(), inter.basis_vecs()):
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    cands.append(v)
        return cands

    return order


def adapted_jordan_chains(g, s):
    """Jordan chains of g whose vectors form an s-adapted basis.

    Chain heads are preferred deep in the series; remaining level
    dependencies are absorbed by coherent chain moves.  Raises
    AdaptationError if no adapted system is reached.
    """
    return straighten_chains(jordan_chains(g, _deep_first(s)), g, s)


def straighten_chains(chains, g, s):
    """Absorb level dependencies until the chain vectors are s-adapted."""
    return _straighten(chains, s, g - Mat.identity(g.field, g.nrows))[0]


def _straighten(chains, s, nil):
    """`straighten_chains` for g = 1 + nil, with the chain vectors' levels."""
    chains = [list(c) for c in chains]
    max_moves = 4 * s.ambient_dim * max(1, s.num_jumps)
    for _ in range(max_moves):
        levels, dep = _level_dependency(chains, s)
        if dep is None:
            break
        _apply_chain_move(chains, dep, s.field)
    else:
        raise AdaptationError("level straightening did not converge")
    vecs = [v for chain in chains for v in chain]
    if not is_adapted_basis(vecs, s):
        raise AdaptationError("chains failed the adapted-basis check")
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            if a @ nil != b:
                raise AdaptationError("straightened chain breaks v_(j+1) = v_j (g-1)")
        if not (chain[-1] @ nil).is_zero():
            raise AdaptationError("straightened chain does not end in the kernel")
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
    seen_blocks = set()
    for _, _, bi in sel.pairs:
        if bi in seen_blocks:
            raise SelectionError("selection reuses a block")
        seen_blocks.add(bi)
    field = s.field
    n = s.ambient_dim
    basis = list(basis)
    if len(basis) != n:
        raise SelectionError("basis size differs from the ambient dimension")
    ys = [sel.pairs[l][1] for l in range(sel.r - 1)]
    xs = [sel.pairs[l + 1][0] for l in range(sel.r - 1)]
    if not all(0 <= i < n for i in ys + xs):
        raise SelectionError("a pair indexes outside the basis")
    p = Mat.from_vecs(field, basis, ncols=n)
    p_inv_cols = p._inverse_columns(ys)
    if set(ys) & set(xs):
        raise WitnessError("h-square", "(h-1)^2 != 0; selection inconsistent")
    h1 = p_inv_cols @ Mat._of(field, [p.rows[x] for x in xs], n)
    h = Mat.identity(field, n) + h1
    if _jump_images(h, s, h1) is None:
        raise WitnessError(
            "h-not-in-stabilizer", "constructed h escapes the stabilizer"
        )
    return h


def _jordan_probe(chains, sel, p):
    """Index of the probe, and whether m^r != 0, for m = g g^h - 1 and
    r = sel.r.

    In the chain basis m is M = J (2 - C) J C - 1 (module docstring),
    an integer matrix, reduced mod p over GF(p) (p is None over QQ).
    The candidates y_1, then every chain vector, are unit rows there,
    so candidate i survives m^(r-1) exactly when row i of M^(r-1) is
    nonzero.  The index is None when no candidate survives.
    """
    shift, n = [], 0
    for chain in chains:
        shift += [(n + j, n + j + 1) for j in range(len(chain) - 1)]
        n += len(chain)
    twists = [(sel.pairs[l][1], sel.pairs[l + 1][0]) for l in range(sel.r - 1)]

    def plus(v, edges, sign=1):
        # v (1 + sign * sum of E(a, b) over the edges)
        w = list(v)
        for a, b in edges:
            w[b] += sign * v[a]
        return w

    def times_m(v):
        w = plus(plus(plus(plus(v, shift), twists, -1), shift), twists)
        w = [a - b for a, b in zip(w, v)]
        return [a % p for a in w] if p is not None else w

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
        kc = _kernel_chain(nil)
    except NotUnipotentError:
        raise WitnessError("not-unipotent", "a stabilizer element is not unipotent") from None
    k = len(kc)
    coarse = _coarsening(s, images)
    if len(coarse.members) < len(s.members):
        raise WitnessError("coarsenable", "g stabilizes a proper subseries")
    if not k < n - 2:
        raise WitnessError(
            "exponent-too-large", f"exponent {k} is not below n-2 = {n - 2}"
        )
    chains, levels = _straighten(_jordan_chains(nil, kc, _deep_first(s)), s, nil)
    sel = select_pairs(_preordered_basis_from_chains(levels, n))
    basis = [v for chain in chains for v in chain]
    for x, y, _ in sel.pairs:
        if basis[x] @ nil != basis[y]:
            raise WitnessError("pair-not-chain-step", "a selected pair is not a chain step")
    h = build_h(sel, basis, s)
    r = (n - 2) // k
    if r != sel.r:
        raise WitnessError("selection-size", f"selected {sel.r} pairs, expected {r}")
    probe, stronger = _jordan_probe(chains, sel, g.field.p)
    if probe is None:
        raise WitnessError("power-vanished", "(g g^h - 1)^(r-1) = 0 unexpectedly")
    cert = WitnessCertificate(h, r, basis[probe], sel, stronger)
    if not verify_witness(g, s, cert):
        raise WitnessError("not-verified", "the built certificate failed re-verification")
    return cert, basis


def verify_witness(g, s, cert):
    """Re-check a certificate by direct exact arithmetic.

    Once (h - 1)^2 = 0 is checked, h^-1 = 2 - h, and the probe is pushed
    through m = g g^h - 1 one vector product at a time.  The left kernels
    of the powers of an n x n matrix stop growing by the n-th power, so
    v m^(r-1) != 0 exactly when v m^min(r-1, n) != 0.
    """
    ident = Mat.identity(g.field, g.nrows)
    try:
        if not in_stabilizer(cert.h, s):
            return False
    except FlagstabError:
        return False
    nil = cert.h - ident
    if not (nil @ nil).is_zero():
        return False
    if cert.r < 1 or cert.probe.is_zero():
        return False
    v = cert.probe
    if v.field != g.field:
        raise FieldMismatchError(f"{v.field} vs {g.field}")
    if v.dim != g.nrows:
        raise ShapeError("vector/matrix shapes differ")
    h_inv = ident - nil
    for _ in range(min(cert.r - 1, g.nrows)):
        v = v @ g @ h_inv @ g @ cert.h - v
        if v.is_zero():
            return False
    return True


def _series_split_complement(w, s):
    """Vectors completing w to V so that every member of s splits.

    Processes jumps from the deepest up, extending bottom + (top & w)
    to the top from the top's canonical basis.
    """
    comp = []
    for jump in reversed(s.jumps()):
        # the rows chosen at deeper jumps already lie in jump.bottom
        current = jump.bottom.sum(jump.top.intersect(w))
        new, _ = current._extend(jump.top.basis, jump.top.dim)
        comp += [Vec._of(s.field, row) for row in new]
    return comp


def invariant_core(g, s, n):
    """g-invariant subspace spanning n strict coarsening steps.

    Returns (core series of length n, core subspace W); one vector per
    step witnesses that the step cannot be skipped, and W collects their
    orbits under g - 1.
    """
    coarse = canonical_coarsening(g, s)
    return _invariant_core(s, n, coarse, g - Mat.identity(s.field, s.ambient_dim))


def _invariant_core(s, n, coarse, nil):
    """`invariant_core` from the canonical coarsening of g = 1 + nil."""
    if coarse.num_jumps < n:
        raise WitnessError(
            "coarsenable", f"g stabilizes a subseries of length {coarse.num_jumps} < {n}"
        )
    field = s.field
    dim = s.ambient_dim
    zero = Subspace.zero(field, dim)
    core = Series(field, dim, list(coarse.members[:n]) + [zero])
    vs = []
    for i in range(1, n):
        target = core.members[i + 1]
        found = None
        for row in core.members[i - 1].basis:
            v = Vec._of(field, row)
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
            rows.append(v.entries)
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
    """
    nil = _minus_one(g)
    images = _jump_images(g, s, nil)
    if images is None:
        raise WitnessError("not-in-stabilizer", "g does not stabilize the series")
    k = unipotent_exponent(g)
    if k is None:
        raise WitnessError("not-unipotent", "a stabilizer element is not unipotent")
    if not k < n - 2:
        raise WitnessError(
            "exponent-too-large", f"exponent {k} is not below n-2 = {n - 2}"
        )
    field = s.field
    dim = s.ambient_dim
    coarse = _coarsening(s, images)
    _, w = _invariant_core(s, n, coarse, nil)
    # coordinates in w's basis
    qm = QuotientMap(Subspace.zero(field, dim), w)
    try:
        g_w = qm.induced_matrix(g)
        members_w = []
        for x in coarse.members:
            sub = qm.project_subspace(x.intersect(w))
            if sub not in members_w:
                members_w.append(sub)
    except ContainmentError:
        raise WitnessError("core-not-invariant", "core subspace is not invariant") from None
    series_w = canonical_coarsening(g_w, Series(field, w.dim, members_w))
    if series_w.num_jumps < n:
        raise WitnessError("core-lost-jump", "induced series lost a jump")
    inner, chain_basis = _witness_with_basis(g_w, series_w)
    # h is the inner h on W and the identity on a splitting complement
    basis = [qm.lift(v) for v in chain_basis] + _series_split_complement(w, s)
    h = build_h(inner.selection, basis, s)
    r = (n - 2) // k
    # W is invariant under g and h, and r <= inner.r, so the lifted probe
    # survives m^(r-1); m^r is decided on all of V, with h^-1 = 2 - h.
    ident = Mat.identity(field, dim)
    m = g @ ((ident - (h - ident)) @ g @ h) - ident
    stronger = not m.pow(r).is_zero()
    cert = WitnessCertificate(h, r, qm.lift(inner.probe), inner.selection, stronger)
    if not verify_witness(g, s, cert):
        raise WitnessError("not-verified", "the extended certificate failed re-verification")
    return cert

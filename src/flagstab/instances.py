"""Seeded random instances for tests and the command line generator.

Witness instances place Jordan chains that link consecutive levels of a
standard flag, then conjugate by a random stabilizer element; the
non-coarsenability they promise is re-checked, never assumed.
"""

from .linalg import Mat, QuotientMap, Subspace, Vec, complement_basis, image
from .series import Series, _jump_levels, canonical_coarsening, in_stabilizer
from .transvections import TransvectionSpec, _annihilating_spec, make_transvection
from .unipotent import unipotent_exponent
from .witness import PreorderedBasis

__all__ = [
    "random_scalar",
    "random_invertible",
    "random_series",
    "adapted_basis_of",
    "random_stabilizer_element",
    "random_transvection",
    "random_annihilating_spec",
    "random_square_zero_pair",
    "random_preordered_basis",
    "witness_instance",
]


def random_scalar(rng, field, small=False):
    if field.is_prime_field:
        return rng.randrange(field.p)
    if small:
        return field.coerce(rng.choice([-1, 0, 0, 1]))
    return field.coerce(rng.randint(-2, 2))


def random_invertible(rng, field, n):
    while True:
        m = Mat(field, [[random_scalar(rng, field) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def random_series(rng, field, n, length):
    """Random series with the requested number of non-trivial members."""
    assert 0 <= length <= n - 1
    q = random_invertible(rng, field, n)
    dims = rng.sample(range(1, n), length) if length else []
    dims.sort(reverse=True)
    members = [Subspace.full(field, n)]
    for d in dims:
        members.append(Subspace.span(field, n, q.rows[n - d :]))
    members.append(Subspace.zero(field, n))
    return Series(field, n, members)


def adapted_basis_of(s):
    """Deterministic adapted basis: jump complements, shallow levels first."""
    basis = []
    for jump in s.jumps():
        basis.extend(complement_basis(jump.bottom, jump.top))
    return basis


def random_stabilizer_element(rng, s, sparsity=None):
    """Random element of S(s): unitriangular in an adapted basis."""
    basis = adapted_basis_of(s)
    n = s.ambient_dim
    field = s.field
    levels = _jump_levels(s)
    coords = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(n) if levels[j] > levels[i]]
    if sparsity is None:
        sparsity = max(1, len(slots) // 3)
    for i, j in rng.sample(slots, min(sparsity, len(slots))):
        coords[i][j] = random_scalar(rng, field, small=not field.is_prime_field)
    p = Mat.from_vecs(field, basis, ncols=n)
    t = p.inverse() @ Mat(field, coords) @ p
    assert in_stabilizer(t, s)
    return t


def _random_row_in(rng, u):
    """Entries of a random combination of u's basis vectors, one scalar per
    vector in basis order (small over QQ)."""
    field = u.field
    row = Vec.zero(field, u.ambient_dim)
    for b in u.basis_vecs():
        row = row + b.scale(random_scalar(rng, field, small=not field.is_prime_field))
    return row.entries


def random_transvection(rng, s):
    """Transvection built over a random proper member of s."""
    candidates = [x for x in s.members if 0 < x.dim < s.ambient_dim]
    if not candidates:
        return Mat.identity(s.field, s.ambient_dim)
    u = rng.choice(candidates)
    rows = [_random_row_in(rng, u) for _ in range(s.ambient_dim - u.dim)]
    spec = TransvectionSpec(u, Mat(s.field, rows, ncols=s.ambient_dim))
    return make_transvection(spec)


def random_annihilating_spec(rng, s, t):
    """Random map V/U -> U vanishing on ([V,t]+U)/U, for a random member U."""
    u = rng.choice(s.members)
    return _annihilating_spec(u, t, lambda k: [_random_row_in(rng, u) for _ in range(k)])


def random_square_zero_pair(rng, field, dim):
    """(eta, g) with g invertible, eta^2 = 0 and (g-1) eta = 0.

    Built as a transvection displacement over a subspace containing the
    image of g - 1, so every derived square also vanishes.
    """
    s = random_series(rng, field, dim, rng.randint(1, max(1, dim - 2)))
    g = random_stabilizer_element(rng, s)
    ident = Mat.identity(field, dim)
    u = image(g - ident)
    # enlarge u with a random member above it to vary the kernel
    for x in s.members:
        if x.contains(u) and rng.random() < 0.5:
            u = x
            break
    qm = QuotientMap(u, Subspace.full(field, dim))
    if qm.dim == 0 or u.dim == 0:
        return Mat.zero(field, dim, dim), g
    rows = [_random_row_in(rng, u) for _ in range(qm.dim)]
    eta = qm.projection_matrix() @ Mat(field, rows, ncols=dim)
    return eta, g


def random_preordered_basis(rng, n, k):
    """Valid random preordered basis on 1..n with blocks of size <= k.

    Blocks linking (a-1, a) cover every step; extra singleton blocks add
    noise.  At least one block has size exactly k.
    """
    assert k >= 2 and n >= 2
    blocks_f = []
    a = n
    first = True
    while a >= 2:
        size = k if first else rng.randint(2, k)
        first = False
        lo = max(1, a - size + 1)
        blocks_f.append(list(range(lo, a + 1)))
        a = lo
    extra = rng.randint(0, 3)
    for _ in range(extra):
        blocks_f.append([rng.randint(1, n)])
    rng.shuffle(blocks_f)
    blocks = []
    fvals = []
    eid = 0
    for bf in blocks_f:
        block = []
        for f in sorted(bf):
            fvals.append(f)
            block.append(eid)
            eid += 1
        blocks.append(block)
    return PreorderedBasis(blocks, fvals, n)


def _chain_layout(n, k):
    """Chain start levels and lengths covering every link of 1..n."""
    chains = []
    a = 1
    while a < n:
        length = min(k, n - a + 1)
        chains.append((a, length))
        a += length - 1
    return chains


def witness_instance(rng, field, n, k, pad=0, scramble=False, extra_level_pad=0):
    """Non-coarsenable g in S(flag with n jumps) of exponent k.

    `pad` adds extra fixed vectors at existing levels; `extra_level_pad`
    inserts whole fixed levels (so the returned series is longer than
    the coarsening).  Returns (g, series).
    """
    assert n >= 3 and 2 <= k < n - 2
    layout = _chain_layout(n, k)
    # positions: list of (level, tag) per basis vector
    levels = []
    chain_positions = []
    for start, length in layout:
        pos = []
        for step in range(length):
            pos.append(len(levels))
            levels.append(start + step)
        chain_positions.append(pos)
    for _ in range(pad):
        levels.append(rng.randint(1, n))
    total_levels = n + extra_level_pad
    if extra_level_pad:
        # remap core levels into a longer scale, inserting fixed levels
        insert_at = sorted(rng.sample(range(1, n), extra_level_pad))
        remap = {}
        shift = 0
        for lvl in range(1, n + 1):
            while shift < len(insert_at) and insert_at[shift] < lvl:
                shift += 1
            remap[lvl] = lvl + shift
        levels = [remap[l] for l in levels]
        used = set(range(1, total_levels + 1)) - set(remap.values())
        for lvl in sorted(used):
            levels.append(lvl)
    dim = len(levels)
    order = sorted(range(dim), key=lambda i: (levels[i], i))
    position = {orig: new for new, orig in enumerate(order)}
    field_levels = [levels[orig] for orig in order]
    nil_rows = [[field.zero] * dim for _ in range(dim)]
    for pos in chain_positions:
        for a, b in zip(pos, pos[1:]):
            nil_rows[position[a]][position[b]] = field.one
    g0 = Mat.identity(field, dim) + Mat(field, nil_rows)
    members = [Subspace.full(field, dim)]
    for lvl in range(1, total_levels + 1):
        rows = [
            [field.one if j == i else field.zero for j in range(dim)]
            for i in range(dim)
            if field_levels[i] > lvl
        ]
        members.append(Subspace.span(field, dim, rows))
    s = Series(field, dim, members)
    t = random_stabilizer_element(rng, s)
    g = t.inverse() @ g0 @ t
    if scramble:
        q = random_invertible(rng, field, dim)
        g = q.inverse() @ g @ q
        s = Series(field, dim, [x.apply(q) for x in s.members])
    assert in_stabilizer(g, s)
    assert unipotent_exponent(g) == k
    coarse = canonical_coarsening(g, s)
    assert coarse.num_jumps >= n
    if not extra_level_pad:
        assert coarse == s
    return g, s

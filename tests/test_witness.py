import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.errors import (
    FieldMismatchError,
    FlagstabError,
    PreorderError,
    SelectionError,
    SeriesError,
    ShapeError,
    SingularMatrixError,
    WitnessError,
)
from flagstab.instances import (
    adapted_basis_of,
    random_invertible,
    random_preordered_basis,
    random_scalar,
    random_series,
    random_stabilizer_element,
    witness_instance,
)
from flagstab.linalg import GF, QQ, Mat, Subspace, Vec, kernel
from flagstab.series import Series, canonical_coarsening, in_stabilizer, is_adapted_basis
from flagstab.unipotent import unipotent_exponent
from flagstab.witness import (
    PairSelection,
    PreorderedBasis,
    WitnessCertificate,
    adapted_jordan_chains,
    build_h,
    construct_witness,
    extend_witness,
    level,
    select_pairs,
    validate_selection,
    verify_witness,
)

F2 = GF(2)
F5 = GF(5)


def full_flag(field, n):
    members = [Subspace.full(field, n)]
    for i in range(1, n):
        rows = [[field.one if j == c else field.zero for j in range(n)] for c in range(i, n)]
        members.append(Subspace.span(field, n, rows))
    members.append(Subspace.zero(field, n))
    return Series(field, n, members)


def test_level_examples():
    s = full_flag(F5, 3)
    assert level(Vec(F5, [0, 0, 1]), s) == 3
    assert level(Vec(F5, [1, 0, 0]), s) == 1
    assert level(Vec(F5, [0, 1, 1]), s) == 2


def test_preordered_basis_clauses():
    # the documented 5-block instance
    pb = PreorderedBasis(
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
        [5, 6, 4, 5, 3, 4, 2, 3, 1, 2],
        6,
    )
    assert pb.k == 2
    # clause 3 failure: no block with both 2 and 1
    with pytest.raises(PreorderError):
        PreorderedBasis([(0,), (1,), (2,)], [1, 2, 3], 3)
    # cover failure
    with pytest.raises(PreorderError):
        PreorderedBasis([(0, 1)], [1, 2], 3)
    # non-injective on a block
    with pytest.raises(PreorderError):
        PreorderedBasis([(0, 1)], [1, 1], 1)
    # cross-block monotonicity failure needs explicit keys
    with pytest.raises(PreorderError):
        PreorderedBasis([(0, 1), (2, 3)], [1, 2, 2, 3], 3, keys=[1, 2, 1, 1])


def test_select_pairs_documented_cases():
    pb = PreorderedBasis(
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
        [5, 6, 4, 5, 3, 4, 2, 3, 1, 2],
        6,
    )
    sel = select_pairs(pb)
    assert sel.r == 2
    assert sel.pairs[0][2] == 0 and sel.pairs[1][2] == 2
    assert pb.fvals[sel.pairs[0][0]] == 6 and pb.fvals[sel.pairs[0][1]] == 5
    pb2 = PreorderedBasis([(0, 1), (2, 3), (4, 5)], [3, 4, 2, 3, 1, 2], 4)
    sel2 = select_pairs(pb2)
    assert sel2.r == 1
    assert pb2.fvals[sel2.pairs[0][0]] == 4


def test_select_pairs_randomized_oracle():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 12)
        k = rng.randint(2, 3)
        pb = random_preordered_basis(rng, n, k)
        sel = select_pairs(pb)
        assert sel.r == max(0, (n - 2) // pb.k)
        validate_selection(pb, sel)


def test_validate_selection_rejects():
    pb = PreorderedBasis(
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
        [5, 6, 4, 5, 3, 4, 2, 3, 1, 2],
        6,
    )
    with pytest.raises(SelectionError):
        validate_selection(pb, PairSelection([(1, 0, 0)]))  # wrong r
    with pytest.raises(SelectionError):
        validate_selection(pb, PairSelection([(1, 0, 0), (1, 0, 0)]))  # reuse
    with pytest.raises(SelectionError):
        validate_selection(pb, PairSelection([(1, 0, 0), (4, 5, 2)]))  # not adjacent


def test_adapted_jordan_on_awkward_instance():
    # chains u -> p, w -> q where the canonical Jordan basis misses the
    # step between the middle levels; straightening must fix it
    nil = Mat(QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    g = Mat.identity(QQ, 4) + nil
    members = [
        Subspace.full(QQ, 4),
        Subspace.span(QQ, 4, [[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        Subspace.span(QQ, 4, [[0, 0, 1, -1]]),
        Subspace.zero(QQ, 4),
    ]
    s = Series(QQ, 4, members)
    assert canonical_coarsening(g, s) == s
    chains = adapted_jordan_chains(g, s)
    vecs = [v for c in chains for v in c]
    assert is_adapted_basis(vecs, s)
    profiles = sorted(tuple(level(v, s) for v in c) for c in chains)
    assert profiles == [(1, 2), (2, 3)]


def test_straighten_chains_repairs_naive_basis():
    # feed the straightener the naive chains directly: levels collide at
    # both middle levels and a coherent chain move must fix them
    from flagstab.unipotent import jordan_chains
    from flagstab.witness import straighten_chains

    nil = Mat(QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    g = Mat.identity(QQ, 4) + nil
    members = [
        Subspace.full(QQ, 4),
        Subspace.span(QQ, 4, [[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        Subspace.span(QQ, 4, [[0, 0, 1, -1]]),
        Subspace.zero(QQ, 4),
    ]
    s = Series(QQ, 4, members)
    naive = jordan_chains(g)
    assert not is_adapted_basis([v for c in naive for v in c], s)
    fixed = straighten_chains(naive, g, s)
    assert is_adapted_basis([v for c in fixed for v in c], s)
    profiles = sorted(tuple(level(v, s) for v in c) for c in fixed)
    assert profiles == [(1, 2), (2, 3)]


def test_straighten_chains_randomized():
    # random stabilizer-conjugated instances, straightened from the
    # naive Jordan chains rather than the deep-first ones
    from flagstab.unipotent import jordan_chains
    from flagstab.witness import straighten_chains

    rng = random.Random(9)
    done = 0
    for _ in range(30):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(6, 9)
        g, s = witness_instance(rng, field, n, 2, pad=rng.randint(0, 2))
        naive = jordan_chains(g)
        fixed = straighten_chains(naive, g, s)
        assert is_adapted_basis([v for c in fixed for v in c], s)
        if not is_adapted_basis([v for c in naive for v in c], s):
            done += 1
    assert done >= 1  # at least one instance genuinely needed repair


@pytest.mark.parametrize("field", [F5, QQ])
def test_straighten_chains_checks_caller_chain_relations(field):
    # adapted chains stay adapted when a chain vector is scaled or a chain
    # is split, so only the chain-relation check rejects them
    from flagstab.errors import AdaptationError
    from flagstab.witness import straighten_chains

    g, s = witness_instance(random.Random(5), field, 8, 2)
    chains = adapted_jordan_chains(g, s)
    ci = next(i for i, c in enumerate(chains) if len(c) >= 2)
    assert straighten_chains(chains, g, s) == chains
    scaled = [list(c) for c in chains]
    scaled[ci][1] = scaled[ci][1].scale(field.coerce(2))
    split = [list(c) for c in chains]
    split[ci:ci + 1] = [chains[ci][:1], chains[ci][1:]]
    for bad, message in [(scaled, "straightened chain breaks v_(j+1) = v_j (g-1)"),
                         (split, "straightened chain does not end in the kernel")]:
        with pytest.raises(AdaptationError) as info:
            straighten_chains(bad, g, s)
        assert str(info.value) == message


def test_build_h_examples():
    rng = random.Random(2)
    g, s = witness_instance(rng, F5, 6, 2)
    chains = adapted_jordan_chains(g, s)
    basis = [v for c in chains for v in c]
    # empty selection gives the identity
    h = build_h(PairSelection([]), basis, s)
    assert h.is_identity()
    with pytest.raises(SelectionError):
        build_h(PairSelection([(0, 1, 0), (2, 3, 0)]), basis, s)


def test_build_h_rejects_a_basis_of_another_field_or_width():
    rng = random.Random(2)
    g, s = witness_instance(rng, F5, 6, 2)
    basis = [v for c in adapted_jordan_chains(g, s) for v in c]
    sel = PairSelection([(0, 1, 0)])
    rational = [Vec(QQ, v.entries) for v in basis]
    rational[0] = Vec(QQ, [rational[0][0] + Fraction(1, 2), *rational[0].entries[1:]])
    for bad in (rational, [Vec(QQ, v.entries) for v in basis]):
        with pytest.raises(FieldMismatchError):
            build_h(sel, bad, s)
    # one row too wide, and every row too wide
    wide = [Vec(F5, [*v.entries, 0]) for v in basis]
    for bad in (basis[:-1] + wide[-1:], wide):
        with pytest.raises(ShapeError):
            build_h(sel, bad, s)


def test_construct_witness_precondition_errors():
    rng = random.Random(3)
    g, s = witness_instance(rng, F5, 6, 2)
    with pytest.raises(WitnessError) as e:
        construct_witness(Mat.identity(F5, s.ambient_dim), s)
    assert e.value.reason == "coarsenable"
    bad = Mat(F5, [[2 if i == j else 0 for j in range(s.ambient_dim)] for i in range(s.ambient_dim)])
    with pytest.raises(WitnessError) as e:
        construct_witness(bad, s)
    assert e.value.reason == "not-in-stabilizer"
    # exponent too large: full Jordan block on its full flag has k = n
    flag = full_flag(F5, 5)
    from flagstab.unipotent import jordan_matrix

    with pytest.raises(WitnessError) as e:
        construct_witness(jordan_matrix(F5, [5]), flag)
    assert e.value.reason == "exponent-too-large"


def test_construct_witness_reason_precedence():
    from flagstab.unipotent import jordan_matrix

    # e0 -> e1 -> e2 -> 0 stabilizes the full flag of F^5 (n = 5 jumps)
    # and its coarsening V > <e1..e4> > <e2, e3, e4> > 0, with exponent
    # 3 >= n - 2: both preconditions fail, and coarsenable is reported
    flag = full_flag(F5, 5)
    g = jordan_matrix(F5, [3, 1, 1])
    assert len(canonical_coarsening(g, flag).members) < len(flag.members)
    with pytest.raises(WitnessError) as e:
        construct_witness(g, flag)
    assert e.value.reason == "coarsenable"
    # the transposes send e1 to e0 and leave the flag; that is reported
    # first, whatever else fails
    for bad in (g.transpose(), jordan_matrix(F5, [5]).transpose()):
        assert not in_stabilizer(bad, flag)
        with pytest.raises(WitnessError) as e:
            construct_witness(bad, flag)
        assert e.value.reason == "not-in-stabilizer"


def test_construct_witness_randomized():
    rng = random.Random(4)
    for _ in range(20):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(6, 10)
        k = rng.choice([2, 3])
        if not k < n - 2:
            continue
        g, s = witness_instance(rng, field, n, k, pad=rng.randint(0, 2))
        cert = construct_witness(g, s)
        assert cert.r == (n - 2) // k
        assert verify_witness(g, s, cert)
        ident = Mat.identity(field, s.ambient_dim)
        assert ((cert.h - ident) @ (cert.h - ident)).is_zero()
        assert in_stabilizer(cert.h, s)
        # the conjugate product is in the stabilizer but needs length >= r
        gg = g @ (cert.h.inverse() @ g @ cert.h)
        assert in_stabilizer(gg, s)
        assert canonical_coarsening(gg, s).num_jumps >= cert.r


def test_witness_probe_is_exact():
    rng = random.Random(5)
    g, s = witness_instance(rng, QQ, 8, 2)
    cert = construct_witness(g, s)
    ident = Mat.identity(QQ, s.ambient_dim)
    gg = g @ (cert.h.inverse() @ g @ cert.h)
    m = gg - ident
    assert not (cert.probe @ m.pow(cert.r - 1)).is_zero()
    # tampering with the probe must break verification
    bad = WitnessCertificate(
        cert.h, cert.r, Vec.zero(QQ, s.ambient_dim), cert.selection, False
    )
    assert not verify_witness(g, s, bad)
    bad2 = WitnessCertificate(cert.h, s.num_jumps + 1, cert.probe, cert.selection, False)
    assert not verify_witness(g, s, bad2)


def test_extend_witness_agrees_on_unpadded():
    rng = random.Random(6)
    g, s = witness_instance(rng, F5, 7, 2)
    c1 = construct_witness(g, s)
    c2 = extend_witness(g, s, 7)
    assert verify_witness(g, s, c1) and verify_witness(g, s, c2)
    assert c1.r == c2.r


def test_extend_witness_padded():
    rng = random.Random(7)
    for _ in range(8):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(6, 9)
        g, s = witness_instance(
            rng, field, n, 2, pad=rng.randint(4, 6), extra_level_pad=rng.randint(0, 2)
        )
        cert = extend_witness(g, s, n)
        assert verify_witness(g, s, cert)


def test_extend_witness_certifies_every_n_up_to_the_jump_count(monkeypatch):
    """`gen` instances at exponent 2 with n equal to the coarsening's jump
    count J and one below it, then exponent 3 with every n from k + 3 to
    J; below J the inner series may have more than n jumps."""
    import flagstab.witness as witness

    inner_jumps = []
    real = witness._witness_with_basis

    def spy(g, s):
        inner_jumps.append(s.num_jumps)
        return real(g, s)

    monkeypatch.setattr(witness, "_witness_with_basis", spy)
    cases = [(field, length, 2, pad, seed)
             for field in (F2, F5, QQ) for length in range(6, 11)
             for pad in (0, 3) for seed in (0, 1)]
    cases += [(field, length, 3, pad, seed)
              for field in (F2, F5, QQ) for length in (7, 8)
              for pad in (0, 3) for seed in (0, 1)]
    calls = longer = 0
    for field, length, k, pad, seed in cases:
        g, s = witness_instance(random.Random(seed), field, length, k, pad=pad)
        jumps = canonical_coarsening(g, s).num_jumps
        for n in (jumps, jumps - 1) if k == 2 else range(k + 3, jumps + 1):
            inner_jumps.clear()
            cert = extend_witness(g, s, n)
            assert verify_witness(g, s, cert)
            assert cert.r == (n - 2) // k
            assert inner_jumps[-1] >= n
            if n == jumps:
                assert inner_jumps[-1] == n
            calls += 1
            longer += inner_jumps[-1] > n
    assert calls == 180 and longer > 0


def test_extend_witness_precondition():
    rng = random.Random(8)
    g, s = witness_instance(rng, F5, 6, 2)
    with pytest.raises(WitnessError) as e:
        extend_witness(g, s, s.num_jumps + 3)
    assert e.value.reason == "coarsenable"


def test_invariant_core_series_passes_the_public_checks():
    """The core series is built without re-checking its members; each one
    must still pass `Series(...)`, and n = 0, which leaves V out, raises."""
    from flagstab.errors import SeriesError
    from flagstab.witness import invariant_core

    rng = random.Random(9)
    for field in (F2, F5, QQ):
        g, s = witness_instance(rng, field, 6, 2, pad=2)
        for n in range(1, canonical_coarsening(g, s).num_jumps + 1):
            core, _ = invariant_core(g, s, n)
            assert core == Series(field, s.ambient_dim, core.members) and core.num_jumps == n
        with pytest.raises(SeriesError, match="first member must be the full space"):
            invariant_core(g, s, 0)


def test_unverified_witness_raises(monkeypatch):
    import flagstab.witness as witness

    rng = random.Random(9)
    g, s = witness_instance(rng, F5, 7, 2)
    monkeypatch.setattr(witness, "verify_witness", lambda g, s, cert: False)
    with pytest.raises(WitnessError) as e:
        construct_witness(g, s)
    assert e.value.reason == "not-verified"


def test_unverified_extension_raises(monkeypatch):
    import flagstab.witness as witness

    real = witness.verify_witness
    calls = []

    def verify_inner_only(g, s, cert):
        # The first call checks the inner witness on the core; the
        # second checks the extension on all of V.
        calls.append(s.ambient_dim)
        return len(calls) == 1 and real(g, s, cert)

    rng = random.Random(10)
    g, s = witness_instance(rng, F5, 7, 2, pad=4)
    monkeypatch.setattr(witness, "verify_witness", verify_inner_only)
    with pytest.raises(WitnessError) as e:
        extend_witness(g, s, 7)
    assert e.value.reason == "not-verified"
    assert len(calls) == 2


def test_extension_builds_h_through_the_square_zero_check(monkeypatch):
    import flagstab.witness as witness

    real = witness._witness_with_basis

    def forged_inner(g, s):
        # y_0 = x_1 in distinct blocks: (h - 1)^2 != 0 in the lifted basis
        cert, basis = real(g, s)
        cert.selection = PairSelection([(0, 1, 0), (1, 2, 1)])
        return cert, basis

    rng = random.Random(10)
    g, s = witness_instance(rng, F5, 7, 2, pad=4)
    monkeypatch.setattr(witness, "_witness_with_basis", forged_inner)
    with pytest.raises(WitnessError) as e:
        extend_witness(g, s, 7)
    assert e.value.reason == "h-square"


def test_verify_witness_rejects_malformed_h():
    rng = random.Random(10)
    g, s = witness_instance(rng, F5, 7, 2)
    cert = construct_witness(g, s)
    n = s.ambient_dim
    for h in (Mat.identity(F5, n - 1), Mat.zero(F5, n, n + 1)):
        with pytest.raises(FlagstabError):
            in_stabilizer(h, s)
        bad = WitnessCertificate(h, cert.r, cert.probe, cert.selection, False)
        assert not verify_witness(g, s, bad)
    with pytest.raises(ShapeError):
        in_stabilizer(Mat.identity(F5, n - 1), s)


def test_verify_witness_propagates_foreign_errors(monkeypatch):
    import flagstab.witness as witness

    rng = random.Random(10)
    g, s = witness_instance(rng, F5, 7, 2)
    cert = construct_witness(g, s)

    def broken(factors, s):
        raise RuntimeError("not a library error")

    monkeypatch.setattr(witness._RankFactors, "stabilizes", broken)
    with pytest.raises(RuntimeError):
        verify_witness(g, s, cert)


def test_construct_witness_raises_on_broken_internal_steps(monkeypatch):
    import flagstab.witness as witness
    from flagstab.errors import NotUnipotentError

    def not_unipotent(nil, basis, images):
        raise NotUnipotentError("matrix is not unipotent")

    rng = random.Random(12)
    g, s = witness_instance(rng, F5, 8, 2)
    assert construct_witness(g, s).r == 3
    with monkeypatch.context() as m:
        m.setattr(witness, "_kernel_chain", not_unipotent)
        with pytest.raises(WitnessError) as e:
            construct_witness(g, s)
        assert e.value.reason == "not-unipotent"
    real = witness.select_pairs
    monkeypatch.setattr(witness, "select_pairs", lambda pb: PairSelection(real(pb).pairs[:-1]))
    with pytest.raises(WitnessError) as e:
        construct_witness(g, s)
    assert e.value.reason == "selection-size"


# The version of verify_witness that forms g g^h with a general inverse
# and powers it; the vector version must agree with it on valid and
# corrupted certificates alike.


def ref_verify_witness(g, s, cert):
    ident = Mat.identity(g.field, g.nrows)
    try:
        if not in_stabilizer(cert.h, s):
            return False
    except FlagstabError:
        return False
    if not ((cert.h - ident) @ (cert.h - ident)).is_zero():
        return False
    if cert.r < 1 or cert.probe.is_zero():
        return False
    gg = g @ (cert.h.inverse() @ g @ cert.h)
    power = (gg - ident).pow(cert.r - 1)
    return not (cert.probe @ power).is_zero()


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except FlagstabError as exc:
        return type(exc), str(exc)


H_KINDS = [
    "valid", "h-times-g", "stabilizing", "square", "identity", "transpose", "zero", "small",
    "rank-one", "square-zero-rank-one", "lifted",
]
R_KINDS = ["valid", "plus-one", "minus-one", "zero", "past-dim", "huge"]
PROBE_KINDS = ["valid", "zero", "random", "unit", "wide", "foreign"]
G_KINDS = ["valid", "stabilizing", "invertible"]


def outer(field, c, e):
    """The rank-one matrix c^T e."""
    return Mat(field, [[field.mul(x, y) for y in e] for x in c])


def rank_one_term(rng, field, n, square_zero):
    """c^T e for random c, e with e . c = 0 exactly when square_zero."""
    while True:
        c = [random_scalar(rng, field) for _ in range(n)]
        e = [random_scalar(rng, field) for _ in range(n)]
        t = next((i for i, x in enumerate(e) if x != 0), None)
        if t is None:
            continue
        dot = functools.reduce(field.add, map(field.mul, c, e), field.zero)
        if square_zero:
            c[t] = field.add(c[t], -field.mul(dot, field.inv(e[t])))
        elif dot == 0:
            continue
        if any(c):
            return outer(field, c, e)


def lifted(rng, cert, s):
    """h plus A^-1 E_ab A for an adapted basis A and a != b, b at a's
    level when a jump allows it: a square-zero rank-one term that keeps
    basis vector a at its level instead of lowering it."""
    field, n = s.field, s.ambient_dim
    basis = adapted_basis_of(s)
    levels = [level(v, s) for v in basis]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and levels[a] == levels[b]]
    a, b = rng.choice(pairs or [(a, b) for a in range(n) for b in range(a)])
    coords = [[field.one if (i, j) == (a, b) else field.zero for j in range(n)] for i in range(n)]
    p = Mat.from_vecs(field, basis, ncols=n)
    return cert.h + p.inverse() @ Mat(field, coords) @ p


def corrupt(rng, cert, g, s, h_kind, r_kind, probe_kind, g_kind):
    field, n = s.field, s.ambient_dim
    ident = Mat.identity(field, n)
    h = {
        "valid": lambda: cert.h,
        "h-times-g": lambda: cert.h @ g,
        "stabilizing": lambda: random_stabilizer_element(rng, s),
        "square": lambda: cert.h @ cert.h,
        "identity": lambda: ident,
        "transpose": lambda: cert.h.transpose(),
        "zero": lambda: Mat.zero(field, n, n),
        "small": lambda: Mat.identity(field, n - 1),
        "rank-one": lambda: ident + rank_one_term(rng, field, n, False),
        "square-zero-rank-one": lambda: ident + rank_one_term(rng, field, n, True),
        "lifted": lambda: lifted(rng, cert, s),
    }[h_kind]()
    r = {
        "valid": cert.r,
        "plus-one": cert.r + 1,
        "minus-one": cert.r - 1,
        "zero": 0,
        "past-dim": 2 * n + 1,
        # Powering a general rational matrix this far is out of reach of
        # the reference, so QQ stays at 2n + 1.
        "huge": 10**6 if field.is_prime_field else 2 * n + 1,
    }[r_kind]
    probe = {
        "valid": cert.probe,
        "zero": Vec.zero(field, n),
        "random": Vec(field, [random_scalar(rng, field) for _ in range(n)]),
        "unit": Vec.unit(field, n, rng.randrange(n)),
        "wide": Vec(field, list(cert.probe.entries) + [field.one]),
        "foreign": Vec(GF(3), [1] * n),
    }[probe_kind]
    g = {
        "valid": g,
        "stabilizing": random_stabilizer_element(rng, s),
        "invertible": random_invertible(rng, field, n),
    }[g_kind]
    return g, WitnessCertificate(h, r, probe, cert.selection, False)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([F2, F5, QQ]),
    # (12, 2) has r = 5: h - 1 of rank 4
    st.sampled_from([(5, 2), (6, 2), (7, 3), (8, 2), (12, 2)]),
    st.booleans(),
    st.integers(0, 2**32),
    st.tuples(
        st.sampled_from(H_KINDS),
        st.sampled_from(R_KINDS),
        st.sampled_from(PROBE_KINDS),
        st.sampled_from(G_KINDS),
    ),
)
def test_verify_witness_matches_powering_reference(field, shape, scramble, seed, mixed):
    rng = random.Random(seed)
    g, s = witness_instance(rng, field, *shape, scramble=scramble)
    cert = construct_witness(g, s)
    assert ref_verify_witness(g, s, cert)
    # every single corruption, then one drawn mix of them
    kinds = [(h, "valid", "valid", "valid") for h in H_KINDS]
    kinds += [("valid", r, "valid", "valid") for r in R_KINDS]
    kinds += [("valid", "valid", p, "valid") for p in PROBE_KINDS]
    kinds += [("valid", "valid", "valid", x) for x in G_KINDS]
    kinds += [("valid", r, "valid", "invertible") for r in ("past-dim", "huge")]
    for kind in kinds + [mixed]:
        g2, bad = corrupt(rng, cert, g, s, *kind)
        assert outcome(verify_witness, g2, s, bad) == outcome(ref_verify_witness, g2, s, bad)


# The dense versions of build_h and of the probe in construct_witness:
# h = p^-1 C p by a general inverse and two products, and the probe read
# off the power (g g^h - 1)^(r-1).  The Jordan-coordinate versions must
# give the same h, probe, stronger flag and errors.


def ref_build_h(sel, basis, s):
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
    p = Mat.from_vecs(field, basis, ncols=n)
    coords = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        coords[i][i] = field.one
    for l in range(sel.r - 1):
        y_cur = sel.pairs[l][1]
        x_next = sel.pairs[l + 1][0]
        coords[y_cur][x_next] = field.add(coords[y_cur][x_next], field.one)
    h = p.inverse() @ Mat._of(field, coords, n) @ p
    ident = Mat.identity(field, n)
    if not ((h - ident) @ (h - ident)).is_zero():
        raise WitnessError("h-square", "(h-1)^2 != 0; selection inconsistent")
    if not in_stabilizer(h, s):
        raise WitnessError(
            "h-not-in-stabilizer", "constructed h escapes the stabilizer"
        )
    return h


def ref_power_probe(m, r, candidates):
    power = m.pow(r - 1) if r >= 1 else None
    probe = None
    for v in candidates:
        if not (v @ power).is_zero():
            probe = v
            break
    stronger = not (power @ m).is_zero()
    return probe, stronger


def ref_probe(g, h, sel, basis):
    ident = Mat.identity(g.field, g.nrows)
    m = g @ ((ident - (h - ident)) @ g @ h) - ident
    return ref_power_probe(m, sel.r, [basis[sel.pairs[0][1]]] + basis)


def selections_to_try(rng, sel, n):
    """The greedy selection, its prefixes, selections that break
    (C - 1)^2 = 0 through y_l = x_(m+1), and random ones; every y_l
    distinct."""
    out = [sel] + [PairSelection(sel.pairs[:l]) for l in range(1, sel.r)]
    for _ in range(4):
        r = rng.randint(1, min(5, n))
        ys = rng.sample(range(n), r)
        xs = [rng.randrange(n) for _ in range(r)]
        out.append(PairSelection([(x, y, l) for l, (x, y) in enumerate(zip(xs, ys))]))
        if r >= 2:
            m = rng.randrange(r - 1)
            xs[m + 1] = ys[rng.randrange(r - 1)]
            out.append(PairSelection([(x, y, l) for l, (x, y) in enumerate(zip(xs, ys))]))
    return out


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([F2, F5, QQ]),
    # r = (n - 2) // k runs over 1..5
    st.sampled_from([(5, 2), (6, 2), (7, 3), (8, 2), (10, 2), (11, 3), (12, 2)]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_jordan_coordinates_match_dense_reference(field, shape, scramble, seed):
    from flagstab.witness import _jordan_probe, _preordered_basis_from_chains

    rng = random.Random(seed)
    g, s = witness_instance(rng, field, *shape, scramble=scramble)
    chains = adapted_jordan_chains(g, s)
    basis = [v for c in chains for v in c]
    levels = [[level(v, s) for v in c] for c in chains]
    sel = select_pairs(_preordered_basis_from_chains(levels, s.num_jumps))
    for trial in selections_to_try(rng, sel, len(basis)):
        got = outcome(build_h, trial, basis, s)
        assert got == outcome(ref_build_h, trial, basis, s)
        if got[0] != "ok":
            assert trial is not sel
            continue
        probe, stronger = _jordan_probe(chains, trial, field._ops)
        probe = None if probe is None else basis[probe]
        assert (probe, stronger) == ref_probe(g, got[1], trial, basis)


def test_build_h_square_zero_index_test():
    # y_0 = x_1 makes (C - 1)^2 != 0; y_0 = x_0 does not matter
    rng = random.Random(13)
    for field in (F2, F5, QQ):
        g, s = witness_instance(rng, field, 8, 2, scramble=True)
        basis = [v for c in adapted_jordan_chains(g, s) for v in c]
        bad = PairSelection([(0, 1, 0), (1, 2, 1)])
        for fn in (build_h, ref_build_h):
            with pytest.raises(WitnessError) as e:
                fn(bad, basis, s)
            assert e.value.reason == "h-square"
        with pytest.raises(SelectionError):
            build_h(PairSelection([(0, 1, 0), (len(basis), 2, 1)]), basis, s)


# The candidate order and kernel chain before kernels were taken in the
# series' adapted basis: each kernel of a power of g - 1 through `kernel`,
# intersected with every member by the Zassenhaus `intersect`, deepest
# member first.


def ref_kernel_chain(g):
    nil = g - Mat.identity(g.field, g.nrows)
    chain, power = [], nil
    for _ in range(g.nrows):
        chain.append(kernel(power))
        if chain[-1].is_full():
            break
        power = power @ nil
    return chain


def ref_deep_first(s):
    def order(height, target):
        cands, seen = [], set()
        for member in reversed(s.members):
            inter = target.intersect(member)
            for row, v in zip(inter._rows(), inter.basis_vecs()):
                if tuple(row) not in seen:
                    seen.add(tuple(row))
                    cands.append(v)
        return cands

    return order


def adapted_kernel_chain(g, s):
    from flagstab.linalg import _images
    from flagstab.series import _adapted_rows
    from flagstab.unipotent import _kernel_chain

    nil = g - Mat.identity(g.field, g.nrows)
    basis = _adapted_rows(s)
    return _kernel_chain(nil, basis, _images([(r, 1) for r in basis], nil))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F2, F5, QQ]),
    st.integers(2, 4),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_adapted_kernel_chain_and_candidates_match_reference(field, k, scrambled, seed):
    from flagstab.unipotent import jordan_chains
    from flagstab.witness import _member_meets, straighten_chains

    rng = random.Random(seed)
    if scrambled:
        n = rng.randint(k + 3, k + 5)
        g, s = witness_instance(rng, field, n, k, pad=rng.randint(0, 2), scramble=True)
    else:
        # at most k jumps, so the exponent is at most k <= 4
        dim = rng.randint(2, 9)
        s = random_series(rng, field, dim, rng.randint(0, min(k - 1, dim - 1)))
        g = random_stabilizer_element(rng, s, sparsity=rng.choice([None, 1, 3]))
    kernels, rows = adapted_kernel_chain(g, s)
    ref = ref_kernel_chain(g)
    assert kernels == ref and [x._rows() for x in kernels] == [x._rows() for x in ref]
    candidates, order = _member_meets(s, rows), ref_deep_first(s)
    for height, target in enumerate(kernels, 1):
        assert list(candidates(height, target)) == order(height, target)
    want = outcome(lambda: straighten_chains(jordan_chains(g, order), g, s))
    assert outcome(adapted_jordan_chains, g, s) == want


def test_adapted_kernel_chain_rejects_non_unipotent():
    from flagstab.errors import FieldMismatchError, NotUnipotentError
    from flagstab.unipotent import kernel_chain

    rng = random.Random(14)
    for field in (F2, F5, QQ):
        s = random_series(rng, field, 5, 2)
        for g in (random_invertible(rng, field, 5), Mat.identity(field, 5).scale(2)):
            if field is F2 and g.is_identity():
                continue
            for fn in (adapted_kernel_chain, adapted_jordan_chains):
                with pytest.raises(NotUnipotentError):
                    fn(g, s)
            with pytest.raises(NotUnipotentError):
                kernel_chain(g)
        # the errors adapted_jordan_chains raised when it intersected each
        # kernel with the members, in the same order
        with pytest.raises(NotUnipotentError):
            adapted_jordan_chains(random_invertible(rng, field, 6), s)
        with pytest.raises(ShapeError, match="ambient dimensions differ"):
            adapted_jordan_chains(Mat.identity(field, 6), s)
        with pytest.raises(ShapeError, match="non-square"):
            adapted_jordan_chains(Mat.zero(field, 5, 6), s)
        other = QQ if field is not QQ else F5
        with pytest.raises(FieldMismatchError):
            adapted_jordan_chains(Mat.identity(other, 5), s)


# The rank-factor tests of verify_witness and build_h against the dense
# answers: the product m @ m, `in_stabilizer` and w (1 +- m).


def dense_stabilizes(h, s):
    """`in_stabilizer`, with a singular h, which it rejects by raising, as False."""
    try:
        return in_stabilizer(h, s)
    except SingularMatrixError:
        return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F5, QQ]), st.integers(1, 8), st.data())
def test_rank_factors_match_dense_products(field, n, data):
    from flagstab.unipotent import jordan_matrix
    from flagstab.witness import _RankFactors

    rho = data.draw(st.integers(0, n), label="rank")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    p, q = random_invertible(rng, field, n), random_invertible(rng, field, n)
    ident = Mat.identity(field, n)
    s = random_series(rng, field, n, rng.randint(0, n - 1))
    # rank exactly rho; conjugated nilpotents of index 2 and 3; h - 1 for
    # h in the stabilizer, alone and plus a rank-one term; 0 and 1
    ms = [Mat._of(field, [r[:rho] for r in p.rows], rho) @ Mat._of(field, q.rows[:rho], n)]
    for index in (2, 3):
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.randint(1, index), n - sum(sizes)))
        ms.append(p.inverse() @ (jordan_matrix(field, sizes) - ident) @ p)
    stab = random_stabilizer_element(rng, s) - ident
    # a square-zero rank-one term needs n >= 2
    term = rank_one_term(rng, field, n, n > 1 and rng.random() < 0.5)
    ms += [stab, stab + term, Mat.zero(field, n, n), ident]
    w = Vec(field, [random_scalar(rng, field) for _ in range(n)])
    for m in ms:
        factors = _RankFactors.of(m)
        assert factors.rows.nrows == Subspace.span(field, n, m.rows).dim
        if field == QQ:  # C and E keep integer rows, which give their entries
            for f in (factors.cols, factors.rows):
                assert [tuple(Fraction(x, d) for x in xs) for xs, d in f._int_forms] == list(f.rows)
        assert factors.square_zero() == (m @ m).is_zero()
        assert factors.stabilizes(s) == dense_stabilizes(ident + m, s)
        for sign in (1, -1):
            got = field._ops._entries(*factors.times(field._ops._form(w), sign))
            assert tuple(got) == (w @ (ident + m.scale(sign))).entries
    # build_h's factors: columns of p^-1 and rows of p
    ys = rng.sample(range(n), rho)
    xs = [rng.randrange(n) for _ in ys]
    factors = _RankFactors(p._inverse_columns(ys), Mat._of(field, [p.rows[x] for x in xs], n))
    m = p.inverse() @ Mat._of(field, [[field.one if (i, j) in zip(ys, xs) else field.zero
                                        for j in range(n)] for i in range(n)], n) @ p
    assert factors.square_zero() == (m @ m).is_zero() == (not set(ys) & set(xs))
    assert factors.stabilizes(s) == dense_stabilizes(ident + m, s)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F5, QQ]), st.booleans(), st.integers(0, 2**32))
def test_level_counts_match_is_adapted_basis(field, scramble, seed):
    from flagstab.series import _fills_jumps
    from flagstab.witness import _level_dependency

    rng = random.Random(seed)
    g, s = witness_instance(rng, field, rng.randint(5, 8), 2, pad=rng.randint(0, 2),
                            scramble=scramble)
    chains = adapted_jordan_chains(g, s)
    vecs = [v for c in chains for v in c]
    variants = [chains]
    for _ in range(6):
        ci = rng.randrange(len(chains))
        j = rng.randrange(len(chains[ci]))
        member = rng.choice(s.members)
        w = Vec.zero(field, s.ambient_dim)
        for b in member.basis_vecs():
            w = w + b.scale(random_scalar(rng, field))
        for new in (chains[ci][j] + w, rng.choice(vecs), w, None):
            changed = [list(c) for c in chains]
            if new is None:
                del changed[ci][j]
            else:
                changed[ci][j] = new
            variants.append(changed)
    for changed in variants:
        got = [v for c in changed for v in c]
        if any(v.is_zero() for v in got):
            continue
        levels, dep = _level_dependency(changed, s)
        if dep is not None:
            assert outcome(is_adapted_basis, got, s) != ("ok", True)
            continue
        fills = _fills_jumps(levels, s)
        ref = outcome(is_adapted_basis, got, s)
        assert ref == ("ok", fills) or (not fills and ref[0] is ShapeError)
    assert _fills_jumps(_level_dependency(chains, s)[0], s)


# The level test before it read the residues of the level search: per
# level, a span of the level's vectors with the member below, and on a rank
# drop their coordinates in the jump through a QuotientMap.


def ref_level_dependency(chains, s):
    from flagstab.errors import AdaptationError
    from flagstab.linalg import QuotientMap, left_kernel_rows

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
        qm = QuotientMap(below, s.members[lvl - 1])
        proj = [qm.project(v).entries for (_, _, v) in items]
        for coeffs in left_kernel_rows(s.field, proj, qm.dim):
            support = [(ci, j, v, c) for (ci, j, v), c in zip(items, coeffs) if c != 0]
            if support:
                return levels, support
        raise AdaptationError("rank drop without an explicit dependency")
    return levels, None


def ref_straighten_chains(chains, g, s):
    from flagstab.series import _fills_jumps
    from flagstab.witness import _apply_chain_move

    chains = [list(c) for c in chains]
    while True:
        levels, dep = ref_level_dependency(chains, s)
        if dep is None:
            break
        _apply_chain_move(chains, dep, s.field)
    assert _fills_jumps(levels, s)
    return chains


def ref_level(v, s):
    """`level` by one membership test per member, top down."""
    if isinstance(v, Vec) and v.is_zero():
        raise SeriesError("the zero vector belongs to no jump")
    depth = None
    for i, member in enumerate(s.members):
        if not member.contains_vec(v):
            break
        depth = i
    if depth == len(s.members) - 1:
        raise SeriesError("vector lies in the zero member")
    return depth + 1


def level_dependency_instance(field, seed, scramble, sparsity):
    rng = random.Random(seed)
    g, s = witness_instance(rng, field, rng.randint(5, 7), 2, pad=rng.randint(0, 2),
                            scramble=scramble)
    if sparsity is not None:
        g = g @ random_stabilizer_element(rng, s, sparsity=sparsity)
    return rng, g, s


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([F2, GF(3), F5, QQ]), st.booleans(), st.sampled_from([None, 1, 3]),
       st.integers(0, 2**32))
def test_level_dependency_matches_reference(field, scramble, sparsity, seed):
    # from the naive Jordan chains, apply each move until none is left,
    # comparing every step; then the perturbed chains of
    # test_level_counts_match_is_adapted_basis, errors included
    from flagstab.unipotent import jordan_chains
    from flagstab.witness import _apply_chain_move, _level_dependency

    rng, g, s = level_dependency_instance(field, seed, scramble, sparsity)
    chains = [list(c) for c in jordan_chains(g)]
    for _ in range(4 * s.ambient_dim * s.num_jumps):
        got = outcome(_level_dependency, chains, s)
        assert got == outcome(ref_level_dependency, chains, s)
        if got[0] != "ok" or got[1][1] is None:
            break
        if outcome(_apply_chain_move, chains, got[1][1], field)[0] != "ok":
            break
    vecs = [v for c in chains for v in c]
    for _ in range(6):
        ci = rng.randrange(len(chains))
        j = rng.randrange(len(chains[ci]))
        w = Vec.zero(field, s.ambient_dim)
        for b in rng.choice(s.members).basis_vecs():
            w = w + b.scale(random_scalar(rng, field))
        for new in (chains[ci][j] + w, rng.choice(vecs), w, None):
            changed = [list(c) for c in chains]
            if new is None:
                del changed[ci][j]
            else:
                changed[ci][j] = new
            assert outcome(_level_dependency, changed, s) == outcome(
                ref_level_dependency, changed, s)


@pytest.mark.parametrize("field", [F2, F5, QQ])
def test_level_errors_match_reference(field):
    # a vector in no jump: the zero Vec, a zero tuple (it lies in the zero
    # member), a Vec of the wrong width
    from flagstab.series import jump_of
    from flagstab.unipotent import jordan_chains
    from flagstab.witness import straighten_chains

    rng, g, s = level_dependency_instance(field, 3, True, None)
    n = s.ambient_dim
    chains = [list(c) for c in jordan_chains(g)]
    bad = [Vec.zero(field, n), (field.zero,) * n, Vec.zero(field, n + 1),
           Vec(field, [field.one] * (n - 1))]
    for v in bad:
        expected = outcome(ref_level, v, s)
        assert expected[0] in (SeriesError, ShapeError)
        assert outcome(level, v, s) == expected
        assert outcome(lambda v, s: jump_of(v, s).index, v, s) == expected
        for ci in range(len(chains)):
            changed = [list(c) for c in chains]
            changed[ci].append(v)
            assert outcome(straighten_chains, changed, g, s) == expected
            assert outcome(ref_straighten_chains, changed, g, s) == expected
    assert outcome(straighten_chains, chains, g, s) == ("ok", ref_straighten_chains(chains, g, s))
    assert outcome(adapted_jordan_chains, g, s)[0] == "ok"
    wide = Mat.identity(field, n + 1)
    assert outcome(adapted_jordan_chains, wide, s) == (ShapeError, "ambient dimensions differ")
    assert outcome(adapted_jordan_chains, Mat.zero(field, n, n + 1), s) == (
        ShapeError, "exponent of a non-square matrix")
    assert outcome(straighten_chains, chains, Mat.zero(field, n, n + 1), s) == (
        ShapeError, "matrix shapes differ")


def ref_series_split_complement(w, s):
    comp = []
    for jump in reversed(s.jumps()):
        current = jump.bottom.sum(jump.top.intersect(w))
        new = current._extend(jump.top.basis, jump.top.dim)
        comp += [Vec._of(s.field, row) for row in new]
    return comp


def ref_extend_witness(g, s, n):
    """`extend_witness` through a quotient map on W, one intersection per
    member and the dense m^r."""
    from flagstab.errors import ContainmentError
    from flagstab.linalg import QuotientMap
    from flagstab.series import _coarsening, _jump_images, _minus_one
    from flagstab.unipotent import unipotent_exponent
    from flagstab.witness import _invariant_core, _witness_with_basis

    nil = _minus_one(g)
    images = _jump_images(g, s, nil)
    if images is None:
        raise WitnessError("not-in-stabilizer", "g does not stabilize the series")
    k = unipotent_exponent(g)
    if k is None:
        raise WitnessError("not-unipotent", "a stabilizer element is not unipotent")
    if not k < n - 2:
        raise WitnessError("exponent-too-large", f"exponent {k} is not below n-2 = {n - 2}")
    field = s.field
    dim = s.ambient_dim
    coarse = _coarsening(s, images)
    _, w = _invariant_core(s, n, coarse, nil)
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
    basis = [qm.lift(v) for v in chain_basis] + ref_series_split_complement(w, s)
    h = build_h(inner.selection, basis, s)
    r = (n - 2) // k
    ident = Mat.identity(field, dim)
    m = g @ ((ident - (h - ident)) @ g @ h) - ident
    stronger = not m.pow(r).is_zero()
    cert = WitnessCertificate(h, r, qm.lift(inner.probe), inner.selection, stronger)
    if not verify_witness(g, s, cert):
        raise WitnessError("not-verified", "the extended certificate failed re-verification")
    return cert


def extend_outcome(g, s, n):
    """An `extend_witness`-like call's certificate as plain data, or the
    type and reason (message for other errors) of what it raised."""
    def run(fn):
        try:
            cert = fn(g, s, n)
        except WitnessError as exc:
            return WitnessError, exc.reason
        except FlagstabError as exc:
            return type(exc), str(exc)
        return (cert.h, cert.r, cert.probe, cert.selection.pairs,
                cert.stronger_power_nonzero)
    return run


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([F2, GF(3), F5, QQ]),
    st.sampled_from([(6, 2), (7, 2), (7, 3), (8, 3)]),
    st.booleans(),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_extend_witness_matches_reference(field, shape, scramble, extra, times_t, seed):
    """The same certificate or the same error as the reference, for every n
    from k + 2 to one past the coarsening's jump count; a product with a
    random stabilizer element can change k and the jump count, and it
    reaches the `AdaptationError` inputs too."""
    rng = random.Random(seed)
    g, s = witness_instance(rng, field, *shape, pad=rng.randint(0, 3), scramble=scramble,
                            extra_level_pad=extra)
    if times_t:
        g = g @ random_stabilizer_element(rng, s, sparsity=3)
    k = unipotent_exponent(g)
    for n in range(k + 2, canonical_coarsening(g, s).num_jumps + 2):
        got = extend_outcome(g, s, n)
        assert got(extend_witness) == got(ref_extend_witness)


def test_power_nonzero_matches_dense_powers(monkeypatch):
    """The block reading of m^e != 0 that `extend_witness` calls, at every
    e from 1 to past the inner r, against the dense m; both answers occur,
    and so do the inner flag's two values at the claimed r."""
    import flagstab.witness as witness

    calls = []
    real = witness._power_nonzero

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(witness, "_power_nonzero", spy)
    seen, flags = set(), set()
    for seed, shape in itertools.product(range(8), [(6, 2), (7, 3), (8, 3)]):
        rng = random.Random(seed)
        field = (F2, GF(3), F5, QQ)[seed % 4]
        g, s = witness_instance(rng, field, *shape, pad=rng.randint(0, 3),
                                scramble=seed % 3 == 0, extra_level_pad=seed % 2)
        for n in range(shape[1] + 3, canonical_coarsening(g, s).num_jumps + 1):
            cert = extend_witness(g, s, n)
            g_, factors, r, inner, lifted, comp = calls[-1]
            ident = Mat.identity(field, s.ambient_dim)
            m = g @ ((ident - (cert.h - ident)) @ g @ cert.h) - ident
            flags.add((r == inner.r, inner.stronger_power_nonzero))
            for e in range(1, inner.r + 3):
                want = not m.pow(e).is_zero()
                assert real(g, factors, e, inner, lifted, comp) == want
                seen.add(want)
            assert cert.stronger_power_nonzero == (not m.pow(r).is_zero())
    assert seen == {True, False} and {(True, True), (True, False), (False, False)} <= flags

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.errors import (
    FlagstabError,
    PreorderError,
    SelectionError,
    ShapeError,
    WitnessError,
)
from flagstab.instances import (
    random_invertible,
    random_preordered_basis,
    random_scalar,
    random_stabilizer_element,
    witness_instance,
)
from flagstab.linalg import GF, QQ, Mat, Subspace, Vec
from flagstab.series import Series, canonical_coarsening, in_stabilizer, is_adapted_basis
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

    def broken(h, s):
        raise RuntimeError("not a library error")

    monkeypatch.setattr(witness, "in_stabilizer", broken)
    with pytest.raises(RuntimeError):
        verify_witness(g, s, cert)


def test_construct_witness_raises_on_broken_internal_steps(monkeypatch):
    import flagstab.witness as witness
    from flagstab.errors import NotUnipotentError

    def not_unipotent(nil):
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


H_KINDS = ["valid", "h-times-g", "stabilizing", "square", "identity", "transpose", "zero", "small"]
R_KINDS = ["valid", "plus-one", "minus-one", "zero", "past-dim", "huge"]
PROBE_KINDS = ["valid", "zero", "random", "unit", "wide", "foreign"]
G_KINDS = ["valid", "stabilizing", "invertible"]


def corrupt(rng, cert, g, s, h_kind, r_kind, probe_kind, g_kind):
    field, n = s.field, s.ambient_dim
    h = {
        "valid": cert.h,
        "h-times-g": cert.h @ g,
        "stabilizing": random_stabilizer_element(rng, s),
        "square": cert.h @ cert.h,
        "identity": Mat.identity(field, n),
        "transpose": cert.h.transpose(),
        "zero": Mat.zero(field, n, n),
        "small": Mat.identity(field, n - 1),
    }[h_kind]
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
    st.sampled_from([(5, 2), (6, 2), (7, 3), (8, 2)]),
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
        probe, stronger = _jordan_probe(chains, trial, field.p)
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

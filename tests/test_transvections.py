import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.errors import (
    ContainmentError,
    FlagstabError,
    HypothesisError,
    SingularMatrixError,
    TransvectionError,
)
from flagstab.instances import (
    _random_row_in,
    random_annihilating_spec,
    random_invertible,
    random_series,
    random_square_zero_pair,
    random_stabilizer_element,
)
from flagstab.linalg import GF, QQ, Mat, QuotientMap, Subspace, Vec, image
from flagstab.transvections import (
    TransvectionSpec,
    _check_commutator_hypothesis,
    commutator,
    fixed_line_engel_witness,
    iterated_commutator,
    transvection_commutator_check,
    make_transvection,
    one_plus_eta_commutator,
)
from flagstab.unipotent import jordan_matrix, unipotent_exponent

F2 = GF(2)
F5 = GF(5)
F7 = GF(7)
FIELDS = [F2, F7, QQ]


def test_make_transvection_examples():
    u = Subspace.span(F5, 2, [[0, 1]])
    x = make_transvection(TransvectionSpec(u, Mat(F5, [[0, 1]])))
    assert x == Mat(F5, [[1, 1], [0, 1]])
    u3 = Subspace.span(F5, 3, [[0, 0, 1]])
    x3 = make_transvection(TransvectionSpec(u3, Mat(F5, [[0, 0, 1], [0, 0, 2]])))
    assert x3 == Mat(F5, [[1, 0, 1], [0, 1, 2], [0, 0, 1]])
    assert make_transvection(TransvectionSpec.zero(u3)).is_identity()
    with pytest.raises(TransvectionError):
        TransvectionSpec(u3, Mat(F5, [[0, 1, 0], [0, 0, 1]]))  # image escapes U


def test_square_zero_always():
    rng = random.Random(1)
    for field in FIELDS:
        for _ in range(10):
            n = rng.randint(2, 6)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            u = rng.choice(s.members)
            q = n - u.dim
            rows = []
            for _ in range(q):
                v = Vec.zero(field, n)
                for b in u.basis_vecs():
                    c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                    v = v + b.scale(c)
                rows.append(v.entries)
            x = make_transvection(TransvectionSpec(u, Mat(field, rows, ncols=n)))
            nil = x - Mat.identity(field, n)
            assert (nil @ nil).is_zero()


def test_transvection_homomorphism():
    rng = random.Random(2)
    for field in FIELDS:
        for _ in range(10):
            n = rng.randint(2, 6)
            s = random_series(rng, field, n, 1)
            u = s.members[1]

            def rand_spec():
                rows = []
                for _ in range(n - u.dim):
                    v = Vec.zero(field, n)
                    for b in u.basis_vecs():
                        c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                        v = v + b.scale(c)
                    rows.append(v.entries)
                return TransvectionSpec(u, Mat(field, rows, ncols=n))

            a, b = rand_spec(), rand_spec()
            assert make_transvection(a.add(b)) == make_transvection(a) @ make_transvection(b)


def test_transvection_conjugation_equivariance():
    # conjugating x_phi by a stabilizer element lands back in the family
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(10):
            n = rng.randint(2, 6)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            u = rng.choice([m for m in s.members if 0 < m.dim < n])
            rows = []
            for _ in range(n - u.dim):
                v = Vec.zero(field, n)
                for b in u.basis_vecs():
                    c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                    v = v + b.scale(c)
                rows.append(v.entries)
            x = make_transvection(TransvectionSpec(u, Mat(field, rows, ncols=n)))
            g = random_stabilizer_element(rng, s)
            y = g.inverse() @ x @ g
            nil = y - Mat.identity(field, n)
            # y = x_psi for the map psi read off from y
            assert (nil @ nil).is_zero()
            assert u.contains(image(nil))
            for row in u.basis:
                assert (Vec(field, row) @ nil).is_zero()


def test_commutator_examples():
    g = jordan_matrix(F5, [3])
    assert commutator(g, g).is_identity()
    a = Mat(QQ, [[1, 2], [0, 1]])
    b = Mat(QQ, [[1, 5], [0, 1]])
    assert commutator(a, b).is_identity()
    x = Mat(F5, [[1, 1], [0, 1]])
    assert iterated_commutator(x, g.pow(0), 0) == x
    with pytest.raises(SingularMatrixError):
        commutator(Mat(QQ, [[0, 0], [0, 0]]), a)


def test_commutator_check_trivial_cases():
    u3 = Subspace.span(F5, 3, [[0, 0, 1]])
    spec = TransvectionSpec(u3, Mat(F5, [[0, 0, 1], [0, 0, 2]]))
    assert transvection_commutator_check(spec, Mat.identity(F5, 3), 4) is None


def test_commutator_check_flag_example():
    # 4-dim full flag, U = <e3,e4>, [V,t] inside U so any phi qualifies
    u = Subspace.span(F7, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    t = Mat(F7, [[1, 0, 2, 3], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    spec = TransvectionSpec(u, Mat(F7, [[0, 0, 1, 2], [0, 0, 3, 4]]))
    assert transvection_commutator_check(spec, t, 3) is None


def test_commutator_check_hypothesis_rejected():
    # phi not vanishing on [V,t]+U/U is a precondition failure:
    # [V,t] = <e2,e3> for the 3x3 Jordan block, so phi must kill e2+U
    u = Subspace.span(F5, 3, [[0, 0, 1]])
    t = jordan_matrix(F5, [3])
    spec = TransvectionSpec(u, Mat(F5, [[0, 0, 0], [0, 0, 1]]))
    with pytest.raises(HypothesisError):
        transvection_commutator_check(spec, t, 2)
    # non-normalizing t
    u2 = Subspace.span(F5, 3, [[0, 1, 0]])
    spec2 = TransvectionSpec(u2, Mat.zero(F5, 2, 3))
    with pytest.raises(HypothesisError):
        transvection_commutator_check(spec2, t, 2)


def test_commutator_check_randomized():
    rng = random.Random(4)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(2, 8)
            s = random_series(rng, field, n, rng.randint(0, n - 1))
            t = random_stabilizer_element(rng, s)
            spec = random_annihilating_spec(rng, s, t)
            assert transvection_commutator_check(spec, t, rng.randint(1, 5)) is None


def test_engel_case1_examples():
    g4 = jordan_matrix(F7, [4])
    line = Subspace.span(F7, 4, [[0, 0, 0, 1]])
    spec = TransvectionSpec(line, Mat(F7, [[0, 0, 0, 1], [0, 0, 0, 2], [0, 0, 0, 3]]))
    z2 = fixed_line_engel_witness(g4, line, spec, 2)
    assert not z2.is_identity()
    # beyond the exponent the commutator dies
    assert fixed_line_engel_witness(g4, line, spec, 4).is_identity()
    assert fixed_line_engel_witness(g4, line, spec, 9).is_identity()
    assert fixed_line_engel_witness(g4, line, TransvectionSpec.zero(line), 3).is_identity()
    with pytest.raises(HypothesisError):
        bad_line = Subspace.span(F7, 4, [[1, 0, 0, 0]])
        fixed_line_engel_witness(
            g4, bad_line, TransvectionSpec.zero(bad_line), 2
        )


def test_engel_case1_randomized():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(15):
            n = rng.randint(2, 7)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            g = random_stabilizer_element(rng, s)
            line_member = s.members[-2]
            if line_member.dim != 1:
                continue
            rows = []
            for _ in range(n - 1):
                c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                rows.append(line_member.basis_vecs()[0].scale(c).entries)
            spec = TransvectionSpec(line_member, Mat(field, rows, ncols=n))
            for depth in range(1, 5):
                fixed_line_engel_witness(g, line_member, spec, depth)


def test_one_plus_eta_examples():
    g4 = jordan_matrix(F7, [4])
    assert one_plus_eta_commutator(Mat.zero(F7, 4, 4), g4, 3).is_identity()
    eta, g = random_square_zero_pair(random.Random(6), F7, 4)
    z1 = one_plus_eta_commutator(eta, g, 1)
    nil = g - Mat.identity(F7, 4)
    assert z1 == Mat.identity(F7, 4) + eta @ nil
    # at the exponent the commutator is trivial
    from flagstab.unipotent import unipotent_exponent

    e = unipotent_exponent(g)
    assert one_plus_eta_commutator(eta, g, e).is_identity()


def test_one_plus_eta_requires_left_annihilation():
    # eta = E23 with the full shift fails (g-1) eta = 0 and the identity
    g4 = jordan_matrix(F7, [4])
    eta = Mat.zero(F7, 4, 4)
    rows = [list(r) for r in eta.rows]
    rows[1][2] = 1
    eta = Mat(F7, rows)
    with pytest.raises(HypothesisError):
        one_plus_eta_commutator(eta, g4, 1)
    # and indeed the raw identity is false for it
    x = Mat.identity(F7, 4) + eta
    lhs = commutator(x, g4)
    rhs = Mat.identity(F7, 4) + eta @ (g4 - Mat.identity(F7, 4))
    assert lhs != rhs


def test_one_plus_eta_randomized():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(15):
            dim = rng.randint(2, 7)
            eta, g = random_square_zero_pair(rng, field, dim)
            for n in range(1, 7):
                one_plus_eta_commutator(eta, g, n)



def count_inversions(monkeypatch):
    calls = []
    inverse_columns = Mat._inverse_columns

    def counted(self, cols):
        calls.append(self)
        return inverse_columns(self, cols)

    monkeypatch.setattr(Mat, "_inverse_columns", counted)
    return calls


def test_commutator_loops_invert_g_once(monkeypatch):
    # one inversion of g per call, then one of x per step
    calls = count_inversions(monkeypatch)
    rng = random.Random(13)
    for field in FIELDS:
        for dim in (2, 4, 6):
            eta, g = random_square_zero_pair(rng, field, dim)
            x = random_invertible(rng, field, dim)
            for n in range(5):
                del calls[:]
                one_plus_eta_commutator(eta, g, n)
                assert len(calls) == n + 1
                del calls[:]
                z = iterated_commutator(x, g, n)
                assert len(calls) == (n + 1 if n else 0)
                expected = x
                for _ in range(n):
                    expected = commutator(expected, g)
                assert z == expected


def test_commutator_loop_errors():
    field = QQ
    x = Mat(field, [[1, 1], [0, 1]])
    singular = Mat(field, [[1, 1], [1, 1]])
    for args in [(singular, x, 1), (singular, x, 3), (x, singular, 1), (x, singular, 2)]:
        with pytest.raises(SingularMatrixError, match="^commutator of a singular matrix$"):
            iterated_commutator(*args)
    with pytest.raises(SingularMatrixError, match="^commutator of a singular matrix$"):
        commutator(singular, x)
    # depth 0 is x itself, and g is never inverted
    assert iterated_commutator(singular, singular, 0) is singular
    with pytest.raises(ValueError, match="negative commutator depth"):
        iterated_commutator(x, singular, -1)
    # a singular g is reported after the hypothesis checks
    zero = Mat.zero(field, 2, 2)
    for n in (0, 1, 3, -1):
        with pytest.raises(SingularMatrixError, match="^g must be invertible$"):
            one_plus_eta_commutator(zero, zero, n)
    eta = Mat(field, [[0, 1], [0, 0]])
    with pytest.raises(HypothesisError, match=r"\(g-1\) eta != 0"):
        one_plus_eta_commutator(eta, zero, 1)
    with pytest.raises(ValueError, match="negative commutator depth"):
        one_plus_eta_commutator(zero, x, -1)

# The two annihilating-map builders before they shared
# `transvections._annihilating_spec`: the random one of `instances` and
# the canonical one of `flagstab comm-check`.


def ref_random_annihilating_spec(rng, s, t):
    from flagstab.instances import _random_row_in

    field = s.field
    n = s.ambient_dim
    u = rng.choice(s.members)
    full = Subspace.full(field, n)
    qm = QuotientMap(u, full)
    if qm.dim == 0:
        return TransvectionSpec(u, Mat.zero(field, 0, n))
    bad = qm.project_subspace(image(t - Mat.identity(field, n)).sum(u))
    inner = QuotientMap(bad, Subspace.full(field, qm.dim))
    if inner.dim == 0 or u.dim == 0:
        return TransvectionSpec(u, Mat.zero(field, qm.dim, n))
    targets = [_random_row_in(rng, u) for _ in range(inner.dim)]
    phi = inner.projection_matrix() @ Mat(field, targets, ncols=n)
    return TransvectionSpec(u, phi)


def ref_hypothesis_phi(s, u_index, t):
    field, n = s.field, s.ambient_dim
    u = s.members[u_index]
    full = Subspace.full(field, n)
    qm = QuotientMap(u, full)
    bad = qm.project_subspace(image(t - Mat.identity(field, n)).sum(u))
    inner = QuotientMap(bad, Subspace.full(field, qm.dim))
    if not inner.dim:
        return TransvectionSpec(u, Mat.zero(field, qm.dim, n))
    ub = u.basis_vecs()
    targets = [ub[i % len(ub)].entries if ub else [field.zero] * n for i in range(inner.dim)]
    phi = inner.projection_matrix() @ Mat(field, targets, ncols=n)
    return TransvectionSpec(u, phi)


def test_annihilating_specs_match_reference():
    # the same maps, and the random one leaves the generator in the same
    # state, so every later draw of an instance is unchanged
    from flagstab.cli import _hypothesis_phi

    rng = random.Random(11)
    for _ in range(40):
        field = rng.choice([F2, F5, F7, QQ])
        n = rng.randint(1, 6)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        t = random_stabilizer_element(rng, s, sparsity=rng.randint(0, 3))
        seed = rng.randrange(2**32)
        got, want = random.Random(seed), random.Random(seed)
        spec, ref = random_annihilating_spec(got, s, t), ref_random_annihilating_spec(want, s, t)
        assert (spec.u, spec.phi) == (ref.u, ref.phi)
        assert got.getstate() == want.getstate()
        for i in range(len(s.members)):
            spec, ref = _hypothesis_phi(s, i, t), ref_hypothesis_phi(s, i, t)
            assert (spec.u, spec.phi) == (ref.u, ref.phi)


# `_check_commutator_hypothesis` before it read the annihilation off the
# displacement: phi applied to the quotient coordinates of each basis row
# of [V,t] = image(t - 1).


def ref_check_commutator_hypothesis(spec, t):
    if not t.is_square() or t.nrows != spec.u.ambient_dim:
        raise TransvectionError("shape mismatch between t and the transvection data")
    if unipotent_exponent(t) is None:
        raise HypothesisError("t is not unipotent")
    if spec.u.apply(t) != spec.u:
        raise HypothesisError("t does not normalize U")
    nil = t - Mat.identity(t.field, t.nrows)
    for row in image(nil).basis:
        coords = spec.qmap.project(row)
        if not (coords @ spec.phi).is_zero():
            raise HypothesisError("phi does not kill [V,t] + U / U")


def hypothesis_outcome(spec, t):
    try:
        nil, eta = _check_commutator_hypothesis(spec, t)
    except FlagstabError as exc:
        return type(exc), str(exc)
    assert nil == t - Mat.identity(t.field, t.nrows) and eta == spec.displacement()
    return "ok", None


def ref_hypothesis_outcome(spec, t):
    try:
        return "ok", ref_check_commutator_hypothesis(spec, t)
    except FlagstabError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutator_hypothesis_matches_reference(data):
    field = data.draw(st.sampled_from([F2, GF(3), F5, QQ]))
    n = data.draw(st.integers(1, 6))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    s = random_series(rng, field, n, rng.randint(0, n - 1))
    other = random_series(rng, field, n, rng.randint(0, n - 1))
    u = rng.choice(s.members)
    # phi into U: annihilating [V,t] + U / U only by chance
    rows = [_random_row_in(rng, u) for _ in range(n - u.dim)]
    specs = [TransvectionSpec(u, Mat(field, rows, ncols=n)), TransvectionSpec.zero(u)]
    elements = [
        random_stabilizer_element(rng, s),  # unipotent and normalizes U
        random_stabilizer_element(rng, other),  # unipotent, may move U
        random_invertible(rng, field, n),  # mostly not unipotent
        Mat.identity(field, n + 1),  # wrong shape
    ]
    specs.append(random_annihilating_spec(rng, s, elements[0]))
    kinds = set()
    for spec in specs:
        for t in elements:
            got = hypothesis_outcome(spec, t)
            assert got == ref_hypothesis_outcome(spec, t)
            kinds.add(got)
    assert ("ok", None) in kinds  # the annihilating spec passes


def test_commutator_hypothesis_failure_kinds():
    # one instance of each outcome, each with the reference's error
    u = Subspace.span(F5, 3, [[0, 0, 1]])
    t = jordan_matrix(F5, [3])
    cases = [
        (TransvectionSpec.zero(u), Mat.identity(F5, 2)),
        (TransvectionSpec.zero(u), Mat(F5, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])),
        (TransvectionSpec.zero(Subspace.span(F5, 3, [[0, 1, 0]])), t),
        (TransvectionSpec(u, Mat(F5, [[0, 0, 0], [0, 0, 1]])), t),
        (TransvectionSpec(u, Mat(F5, [[0, 0, 1], [0, 0, 0]])), t),
    ]
    got = [hypothesis_outcome(spec, t) for spec, t in cases]
    assert got == [ref_hypothesis_outcome(spec, t) for spec, t in cases]
    assert got == [
        (TransvectionError, "shape mismatch between t and the transvection data"),
        (HypothesisError, "t is not unipotent"),
        (HypothesisError, "t does not normalize U"),
        (HypothesisError, "phi does not kill [V,t] + U / U"),
        ("ok", None),
    ]


def count_quotient_maps(monkeypatch):
    calls = []
    init = QuotientMap.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuotientMap, "__init__", counted)
    return calls


def test_annihilating_specs_build_two_quotient_maps(monkeypatch):
    # the map V -> V/U and the map of V/U onto its quotient by ([V,t]+U)/U;
    # the spec keeps the first, and adding specs builds none
    from flagstab.cli import _hypothesis_phi

    calls = count_quotient_maps(monkeypatch)
    rng = random.Random(12)
    for _ in range(30):
        field = rng.choice([F2, F5, QQ])
        n = rng.randint(1, 6)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        t = random_stabilizer_element(rng, s)
        del calls[:]
        spec = random_annihilating_spec(rng, s, t)
        assert len(calls) == 2
        del calls[:]
        twice = spec.add(spec)
        assert not calls
        assert twice.qmap is spec.qmap
        assert make_transvection(twice) == make_transvection(spec) @ make_transvection(spec)
        # the trusted constructor still checks phi
        with pytest.raises(TransvectionError, match="wrong shape"):
            TransvectionSpec._of(spec.qmap, Mat.zero(field, spec.qmap.dim + 1, n))
        if spec.qmap.dim:  # a representative lies outside U
            escaping = Mat(field, [spec.qmap.reps[0].entries] * spec.qmap.dim, ncols=n)
            with pytest.raises(TransvectionError, match="escapes U"):
                TransvectionSpec._of(spec.qmap, escaping)
        for i in range(len(s.members)):
            del calls[:]
            _hypothesis_phi(s, i, t)
            assert len(calls) == 2


def test_commutator_hypothesis_rejects_unipotent_t_moving_u():
    # the residue test of U t <= U against the reference's U t != U
    rng = random.Random(23)
    moved = 0
    for _ in range(80):
        field = rng.choice([F2, GF(3), F5, F7, QQ])
        n = rng.randint(2, 6)
        u = rng.choice(random_series(rng, field, n, rng.randint(1, n - 1)).members)
        t = random_stabilizer_element(rng, random_series(rng, field, n, rng.randint(1, n - 1)))
        phi = Mat(field, [_random_row_in(rng, u) for _ in range(n - u.dim)], ncols=n)
        for spec in (TransvectionSpec.zero(u), TransvectionSpec(u, phi)):
            got = hypothesis_outcome(spec, t)
            assert got == ref_hypothesis_outcome(spec, t)
            if u.apply(t) != u:
                assert got == (HypothesisError, "t does not normalize U")
                moved += 1
    assert moved >= 20


def test_transvection_spec_checks_quotient_basis():
    # GF(5), U = <e3>: [e1, 2 e1] is dependent and [e1, e3] meets U, so
    # neither completes U to V; a valid basis may be given as lists
    u = Subspace.span(F5, 3, [[0, 0, 1]])
    phi = Mat(F5, [[0, 0, 1], [0, 0, 2]])
    for reps in ([[1, 0, 0], [2, 0, 0]], [[1, 0, 0], [0, 0, 1]]):
        with pytest.raises(ContainmentError, match="^representatives do not complete"):
            TransvectionSpec(u, phi, quotient_basis=reps)
    spec = TransvectionSpec(u, phi, quotient_basis=[[1, 1, 0], [0, 1, 4]])
    assert spec.quotient_basis == (Vec(F5, [1, 1, 0]), Vec(F5, [0, 1, 4]))
    assert spec.qmap.lift([1, 1]) == Vec(F5, [1, 2, 4])
    x = make_transvection(spec)
    for i, rep in enumerate(spec.quotient_basis):
        assert rep @ x == rep + phi.row(i)

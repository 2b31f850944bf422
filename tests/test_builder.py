import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab.builder import (
    GeneratorSet,
    LowerCentralChain,
    McLainElement,
    mclain_matrices,
    mclain_truncate,
    module_lcs,
    refine_series,
)
from flagstab.errors import FlagstabError, McLainError, NormalizationError, RefinementObstruction
from flagstab.errors import ShapeError
from flagstab.instances import adapted_basis_of, random_invertible, random_series
from flagstab.instances import random_stabilizer_element
from flagstab.linalg import GF, QQ, Mat, QuotientMap, Subspace
from flagstab.series import Series, canonical_coarsening, in_stabilizer
from flagstab.transvections import commutator
from flagstab.unipotent import jordan_matrix, unipotent_exponent

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def test_generator_set_checks():
    with pytest.raises(ShapeError):
        GeneratorSet([])
    with pytest.raises(ShapeError):
        GeneratorSet([Mat(QQ, [[0, 0], [0, 0]])])
    with pytest.raises(ShapeError):
        GeneratorSet([Mat.identity(QQ, 2), Mat.identity(QQ, 3)])


def test_module_lcs_examples():
    chain = module_lcs(GeneratorSet([Mat.identity(F7, 3)]))
    assert [x.dim for x in chain.chain] == [3, 0]
    assert chain.reaches_zero
    chain = module_lcs(GeneratorSet([jordan_matrix(F7, [3])]))
    assert [x.dim for x in chain.chain] == [3, 2, 1, 0]
    # two random unitriangular generators terminate within dim steps
    rng = random.Random(1)
    for _ in range(10):
        s = random_series(rng, F3, 4, 3)
        gens = GeneratorSet([random_stabilizer_element(rng, s) for _ in range(2)])
        chain = module_lcs(gens)
        assert chain.reaches_zero and len(chain.chain) <= 5
    # non-unipotent action stalls
    chain = module_lcs(GeneratorSet([Mat(QQ, [[2, 0], [0, 1]])]))
    assert not chain.reaches_zero


def test_module_lcs_members_invariant():
    rng = random.Random(2)
    for _ in range(10):
        field = rng.choice([F2, F7, QQ])
        n = rng.randint(2, 6)
        s = random_series(rng, field, n, rng.randint(1, n - 1))
        gens = GeneratorSet([random_stabilizer_element(rng, s) for _ in range(2)])
        chain = module_lcs(gens)
        for member in chain.chain:
            for g in gens:
                assert member.apply(g) == member


def test_refine_series_examples():
    s = Series(F3, 4, [Subspace.full(F3, 4), Subspace.zero(F3, 4)])
    refined = refine_series(s, GeneratorSet([jordan_matrix(F3, [4])]))
    assert refined.num_jumps == 4
    assert refine_series(refined, GeneratorSet([Mat.identity(F3, 4)])) == refined
    with pytest.raises(RefinementObstruction):
        refine_series(
            Series(QQ, 2, [Subspace.full(QQ, 2), Subspace.zero(QQ, 2)]),
            GeneratorSet([Mat(QQ, [[2, 0], [0, 1]])]),
        )
    with pytest.raises(NormalizationError):
        refine_series(
            Series(QQ, 2, [Subspace.full(QQ, 2), Subspace.span(QQ, 2, [[0, 1]]), Subspace.zero(QQ, 2)]),
            GeneratorSet([Mat(QQ, [[0, 1], [1, 0]])]),
        )


def _shift_poly(rng, field, n, min_deg):
    # unitriangular polynomial in the shift; all of these commute
    rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for j in range(min_deg, n):
        if j == min_deg:
            c = rng.randrange(1, field.p) if field.is_prime_field else field.one
        else:
            c = rng.randrange(field.p) if field.is_prime_field else field.coerce(rng.randint(-1, 1))
        for i in range(n - j):
            rows[i][i + j] = field.add(rows[i][i + j], c)
    return Mat(field, rows)


def test_refine_tower_stabilized():
    rng = random.Random(3)
    for _ in range(8):
        field = rng.choice([F2, F3])
        n = rng.randint(5, 7)
        n0 = [_shift_poly(rng, field, n, 3)]
        n1 = n0 + [_shift_poly(rng, field, n, 1)]
        base = module_lcs(GeneratorSet(n0))
        s0 = Series(field, n, list(base.chain))
        s1 = refine_series(s0, GeneratorSet(n1))
        for g in n1:
            assert in_stabilizer(g, s1)
        for g in n0:
            coarse = canonical_coarsening(g, s1)
            assert coarse.num_jumps <= s0.num_jumps


def test_mclain_examples():
    x = McLainElement(QQ, [((0, Fraction(1, 2)), 1)])
    m, flag = mclain_truncate([x])
    assert m == Mat(QQ, [[1, 1], [0, 1]]) and flag.num_jumps == 2
    y = McLainElement(QQ, [((Fraction(1, 2), 1), 1)])
    (mx, my), _ = mclain_matrices([x, y])
    assert commutator(mx, my) == Mat(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(McLainError):
        McLainElement(QQ, [((1, 0), 1)])
    with pytest.raises(McLainError):
        McLainElement(QQ, [((0, 1), 1), ((0, 1), 2)])


def test_mclain_product_exponent():
    rng = random.Random(4)
    for _ in range(10):
        field = rng.choice([F2, F7, QQ])
        elems = []
        pool = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)})
        for _ in range(rng.randint(1, 4)):
            a, b = sorted(rng.sample(pool, 2))
            coeff = 1 if field == F2 else field.coerce(rng.randint(1, 2))
            elems.append(McLainElement(field, [((a, b), coeff)]))
        prod, flag = mclain_truncate(elems)
        d = flag.ambient_dim
        assert unipotent_exponent(prod) is not None
        assert unipotent_exponent(prod) <= d
        assert in_stabilizer(prod, flag)


# The chains before they were built in V: each factor T/B in the
# coordinates of a QuotientMap, the generators' induced matrices checked
# again in a GeneratorSet, [W, N] as a sum of spans W (g - 1), and each
# chain term lifted back to V.


def ref_commutator_space(w, gens):
    out = Subspace.zero(gens.field, gens.dim)
    ident = Mat.identity(gens.field, gens.dim)
    for g in gens:
        out = out.sum(w.apply(g - ident))
    return out


def ref_module_lcs(gens):
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(gens)
    current = Subspace.full(gens.field, gens.dim)
    chain = [current]
    while True:
        nxt = ref_commutator_space(current, gens)
        if nxt == current:
            return LowerCentralChain(chain, current.is_zero())
        chain.append(nxt)
        current = nxt
        if current.is_zero():
            return LowerCentralChain(chain, True)


def ref_refine_series(s, gens):
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(gens)
    if gens.dim != s.ambient_dim or gens.field != s.field:
        raise ShapeError("generators do not act on the series' space")
    for g in gens:
        for x in s.members:
            if x.apply(g) != x:
                raise NormalizationError("a generator does not normalize a member")
    members = [s.members[0]]
    for jump in s.jumps():
        qm = QuotientMap(jump.bottom, jump.top)
        induced = GeneratorSet([qm.induced_matrix(g) for g in gens]) if qm.dim else None
        if qm.dim:
            lcs = ref_module_lcs(induced)
            if not lcs.reaches_zero:
                raise RefinementObstruction(
                    jump.index,
                    f"factor at jump {jump.index} has a non-vanishing chain",
                )
            for member_q in lcs.chain[1:]:
                pre = qm.lift_subspace(member_q)
                if pre not in members and pre != jump.bottom:
                    members.append(pre)
        members.append(jump.bottom)
    refined = Series(s.field, s.ambient_dim, members)
    if not all(in_stabilizer(g, refined) for g in gens):
        raise NormalizationError("a generator does not stabilize the refined series")
    return refined


def outcome(fn, *args):
    """fn(*args) as data to compare: the basis and pivots of every subspace
    (and whether a chain reaches zero), or the type, message and jump index
    of the error."""
    try:
        got = fn(*args)
    except FlagstabError as exc:
        return type(exc), str(exc), getattr(exc, "jump_index", None)
    if isinstance(got, LowerCentralChain):
        return "ok", [(x.basis, x.pivots) for x in got.chain], got.reaches_zero
    return "ok", [(x.basis, x.pivots) for x in got.members]


GEN_KINDS = ["shift", "stabilizer", "identity", "invertible", "level-blocks"]


def refinement_instance(rng, field, kinds):
    """A series and one generator per kind.  With a shift polynomial among
    them the series is a subseries of the coordinate flag, which those
    normalize; random invertibles mostly normalize nothing, and a product
    with invertible blocks on the levels of an adapted basis normalizes the
    series but is mostly not unipotent."""
    n = rng.randint(1, 8)
    if "shift" in kinds:
        units = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        dims = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)), reverse=True)
        members = [Subspace.span(field, n, units[n - d:]) for d in dims]
        s = Series(field, n, [Subspace.full(field, n), *members, Subspace.zero(field, n)])
    else:
        s = random_series(rng, field, n, rng.randint(0, n - 1))
    p = Mat.from_vecs(field, adapted_basis_of(s), ncols=n)
    gens = []
    for kind in kinds:
        if kind == "shift":
            gens.append(_shift_poly(rng, field, n, rng.randint(1, max(1, n - 1))))
        elif kind == "stabilizer":
            gens.append(random_stabilizer_element(rng, s))
        elif kind == "identity":
            gens.append(Mat.identity(field, n))
        elif kind == "invertible":
            gens.append(random_invertible(rng, field, n))
        else:
            blocks = [list(r) for r in Mat.identity(field, n).rows]
            at = 0
            for jump in s.jumps():
                d = jump.top.dim - jump.bottom.dim
                block = random_invertible(rng, field, d).rows
                for i in range(d):
                    blocks[at + i][at:at + d] = block[i]
                at += d
            gens.append(p.inverse() @ Mat(field, blocks) @ p @ random_stabilizer_element(rng, s))
    return s, gens


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, F5, QQ]), st.lists(st.sampled_from(GEN_KINDS), min_size=1,
       max_size=3), st.integers(0, 2**32))
def test_lcs_and_refinement_match_quotient_reference(field, kinds, seed):
    # byte-identical chains and refined members, and the same errors with
    # the same jump index
    s, gens = refinement_instance(random.Random(seed), field, kinds)
    assert outcome(module_lcs, gens) == outcome(ref_module_lcs, gens)
    assert outcome(refine_series, s, gens) == outcome(ref_refine_series, s, gens)


def test_refinement_instances_reach_every_outcome():
    # the instances above refine, stall and fail to normalize
    rng = random.Random(19)
    seen = set()
    for _ in range(60):
        field = rng.choice([F2, F3, F5, QQ])
        kinds = rng.sample(GEN_KINDS, rng.randint(1, 2))
        s, gens = refinement_instance(rng, field, kinds)
        seen.add(outcome(refine_series, s, gens)[0])
        assert outcome(refine_series, s, gens) == outcome(ref_refine_series, s, gens)
    assert seen == {"ok", RefinementObstruction, NormalizationError}


@pytest.mark.parametrize("field", [F3, F5, QQ])
def test_refine_series_reports_a_middle_jump(field):
    # V > <e3, e4, e5> > <e5> > 0; g is unipotent on the top factor, which
    # refines, and scales e3 by 2 in the middle one, whose chain stalls
    rows = [[field.one if i == j else field.zero for j in range(5)] for i in range(5)]
    members = [Subspace.full(field, 5), Subspace.span(field, 5, rows[2:]),
               Subspace.span(field, 5, rows[4:]), Subspace.zero(field, 5)]
    s = Series(field, 5, members)
    rows[0][1] = field.one
    rows[2][2] = field.coerce(2)
    g = Mat(field, rows)
    with pytest.raises(RefinementObstruction) as info:
        refine_series(s, [g])
    assert info.value.jump_index == 2
    assert str(info.value) == "factor at jump 2 has a non-vanishing chain"
    assert outcome(refine_series, s, [g]) == outcome(ref_refine_series, s, [g])
    assert outcome(module_lcs, [g]) == outcome(ref_module_lcs, [g])

"""The benchmark's three workloads: corpora built from a seed, and ops.

Every corpus entry is an `Item`: an op kind, its inputs, the digest of
those inputs, and its input class.  Entry i is built from generators
seeded by the entry's own index (see `Workload`), so a smaller corpus is
a prefix of a larger one and the reference digests of the default seed
apply to both.

An op returns an `OpResult`: its output (text, or a value `canon` can
print) and the time of its two timed parts, `call` (the library call
that makes the output) and `check` (the exact check of that output).

Why these workloads:

- witness_qq: rational `Fraction` elimination and coefficient growth
  dominate.  A QQ-kernel change must move it.
- witness_gf: scalars are machine ints, so time goes to pipeline
  structure (stabilizer checks, member intersections, span regrowth).
  A QQ-kernel change should leave it unmoved; normal-form and
  echelon-builder changes should move it.
- small_ops: 0.2-10 ms public calls on dims 2-8, where per-call
  overhead, not arithmetic, dominates.  The witness pipeline is bypassed.
"""

import hashlib
import random
import time
from fractions import Fraction

from flagstab.builder import GeneratorSet, McLainElement, mclain_truncate, module_lcs, refine_series
from flagstab.cli import ProblemFile, format_problem, parse_problem
from flagstab.decomposition import SectionAssignment, patch_sections, split_chain
from flagstab.instances import (
    _chain_layout,
    adapted_basis_of,
    random_annihilating_spec,
    random_invertible,
    random_preordered_basis,
    random_series,
    random_square_zero_pair,
    random_stabilizer_element,
    random_transvection,
    witness_instance,
)
from flagstab.linalg import GF, QQ, Mat, Subspace
from flagstab.series import Series, canonical_coarsening, in_stabilizer, section_series
from flagstab.transvections import (
    TransvectionSpec,
    fixed_line_engel_witness,
    iterated_commutator,
    make_transvection,
    commutator,
    one_plus_eta_commutator,
    transvection_commutator_check,
)
from flagstab.unipotent import unipotent_exponent
from flagstab.witness import construct_witness, extend_witness, select_pairs, validate_selection, verify_witness

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)


class CheckFailed(Exception):
    """An op's output failed its exact check."""


class Item:
    __slots__ = ("kind", "inputs", "digest", "cls")

    def __init__(self, kind, inputs):
        self.kind = kind
        self.inputs = inputs
        self.digest = digest(canon(inputs))
        self.cls = None  # index of the input class, set by Workload.entries


class OpResult:
    __slots__ = ("output", "call_s", "check_s")

    def __init__(self, output, call_s, check_s):
        self.output = output
        self.call_s = call_s
        self.check_s = check_s


# -- canonical text and digests -------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canon(x):
    """Deterministic text of an input or output, independent of the
    library's own formatting code."""
    t = type(x).__name__
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canon(v)}" for k, v in x.items()) + "}"
    if t == "Field":
        return f"F{x.p}"
    if t == "Mat":
        return f"Mat({canon(x.field)},{x.ncols},{canon(x.rows)})"
    if t == "Vec":
        return f"Vec({canon(x.entries)})"
    if t == "Subspace":
        return f"Sub({x.ambient_dim},{canon(x.basis)})"
    if t == "Series":
        return f"Ser({canon(x.members)})"
    if t == "TransvectionSpec":
        return f"TS({canon(x.u)},{canon(x.phi)},{canon(x.quotient_basis)})"
    if t == "PreorderedBasis":
        return f"PB({canon(x.blocks)},{canon(x.fvals)},{canon(x.keys)},{x.n})"
    if t == "PairSelection":
        return f"Sel({canon(x.pairs)})"
    if t == "McLainElement":
        return f"McL({canon(x.terms)})"
    if t == "ChainSplit":
        return f"Split({canon(x.parts)})"
    if t == "ProblemFile":
        return canon([x.field, x.dim, x.matrices, x.maps, x.series, x.mclain])
    raise TypeError(f"no canonical text for {t}")


# -- witness workloads ------------------------------------------------------

# (field, dim, scramble) classes, all of the `flagstab gen` default shape
# (6 jumps, exponent 2) padded to the dimension.  One shape per class keeps
# the cost of a class nearly the same from seed to seed.
WITNESS_SHAPE = (6, 2)
WITNESS_CLASSES = {
    "witness_qq": [(QQ, 12, False), (QQ, 12, True), (QQ, 24, False)],
    "witness_gf": [
        (f, d, scr) for f in (F2, F5) for d in (12, 24) for scr in (False, True)
    ],
}


def _problem_text(g, s):
    pf = ProblemFile(s.field, s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    return format_problem(pf)


def _witness_item(rng, field, dim, scramble):
    n, k = WITNESS_SHAPE
    pad = dim - sum(length for _, length in _chain_layout(n, k))
    g, s = witness_instance(rng, field, n, k, pad=pad, scramble=scramble)
    return Item("witness", {"text": _problem_text(g, s), "n": None})


def _extend_item(rng, shape):
    """Criterion-6 shape: n 6-9, k = 2, pad 4-6, optional extra level."""
    field = (F2, F5)[shape.randrange(2)]
    n = shape.randint(6, 9)
    g, s = witness_instance(
        rng, field, n, 2, pad=shape.randint(4, 6), extra_level_pad=shape.randint(0, 1)
    )
    return Item("extend", {"text": _problem_text(g, s), "n": n})


def witness_op(item):
    """Parse, build the certificate, print it, parse it back, verify.

    This is the in-process form of `gen | witness | verify`.
    """
    pf = parse_problem(item.inputs["text"])
    g, s = pf.matrices["g"], pf.series["L"]
    n = item.inputs["n"]
    t0 = time.perf_counter()
    cert = construct_witness(g, s) if n is None else extend_witness(g, s, n)
    t1 = time.perf_counter()
    emit = ProblemFile(pf.field, pf.dim)
    emit.matrices["g"] = g
    emit.series["L"] = s
    emit.certificate = cert
    text = format_problem(emit)
    back = parse_problem(text)
    t2 = time.perf_counter()
    ok = verify_witness(back.matrices["g"], back.series["L"], back.certificate)
    t3 = time.perf_counter()
    if not ok:
        raise CheckFailed("certificate rejected by verify_witness")
    return OpResult(text, t1 - t0, t3 - t2)


# -- small ops ----------------------------------------------------------------


# Rational inputs stay at dims <= 4: above that, coefficient growth makes
# single calls take 20-300 ms, which is witness_qq's ground, not per-call
# overhead.
QQ_MAX_DIM = 4


def _field_dim(shape, lo, hi, fields=(F2, F7, QQ)):
    field = fields[shape.randrange(len(fields))]
    return field, shape.randint(lo, min(hi, QQ_MAX_DIM) if field.p is None else hi)


def _gen_comm_check(rng, shape):
    field, n = _field_dim(shape, 2, 8)
    s = random_series(rng, field, n, shape.randint(0, n - 1))
    t = random_stabilizer_element(rng, s)
    spec = random_annihilating_spec(rng, s, t)
    return {"spec": spec, "t": t, "k": shape.randint(1, 5)}


def _op_comm_check(x):
    t0 = time.perf_counter()
    out = transvection_commutator_check(x["spec"], x["t"], x["k"])
    t1 = time.perf_counter()
    # exponent 1 of the identity, recomputed by group arithmetic
    t, eta = x["t"], x["spec"].displacement()
    ident = Mat.identity(t.field, t.nrows)
    if out is not None or commutator(make_transvection(x["spec"]), t) != ident + eta @ (t - ident):
        raise CheckFailed("commutator identity failed")
    return out, t1 - t0, time.perf_counter() - t1


def _gen_engel(rng, shape):
    field, n = _field_dim(shape, 2, 8)
    length = shape.randint(1, n - 1)
    while True:
        s = random_series(rng, field, n, length)
        line = s.members[-2]
        if line.dim == 1:
            break
    g = random_stabilizer_element(rng, s)
    base = line.basis_vecs()[0]
    rows = []
    for _ in range(n - 1):
        c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
        rows.append(base.scale(c).entries)
    spec = TransvectionSpec(line, Mat(field, rows, ncols=n))
    # Depths past the exponent of g check that the commutator vanishes;
    # drawing the depth from the shape alone keeps the cost of the entry
    # the same for every seed.
    return {"g": g, "line": line, "spec": spec, "depth": shape.randint(1, length + 1)}


def _op_engel(x):
    t0 = time.perf_counter()
    z = fixed_line_engel_witness(x["g"], x["line"], x["spec"], x["depth"])
    t1 = time.perf_counter()
    if z != iterated_commutator(make_transvection(x["spec"]), x["g"], x["depth"]):
        raise CheckFailed("Engel witness differs from the iterated commutator")
    return z, t1 - t0, time.perf_counter() - t1


def _gen_one_plus_eta(rng, shape):
    field, n = _field_dim(shape, 2, 8)
    eta, g = random_square_zero_pair(rng, field, n)
    return {"eta": eta, "g": g, "depth": shape.randint(1, 6)}


def _op_one_plus_eta(x):
    eta, g, depth = x["eta"], x["g"], x["depth"]
    t0 = time.perf_counter()
    z = one_plus_eta_commutator(eta, g, depth)
    t1 = time.perf_counter()
    ident = Mat.identity(g.field, g.nrows)
    if z != ident + eta @ (g - ident).pow(depth):
        raise CheckFailed("[1+eta, n g] differs from 1 + eta (g-1)^n")
    return z, t1 - t0, time.perf_counter() - t1


def _gen_select(rng, shape):
    return {"pb": random_preordered_basis(rng, shape.randint(2, 12), shape.randint(2, 3))}


def _op_select(x):
    pb = x["pb"]
    t0 = time.perf_counter()
    sel = select_pairs(pb)
    t1 = time.perf_counter()
    if sel.r != max(0, (pb.n - 2) // pb.k) or not validate_selection(pb, sel):
        raise CheckFailed("pair selection is invalid")
    return sel, t1 - t0, time.perf_counter() - t1


def _gen_stab_product(rng, shape):
    field, n = _field_dim(shape, 2, 8)
    s = random_series(rng, field, n, shape.randint(1, n - 1))
    factors = [
        random_transvection(rng, s) if shape.random() < 0.5 else random_stabilizer_element(rng, s)
        for _ in range(shape.randint(1, 4))
    ]
    return {"s": s, "factors": factors}


def _op_stab_product(x):
    s = x["s"]
    t0 = time.perf_counter()
    g = Mat.identity(s.field, s.ambient_dim)
    for f in x["factors"]:
        g = g @ f
    e = unipotent_exponent(g)
    t1 = time.perf_counter()
    if e is None or e > s.num_jumps or not in_stabilizer(g, s):
        raise CheckFailed("stabilizer product is not unipotent in S(L)")
    return (g, e), t1 - t0, time.perf_counter() - t1


def _gen_coarsen(rng, shape):
    field, n = _field_dim(shape, 3, 8)
    s = random_series(rng, field, n, shape.randint(1, n - 1))
    return {"g": random_stabilizer_element(rng, s), "s": s}


def _op_coarsen(x):
    g, s = x["g"], x["s"]
    t0 = time.perf_counter()
    c = canonical_coarsening(g, s)
    t1 = time.perf_counter()
    if not in_stabilizer(g, c) or any(m not in s.members for m in c.members):
        raise CheckFailed("coarsening is not a stabilized subseries")
    return c, t1 - t0, time.perf_counter() - t1


def _gen_split_patch(rng, shape):
    field, n = _field_dim(shape, 3, 8)
    s = random_series(rng, field, n, shape.randint(1, n - 1))
    members = s.members
    cut = shape.randrange(1, len(members) - 1)
    sections = []
    for u_idx, w_idx in ((cut, 0), (len(members) - 1, cut)):
        u, w = members[u_idx], members[w_idx]
        induced = section_series(s, w, u)
        sections.append((u, w, random_stabilizer_element(rng, induced, sparsity=2)))
    return {"s": s, "basis": adapted_basis_of(s), "sections": sections}


def _op_split_patch(x):
    s = x["s"]
    t0 = time.perf_counter()
    cs = split_chain(list(s.members))
    h = patch_sections(x["basis"], s, SectionAssignment(x["sections"]))
    t1 = time.perf_counter()
    n = s.ambient_dim
    stacked = [row for a in cs.parts for row in a.basis]
    if Subspace.span(s.field, n, stacked).dim != n or not in_stabilizer(h, s):
        raise CheckFailed("split parts or patched map are wrong")
    return (cs, h), t1 - t0, time.perf_counter() - t1


def _shift_poly(rng, field, n, min_deg, q):
    """Unitriangular polynomial in the shift, conjugated by q; powers of
    one shift commute, so nested sets normalize each other's chains."""
    rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for j in range(min_deg, n):
        if field.is_prime_field:
            c = rng.randrange(1, field.p) if j == min_deg else rng.randrange(field.p)
        else:
            c = rng.randint(1, 2) if j == min_deg else rng.randint(-1, 1)
        for i in range(n - j):
            rows[i][i + j] = field.add(rows[i][i + j], field.coerce(c))
    return q.inverse() @ Mat(field, rows) @ q


def _gen_refine(rng, shape):
    field, n = _field_dim(shape, 4, 8, (F2, F3))
    q = random_invertible(rng, field, n)
    n0 = [_shift_poly(rng, field, n, 3, q)]
    n1 = n0 + [_shift_poly(rng, field, n, 2, q)]
    n2 = n1 + [_shift_poly(rng, field, n, 1, q)]
    return {"n0": n0, "n1": n1, "n2": n2}


def _op_refine(x):
    t0 = time.perf_counter()
    base = module_lcs(GeneratorSet(x["n0"]))
    s0 = Series(base.chain[0].field, base.chain[0].ambient_dim, list(base.chain))
    s1 = refine_series(s0, GeneratorSet(x["n1"]))
    s2 = refine_series(s1, GeneratorSet(x["n2"]))
    t1 = time.perf_counter()
    if not base.reaches_zero or not all(in_stabilizer(g, s2) for g in x["n2"]):
        raise CheckFailed("refinement tower is not stabilized")
    return (s0, s1, s2), t1 - t0, time.perf_counter() - t1


_MCLAIN_POOL = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3, 4)})


def _gen_mclain(rng, shape):
    field = (F2, F7, QQ)[shape.randrange(3)]
    elems = []
    # each element adds up to two indices to the support
    for _ in range(shape.randint(1, 2 if field.p is None else 5)):
        a, b = sorted(rng.sample(_MCLAIN_POOL, 2))
        elems.append(McLainElement(field, [((a, b), 1)]))
    return {"elems": elems}


def _op_mclain(x):
    t0 = time.perf_counter()
    prod, flag = mclain_truncate(x["elems"])
    t1 = time.perf_counter()
    e = unipotent_exponent(prod)
    if e is None or e > flag.ambient_dim or not in_stabilizer(prod, flag):
        raise CheckFailed("McLain product is not unipotent on its flag")
    return (prod, flag), t1 - t0, time.perf_counter() - t1


def _gen_round_trip(rng, shape):
    field, n = _field_dim(shape, 2, 7, (F2, F5, QQ))
    pf = ProblemFile(field, n)
    s = random_series(rng, field, n, shape.randint(0, n - 1))
    pf.series["L"] = s
    pf.matrices["g"] = random_stabilizer_element(rng, s)
    if shape.random() < 0.34:
        pf.maps["m"] = Mat(
            field, [[rng.randint(0, 2) for _ in range(n)] for _ in range(2)], ncols=n
        )
    return {"pf": pf}


def _op_round_trip(x):
    pf = x["pf"]
    t0 = time.perf_counter()
    text = format_problem(pf)
    back = parse_problem(text)
    t1 = time.perf_counter()
    if back != pf or format_problem(back) != text:
        raise CheckFailed("problem file does not round-trip")
    return text, t1 - t0, time.perf_counter() - t1


# kind -> (input generator, op); one call group per op.
SMALL_OPS = {
    "comm_check": (_gen_comm_check, _op_comm_check),
    "engel": (_gen_engel, _op_engel),
    "one_plus_eta": (_gen_one_plus_eta, _op_one_plus_eta),
    "select_pairs": (_gen_select, _op_select),
    "stab_product": (_gen_stab_product, _op_stab_product),
    "coarsen": (_gen_coarsen, _op_coarsen),
    "split_patch": (_gen_split_patch, _op_split_patch),
    "refine": (_gen_refine, _op_refine),
    "mclain": (_gen_mclain, _op_mclain),
    "round_trip": (_gen_round_trip, _op_round_trip),
}


def small_op(item):
    return OpResult(*SMALL_OPS[item.kind][1](item.inputs))


# -- corpora ------------------------------------------------------------------


class Workload:
    """A named corpus recipe: `per_class` entries of every class,
    interleaved so that any prefix of a pass keeps the class mix.

    Entry i is made by its class from two generators: `rng`, seeded by
    (seed, workload, i), draws the data, and `shape`, seeded by
    (workload, i) alone, draws the sizes (field, dimension, series
    length, exponents).  So every seed runs the same mix of sizes and
    only the matrices differ; with sizes drawn from the seed too, the
    small_ops tail moved by 15% from seed to seed.
    """

    def __init__(self, name, classes, per_class, tail_pct, op):
        self.name = name
        self.classes = classes  # list of callables (rng, shape) -> Item
        self.per_class = per_class
        self.tail_pct = tail_pct
        self.op = op

    def entries(self, seed, per_class=None):
        """Yield the corpus one entry at a time."""
        for j in range(per_class or self.per_class):
            for c, make in enumerate(self.classes):
                i = j * len(self.classes) + c
                item = make(
                    random.Random(f"{seed}:{self.name}:{i}"),
                    random.Random(f"{self.name}:{i}"),
                )
                item.cls = c
                yield item

    def corpus(self, seed, per_class=None):
        return list(self.entries(seed, per_class))


def _witness_class(field, dim, scramble):
    return lambda rng, shape: _witness_item(rng, field, dim, scramble)


def _small_class(kind):
    gen = SMALL_OPS[kind][0]
    return lambda rng, shape: Item(kind, gen(rng, shape))


# The tail percentile is fixed per workload, so that parent and change
# report the same one: the highest that keeps at least ten timed samples
# beyond it in the slowest default-length runs seen on the development
# machine (about 45 ops on witness_qq, 400 on witness_gf, 4500 on
# small_ops).
WORKLOADS = {
    "witness_qq": Workload(
        "witness_qq",
        [_witness_class(*c) for c in WITNESS_CLASSES["witness_qq"]],
        per_class=8,
        tail_pct=75,
        op=witness_op,
    ),
    "witness_gf": Workload(
        "witness_gf",
        [_witness_class(*c) for c in WITNESS_CLASSES["witness_gf"]]
        + [_extend_item] * 3,
        per_class=4,
        tail_pct=95,
        op=witness_op,
    ),
    "small_ops": Workload(
        "small_ops",
        [_small_class(kind) for kind in SMALL_OPS],
        per_class=100,
        tail_pct=99,
        op=small_op,
    ),
}

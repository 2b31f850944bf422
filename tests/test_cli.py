import contextlib
import functools
import io
import random
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagstab.builder import McLainElement
from flagstab.cli import ProblemFile, format_problem, main, parse_problem
from flagstab.errors import ParseError
from flagstab.instances import random_series, random_stabilizer_element, witness_instance
from flagstab.linalg import GF, QQ, Mat, Vec
from flagstab.witness import WitnessCertificate, construct_witness


def cli(*args, text_input=None):
    return subprocess.run(
        [sys.executable, "-m", "flagstab.cli", *args],
        capture_output=True,
        text=True,
        input=text_input,
    )


def test_parse_minimal():
    pf = parse_problem("field gf 2\ndim 2\nmatrix g\n1 0\n0 1\n")
    assert pf.matrices["g"].is_identity()
    pf = parse_problem("# comment\nfield q\ndim 1\nmatrix g\n2/4\n")
    from fractions import Fraction

    assert pf.matrices["g"].rows[0][0] == Fraction(1, 2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_problem("field gf 2\ndim 2\nmatrix g\n1 0\n0 x\n")
    assert e.value.line == 5
    with pytest.raises(ParseError):
        parse_problem("dim 2\nfield gf 2\n")
    with pytest.raises(ParseError) as e:
        parse_problem("field gf 2\ndim 3\nseries L 2\nsubspace 1\n1 0 0\nsubspace 1\n0 1 0\n")
    assert "series" in str(e.value)


def test_round_trip_random_files():
    rng = random.Random(1)
    for _ in range(25):
        field = rng.choice([GF(2), GF(7), QQ])
        n = rng.randint(2, 6)
        pf = ProblemFile(field, n)
        s = random_series(rng, field, n, rng.randint(0, n - 1))
        pf.series["L"] = s
        pf.matrices["g"] = random_stabilizer_element(rng, s)
        text = format_problem(pf)
        back = parse_problem(text)
        assert back == pf
        assert format_problem(back) == text


def test_check_stab_exit_codes(tmp_path):
    rng = random.Random(2)
    g, s = witness_instance(rng, GF(5), 6, 2)
    pf = ProblemFile(GF(5), s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    f = tmp_path / "p.txt"
    f.write_text(format_problem(pf))
    r = cli("check-stab", str(f))
    assert r.returncode == 0 and "result=true" in r.stdout
    pf.matrices["g"] = Mat(
        GF(5),
        [[2 if i == j else 0 for j in range(s.ambient_dim)] for i in range(s.ambient_dim)],
    )
    f.write_text(format_problem(pf))
    r = cli("check-stab", str(f))
    assert r.returncode == 1 and "result=false" in r.stdout
    r = cli("check-stab", str(tmp_path / "missing.txt"))
    assert r.returncode == 2


def test_witness_verify_cycle(tmp_path):
    rng = random.Random(3)
    g, s = witness_instance(rng, GF(5), 6, 2)
    pf = ProblemFile(GF(5), s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    f = tmp_path / "p.txt"
    cert = tmp_path / "c.txt"
    f.write_text(format_problem(pf))
    r = cli("witness", str(f), "--out", str(cert))
    assert r.returncode == 0 and "result=certified" in r.stdout
    r = cli("verify", str(cert))
    assert r.returncode == 0 and "result=verified" in r.stdout
    # tampered probe is rejected with exit 1
    text = cert.read_text().splitlines()
    i = text.index("probe")
    text[i + 1] = " ".join("0" for _ in text[i + 1].split())
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(text) + "\n")
    r = cli("verify", str(bad))
    assert r.returncode == 1 and "result=rejected" in r.stdout


def test_witness_identity_is_input_error(tmp_path):
    rng = random.Random(4)
    _, s = witness_instance(rng, GF(5), 6, 2)
    pf = ProblemFile(GF(5), s.ambient_dim)
    pf.matrices["g"] = Mat.identity(GF(5), s.ambient_dim)
    pf.series["L"] = s
    f = tmp_path / "p.txt"
    f.write_text(format_problem(pf))
    r = cli("witness", str(f))
    assert r.returncode == 2
    assert "coarsenable" in r.stderr


def test_gen_round_trips_and_certifies(tmp_path):
    r = cli("gen", "--seed", "11", "--length", "7", "--exponent", "2", "--field", "q")
    assert r.returncode == 0
    pf = parse_problem(r.stdout)
    assert format_problem(pf) == r.stdout
    f = tmp_path / "gen.txt"
    f.write_text(r.stdout)
    r2 = cli("witness", str(f), "--out", str(tmp_path / "c.txt"))
    assert r2.returncode == 0
    r3 = cli("verify", str(tmp_path / "c.txt"))
    assert r3.returncode == 0


def test_stdin_input():
    r = cli("gen", "--seed", "5", "--length", "6", "--exponent", "2", "--field", "gf3")
    out = cli("exponent", "-", text_input=r.stdout)
    assert out.returncode == 0 and "exponent=2" in out.stdout


def test_remaining_commands(tmp_path):
    rng = random.Random(6)
    g, s = witness_instance(rng, GF(5), 6, 2)
    pf = ProblemFile(GF(5), s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    f = tmp_path / "p.txt"
    f.write_text(format_problem(pf))
    assert cli("jordan", str(f)).returncode == 0
    assert cli("coarsen", str(f)).returncode == 0
    assert cli("split", str(f)).returncode == 0
    r = cli("lcs", str(f), "--gens", "g")
    assert r.returncode == 0 and "result=zero" in r.stdout
    r = cli("refine", str(f), "--gens", "g")
    assert r.returncode == 0
    r = cli("comm-check", str(f), "--t", "g", "--u", "2", "--k", "3")
    assert r.returncode == 0 and "result=ok" in r.stdout
    r = cli("extend-witness", str(f), "--n", "6", "--out", str(tmp_path / "c2.txt"))
    assert r.returncode == 0
    assert cli("verify", str(tmp_path / "c2.txt")).returncode == 0
    mc = "field q\ndim 1\nmclain x 2\n0 1/2 1\n1/2 1 1\n"
    mf = tmp_path / "m.txt"
    mf.write_text(mc)
    r = cli("mclain", str(mf), "--elems", "x")
    assert r.returncode == 0 and "support=3" in r.stdout


def test_patch_command(tmp_path):
    rng = random.Random(7)
    field = GF(7)
    s = random_series(rng, field, 5, 3)
    from flagstab.series import section_series

    pf = ProblemFile(field, 5)
    pf.series["L"] = s
    induced = section_series(s, s.members[0], s.members[2])
    pf.maps["h1"] = random_stabilizer_element(rng, induced, sparsity=2)
    f = tmp_path / "p.txt"
    f.write_text(format_problem(pf))
    r = cli("patch", str(f), "--section", "2:0:h1")
    assert r.returncode == 0 and "result=ok" in r.stdout
    for bad in ("9:0:h1", "2:-1:h1"):
        r = cli("patch", str(f), "--section", bad)
        assert r.returncode == 2
        assert "out of range" in r.stderr and "Traceback" not in r.stderr


def test_comm_check_rejects_k_below_one(tmp_path):
    rng = random.Random(6)
    g, s = witness_instance(rng, GF(5), 6, 2)
    pf = ProblemFile(GF(5), s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    f = tmp_path / "p.txt"
    f.write_text(format_problem(pf))
    for k in ("0", "-1"):
        r = cli("comm-check", str(f), "--t", "g", "--u", "2", "--k", k)
        assert r.returncode == 2
        assert "--k must be at least 1" in r.stderr and r.stdout == ""


def test_unusable_prime_fields_exit_2():
    r = cli("gen", "--field", "gf6")
    assert r.returncode == 2 and "not prime" in r.stderr and "Traceback" not in r.stderr
    r = cli("gen", "--field", "gf" + str(2**89 - 1))
    assert r.returncode == 2 and "too large" in r.stderr and "Traceback" not in r.stderr
    r = cli("check-stab", "-", text_input="field gf " + str(2**89 - 1) + "\ndim 1\n")
    assert r.returncode == 2 and "line 1" in r.stderr and "Traceback" not in r.stderr


def test_bad_counts_and_indices_exit_2():
    cases = [
        ("mclain", "field gf 5\ndim 2\nmclain x 1\n1/0 2 1\n", "bad rational index"),
        ("mclain", "field q\ndim 2\nmclain x 1\n1 2/0 1\n", "bad rational index"),
        ("mclain", "field gf 5\ndim 2\nmclain x -1\n", "must not be negative"),
        ("check-stab", "field gf 5\ndim 2\nmap m -1 2\n", "must not be negative"),
        ("check-stab", "field gf 5\ndim 2\nmap m 2 -1\n", "must not be negative"),
        ("check-stab", "field gf 5\ndim 2\nseries L -1\n", "must not be negative"),
    ]
    for command, text, message in cases:
        r = cli(command, "-", "--elems", "x", text_input=text)
        assert r.returncode == 2, text
        assert message in r.stderr and "Traceback" not in r.stderr and r.stdout == ""


def test_repeated_sections_exit_2():
    head = "field gf 5\ndim 2\n"
    cert = "certificate\nr 1\nh\n1 0\n0 1\nprobe\n1 0\n"
    cases = [
        (head + "matrix g\n1 1\n0 1\nmatrix g\n1 0\n0 1\n", "duplicate matrix 'g'"),
        (head + "map m 1 1\n1\nmap m 1 2\n1 0\n", "duplicate map 'm'"),
        (head + "series L 1\nsubspace 1\n0 1\nseries L 0\n", "duplicate series 'L'"),
        (head + "mclain x 1\n0 1 1\nmclain x 1\n1 2 1\n", "duplicate mclain 'x'"),
        (head + "matrix g\n1 0\n0 1\n" + cert + cert, "duplicate certificate"),
    ]
    for text, message in cases:
        r = cli("check-stab", "-", text_input=text)
        assert r.returncode == 2, text
        assert message in r.stderr and "Traceback" not in r.stderr and r.stdout == ""
    pf = parse_problem(head + "matrix g\n1 0\n0 1\nmap g 1 1\n1\nseries g 0\nmclain g 0\n")
    assert set(pf.matrices) == set(pf.maps) == set(pf.series) == set(pf.mclain) == {"g"}


def test_non_ascii_or_underscored_numbers_exit_2():
    cases = [
        ("exponent", "field gf 5\ndim 1\nmatrix g\n1_0\n", "bad scalar"),
        ("exponent", "field gf 5\ndim 1\nmatrix g\n١\n", "bad scalar"),
        ("exponent", "field q\ndim 1\nmatrix g\n1/٢\n", "bad scalar"),
        ("mclain", "field q\ndim 1\nmclain x 1\n1_0 20 1\n", "bad rational index"),
        ("mclain", "field q\ndim 1\nmclain x 1\n1.5 2 1\n", "bad rational index"),
        ("mclain", "field q\ndim 1\nmclain x 1\n0 ١ 1\n", "bad rational index"),
        ("exponent", "field gf 5\ndim ²\n", "expected 'dim <d>'"),
        ("exponent", "field gf 5\ndim ١\nmatrix g\n1\n", "expected 'dim <d>'"),
        ("check-stab", "field gf 5\ndim 1\nseries L 1\nsubspace ²\n", "expected 'subspace <rows>'"),
        ("verify", "field gf 5\ndim 1\ncertificate\nr ²\n", "expected 'r <int>'"),
        # past Python's 4,300-digit integer string limit
        ("check-stab", "field gf 5\ndim 1\nseries L 1\nsubspace " + "1" * 5000 + "\n",
         "expected 'subspace <rows>'"),
        ("verify", "field gf 5\ndim 1\ncertificate\nr " + "1" * 5000 + "\n", "expected 'r <int>'"),
    ]
    for command, text, message in cases:
        r = cli(command, "-", "--elems", "x", text_input=text)
        assert r.returncode == 2, text
        assert message in r.stderr and "Traceback" not in r.stderr and r.stdout == ""


def test_dim_above_the_ceiling_exits_2_at_once(monkeypatch, capsys):
    import time

    from flagstab.cli import MAX_DIM

    # 30 bytes that used to build a 100000 x 100000 identity
    text = "field q\ndim 100000\nseries L 0\n"
    assert len(text.encode()) == 30
    for dim in ("100000", str(MAX_DIM + 1), "1" * 5000):
        monkeypatch.setattr("sys.stdin", io.StringIO(text.replace("100000", dim)))
        start = time.perf_counter()
        assert main(["split", "-"]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert f"line 2: dim must be at most {MAX_DIM}" in err and out == ""
    assert parse_problem(f"field gf 2\ndim 000{MAX_DIM}\n").dim == MAX_DIM
    assert parse_problem("field gf 2\ndim " + "0" * 5000 + "3\n").dim == 3
    for opts in (["--length", "200"], ["--length", "130"], ["--dim", str(MAX_DIM + 1)]):
        assert main(["gen", *opts]) == 2, opts
        out, err = capsys.readouterr()
        assert f"dim must be at most {MAX_DIM}" in err and out == ""


@pytest.mark.parametrize("tok", ["1_1", "١١", "1.0"])
def test_header_counts_and_indices_take_ascii_integers_only(tok, monkeypatch, capsys):
    import io

    from flagstab.cli import main

    series = "series L 1\nsubspace 1\n0 1\nmap m 1 1\n1\n"
    cases = [
        (["exponent", "-"], f"field gf {tok}\ndim 1\nmatrix g\n1\n", "invalid integer"),
        (["check-stab", "-"], f"field gf 5\ndim 2\nmap m {tok} 1\n1\n", "integer row/col"),
        (["check-stab", "-"], f"field gf 5\ndim 2\nmap m 1 {tok}\n1\n", "integer row/col"),
        (["check-stab", "-"], f"field gf 5\ndim 2\nseries L {tok}\n", "block count"),
        (["mclain", "-", "--elems", "x"], f"field q\ndim 2\nmclain x {tok}\n", "term count"),
        (["gen", "--field", f"gf{tok}"], None, "--field: invalid integer"),
        (["patch", "-", "--section", f"{tok}:0:m"], "field gf 5\ndim 2\n" + series, "--section"),
        (["patch", "-", "--section", f"1:{tok}:m"], "field gf 5\ndim 2\n" + series, "--section"),
    ]
    for argv, text, message in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(text or ""))
        assert main(argv) == 2, (argv, text)
        out, err = capsys.readouterr()
        assert message in err and out == "", (argv, text, err)


@pytest.mark.parametrize("tok", ["1_2", "١٢", "1.0"])
def test_integer_options_take_ascii_integers_only(tok, capsys):
    from flagstab.cli import main

    gen_opts = ["--seed", "--dim", "--length", "--exponent"]
    cases = [["gen", opt, tok] for opt in gen_opts]
    cases += [["comm-check", "-", opt, tok] for opt in ("--u", "--k")]
    cases += [["extend-witness", "-", "--n", tok]]
    for argv in cases:
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        out, err = capsys.readouterr()
        assert f"argument {argv[-2]}: invalid" in err, (argv, err)
        assert "Traceback" not in err and out == "", (argv, err)


# -- fuzzing ------------------------------------------------------------------
#
# Whatever the text, every subcommand must end with exit code 0, 1 or 2,
# without a traceback and within FUZZ_SECONDS.  The inputs are arbitrary
# text, problem files built from the grammar's own tokens, and valid files
# (some with a certificate) under random edits.  Numbers stay small, so
# that no input asks for a huge dimension, except two 5,000-digit tokens
# past Python's integer string limit, a count and a scalar.

FUZZ_SECONDS = 10
FUZZ_COMMANDS = {
    "check-stab": [],
    "exponent": [],
    "jordan": [],
    "coarsen": [],
    "comm-check": ["--k", "2"],
    "witness": [],
    "extend-witness": [],
    "verify": [],
    "split": [],
    "patch": ["--section", "0:1:m"],
    "lcs": ["--gens", "g,t"],
    "refine": ["--gens", "g"],
    "mclain": ["--elems", "e"],
}
TOKENS = [
    "field", "gf", "q", "dim", "matrix", "map", "series", "subspace", "mclain",
    "certificate", "r", "h", "probe", "g", "t", "m", "e", "L", "#", "0", "1",
    "-1", "2", "3", "5", "7", "1/2", "-3/4", "1/0", "0/0", "99", "1_0", "١", "²",
    "1.5", "+2", "--1", "x", "9" * 5000, "1/" + "9" * 5000,
]
fuzz_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class FuzzTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise FuzzTimeout(f"a call ran past {FUZZ_SECONDS} s")


def run_every_command(text):
    """Run each subcommand on text as stdin; returns {command: exit code}."""
    codes = {}
    old = signal.signal(signal.SIGALRM, _on_alarm)
    stdin = sys.stdin
    try:
        for command, extra in FUZZ_COMMANDS.items():
            sys.stdin = io.StringIO(text)
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "-", *extra])
            except SystemExit as exc:
                code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert code in (0, 1, 2), (command, code, text)
            assert "Traceback" not in err.getvalue(), (command, text)
            codes[command] = code
    finally:
        sys.stdin = stdin
        signal.signal(signal.SIGALRM, old)
    return codes


fuzz_fields = st.sampled_from([GF(2), GF(5), QQ])


def fuzz_scalars(field):
    if field.is_prime_field:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def fuzz_mat(field, nrows, ncols):
    row = st.lists(fuzz_scalars(field), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).map(
        lambda rows: Mat(field, rows, ncols=ncols)
    )


@st.composite
def problem_files(draw):
    """Any ProblemFile that format_problem can write."""
    field = draw(fuzz_fields)
    n = draw(st.integers(1, 4))
    pf = ProblemFile(field, n)
    for name in draw(st.lists(st.sampled_from(["g", "t", "u"]), unique=True)):
        pf.matrices[name] = draw(fuzz_mat(field, n, n))
    for name in draw(st.lists(st.sampled_from(["m", "k"]), unique=True)):
        r, c = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        pf.maps[name] = draw(fuzz_mat(field, r, c))
    for name in draw(st.lists(st.sampled_from(["L", "M"]), unique=True)):
        rng = random.Random(draw(st.integers(0, 2**32)))
        pf.series[name] = random_series(rng, field, n, draw(st.integers(0, n - 1)))
    for name in draw(st.lists(st.sampled_from(["e", "f"]), unique=True)):
        pairs = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), unique=True))
        terms = [((a, a + b), draw(fuzz_scalars(field))) for a, b in pairs]
        pf.mclain[name] = [McLainElement(field, terms)]
    if draw(st.booleans()):
        h = draw(fuzz_mat(field, n, n))
        probe = Vec(field, draw(st.lists(fuzz_scalars(field), min_size=n, max_size=n)))
        pf.certificate = WitnessCertificate(h, draw(st.integers(0, 5)), probe, None, False)
    return pf


@functools.lru_cache(maxsize=None)
def certified_file(field_p, seed):
    """A small witness problem with its certificate, as text."""
    field = QQ if field_p is None else GF(field_p)
    g, s = witness_instance(random.Random(seed), field, 5, 2)
    pf = ProblemFile(field, s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    pf.certificate = construct_witness(g, s)
    return format_problem(pf)


@st.composite
def edited(draw, text):
    """text under a few random line and token edits."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "cut"]))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            toks = lines[i].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(toks)
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines)


@fuzz_settings
@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_cli_fuzz_arbitrary_text(text):
    run_every_command(text)


@fuzz_settings
@given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join), max_size=12))
def test_cli_fuzz_grammar_tokens(lines):
    run_every_command("\n".join(lines) + "\n")


@fuzz_settings
@given(st.data(), problem_files())
def test_cli_fuzz_edited_problem_files(data, pf):
    text = format_problem(pf)
    assert parse_problem(text) == pf
    assert format_problem(parse_problem(text)) == text
    run_every_command(data.draw(edited(text)))


@fuzz_settings
@given(st.data(), st.sampled_from([2, 5, None]), st.integers(0, 3))
def test_cli_fuzz_edited_certificates(data, field_p, seed):
    text = certified_file(field_p, seed)
    assert run_every_command(text)["verify"] == 0
    run_every_command(data.draw(edited(text)))

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

from flagstab import linalg
from flagstab.builder import McLainElement
from flagstab.cli import ProblemFile, _format_rows, format_problem, main, parse_problem
from flagstab.errors import ParseError, ShapeError
from flagstab.instances import random_series, random_stabilizer_element, witness_instance
from flagstab.linalg import GF, QQ, Mat, Subspace, Vec, echelonize, kernel
from flagstab.witness import WitnessCertificate, construct_witness, verify_witness


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
    # an early end of file is reported on the line after the last one
    for text, line in [
        ("field q\ndim 2\nmatrix g\n1 0\n", 5),
        ("field q\ndim 2\nmatrix g\n1 0", 5),
        ("field q\ndim 2\nmatrix g\n1 0\n\n# end\n", 7),
        ("", 1),
    ]:
        with pytest.raises(ParseError) as e:
            parse_problem(text)
        assert e.value.line == line and "unexpected end of file" in str(e.value), text
    r = cli("exponent", "-", text_input="field q\ndim 2\nmatrix g\n1 0\n")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: line 5: unexpected end of file while reading matrix g\n"
    # a bad token is reported where it first appears, though it repeats
    with pytest.raises(ParseError) as e:
        parse_problem("field gf 5\ndim 2\nmatrix g\n1 1_0\n1_0 0\n")
    assert e.value.line == 4 and "bad scalar '1_0'" in str(e.value)


def test_empty_matrix_at_dim_0_exits_2():
    r = cli("exponent", "-", text_input="field q\ndim 0\nmatrix g\n")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: empty matrix needs explicit ncols\n"
    # a dim-0 certificate never reaches its empty h: the probe row would be
    # an empty line, and empty lines are skipped
    for probe, message in [("\n", "line 8: unexpected end of file while reading probe row"),
                           ("0\n", "line 7: expected 0 entries, got 1")]:
        text = "field gf 2\ndim 0\ncertificate\nr 1\nh\nprobe\n" + probe
        r = cli("verify", "-", text_input=text)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == f"error: {message}\n"


def test_format_rejects_what_the_reader_rejects():
    # the reader rejects a matrix or certificate at dim 0 and skips the
    # empty lines of rows without entries, so the writer raises for them
    for field in (GF(2), QQ):
        pf = ProblemFile(field, 0)
        assert parse_problem(format_problem(pf)) == pf
        pf.maps["f"] = Mat.zero(field, 0, 3)
        assert parse_problem(format_problem(pf)) == pf
        bad = []
        for fill in ("matrix", "certificate", "map"):
            pf = ProblemFile(field, 0)
            if fill == "matrix":
                pf.matrices["g"] = Mat.identity(field, 0)
            elif fill == "certificate":
                h = Mat.identity(field, 0)
                pf.certificate = WitnessCertificate(h, 1, Vec(field, []), None, False)
            else:
                pf.maps["f"] = Mat.zero(field, 3, 0)
            bad.append(pf)
        for pf in bad:
            with pytest.raises(ShapeError):
                format_problem(pf)
    with pytest.raises(ShapeError, match="empty matrix needs explicit ncols"):
        parse_problem("field gf 2\ndim 0\nmatrix g\n")


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(17), QQ])
def test_subspace_blocks_parse_to_their_span(field, monkeypatch):
    # a block in reduced echelon form is read as its own basis, any other
    # block is eliminated; both give the subspace `_span` builds
    span_of = Subspace._span
    half = Fraction(1, 2) if field == QQ else 1
    blocks = {
        "echelon": [[1, 0, 2, 0], [0, 1, half, 0], [0, 0, 0, 1]],
        "one row": [[0, 1, 3, 0]],
        "pivot not 1": [[2, 0, 4, 0], [0, 1, 3, 0]],
        "pivots decrease": [[0, 1, 3, 0], [1, 0, 2, 0]],
        "entry left of a pivot": [[0, 1, 3, 0], [1, 0, 0, 1]],
        "pivot column not alone": [[1, 1, 2, 0], [0, 1, 3, 0]],
        "zero row": [[1, 0, 2, 0], [0, 0, 0, 0]],
        "repeated row": [[1, 0, 2, 0], [1, 0, 2, 0]],
    }
    for name, rows in blocks.items():
        rows = [[field.coerce(x) for x in r] for r in rows]
        body = "".join(" ".join(map(field.format, r)) + "\n" for r in rows)
        text = f"field {'q' if field == QQ else f'gf {field.p}'}\ndim 4\nseries L 1\nsubspace {len(rows)}\n{body}"
        spans = []
        with monkeypatch.context() as m:
            m.setattr(Subspace, "_span", lambda *args: spans.append(args) or span_of(*args))
            member = parse_problem(text).series["L"].members[1]
        assert len(spans) == (name not in ("echelon", "one row")), name
        span = span_of(field, 4, rows)
        assert member == span and member.pivots == span.pivots, name
        assert [list(r) for r in member._rows()] == [list(r) for r in span._rows()], name
        assert member.contains(span) and span.contains(member), name


def test_undecodable_file_exits_2(tmp_path):
    f = tmp_path / "p.txt"
    f.write_bytes(b"\xff\xfe")
    r = cli("exponent", str(f))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert "can't decode" in r.stderr


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


@pytest.mark.parametrize("field", [GF(5), QQ])
def test_verify_rejects_a_changed_entry_of_h(tmp_path, field):
    g, s = witness_instance(random.Random(8), field, 7, 2, scramble=True)
    pf = ProblemFile(field, s.ambient_dim)
    pf.matrices["g"] = g
    pf.series["L"] = s
    pf.certificate = construct_witness(g, s)
    f = tmp_path / "c.txt"
    f.write_text(format_problem(pf))
    assert cli("verify", str(f)).returncode == 0
    # one more on the diagonal: the trace of h is no longer dim V, so h is
    # not unipotent and leaves the stabilizer
    text = f.read_text().splitlines()
    i = text.index("h") + 1
    row = text[i].split()
    row[0] = field.format(field.add(field.parse(row[0]), field.one))
    text[i] = " ".join(row)
    f.write_text("\n".join(text) + "\n")
    r = cli("verify", str(f))
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


# -- the parser against a slow reference ----------------------------------------
#
# `parse_problem` parses each distinct scalar token of a file once, builds
# its objects through the trusted constructors and checks each series once.
# `ref_parse_problem` is the slow reference: one `Field.parse` per token,
# the coercing public constructors, and every series checked by
# `validate` and again by `Series(...)`.


def ref_parse_problem(text):
    from flagstab.cli import MAX_DIM, _count, _int, _is_count, _Lines
    from flagstab.errors import FlagstabError
    from flagstab.linalg import Subspace
    from flagstab.series import Series, validate

    def scalar(field, tok, lineno):
        try:
            return field.parse(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad scalar {tok!r}") from None

    def row(field, line, lineno, width):
        toks = line.split()
        if len(toks) != width:
            raise ParseError(lineno, f"expected {width} entries, got {len(toks)}")
        return [scalar(field, t, lineno) for t in toks]

    def matrix_rows(lines, field, nrows, ncols, context):
        out = []
        for _ in range(nrows):
            lineno, line = lines.next(context)
            out.append(row(field, line, lineno, ncols))
        return out

    lines = _Lines(text)
    lineno, line = lines.next("field header")
    toks = line.split()
    if toks[0] != "field":
        raise ParseError(lineno, "file must start with a field line")
    if toks[1:] == ["q"]:
        field = QQ
    elif len(toks) == 3 and toks[1] == "gf":
        try:
            field = GF(_int(toks[2]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    else:
        raise ParseError(lineno, "field line must be 'field gf <p>' or 'field q'")
    lineno, line = lines.next("dimension")
    toks = line.split()
    if len(toks) != 2 or toks[0] != "dim" or not _is_count(toks[1]):
        raise ParseError(lineno, "expected 'dim <d>'")
    digits = toks[1].lstrip("0") or "0"
    if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
        raise ParseError(lineno, f"dim must be at most {MAX_DIM}")
    dim = int(digits)
    pf = ProblemFile(field, dim)
    tables = {"matrix": pf.matrices, "map": pf.maps, "series": pf.series, "mclain": pf.mclain}
    while lines.peek() is not None:
        lineno, line = lines.next("section")
        toks = line.split()
        kind = toks[0]
        if kind in tables and len(toks) > 1 and toks[1] in tables[kind]:
            raise ParseError(lineno, f"duplicate {kind} {toks[1]!r}")
        if kind == "certificate" and pf.certificate is not None:
            raise ParseError(lineno, "duplicate certificate")
        if kind == "matrix" and len(toks) == 2:
            rows = matrix_rows(lines, field, dim, dim, f"matrix {toks[1]}")
            pf.matrices[toks[1]] = Mat(field, rows)
        elif kind == "map" and len(toks) == 4:
            try:
                r, c = _int(toks[2]), _int(toks[3])
            except ValueError:
                raise ParseError(lineno, "map needs integer row/col counts") from None
            if r < 0 or c < 0:
                raise ParseError(lineno, "map row/col counts must not be negative")
            rows = matrix_rows(lines, field, r, c, f"map {toks[1]}")
            pf.maps[toks[1]] = Mat(field, rows, ncols=c)
        elif kind == "series" and len(toks) == 3:
            try:
                m = _int(toks[2])
            except ValueError:
                raise ParseError(lineno, "series needs a block count") from None
            if m < 0:
                raise ParseError(lineno, "series block count must not be negative")
            subs = []
            for _ in range(m):
                l2, header = lines.next("subspace header")
                htoks = header.split()
                nrows = _count(htoks[1]) if len(htoks) == 2 and htoks[0] == "subspace" else None
                if nrows is None:
                    raise ParseError(l2, "expected 'subspace <rows>'")
                rows = matrix_rows(lines, field, nrows, dim, "subspace")
                subs.append(Subspace.span(field, dim, rows))
            try:
                full = Subspace.full(field, dim)
                zero = Subspace.zero(field, dim)
                members = validate(field, dim, subs + [full, zero]).members
                pf.series[toks[1]] = Series(field, dim, members)
            except FlagstabError as exc:
                raise ParseError(lineno, f"invalid series: {exc}") from None
        elif kind == "mclain" and len(toks) == 3:
            try:
                t = _int(toks[2])
            except ValueError:
                raise ParseError(lineno, "mclain needs a term count") from None
            if t < 0:
                raise ParseError(lineno, "mclain term count must not be negative")
            terms = []
            for _ in range(t):
                l2, line2 = lines.next("mclain term")
                parts = line2.split()
                if len(parts) != 3:
                    raise ParseError(l2, "mclain term is 'r s coeff'")
                try:
                    r_idx = QQ.parse(parts[0])
                    s_idx = QQ.parse(parts[1])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(l2, "bad rational index") from None
                terms.append(((r_idx, s_idx), scalar(field, parts[2], l2)))
            try:
                pf.mclain[toks[1]] = [McLainElement(field, terms)]
            except FlagstabError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif kind == "certificate" and len(toks) == 1:
            l2, rline = lines.next("certificate r")
            rtoks = rline.split()
            r = _count(rtoks[1]) if len(rtoks) == 2 and rtoks[0] == "r" else None
            if r is None:
                raise ParseError(l2, "expected 'r <int>'")
            l3, hline = lines.next("certificate h")
            if hline != "h":
                raise ParseError(l3, "expected 'h'")
            hrows = matrix_rows(lines, field, dim, dim, "certificate h")
            l4, pline = lines.next("certificate probe")
            if pline != "probe":
                raise ParseError(l4, "expected 'probe'")
            l5, prow = lines.next("probe row")
            probe = Vec(field, row(field, prow, l5, dim))
            pf.certificate = WitnessCertificate(Mat(field, hrows), r, probe, None, False)
        else:
            raise ParseError(lineno, f"unknown section {line!r}")
    return pf


# Valid tokens repeat within a file and include aliases (7, -3, +2 are 2
# in GF(5)); each bad token may appear on several lines.
DIFF_TOKENS = {
    2: ["0", "1", "1", "0", "3", "-1", "+2", "01"],
    5: ["0", "1", "2", "4", "7", "-3", "2", "+2", "12", "-0"],
    None: ["0", "1", "-1", "1/2", "2/4", "-3/6", "+2", "7", "0/5", "3/-4", "1"],
}
BAD_TOKENS = ["1_0", "1/0", "١", "1.5", "x"]


@st.composite
def parser_files(draw):
    """Problem-file text over GF(2), GF(5) or QQ, mostly well formed."""
    field_p = draw(st.sampled_from([2, 5, None]))
    n = draw(st.sampled_from([0, 1, 2, 2, 3, 3]))
    bad = draw(st.sampled_from(BAD_TOKENS))
    pool = DIFF_TOKENS[field_p] + ([bad] if draw(st.integers(0, 3)) == 0 else [])
    tok = st.sampled_from(pool)

    def rows(nrows, width):
        out = []
        for _ in range(nrows):
            w = width + (1 if draw(st.integers(0, 30)) == 0 else 0)
            out.append(" ".join(draw(tok) for _ in range(w)))
        return out

    lines = ["field q" if field_p is None else f"field gf {field_p}", f"dim {n}"]
    for kind in draw(st.lists(st.sampled_from(["matrix", "map", "series", "mclain", "cert"]),
                              max_size=4)):
        name = draw(st.sampled_from(["g", "t"]))
        if kind == "matrix":
            lines += [f"matrix {name}"] + rows(n, n)
        elif kind == "map":
            r, c = draw(st.integers(0, 2)), draw(st.integers(0, 3))
            lines += [f"map {name} {r} {c}"] + rows(r, c)
        elif kind == "series":
            dims = draw(st.lists(st.integers(0, n), max_size=3))
            lines.append(f"series {name} {len(dims)}")
            for d in dims:
                lines += [f"subspace {d}"] + rows(d, n)
        elif kind == "mclain":
            t = draw(st.integers(0, 2))
            lines.append(f"mclain {name} {t}")
            for i in range(t):
                upper = draw(st.sampled_from([f"{i + 1}", f"{2 * i + 1}/2", f"{i + 2}"]))
                lines.append(f"{i} {upper} {draw(tok)}")
        else:
            lines += ["certificate", f"r {draw(st.integers(0, 3))}", "h"] + rows(n, n)
            lines += ["probe"] + rows(1, n)
    if draw(st.integers(0, 4)) == 0:
        lines = lines[: draw(st.integers(1, len(lines)))]
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    from flagstab.errors import FlagstabError

    try:
        pf = parse(text)
    except FlagstabError as exc:
        return type(exc), str(exc)
    return pf, format_problem(pf)


@settings(max_examples=300, deadline=None)
@given(parser_files())
def test_parser_matches_reference(text):
    got, want = parse_outcome(parse_problem, text), parse_outcome(ref_parse_problem, text)
    assert got == want, text
    if isinstance(got[0], ProblemFile):
        pf = got[0]
        for m in [*pf.matrices.values(), *pf.maps.values()]:
            assert all(pf.field.coerce(x) == x and type(x) is type(pf.field.zero)
                       for r in m.rows for x in r)


@given(st.sampled_from([2, 5, None]), st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_field_format_is_str_of_canonical_scalars(field_p, a, b):
    field = QQ if field_p is None else GF(field_p)
    x = field.coerce(a) if field_p is not None else Fraction(a, b)
    assert field.format(x) == str(x)
    assert field.parse(str(x)) == x


# -- kernel forms of parsed objects --------------------------------------------
#
# `parse_problem` reads each distinct row line once, into its entries and its
# kernel form, and hands the forms to the trusted constructors.  Every object
# it returns must hold the forms the lazy paths compute from its entries.

FORM_FIELDS = [GF(2), GF(5), GF(13), GF(17), QQ]


@st.composite
def repeated_line_files(draw):
    """Problem-file text whose matrix, map, certificate and probe rows are
    drawn from a small pool of lines that the series blocks also use, so that
    lines repeat; a block is its member's basis, or that basis with its rows
    reversed and the last added to the others, which is no echelon form."""
    field = draw(st.sampled_from(FORM_FIELDS))
    n = draw(st.integers(1, 5))
    s = random_series(random.Random(draw(st.integers(0, 2**32))), field, n,
                      draw(st.integers(0, n - 1)))
    scalars = fuzz_scalars(field)
    pool = [list(r) for x in s.members for r in x.basis]
    pool += draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=1, max_size=3))
    row = st.sampled_from(pool).map(lambda r: " ".join(map(field.format, r)))
    lines = ["field q" if field == QQ else f"field gf {field.p}", f"dim {n}"]
    lines += [f"series L {s.length}"]
    for x in s.members[1:-1]:
        rows = [list(r) for r in x.basis]
        if draw(st.booleans()):
            rows = [[a + b for a, b in zip(r, rows[0])] for r in rows[:0:-1]] + rows[:1]
        lines += [f"subspace {x.dim}"] + [" ".join(field.format(field.coerce(a)) for a in r)
                                          for r in rows]
    lines += ["matrix g"] + [draw(row) for _ in range(n)]
    lines += [f"map m 2 {n}"] + [draw(row) for _ in range(2)]
    lines += ["certificate", "r 1", "h"] + [draw(row) for _ in range(n)] + ["probe", draw(row)]
    return "\n".join(lines) + "\n"


def kept_forms(pf):
    """The kernel forms every parsed object holds, as plain lists."""
    mats = [*pf.matrices.values(), *pf.maps.values(), pf.certificate.h]
    out = [[(list(x), d) for x, d in m._forms()] for m in mats]
    for s in pf.series.values():
        for x in s.members:
            out.append([list(r) for r in x._rows()])
            out.append(x._packed() if isinstance(pf.field._ops, linalg._PackedPrimes) else None)
    nums, den = pf.field._ops._form(pf.certificate.probe)
    return out + [(list(nums), den)]


@settings(max_examples=60, deadline=None)
@given(repeated_line_files())
def test_parsed_objects_hold_the_forms_the_lazy_paths_compute(text):
    pf = parse_problem(text)
    field, n = pf.field, pf.dim
    for m in [*pf.matrices.values(), *pf.maps.values(), pf.certificate.h]:
        assert [(list(x), d) for x, d in m._forms()] == [linalg._int_row(r) for r in m.rows]
    for x in pf.series["L"].members:
        fresh = Subspace._span(field, n, x.basis)
        assert x == fresh and x.pivots == fresh.pivots
        assert [list(r) for r in x._rows()] == [list(r) for r in fresh._rows()]
        if isinstance(field._ops, linalg._PackedPrimes):
            assert x._packed() == fresh._packed()
    nums, den = field._ops._form(pf.certificate.probe)
    assert (list(nums), den) == linalg._int_row(pf.certificate.probe.entries)


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=8),
       st.integers(1, 10**12), st.sampled_from([1, 1, 2, 6, 35]), st.booleans())
def test_rows_print_from_forms_as_str_of_fractions(nums, den, k, zero):
    # forms need not be in lowest terms; each entry prints in lowest terms
    nums, den = [0 if zero else k * x for x in nums], k * den
    want = " ".join(map(str, (Fraction(x, den) for x in nums)))
    assert _format_rows([(nums, den)]) == [want]
    assert _format_rows([(nums, 1)]) == [" ".join(map(str, map(Fraction, nums)))]


def test_scalars_parse_into_lowest_terms():
    cases = {"2/4": (1, 2), "-3/6": (-1, 2), "3/-4": (-3, 4), "0/5": (0, 1), "+2": (2, 1),
             "-0": (0, 1), "6/-3": (-2, 1), "-0/-7": (0, 1), "12": (12, 1)}
    for text, ratio in cases.items():
        assert QQ._ratio(text) == ratio and QQ.parse(text) == Fraction(*ratio)
    assert GF(5)._ratio("-12") == (3, 1)
    # a block in unreduced fractions is the reduced one, down to its integer rows
    text = "field q\ndim 2\nseries L 1\nsubspace 1\n{} {}\n"
    got, want = parse_problem(text.format("2/2", "0/5")), parse_problem(text.format(1, 0))
    assert got == want and got.series["L"].members[1]._rows() == [[1, 0]]


@pytest.mark.parametrize("field", ["q", "gf 5", "gf 17"])
@pytest.mark.parametrize("tok", ["1_0", "١", "1.5", "1/0", "1/", "--1", "+"])
def test_bad_scalars_exit_2_on_their_line(field, tok, monkeypatch, capsys):
    cases = [
        (["exponent"], f"field {field}\ndim 2\nmatrix g\n1 0\n0 {tok}\n", 5),
        (["verify"], f"field {field}\ndim 1\ncertificate\nr 1\nh\n1\nprobe\n{tok}\n", 8),
        (["mclain", "--elems", "x"], f"field {field}\ndim 1\nmclain x 1\n0 1 {tok}\n", 4),
    ]
    for args, text, line in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([args[0], "-", *args[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: line {line}: bad scalar {tok!r}\n", text


def test_row_memo_keeps_each_lines_own_width_and_first_error():
    # a line read before as a row of 2 is still 2 entries in a map of width 3
    text = "field gf 5\ndim 2\nmatrix g\n1 0\n0 1\nmap m 1 3\n1 0\n"
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    assert e.value.line == 7 and str(e.value) == "line 7: expected 3 entries, got 2"
    # and a map row of width 3 is no row of the 2 x 2 matrix after it
    text = "field q\ndim 2\nmap m 1 3\n1 0 1/2\nmatrix g\n1 0 1/2\n0 1\n"
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    assert e.value.line == 6 and str(e.value) == "line 6: expected 2 entries, got 3"
    # a bad scalar on a line that repeats is reported where the line first appears
    for field in ("gf 2", "gf 17", "q"):
        text = f"field {field}\ndim 2\nmap m 1 2\n1 1\nmatrix g\n0 1_0\n0 1_0\n"
        r = cli("exponent", "-", text_input=text)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: line 6: bad scalar '1_0'\n", field


@pytest.mark.parametrize("field_p", [2, 5, 17, None])
def test_memoised_rows_survive_construction_and_verification(field_p):
    # nested members share rows, so one line's form is held by several
    # objects; no kernel may change it in place.  t = 2g has rows whose
    # integer forms have content 2, which elimination divides out.
    text = certified_file(field_p, 3)
    pf = parse_problem(text)
    t = pf.matrices["g"].scale(2)
    text += "matrix t\n" + "".join(" ".join(map(pf.field.format, r)) + "\n" for r in t.rows)
    lines = text.splitlines()
    assert len(set(lines)) < len(lines)
    pf = parse_problem(text)
    g, s = pf.matrices["g"], pf.series["L"]
    cert = construct_witness(g, s)
    assert verify_witness(g, s, cert) and verify_witness(g, s, pf.certificate)
    for m in [g, pf.matrices["t"], pf.certificate.h]:
        echelonize(m), kernel(m), m @ m
        if m.is_invertible():
            m.inverse()
    for x, y in zip(s.members, s.members[1:]):
        x.sum(y), x.intersect(y), y._extend(x.basis_vecs())
    assert kept_forms(pf) == kept_forms(parse_problem(text))

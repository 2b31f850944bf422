"""Golden `flagstab witness` and `flagstab extend-witness` reports on a
small `gen` corpus.

Each digest is the sha256 of the stdout of `flagstab gen ... | flagstab
witness -` (or `flagstab extend-witness - [--n N]`).  They pin every
byte of the report (h, the probe, r and the `stronger_power_nonzero=`
line), so a change in how the witness is computed must leave the
certificate itself unchanged.  The `witness` corpus has r = 1, 2, 3 and
5.  The `extend-witness` corpus has padded and unpadded problems, `--n`
equal to the number of jumps and one below it, and r = 1 to 4.  Both
corpora have both values of `stronger_power_nonzero`.  The other reports
(`check-stab`, `exponent`, `jordan`, `coarsen`, `split`, `comm-check`,
`lcs` and `refine`) are pinned over `gen --seed 1` for each field.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from flagstab.cli import main

GOLDEN = {
    ("gf2", 7, 2, False): "394e27cdc0da479b5f92491d38cf615abb7e4403d5d125aab89403ce33f3e2f1",
    ("gf2", 7, 2, True): "081beaafb7c4da84a677d2f14a4e84fd2bf7344a62791d5d6c5186cc80001f42",
    ("gf2", 7, 3, False): "38de5c4290bd01223faca1d9c8323eed75f1b56ee985401417dc733093bc9862",
    ("gf2", 7, 3, True): "a2ca5b5796a194e196d471243128248a75807933cf43df7f8bf13a349c89aa49",
    ("gf2", 12, 2, False): "48c26af68e4542cfdf0a586dab287912e8c7b6ca4e7326fce1209dde789f4fbe",
    ("gf2", 12, 2, True): "7db0bab6a86895174c783aa4943a3abbb6ad8045913f8b1184fd74dbad352a52",
    ("gf2", 12, 3, False): "9591e0579463c05f58e7bff1651743887a9918ae42a1b69ba0eab38a2eb04c46",
    ("gf2", 12, 3, True): "0813cd5535412699d7770ce2c7f9f332c216f7d7122499e5ee4c79261fb1aa1e",
    ("gf5", 7, 2, False): "0bf881269a598098fe273bf5e6c9931385c9cea6e3cd3c854197c8ec4041fcdf",
    ("gf5", 7, 2, True): "c11bd324e9689b1b49b67d25e74da74612245bb2da5092e7781aca9d89105efa",
    ("gf5", 7, 3, False): "9d6b855d603926fb2329f9bcb784818dbc57eb557fd371605012e89df8ff6dc5",
    ("gf5", 7, 3, True): "5884d232c5586c84b3e5c78cff1527bbd392f7cb2a3f35ca4f9f707ee564b836",
    ("gf5", 12, 2, False): "65dad77ca8a9fa9f15f487db8d26d70e38af20bc49a0c4ef6a372cd63644552d",
    ("gf5", 12, 2, True): "3c411022159324626a0f2b3ec149e27f9bf9b1942b07750fb83e39cf4338127f",
    ("gf5", 12, 3, False): "45586a9ec26f81b5acd282e03dce7b7e81c2de424e36f157c26189ca80669203",
    ("gf5", 12, 3, True): "9a4c902610df95aee6539fa815bc7964b8eca9ea8df3605f3547e3e6c29d8905",
    ("q", 7, 2, False): "ecfebd78269fd83a8533230ed6276b0ef335a7d0f6acae033285d2e195425f59",
    ("q", 7, 2, True): "eba9038bc7d57c20868b3c5e2ee5054754fa9c3fbf467b9057fc309b9a1452b2",
    ("q", 7, 3, False): "bebfc0b8755a01bc74aaffb5f33a27175d8123cd3b779e8a0d84655a6c0c2f5c",
    ("q", 7, 3, True): "a8d4246955e08c6e94bd8aa1d557d63c8317398d5578f3413c30c1aeeadf04b8",
    ("q", 12, 2, False): "cdb1d9effb5f28bc6247d165ee881a6ccf3c8b12ec104e21e0bb259c8000c222",
    ("q", 12, 2, True): "12a347a35fbb49f53a43fd5f40c41874d0b0f3f170e97bec52757082096753db",
    ("q", 12, 3, False): "0d17060570f2dc0948466c2ff1cee39d67aec28ff78b63f142ecd25a5c74b346",
    ("q", 12, 3, True): "194661de6e5e89d6060af2d51ad899d42c7ca41c389f72ad5835b5a5a4058170",
}


# (field, --length, --dim or None, --n or None), all at --exponent 2;
# --dim 17 pads length 8 by three vectors, --dim 21 pads length 10.
EXTEND_GOLDEN = {
    ("gf2", 8, None, None): "056d3ab4f583b2149b892a180fc4f7dfaadfdcf333e051a1fda31b99c8de1ebc",
    ("gf2", 8, None, 7): "eb496bdf2f222a66abf24434d52f189b7879fbff1ef052f3e787fbb7717a31bc",
    ("gf2", 8, 17, None): "384f02181d6654b75b6cbb615d7a8cc147e4391180170a4f1b9771bb9f4dfe06",
    ("gf2", 8, 17, 7): "f8c46c80f0e10670e9915424c1eeac2fd95d175e7e3a13583945a39d8f153756",
    ("gf2", 10, 21, None): "d693ce696dc632e62084eaba72c8da738964ce00e739e463e12b316f776ba2d2",
    ("gf2", 10, 21, 9): "8bd577f4e852500c276aadb4ffa44eb833d0cff4d5289564e3368452cc359240",
    ("gf5", 8, None, None): "59222e68e1efb4efecb53b0d114feba436712876b6291e518c8e8620c6d83433",
    ("gf5", 8, None, 7): "00674df3f568910b7e5b8484b4a7771613506ac1d5c57fc8867fc3641f0c9375",
    ("gf5", 8, 17, None): "c441ba0f43f11fe4e4ff29083fc92776f418c70f4414dbccb077635c16f9dbd1",
    ("gf5", 8, 17, 7): "d166eac41ad8735c6c97e5153f0e75a8b7d1aaf0126d9b61902503d36e126506",
    ("gf5", 10, 21, None): "d5f32ee62dd7cdffeb81042c2d253c4de553604d2111f09bbdf877315adc0495",
    ("gf5", 10, 21, 9): "c744bf378dfd1faeb96e1f138d851c10615663c4b8d74e497ee18ac3cedb9451",
    ("q", 8, None, None): "71abba24eef1b3f3929b394b30b80491719602a09e411bb710b4562d3a5bf06c",
    ("q", 8, None, 7): "bf50ab65c1fef413920c488d1dcf383f086773782bd17bab86768e220d272f87",
    ("q", 8, 17, None): "96152fb679d395c9dd47180ba2302d126d018008e994654e19d3b3fcaea7a6f2",
    ("q", 8, 17, 7): "ffd0df9f02a82ae452733408bdb6f9257f76f7995fcbb96d887e94ad719e4f35",
    ("q", 10, 21, None): "b707de5b1ea5fc422faa61a0b9805be389c19388e66067f26bad6f8996993505",
    ("q", 10, 21, 9): "4a4fb73d58262939ec1c65a70ccc55e0b39890e276e7878bb5be3b16fb2a8db1",
    ("gf2", 6, None, 5): "2274434afd2507710e0e637fec1b1086f6a8d19716f0e09e11f1b5808477a136",
    ("q", 6, None, 5): "f2f4f679d0b1ba8e4db30d9c492009821cb660403b26ae568dcb8a6160578098",
}


# The other reports over `gen --field F --seed 1`: they print counts and
# dims, which that problem shares over every field, so one digest per report.
REPORT_CASES = ("q", "q --scramble", "gf2", "gf5", "gf17")
REPORT_GOLDEN = {
    "check-stab": "d832afdb16a3e50429e2a262e01fe628bce118fa987b0d4e9eacd3de3e9bb20d",
    "exponent": "3e1a80e2af6a2fd96a02fce6a41254ee17162e22903547335bdafa044c7b3b51",
    "jordan": "39bd34a5826ccd6c57cd60f069deef204cabbbbf1236f34cea7a6a0ad7d169af",
    "coarsen": "deeee02884165053fa201d8fa99312ebd0593b24bf32bdfc5f26263b80b1ea36",
    "split": "7afdde34cf1fe55e98d1f8171a320bc9f10cd8ba878f661c519ce437b784f785",
    "comm-check --t g --u 1": "46b0815c1478bc68ce51ac2eb7dbd7657c3b7698845a1388ea3fdda95902b8a3",
    "lcs --gens g": "2c2c8dfda3cd5893ff98966e8c186e54e7ecfd42d725cdd2acf4aa7fe957fba1",
    "refine --gens g": "e52bc4200041f3049cf374e035405f3af34213af31b6867e8733b10d2da8746d",
}


def run_cli(argv, stdin_text=None):
    out = io.StringIO()
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_witness_report_digest(key):
    field, length, exponent, scramble = key
    argv = ["gen", "--field", field, "--length", str(length), "--exponent", str(exponent)]
    code, problem = run_cli(argv + (["--scramble"] if scramble else []))
    assert code == 0
    code, report = run_cli(["witness", "-"], problem)
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[key]


def test_corpus_covers_both_stronger_flags_and_long_powers():
    seen = set()
    for length, exponent in ((7, 3), (12, 2)):
        _, problem = run_cli(["gen", "--field", "gf2", "--length", str(length),
                              "--exponent", str(exponent)])
        _, report = run_cli(["witness", "-"], problem)
        lines = report.splitlines()
        seen.add((lines[1], lines[2]))
    assert seen == {("r=1", "stronger_power_nonzero=true"), ("r=5", "stronger_power_nonzero=false")}


def extend_report(field, length, dim, n):
    argv = ["gen", "--field", field, "--length", str(length), "--exponent", "2"]
    code, problem = run_cli(argv + ([] if dim is None else ["--dim", str(dim)]))
    assert code == 0
    code, report = run_cli(["extend-witness", "-"] + ([] if n is None else ["--n", str(n)]),
                           problem)
    assert code == 0
    return report


@pytest.mark.parametrize("key", sorted(EXTEND_GOLDEN, key=repr))
def test_extend_witness_report_digest(key):
    report = extend_report(*key)
    assert hashlib.sha256(report.encode()).hexdigest() == EXTEND_GOLDEN[key]


def test_extend_corpus_covers_both_stronger_flags_and_short_n():
    seen = set()
    for key in (("gf2", 8, None, 7), ("gf5", 10, 21, 9)):
        seen.add(tuple(extend_report(*key).splitlines()[1:3]))
    assert seen == {("r=2", "stronger_power_nonzero=false"), ("r=3", "stronger_power_nonzero=true")}


@pytest.mark.parametrize("case", REPORT_CASES)
@pytest.mark.parametrize("command", sorted(REPORT_GOLDEN))
def test_report_digest(case, command):
    field, *flags = case.split()
    code, problem = run_cli(["gen", "--field", field, "--seed", "1", *flags])
    assert code == 0
    code, report = run_cli([*command.split(), "-"], problem)
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_GOLDEN[command]

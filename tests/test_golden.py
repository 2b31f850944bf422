"""Golden `flagstab witness` reports on a small `gen` corpus.

Each digest is the sha256 of the stdout of `flagstab gen ... | flagstab
witness -`.  They pin every byte of the report (h, the probe, r and the
`stronger_power_nonzero=` line), so a change in how the witness is
computed must leave the certificate itself unchanged.  The corpus has
r = 1, 2, 3 and 5, and both values of `stronger_power_nonzero`.
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

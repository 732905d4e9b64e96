"""The report contract: each campaign's stdout bytes and exit code, pinned.

The digests were recorded from the CLI before the campaigns shared one
runner.  A campaign report is a pure function of its configuration, so a
change to any of these bytes is a change to the contract and must be
declared, not absorbed.
"""

import hashlib

import pytest

from permrat.cli import main

_PINNED = {
    "verify baseline --n2-max 4 --n3-max 3":
        "9e0649e8e62779906f39e00219053799f93d93d48af9e9bea33a0f8168324971",
    "verify thm11 --primes 5":
        "55dd84cd0f2a1a86ceb0e5227fa370971784e61d2ec279d1609fe8ab6e15a481",
    "verify thm31 --p-max 13 --full-primes 3":
        "a9b2fc039a3349f1a73daaaeec0faf38e34aec0931b614b981e22664341e588d",
    "verify thm31 --p-max 13 --full-primes 3 --format csv":
        "96f859ae0866d54bc527b5b9ea24d96248942207e5a1180ede836f936734d916",
    "verify thm31 --p-max 13 --full-primes 3 --format human":
        "6876dc150c21e6f703234163ccb88e78d34c1418c44326f5e68f69b18f6bfaaa",
    "verify remark43 --q-list 9":
        "3d2c63fa154b03c96eba4bec14f313bd06265c41528bd67ea9665aaf8343a639",
    "verify lemma22 --p-max 13":
        "86ab998cb1f31c2f613460dc88d777c54683050b099fc1f68d65888021b11606",
    "verify lemmaL --p-max 13":
        "aa05971ed2cbfa08c002339e3851d4d48ddd54891f3840bd4948067e735dd438",
    "conjecture --n 3 --primes 5":
        "f36e31757d41377442b005d7c6714aa0d2c09e7eee2c0c473c6b0dfd15a19c20",
    "conjecture --n 4 --primes 5":
        "4d56ccb28520d63b6fe248122c21c0a3322f2a85ada532b4deb064f4d3629806",
    "weil-audit --p-max 7 --f-degrees 2 --ident-p-max 3 --eq28-p-max 7":
        "7b2725e517da1a721fa40cec27fe54707fccfa2febfe1fb90d1fc2eeb12cf543",
}


@pytest.mark.parametrize("command", list(_PINNED))
def test_campaign_report_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.delenv("PERMRAT_BACKEND", raising=False)
    monkeypatch.delenv("PERMRAT_JOBS", raising=False)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command]

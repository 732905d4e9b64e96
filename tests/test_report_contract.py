"""The report contract: stdout bytes and exit code of each command, pinned.

The campaign digests were recorded from the CLI before the campaigns shared
one runner; the `reps` and `permcheck` digests before the field layer moved
to F_p linear algebra (every report prints the field's modulus); the default
collision-scan campaigns before the scan resolved collisions in one pass; the
curve-pencil `count` and `weil-audit` digests before the pencil's identity
check and infinity counts moved to F_p integer work; the `weil-audit` running
the substitution identity for every p <= 13, and the progress files, before
that identity was counted by one gcd instead of an element walk; the default
`weil-audit` before its pencil census was evaluated packed; the p = 2, 3
`count` builders and the default `lemma22` before G and H were written as
literal pencils; the colliding `permcheck` maps at p = 1019 and at level
d = 2 before field elements were multiplied and inverted on packed ints; the
p = 257 `count`s and the F_{11^3} collision count before `count_zeros` gave
up its discrete-log tables for packed power planes (no other pinned count
reads slots two bytes wide, and none runs over F_{11^3}); the default
`lemmaL` before the univariate toolkit moved from its polynomial class to
`field`'s coefficient lists (the `curves` benchmark workload runs it at its
defaults, up to p = 97, and `--p-max 13` reaches only the small primes).  A
report or progress file is a pure function of its configuration, so a change
to any of these bytes is a change to the contract and must be declared, not
absorbed.
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
    "reps --p 2 --n 18":
        "e63500a3b6aa025a0ac3ff87761e3cd6a89bba399bebd2e4bb258bacc8506ef8",
    "reps --p 2 --n 16":
        "7fc9ace2ccec85fcd26dd471158e888f58ca00af36cb4e6bab1f118e8cd6ff87",
    "reps --p 3 --n 9":
        "d2b8e3ecebe42f4d8ba3336e8a7115862e793415949df3bed02e5dbf4e66d87a",
    "reps --p 3 --n 8 --d 4":
        "0f29ae044c72c1a01ccfa2998cd94ca627b09ee8d8072daae1773e3a98a4c61f",
    "reps --p 5 --n 5":
        "ce192897ad56149dc5a9928e6de099cd066e58ec29fd9949f152a4e6bb7ae6ec",
    "reps --p 7 --n 6 --d 3":
        "c2a64a79017d668264d5612222b7d9d80fae99138cfb6684bfcf5a140f0320c3",
    "reps --p 2 --n 12 --d 6":
        "aadcbf0c7f347efe6fe4b472234502659ba9ee0b79629b5279c17724d1683de9",
    "reps --p 401 --n 2":
        "1705904a9419056d34a226cd7027a35e6efa4bb6341ab94208c8623084f489e2",
    "permcheck --p 5 --n 5 --b-trace 4":
        "501ec48aa91961cb615a233e3ce5a70ad3008cba3ed1b2c01fb62dd90c33e210",
    # colliding maps: one at a wide-slot field, one at level d = 2
    "permcheck --p 1019 --n 2 --b-index 3":
        "40403117ea2c430f653957d2ce10fe0dd59a079babc14fff99d5b6a64d2445da",
    "permcheck --p 7 --n 4 --frob-level 2 --b-index 5":
        "aedab0cba6193fa5f22f178d66c8c279973fc3b76d176deaed66cdb6586d0030",
    # the collision scans at their default configurations
    "verify thm11":
        "5d872118a634230926be6d5c1c79bbe5edace1b74a06e488c57b578124c52b1c",
    "verify thm31":
        "62ad5c1a8e24774d08c0eb4363cae06aa2401f452800365c215212216949f3da",
    "verify remark43":
        "05f78af60572926a9a19c0d5636efe13b0fe8c6531f3a465c19d1d9d2cca8b9b",
    "conjecture --n 3":
        "58defeeda4b553a6acd01102507247ca50b52dfec9bd7a550574439732db1ade",
    "conjecture --n 4":
        "77612d78f6cf1b094ed97769d284c13b99e05100ce07152ad9669f2e677ade8e",
    # the curve pencil: G, H, A at t = 0 and at a non-square t, the collision
    # curve over F_{7^3}, and a weil-audit running every case kind
    "count --p 97 --builtin G --tau 5":
        "15e58fa9c6caff7c273ee1458f45be7b6cdf8a05e5cdc1a37f1af2a3a762129f",
    "count --p 97 --builtin H --tau 5":
        "3998eba41a7a20f036478e4c9fbb13c60910d686bc62dbacdcc744e5c4283f0a",
    "count --p 97 --builtin A --t 0":
        "31cd463440f86ac7f335efce7099624f55257d1c1ba90e9d9695c0952311baf7",
    "count --p 97 --builtin A --t 5":
        "ba39ba11bd0246c357495979811aac97b8c8e68b2854780bd64dda697a6aac5a",
    "count --p 7 --n 3 --builtin F --b-index 5":
        "82290692af0f595de834b616a8a869bccb917b78d5a0680d95bd5de19ecd41b9",
    "weil-audit --p-max 31 --f-degrees 2,3,4 --ident-p-max 5 --eq28-p-max 31":
        "53f39871457e9145201a18c5675da52dd5c935f8f22d636a3f119298dd3583cc",
    # the substitution identity at every p <= 13
    "weil-audit --p-max 5 --f-degrees 2 --ident-p-max 13 --eq28-p-max 3":
        "47abbc84f2cf9fe1b4ea5638ab9cf1f038ff8ce4178edee7ebaf33df86beb47e",
    # weil-audit at its defaults (GH and eq. (28) at every p <= 97)
    "weil-audit":
        "0bb9fb6b726dd1ad193c05b7bfb23cda497c2cf8c6bdf3a1bf4b2d3e58db1f61",
    # the curve builders in characteristic 2 and 3, which the pencil census
    # never reads, and lemma22 and lemmaL at their defaults
    "count --builtin G --p 2 --tau 1":
        "054c6f1adb1f2abd5f13ebaf2ee1515f3eb295b4e2226b547ecd17d364e00f6c",
    "count --builtin H --p 2 --tau 1":
        "eb10c7f33730e73f1e1e6cc2b0428b45c0123f08538be371403d325d0c359acf",
    "count --builtin A --p 2 --t 1":
        "7d4c3f15f225afe90ac8f295d5eed9f27a9ba3285b0e35255becf793cb6cf841",
    "count --builtin G --p 3 --tau 1":
        "741af5d1f52c462f2f69c1933c8b08b1566bf78553ef84297ae356a4415f9040",
    "count --builtin H --p 3 --tau 2":
        "4853afab4dc40c4273eddd0f720abc7672c83aea8a864fa4aaadc4dfdb8d19a4",
    "count --builtin A --p 3 --t 0":
        "f409839e40b9e53f9e75818754a180031c26a4878cf055d7937877f28afb6f7a",
    "verify lemma22":
        "737d8167467c309c17b953487def8c3d7d17357a31116b7f489caa702c832a15",
    "verify lemmaL":
        "d01aad72298ed61c952feb098d176c2234f1834e5d57036fef68917240300fa1",
    # counts whose slots are two bytes wide (p >= 256), and the collision
    # curve over F_{11^3}
    "count --p 257 --builtin G --tau 3":
        "fb2f5e0c5b6c96b20482d87da075a36f7940baf6d76b227df61d97b38e36f0db",
    "count --p 257 --builtin H --tau 3":
        "6ddbf24426316fb7665f9d15f032cd599e40b3114edc4a7b6cb8e53a4c78624f",
    "count --p 11 --n 3 --builtin F --b-trace 3":
        "83c346f899ae6dd0f462abc5b0ac964d6e78bc5bf5594ba3d7e4808346c274ea",
}

_PINNED_PROGRESS = {
    "weil-audit --p-max 5 --f-degrees 2 --ident-p-max 13 --eq28-p-max 3":
        "b34e59560b344d9410406ab40d69faad7c0601e52924b65061d495f4568d9a21",
    "verify thm31 --p-max 13 --full-primes 3":
        "34c055233c873b8838f68513e53223f6a520397670fb23612341842f46975f71",
    "weil-audit --p-max 31 --f-degrees 2,3,4 --ident-p-max 5 --eq28-p-max 31":
        "da240061d6f3d15af39affc47bbc5bc714eaffb49def12c267bf75947fb3f541",
}


@pytest.mark.parametrize("command", list(_PINNED))
def test_campaign_report_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.delenv("PERMRAT_BACKEND", raising=False)
    monkeypatch.delenv("PERMRAT_JOBS", raising=False)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command]


@pytest.mark.parametrize("command", list(_PINNED_PROGRESS))
def test_progress_file_bytes_are_pinned(capsys, monkeypatch, tmp_path, command):
    monkeypatch.delenv("PERMRAT_BACKEND", raising=False)
    monkeypatch.delenv("PERMRAT_JOBS", raising=False)
    prog = tmp_path / "progress"
    code = main(command.split() + ["--progress-file", str(prog)])
    out = capsys.readouterr().out
    assert code == 0
    if command in _PINNED:
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command]
    assert hashlib.sha256(prog.read_bytes()).hexdigest() == _PINNED_PROGRESS[command]

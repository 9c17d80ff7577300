"""Byte-identical replay pinned across changes: sha256 of the CLI's stdout.

A change that alters these documents on purpose (a schema bump, a new
report field) updates the digests here in the same change."""

import hashlib
import json

import pytest

from ltcforge.cli import main

GOLDEN = {
    "pipeline linear --demo": "50d4c6ec031bd6d391e2a47b9ab232dd25145b5de5f9a599d7b35f5bb04eaeb5",
    "pipeline general --demo": "2ce177b262eb208a739769bd56527358ad3e37b5b4a0ca3a19a6ae7fafe92fee",
    "pipeline semilinear --demo": "47c8c434e935433ebafd0a564b3543b34e1f9d1bbc220ed6849549f7691efb22",
    "verify all": "fdc7fd9b8503438f746b7b51b4ef9692235aec9b47f7b46d45daa199ac200e8e",
    # paper rows (a) and (d): the general reduction to 4 letters and the
    # linear one to dim Delta = 3
    "pipeline general --demo --d 4": "8c31eb0d81ccf98a9b93f0314728f3cc19efef6222a714b583f8a3f5277abc4c",
    "pipeline linear --demo --dimd 3": "a702c828df60bba987bea97cbd1cf3166fb5cef2991f75b4988e8fd43699b15b",
}

# Artifacts the file-reading commands below need: (file, command, key of
# the artifact in the command's output).
ARTIFACTS = [
    ("lc23.json", "build longcode --s 2 --delta-size 3", "code"),
    ("dep23.json", "tester dependence --longcode 2 3 --q 2", "tester"),
    ("lc22.json", "build longcode --s 2 --delta-size 2", "code"),
    ("fam22.json", "build longcode --s 2 --delta-size 2", "family"),
    ("dep22.json", "tester dependence --longcode 2 2 --q 2", "tester"),
    ("enc22.json", "build encoder --sigma-size 2 --delta-size 2", "encoder"),
    ("eqv.json", "tester equality --n 2 --p 2 --dim 2", "tester"),
    ("had212.json", "build hadamard --p 2 --dimv 1 --dimd 2", "code"),
    ("dep212.json", "tester dependence --hadamard 2 1 2 --q 3", "tester"),
]

# Run in a directory holding ARTIFACTS under relative names, because the
# manifest records the command line.
GOLDEN_WITH_FILES = {
    "build hadamard --p 2 --dimv 1 --dimd 2": "a859f528cd5c1b3c4846626c1393f41042795a7922ead36222737e07da074406",
    "build longcode --s 2 --delta-size 3": "957826506c840cdde0cf8cb7f0fc5e56dfa422994ca1d283c71b85c5896f6c2b",
    "build critical --s 2": "be06246982b3f39f73eff16fad632a553df0002092098f35376adddadb34ae6b",
    "build encoder --sigma-size 2 --delta-size 3": "58dbb8a6c5f80ff73ae802821e4b438b5223ac80546aedd9e87d503446a5cafa",
    "build encoder --linear --p 2 --sigma-dim 2 --delta-dim 1": "419cd0f7270a404751c4b750f26233e2fa0605ddc1f6cb1912e4e0754b233581",
    "tester dependence --longcode 2 3 --q 2": "498bf7665f3d651e4b3cb63d3201f2e3c606d9e7b380a346b1b580efb0691f0f",
    "tester dependence --hadamard 2 1 2 --q 2": "1472c1099dd6982aaa192ba39072615c04779f95dd1021945414eea8870aa6f8",
    "tester dependence --family fam22.json --q 3": "69a1f2ac7566aa9c2a188f131fa0cb21ec6a97bdd7cad6fe140cb86d645ea5d1",
    "tester ring --s 2": "5e03b92565bac3dae76e80d5beb0776919f99cd1c6599e7ccceb4c3b3391d5c8",
    "tester equality --n 3 --size 3": "34c13aac7d6be2d9151188f5f93ec2285edf62741de5416c12d4612c1461e58d",
    "tester equality --n 2 --p 2 --dim 2": "7b7de83bbd26357404f01fb0642e6b2993d98e073083254f4989a90d59a14a58",
    "soundness exact --tester dep23.json --code lc23.json --bound 2/3": "dbf7532c4f6228fdef92bfbf7f42653a771a79d39e55db368184c6206171ac95",
    "soundness sample --tester dep23.json --code lc23.json --trials 300 --seed 5 --bound 1/2": "7a0ad1f8af497c2d19b0a9aaeda4a5d7a40929e2e16d3df62e843c66a4e32c21",
    "separate check --tester dep23.json --delta-size 3": "5c525fc04b69404c5b471661421535469aff76ecfdf89bf8d83687596c107037",
    "separate check --tester eqv.json --linear --p 2 --delta-dim 2": "a8c995ea7e6b063bef8fc76720c782a57a5dcd7c987ed8a908aa5dfcb73551c4",
    "separate replace --tester dep22.json --mu 1/2 --delta-size 2": "784ac231a2512ac5e989afbeabab6931f32034399c2cfc534d97f14735644c55",
    "separate replace --tester eqv.json --mu 1/2 --linear --p 2 --delta-dim 1": "3b3ee5c171ba2df80763e38ecc02d55c93d34e8722c036edb0f44f66b4b696fa",
    "concat --code lc22.json --encoder enc22.json --outer-tester dep22.json --mu 1/2"
    " --inner-tester dep22.json --nu 1/2": "2da44dc2f045cdbb9ea21fab4f7a43ad4f9aafca89f53ed57bf6269145206925",
    "pipeline general --demo --trials 300 --seed 3": "e1064392ee73b0a9ed9da55f9c92deede41686f920602b545a16283d29317a91",
    # paper rows (b) and (c): the general reduction at c = 2 and the linear
    # one at c = 1, each on the q = 3 Hadamard tester over F2 -> F2^2
    "pipeline general --code had212.json --tester dep212.json --d 2 --c 2 --mu 1":
    "56dd5f5fb75c011ea6383358d3821117159bc52d6dd58d1b6549c5081884b365",
    "pipeline linear --code had212.json --tester dep212.json --dimd 1 --c 1 --mu 1":
    "4870dc5b4da99887ada46a384e91378fc6b31b184772ef527096eb49b9fe0636",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert _digest(out) == GOLDEN[command]


@pytest.fixture
def artifact_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, command, key in ARTIFACTS:
        assert main(command.split()) == 0
        doc = json.loads(capsys.readouterr().out)
        (tmp_path / name).write_text(json.dumps(doc[key]))
    return tmp_path


@pytest.mark.parametrize("command", sorted(GOLDEN_WITH_FILES))
def test_stdout_digest_with_files(command, artifact_dir, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert _digest(out) == GOLDEN_WITH_FILES[command]


@pytest.mark.parametrize(
    "command, achieved, promised",
    [
        ("pipeline general --code had212.json --tester dep212.json --d 2 --c 2 --mu 1", (6, 643), (3, 643)),
        ("pipeline linear --code had212.json --tester dep212.json --dimd 1 --c 1 --mu 1", (525, 4096), (3, 128)),
        ("pipeline general --demo --d 4", (1, 21), (2, 63)),
        ("pipeline linear --demo --dimd 3", (8, 33), (1, 11)),
    ],
)
def test_paper_rows_pass_exactly(command, achieved, promised, artifact_dir, capsys):
    # Paper rows (b) and (c): the c = 2 general and c = 1 linear reductions,
    # whose nu floors only these rows reach; rows (a) and (d): the demos
    # over 4 letters and onto dim Delta = 3.  Each certifies its final
    # soundness exactly and passes.
    assert main(command.split()) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    sound = report["achieved"]["soundness"]["$soundness"]
    assert (sound["mode"], sound["verdict"], report["overall"]) == ("exact", "pass", "pass")
    assert (sound["value"]["num"], sound["value"]["den"]) == achieved
    assert (sound["bound"]["num"], sound["bound"]["den"]) == promised
    assert report["verdicts"]["nu_floor"] == "pass"

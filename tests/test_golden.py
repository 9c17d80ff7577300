"""Byte-identical replay pinned across changes: sha256 of the CLI's stdout.

A change that alters these documents on purpose (a schema bump, a new
report field) updates the digests here in the same change."""

import hashlib
import json

import pytest

from ltcforge.cli import main

GOLDEN = {
    "pipeline linear --demo": "5d55a78e42c77e35d99b34ca89cc6a11c939eb4bd854f7c6a259ee9d5da27b8f",
    "pipeline general --demo": "9a4b1dfdeaed816471b3e23f0e3de32baab3e9ea3c97dd4fa9d62a19cc94464d",
    "pipeline semilinear --demo": "7b4fd6398c121bf907a6d3cad1efa7ad33f78f930917ee1b5b8f9a9a26f58533",
    "verify all": "0cdfaece8827526fd86ea296b6cc99588bf91c02c6566a8135065d4b220adb81",
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
]

# Run in a directory holding ARTIFACTS under relative names, because the
# manifest records the command line.
GOLDEN_WITH_FILES = {
    "build hadamard --p 2 --dimv 1 --dimd 2": "e3a2818dfafacbad988a2e9e69b6b33cb7c0fe2adca09b55941b102c2c45c664",
    "build longcode --s 2 --delta-size 3": "957826506c840cdde0cf8cb7f0fc5e56dfa422994ca1d283c71b85c5896f6c2b",
    "build critical --s 2": "be06246982b3f39f73eff16fad632a553df0002092098f35376adddadb34ae6b",
    "build encoder --sigma-size 2 --delta-size 3": "58dbb8a6c5f80ff73ae802821e4b438b5223ac80546aedd9e87d503446a5cafa",
    "build encoder --linear --p 2 --sigma-dim 2 --delta-dim 1": "419cd0f7270a404751c4b750f26233e2fa0605ddc1f6cb1912e4e0754b233581",
    "tester dependence --longcode 2 3 --q 2": "42b665c087e773638f146925ec73e01972c78fa2af00e12a2674fa82acd4dab6",
    "tester dependence --hadamard 2 1 2 --q 2": "3f9c27fe71e36d362a936b2d8efe21bc9ce5f66c890ff32dfaef30ccb545396b",
    "tester dependence --family fam22.json --q 3": "6e1b691e2e608bdaa04259dc286592e118ccfe5b6b01281304ed9cc88996c89f",
    "tester ring --s 2": "65a2e4ae1f55160a445e14659a4cd32d514f8ea69d20a6f23a22c38483fcc818",
    "tester equality --n 3 --size 3": "5229722dc273a7689990f601b624ccfd01dc22f2cc912c25467be873480e8902",
    "tester equality --n 2 --p 2 --dim 2": "4f27325af8e12369144eb26a2e347f2224895dbe3c7526d1d787909bc35d20d0",
    "soundness exact --tester dep23.json --code lc23.json --bound 2/3": "e53d10b7d5995d74a71d0389e5c7940e26b756781e6d393d4b34943a70cca0a5",
    "soundness sample --tester dep23.json --code lc23.json --trials 300 --seed 5 --bound 1/2": "7a0ad1f8af497c2d19b0a9aaeda4a5d7a40929e2e16d3df62e843c66a4e32c21",
    "separate check --tester dep23.json --delta-size 3": "7cbdce005262f89e9e04e228c935b7f9568c9ec13610fc7085681875d31cc5cb",
    "separate check --tester eqv.json --linear --p 2 --delta-dim 2": "3892aee2e277d5ec57215918081bf3e6f576c8cb329885aa702368f82393b1f8",
    "separate replace --tester dep22.json --mu 1/2 --delta-size 2": "2bf20842b958b3c528273ad35d9f573b33eab8be318280dff837500656cf678d",
    "separate replace --tester eqv.json --mu 1/2 --linear --p 2 --delta-dim 1": "8be65b49738050959fdbaf45f0ae9dc3ca020fee9f14a3c0eca3b723ce687e44",
    "concat --code lc22.json --encoder enc22.json --outer-tester dep22.json --mu 1/2"
    " --inner-tester dep22.json --nu 1/2": "b6ed1205abdd30d08d275ee98a59833b45d9f2111a4921bd91ba43b7915eaaa3",
    "pipeline general --demo --trials 300 --seed 3": "690e41a87837180a6bd0faef12482f8432060fb19a1e802be6c999f0d91b9112",
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

"""Byte-identical replay pinned across changes: sha256 of the CLI's stdout.

A change that alters these documents on purpose (a schema bump, a new
report field) updates the digests here in the same change."""

import hashlib

import pytest

from ltcforge.cli import main

GOLDEN = {
    "pipeline linear --demo": "d866cacfbb9ce3fd313587a417e0fe176ec71971d0007016c592bfb396e4b42e",
    "pipeline general --demo": "20a1893f7e3a7b9ccbe14c61a497b5fa5e101f6738c45a54dddc6144b9220441",
    "pipeline semilinear --demo": "0c304d50c4c86bd6cf6c2b4a93b8ba53c526f0732745b38f5cdc6773d70141b6",
    "verify all": "9c6dfa94c139119edfa9033a455c4e27f64dd0de959e0472034686812c4fda0f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]

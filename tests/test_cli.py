"""CLI surface: JSON outputs, exit codes, replay determinism."""

import argparse
import contextlib
import copy
import gc
import io
import itertools
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ltcforge.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_build_hadamard(capsys):
    code, doc = run_cli(capsys, "build", "hadamard", "--p", "2", "--dimv", "1", "--dimd", "2")
    assert code == 0
    assert doc["code"]["n"] == 4
    assert doc["distance"] == {"num": 3, "den": 4}
    assert doc["manifest"]["command"][0] == "build"


def test_build_longcode(capsys):
    code, doc = run_cli(capsys, "build", "longcode", "--s", "2", "--delta-size", "2")
    assert code == 0
    assert doc["code"]["codewords"] == [[0, 1, 0, 1], [0, 0, 1, 1]]


def test_tester_dependence_and_soundness(tmp_path, capsys):
    code, doc = run_cli(capsys, "tester", "dependence", "--longcode", "2", "3", "--q", "2")
    assert code == 0 and not doc["degenerate"]
    tester_path = tmp_path / "tester.json"
    tester_path.write_text(json.dumps(doc["tester"]))
    code, built = run_cli(capsys, "build", "longcode", "--s", "2", "--delta-size", "3")
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(built["code"]))
    code, sound = run_cli(
        capsys,
        "soundness",
        "exact",
        "--tester",
        str(tester_path),
        "--code",
        str(code_path),
        "--bound",
        "2/3",
    )
    assert code == 0
    assert sound["soundness"]["value"] == {"num": 2, "den": 3}
    assert sound["soundness"]["verdict"] == "pass"
    # failing bound flips the exit code
    code, sound = run_cli(
        capsys,
        "soundness",
        "exact",
        "--tester",
        str(tester_path),
        "--code",
        str(code_path),
        "--bound",
        "3/4",
    )
    assert code == 1 and sound["soundness"]["verdict"] == "fail"


def test_soundness_capacity_exit_2(tmp_path, capsys):
    _, doc = run_cli(capsys, "tester", "equality", "--n", "2", "--size", "2")
    tester_path = tmp_path / "t.json"
    tester_path.write_text(json.dumps(doc["tester"]))
    code_path = tmp_path / "c.json"
    code_path.write_text(
        json.dumps(
            {
                "schema": "ltc-forge/code-v1",
                "alphabet": {"kind": "plain", "size": 2},
                "n": 2,
                "codewords": [[0, 0], [1, 1]],
            }
        )
    )
    code = main(
        ["soundness", "exact", "--tester", str(tester_path), "--code", str(code_path), "--budget", "2"]
    )
    capsys.readouterr()
    assert code == 2


def test_equality_tester_checks_are_charged_to_the_budget(capsys):
    # n - 1 checks: 11 fit a budget of 11, 12 do not.  At the default budget
    # 10**8 letters would build 10**8 checks, so that run is a child held to
    # 1.5 GB of address space, where building them ends in a MemoryError.
    import os
    import resource
    from pathlib import Path

    import ltcforge

    assert main(["tester", "equality", "--size", "2", "--n", "12", "--budget", "11"]) == 0
    capsys.readouterr()
    assert main(["tester", "equality", "--size", "2", "--n", "13", "--budget", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "equality checks requires 12 items, budget is 11" in captured.err

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    argv = ["tester", "equality", "--n", "100000000", "--size", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv], capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and proc.stdout == ""


def test_corrupted_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["soundness", "exact", "--tester", str(bad), "--code", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_schema_mismatch_exit_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"schema": "ltc-forge/other-v1"}))
    code = main(["soundness", "exact", "--tester", str(path), "--code", str(path)])
    capsys.readouterr()
    assert code == 2


def test_loading_an_artifact_restores_the_collector(tmp_path, capsys):
    # an artifact file is parsed and read with the cyclic collector paused;
    # it is back on after a load that succeeds, and after one that fails
    # at the JSON, at the schema or past a capacity
    _, doc = run_cli(capsys, "tester", "equality", "--n", "2", "--size", "3")
    good, huge = tmp_path / "t.json", tmp_path / "huge.json"
    good.write_text(json.dumps(doc))
    doc["tester"]["alphabet"]["size"] = 10**30
    huge.write_text(json.dumps(doc))
    bad, other = tmp_path / "bad.json", tmp_path / "other.json"
    bad.write_text("{not json")
    other.write_text(json.dumps({"schema": "ltc-forge/other-v1"}))
    for path, want in [(good, 0), (huge, 2), (bad, 2), (other, 2)]:
        code = main(["separate", "check", "--tester", str(path), "--delta-size", "3"])
        capsys.readouterr()
        assert code == want and gc.isenabled()


def test_separate_check_failure_exit_1(tmp_path, capsys):
    _, doc = run_cli(capsys, "tester", "equality", "--n", "2", "--size", "3")
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc["tester"]))
    code, out = run_cli(capsys, "separate", "check", "--tester", str(path), "--delta-size", "2")
    assert code == 1 and out["separable"] is False


def test_pipeline_semilinear_demo(capsys):
    code, doc = run_cli(capsys, "pipeline", "semilinear", "--demo", "--trials", "500")
    assert code == 0
    report = doc["report"]
    assert report["schema"] == "ltc-forge/report-v2"
    assert report["overall"] == "pass"


def test_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.json"
    assert main(["build", "longcode", "--s", "2", "--delta-size", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: cannot write {out}")


def test_cli_outputs_chain_through_files(tmp_path, capsys):
    # build -> tester dependence -> soundness exact, each reading the
    # previous command's --out file as it was written
    build, tester = tmp_path / "build.json", tmp_path / "tester.json"
    assert main(["build", "longcode", "--s", "2", "--delta-size", "3", "--out", str(build)]) == 0
    assert main(["tester", "dependence", "--family", str(build), "--q", "2", "--out", str(tester)]) == 0
    argv = ["soundness", "exact", "--tester", str(tester), "--code", str(build), "--bound", "2/3"]
    assert main(argv + ["--out", str(tmp_path / "sound.json")]) == 0
    capsys.readouterr()
    sound = json.loads((tmp_path / "sound.json").read_text())["soundness"]
    assert (sound["value"], sound["verdict"]) == ({"num": 2, "den": 3}, "pass")
    # an output holding no tester (here the soundness report) is refused
    argv = ["soundness", "exact", "--tester", str(tmp_path / "sound.json"), "--code", str(build)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "holding exactly one, found 0" in captured.err


def test_linear_pipeline_plain_code_exit_2(tmp_path, capsys):
    _, doc = run_cli(capsys, "build", "longcode", "--s", "2", "--delta-size", "2")
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(doc["code"]))
    _, doc = run_cli(capsys, "tester", "equality", "--n", "4", "--size", "2")
    tester_path = tmp_path / "t.json"
    tester_path.write_text(json.dumps(doc["tester"]))
    argv = ["pipeline", "linear", "--code", str(code_path), "--tester", str(tester_path)]
    assert main(argv + ["--mu", "1", "--dimd", "2", "--c", "2"]) == 2
    assert "vector-space alphabet" in capsys.readouterr().err


def test_verify_subset_and_exit(capsys):
    code, doc = run_cli(capsys, "verify", "all", "--only", "1,4")
    assert code == 0
    assert [c["id"] for c in doc["criteria"]] == [1, 4]
    assert doc["overall"] == "pass"


@pytest.mark.parametrize("only", ["abc", "99", "1,99", ""])
def test_verify_only_unknown_ids_exit_2(capsys, only):
    # Not a number, or no criterion of that id: a usage error, not a
    # traceback and not an empty "pass".
    assert main(["verify", "all", "--only", only]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "expected criterion ids among 1..14" in captured.err


def test_replay_byte_identical(capsys):
    argv = ["pipeline", "general", "--demo", "--trials", "300", "--seed", "42"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge.cli", "build", "hadamard", "--p", "3", "--dimv", "1", "--dimd", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["code"]["n"] == 9
    assert doc["distance"] == {"num": 8, "den": 9}


def test_usage_error_exit_2(capsys):
    assert main(["tester", "equality", "--n", "2"]) == 2  # no alphabet given
    capsys.readouterr()


def _malformed_tester_exit(tmp_path, capsys, corrupt, corrupt_code=None):
    """Exit code of `soundness exact` on the equality tester and the
    repetition code after corrupt(tester) and corrupt_code(code) edit the
    two documents; asserts the error is reported without a traceback."""
    _, doc = run_cli(capsys, "tester", "equality", "--n", "2", "--size", "2")
    tester = doc["tester"]
    corrupt(tester)
    tester_path = tmp_path / "t.json"
    tester_path.write_text(json.dumps(tester))
    code = {
        "schema": "ltc-forge/code-v1",
        "alphabet": {"kind": "plain", "size": 2},
        "n": 2,
        "codewords": [[0, 0], [1, 1]],
    }
    if corrupt_code is not None:
        corrupt_code(code)
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(code))
    code = main(["soundness", "exact", "--tester", str(tester_path), "--code", str(code_path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error:")
    return code


def test_zero_weight_denominator_exit_2(tmp_path, capsys):
    def corrupt(tester):
        tester["checks"][0]["weight"]["den"] = 0

    assert _malformed_tester_exit(tmp_path, capsys, corrupt) == 2


def test_negative_accept_symbol_exit_2(tmp_path, capsys):
    def corrupt(tester):
        tester["checks"][0]["accept"][0] = -1

    assert _malformed_tester_exit(tmp_path, capsys, corrupt) == 2


def test_accept_symbol_outside_alphabet_exit_2(tmp_path, capsys):
    # index 4 names no tuple of two binary letters: it would set a bit
    # past the accept set and pass unnoticed by every check
    def corrupt(tester):
        tester["checks"][0]["accept"][-1] = 4

    assert _malformed_tester_exit(tmp_path, capsys, corrupt) == 2


def test_v1_tester_exit_2_with_the_schema_message(tmp_path, capsys):
    # v1 wrote each accepted tuple as a list of its symbols; it is not read.
    check = {"queries": [0, 1], "accept": [[0, 0], [1, 1]], "weight": {"num": 1, "den": 1}}
    alphabet = {"kind": "plain", "size": 2}
    tester = {"schema": "ltc-forge/tester-v1", "alphabet": alphabet, "n": 2, "q": 2, "checks": [check]}
    (tmp_path / "t.json").write_text(json.dumps(tester))
    assert main(["separate", "check", "--tester", str(tmp_path / "t.json"), "--delta-size", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "expected schema ltc-forge/tester-v2, got 'ltc-forge/tester-v1'" in captured.err


def _set(path, value):
    """A corruption that sets doc[path[0]]...[path[-1]] to value."""

    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [_set(["n"], "2"), _set(["q"], 2.5), _set(["checks", 0, "queries"], ["a", 1])],
    ids=["n-string", "q-float", "query-string"],
)
def test_non_integer_tester_field_exit_2(tmp_path, capsys, corrupt):
    assert _malformed_tester_exit(tmp_path, capsys, corrupt) == 2


@pytest.mark.parametrize(
    "corrupt",
    [
        _set(["checks", 0, "accept"], [[0, 0], [1, 1]]),
        _set(["checks", 0, "accept"], [True]),
        _set(["checks", 0, "accept"], [1.0]),
        _set(["checks", 0, "accept"], [0, 0]),
        _set(["checks", 0, "accept"], [3, 0]),
        _set(["checks", 0, "accept"], "03"),
        _set(["alphabet", "size"], 2**13),
    ],
    ids=["tuple-form", "bool", "float", "duplicate", "descending", "not-a-list", "oversized-table"],
)
def test_malformed_accept_indices_exit_2(tmp_path, capsys, corrupt):
    # 2**13 letters at arity 2 make 2**26 tuples, past the accept bitset cap
    assert _malformed_tester_exit(tmp_path, capsys, corrupt) == 2


def test_huge_alphabet_size_exit_2(tmp_path, capsys):
    # 10**30 letters: the accept sets would be 10**60-bit integers
    assert _malformed_tester_exit(tmp_path, capsys, _set(["alphabet", "size"], 10**30)) == 2


@pytest.mark.parametrize("size, status", [(2**63 - 1, 0), (2**63, 2), (2**65, 2)])
def test_plain_alphabets_of_2_63_letters_or_more_exit_2(tmp_path, capsys, size, status):
    # Letters are int64 in the sampler: from 2**63 on they would wrap, and
    # at 2**65 its uint64 rejection threshold overflows.  A tester without
    # checks reaches the sampler.
    alphabet = {"kind": "plain", "size": size}
    tester = {"schema": "ltc-forge/tester-v2", "alphabet": alphabet, "n": 2, "q": 1, "checks": []}
    code = {"schema": "ltc-forge/code-v1", "alphabet": alphabet, "n": 2, "codewords": [[0, 0]]}
    (tmp_path / "t.json").write_text(json.dumps(tester))
    (tmp_path / "c.json").write_text(json.dumps(code))
    argv = ["soundness", "sample", "--tester", str(tmp_path / "t.json"), "--code", str(tmp_path / "c.json")]
    assert main(argv + ["--trials", "10"]) == status
    err = capsys.readouterr().err
    assert (f"plain alphabet requires {size} items, budget is {2**63 - 1}" in err) == (status == 2)


def test_concat_budget_is_recorded_not_charged(tmp_path, capsys):
    # Compatibility takes the first valid table per coordinate and charges
    # nothing to --budget: at --budget 30 concat gives the default budget's
    # payload, and only the manifest records the difference.
    from ltcforge.codes import Alphabet, repetition_code
    from ltcforge.serialize import code_to_json

    path = {name: str(tmp_path / f"{name}.json") for name in ("code", "enc", "outer", "inner")}
    (tmp_path / "code.json").write_text(json.dumps(code_to_json(repetition_code(Alphabet.plain(3), 2))))
    assert main(["build", "encoder", "--sigma-size", "3", "--delta-size", "3", "--out", path["enc"]]) == 0
    assert main(["tester", "equality", "--n", "2", "--size", "3", "--out", path["outer"]]) == 0
    assert main(["tester", "dependence", "--longcode", "3", "3", "--q", "2", "--out", path["inner"]]) == 0
    capsys.readouterr()
    argv = ["concat", "--code", path["code"], "--encoder", path["enc"], "--outer-tester", path["outer"]]
    argv += ["--mu", "1/2", "--inner-tester", path["inner"], "--nu", "1/2"]
    status, default = run_cli(capsys, *argv)
    status_30, low = run_cli(capsys, *argv, "--budget", "30")
    assert (status, status_30) == (0, 0) and default["validation_ok"]
    assert (default.pop("manifest")["budget"], low.pop("manifest")["budget"]) == (2**26, 30)
    assert low == default


def test_artifact_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["soundness", "exact", "--tester", str(path), "--code", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_input_path_is_a_directory_exit_2(tmp_path, capsys):
    assert main(["soundness", "exact", "--tester", str(tmp_path), "--code", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "corrupt_code",
    [_set(["alphabet", "size"], "2"), _set(["codewords", 0, 0], "x")],
    ids=["size-string", "letter-string"],
)
def test_non_integer_code_field_exit_2(tmp_path, capsys, corrupt_code):
    assert _malformed_tester_exit(tmp_path, capsys, lambda tester: None, corrupt_code) == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-5"), ("--seed", str(2**64)), ("--budget", "0"), ("--budget", str(2**63))],
)
def test_seed_and_budget_out_of_range_exit_2(capsys, flag, value):
    assert main(["tester", "ring", "--s", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["0", str(2**63), str(2**70)])
def test_trials_out_of_range_exit_2(tmp_path, capsys, value):
    # --trials lies in [1, 2**63) on both commands that sample; past it the
    # sampler would have no trial or could never finish.
    for name, argv, key in [
        ("c.json", ["build", "longcode", "--s", "2", "--delta-size", "3"], "code"),
        ("t.json", ["tester", "dependence", "--longcode", "2", "3", "--q", "2"], "tester"),
    ]:
        (tmp_path / name).write_text(json.dumps(run_cli(capsys, *argv)[1][key]))
    files = ["--tester", str(tmp_path / "t.json"), "--code", str(tmp_path / "c.json")]
    for argv in (["soundness", "sample", *files], ["pipeline", "general", "--demo"]):
        assert main(argv + ["--trials", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
    assert main(["soundness", "sample", *files, "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["soundness"]["trials"] == 1


def test_seed_and_budget_range_ends_accepted(capsys):
    code, doc = run_cli(
        capsys, "tester", "ring", "--s", "2", "--seed", str(2**64 - 1), "--budget", str(2**63 - 1)
    )
    assert code == 0
    assert (doc["manifest"]["seed"], doc["manifest"]["budget"]) == (2**64 - 1, 2**63 - 1)


def _option_surface(parser, path=()):
    """Sorted (subcommand path, option strings) pairs of a parser tree."""
    pairs = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                pairs += _option_surface(child, path + (name,))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            pairs.append((" ".join(path), " ".join(action.option_strings)))
    return sorted(pairs)


# Every flag of every subcommand; a change that adds, renames or drops a
# flag updates this table in the same change.
OPTION_SURFACE = {
    "build critical": "--budget --out --s --seed",
    "build encoder": "--budget --delta-dim --delta-size --linear --out --p --seed --sigma-dim --sigma-size",
    "build hadamard": "--budget --dimd --dimv --out --p --seed",
    "build longcode": "--budget --delta-size --out --s --seed",
    "concat": "--budget --code --encoder --inner-tester --mu --nu --out --outer-tester --seed",
    "pipeline general": "--budget --c --code --d --demo --mu --out --seed --tester --trials",
    "pipeline linear": "--budget --c --code --demo --dimd --mu --out --seed --tester --trials",
    "pipeline semilinear": "--budget --code --demo --mu --out --seed --tester --trials",
    "separate check": "--budget --delta-dim --delta-size --linear --out --p --seed --tester",
    "separate replace": "--budget --delta-dim --delta-size --linear --mu --out --p --seed --tester",
    "soundness exact": "--bound --budget --code --out --seed --tester",
    "soundness sample": "--bound --budget --code --out --seed --tester --trials",
    "tester dependence": "--budget --family --hadamard --longcode --out --q --seed",
    "tester equality": "--budget --dim --n --out --p --seed --size",
    "tester ring": "--budget --out --s --seed",
    "verify all": "--budget --only --out --seed",
}


def test_cli_option_surface():
    surface = {}
    for path, option in _option_surface(build_parser()):
        surface.setdefault(path, []).append(option)
    assert {path: " ".join(opts) for path, opts in surface.items()} == OPTION_SURFACE


@pytest.mark.parametrize(
    "argv",
    [
        ["soundness", "exact", "--tester", "t.json", "--code", "c.json", "--bound", "1/0"],
        ["separate", "replace", "--tester", "t.json", "--mu", "1/0", "--delta-size", "2"],
        ["concat", "--code", "c.json", "--encoder", "e.json", "--nu", "1/0"],
    ],
)
def test_zero_denominator_rational_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "invalid rational: '1/0'" in captured.err


def test_linear_replacement_zero_target_dimension_exit_2(tmp_path, capsys):
    # a GF(2) tester against a target of dimension 0 or over GF(3): both
    # linear separability commands refuse it before any work.  Replacing
    # over GF(3) once wrote the GF(2) tester and exited 0, and the check
    # exited 1 at dimension 0 and at (GF(3), 1).
    _, doc = run_cli(capsys, "tester", "equality", "--n", "2", "--p", "2", "--dim", "2")
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc["tester"]))
    commands = {"check": [], "replace": ["--mu", "1/2"]}
    targets = {(2, 0): "target dimension must be at least 1", (3, 1): "another field", (3, 2): "another field"}
    for (what, extra), ((p, dim), message) in itertools.product(commands.items(), targets.items()):
        argv = ["separate", what, "--tester", str(path), *extra, "--linear", "--p", str(p), "--delta-dim", str(dim)]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("error:") == 1 and message in captured.err, argv


def test_package_main_matches_in_process_cli(capsys):
    import os
    from pathlib import Path

    import ltcforge

    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    argv = ["verify", "all", "--only", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv], capture_output=True, text=True, env=env
    )
    code = main(list(argv))
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
    assert code == 0


_LINEAR = ["--linear", "--p", "2", "--delta-dim", "1"]

# Valid artifact pairs to mutate: the commands writing a tester and the code it tests.
_FUZZ_SOURCES = {
    "longcode": ("tester dependence --longcode 2 3 --q 2", "build longcode --s 2 --delta-size 3"),
    "hadamard": ("tester dependence --hadamard 2 1 2 --q 2", "build hadamard --p 2 --dimv 1 --dimd 2"),
}

# The fixed `concat` inputs of each source: an encoder of its letters and the
# dependence tester of the encoder's image.  The encoder keeps the letters
# apart in one coordinate, so the unmutated tester factors through it and
# the composition is built.
_FUZZ_ENCODERS = {
    "longcode": ("build encoder --sigma-size 3 --delta-size 3", "tester dependence --longcode 3 3 --q 2"),
    "hadamard": (
        "build encoder --linear --p 2 --sigma-dim 2 --delta-dim 2",
        "tester dependence --hadamard 2 2 2 --q 2",
    ),
}

_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([2**31, 2**64, 10**30, -(2**63)]),
    st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


_DESCEND = st.sampled_from([True, True, True, False])


@st.composite
def _mutated(draw, doc):
    """doc with one to three random edits: a node replaced by a random JSON
    value (an integer node also by a neighbour of itself), a key or item
    removed, or the whole document replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
        if not isinstance(doc, (dict, list)) or not doc or draw(st.sampled_from(range(20))) == 19:
            doc = draw(_JSON_VALUES)
            continue
        parent = doc
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(_DESCEND):
            parent = parent[key]
            keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
        old = parent[key]
        choice = draw(st.integers(0, 2))
        if choice == 0:
            del parent[key]
        elif choice == 1 and isinstance(old, int) and not isinstance(old, bool):
            parent[key] = old + draw(st.sampled_from([-1, 1, -2 * old, 2**40]))
        else:
            parent[key] = draw(_JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def fuzz_sources():
    """(family, key, wrapped) -> the artifact alone, or the whole output
    of the command that wrote it; keys "encoder" and "inner" are the
    fixed `concat` inputs."""
    docs = {}
    for family in _FUZZ_SOURCES:
        commands = zip(("tester", "code", "encoder", "inner"), _FUZZ_SOURCES[family] + _FUZZ_ENCODERS[family])
        for key, command in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(command.split()) == 0
            output = json.loads(buf.getvalue())
            docs[family, key, False], docs[family, key, True] = output[{"inner": "tester"}.get(key, key)], output
    return docs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_artifacts_keep_the_exit_contract(data, fuzz_sources, tmp_path, capsys):
    # Exit 0, 1 or 2 and never a traceback on mutated artifacts; exit 1 only
    # with a violation in the output: a fail/violated verdict, a tester that
    # is not separable, an outer tester that does not factor through the
    # encoder, or a composed tester that does not validate.  In process, an
    # exception escaping main fails the test as a traceback would.  `concat`
    # alone reads no tester, so it mutates the code.
    family = data.draw(st.sampled_from(sorted(_FUZZ_SOURCES)))
    commands = ["exact", "sample", "check", "replace", "replace-linear", "concat", "concat-tester"]
    command = data.draw(st.sampled_from(commands))
    docs = {key: fuzz_sources[family, key, data.draw(st.booleans())] for key in ("tester", "code", "encoder", "inner")}
    target = "code" if command == "concat" else data.draw(st.sampled_from(["code", "tester"]))
    docs[target] = data.draw(_mutated(docs[target]))
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    inputs = ["--tester", str(paths["tester"]), "--code", str(paths["code"])]
    if command.startswith("concat"):
        argv = ["concat", *inputs[2:], "--encoder", str(paths["encoder"])]
        if command == "concat-tester":
            argv += ["--outer-tester", str(paths["tester"]), "--mu", "1/2"]
            argv += ["--inner-tester", str(paths["inner"]), "--nu", "1/2"]
    elif command in ("exact", "sample"):
        argv = ["soundness", command, *inputs, *(["--trials", "50"] if command == "sample" else [])]
        argv += data.draw(st.sampled_from([[], ["--budget", "1000"], ["--bound", "3/4"]]))
    elif command == "check":
        argv = ["separate", "check", *inputs[:2], "--delta-size", "3"]
    else:
        # The budget bounds the output: at the default one a declared q of 6
        # passes with 81 * 3**12 accept bits and writes gigabytes of JSON.
        form = ["--delta-size", "3"] if command == "replace" else _LINEAR
        argv = ["separate", "replace", *inputs[:2], *form, "--mu", "1/2", "--budget", "100000"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 1:
        out = json.loads(captured.out)
        verdict = out.get("soundness", {}).get("verdict")
        violation = out.get("separable") is False or "incompatible" in out or out.get("validation_ok") is False
        assert verdict in ("fail", "violated") or violation


@pytest.mark.parametrize(
    "what, extra, status, expect",
    [
        ("check", [], 1, '"required": 1500'),
        ("replace", ["--mu", "1"], 2, "error: separable replacement requires 5062500000000 items"),
    ],
)
def test_separate_on_a_1500_letter_tester_exits_quickly(tmp_path, capsys, what, extra, status, expect):
    # One equality check on 1,500 letters, 2.25M accept bits: check finds
    # 1,500 classes at coordinate 0 and exits 1; replace would build 2.25M
    # checks of 2.25M bits each and exits 2 at the budget.  Each runs in a
    # child under a timeout.
    import os
    from pathlib import Path

    import ltcforge

    code, doc = run_cli(capsys, "tester", "equality", "--size", "1500", "--n", "2")
    assert code == 0
    (tmp_path / "t.json").write_text(json.dumps(doc["tester"]))
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    argv = ["separate", what, "--tester", str(tmp_path / "t.json"), "--delta-size", "3", *extra]
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == status, proc.stderr
    assert expect in proc.stdout + proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "q, extra, expect",
    [
        (40, _LINEAR, f"linear separable replacement requires {40 * 2**40} items"),
        (40, _LINEAR + ["--budget", str(2**63 - 1)], "accept bitset requires 33554432 items"),
        (10**5, _LINEAR, f"linear separable replacement requires {10**5 * 2**64} items"),
        (10**5, ["--delta-size", "2"], f"separable replacement requires {2**128} items"),
    ],
)
def test_replacement_far_above_the_check_arity_exits_2_quickly(tmp_path, q, extra, expect):
    # One arity-2 check on two letters declared at q = 40: 40 * 2**40 tuple
    # tests pass the default budget, and padding the check to 2**40 bits
    # passes the accept bitset limit under any budget.  At q = 10**5 the
    # counts are capped at exponent 64, so the message stays printable.
    # Run in a child under a timeout.
    import os
    from pathlib import Path

    import ltcforge

    tester = {
        "schema": "ltc-forge/tester-v2",
        "alphabet": {"kind": "vector", "p": 2, "dim": 1},
        "n": 2,
        "q": q,
        "checks": [{"queries": [0, 1], "accept": [0, 3], "weight": {"num": 1, "den": 1}}],
    }
    (tmp_path / "t.json").write_text(json.dumps(tester))
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    argv = ["separate", "replace", "--mu", "1", *extra]
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv, "--tester", str(tmp_path / "t.json")],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert expect in proc.stderr and "Traceback" not in proc.stderr


def test_large_accept_sets_are_written_small_and_fast(tmp_path, capsys):
    # An accept set costs one line per accepted tuple index.  The separable
    # replacement of the 81-check long-code tester declared at q = 4 has
    # 6,561 checks of 80 or 81 accepted tuples and stays under 10 MB; the equality
    # check on 4,096 letters is a 2**24-bit set, written in linear time.
    # Run in children under a timeout.
    import os
    from pathlib import Path

    import ltcforge

    assert main("tester dependence --longcode 2 3 --q 2".split()) == 0
    tester = json.loads(capsys.readouterr().out)["tester"]
    tester["q"] = 4
    (tmp_path / "t.json").write_text(json.dumps(tester))
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    for argv, limit in [
        (["separate", "replace", "--delta-size", "3", "--mu", "1/2", "--tester", str(tmp_path / "t.json")], 10**7),
        (["tester", "equality", "--n", "2", "--p", "2", "--dim", "12"], None),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "ltcforge", *argv], capture_output=True, env=env, timeout=10
        )
        assert proc.returncode == 0, proc.stderr
        assert limit is None or len(proc.stdout) < limit


@pytest.mark.parametrize(
    "argv",
    [
        "build longcode --s 20000 --delta-size 2",
        "build longcode --s 1000000000 --delta-size 2",
        "build hadamard --p 2 --dimv 20000 --dimd 1",
        "build hadamard --p 2 --dimv 1 --dimd 20000",
        "build hadamard --p 2 --dimv 1000000000 --dimd 0",
        "build critical --s 20000",
        "build encoder --linear --p 2 --sigma-dim 1000000000 --delta-dim 1",
        "tester dependence --longcode 2 2 --q 10000",
        "tester dependence --longcode 2 2 --q 1000000000000",
        "tester ring --s 30",
        "tester ring --s -1",
        "tester equality --n 3 --size 100000",
        "tester equality --n 3 --p 2 --dim 100000",
        "separate replace --mu 1 --delta-size 2 --tester q=100000",
        f"separate replace --mu 1 --delta-size 2 --tester q={10**30}",
        "separate replace --mu 1 --delta-size 2 --tester q=-1",
        "separate replace --mu 1 --delta-size 2 --tester q=0",
        "separate replace --mu 1 --linear --p 2 --delta-dim 1 --tester q=100000",
        "concat --code c0.json --encoder enc22.json",
        "pipeline general --code c0.json --tester t0.json --mu 1/2 --d 3 --c 3",
        "soundness exact --tester t0.json --code c0.json",
        "soundness sample --tester t0.json --code c0.json --trials 10",
    ],
)
def test_huge_or_degenerate_sizes_exit_2_quickly(tmp_path, argv):
    # Sizes whose counts would not print (more than 4,300 digits), would take
    # unbounded memory, or are degenerate: each is refused with exit 2 before
    # any power of it is taken in full.  "q=..." stands for a tester without
    # checks declared at that q (over three letters, or GF(2) when linear);
    # c0.json and t0.json are a code (one empty codeword) and a tester
    # (without checks) on no positions over two letters, and enc22.json is
    # `build encoder --sigma-size 2 --delta-size 2`.  Run in a child under a
    # timeout.
    import os
    from pathlib import Path

    import ltcforge

    argv = argv.split()
    if argv[-1].startswith("q="):
        alphabet = {"kind": "vector", "p": 2, "dim": 1} if "--linear" in argv else {"kind": "plain", "size": 3}
        tester = {"schema": "ltc-forge/tester-v2", "alphabet": alphabet, "n": 2, "q": int(argv[-1][2:]), "checks": []}
        (tmp_path / "t.json").write_text(json.dumps(tester))
        argv[-1] = str(tmp_path / "t.json")
    two = {"kind": "plain", "size": 2}
    empty = {
        "c0.json": {"schema": "ltc-forge/code-v1", "alphabet": two, "n": 0, "codewords": [[]]},
        "t0.json": {"schema": "ltc-forge/tester-v2", "alphabet": two, "n": 0, "q": 1, "checks": []},
    }
    for name, doc in empty.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main(f"build encoder --sigma-size 2 --delta-size 2 --out {tmp_path / 'enc22.json'}".split()) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv], capture_output=True, text=True, env=env, timeout=30, cwd=tmp_path
    )
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_long_binary_chain_exact_soundness_exits_2_quickly(tmp_path, capsys):
    # 2**2000 words, and the ladder's frontier passes the budget: a prompt
    # CapacityError and exit 2, run in a child under a timeout.
    import os
    from pathlib import Path

    import ltcforge
    from ltcforge.codes import Alphabet, repetition_code
    from ltcforge.serialize import code_to_json

    code, doc = run_cli(capsys, "tester", "equality", "--size", "2", "--n", "2000")
    assert code == 0
    (tmp_path / "t.json").write_text(json.dumps(doc["tester"]))
    (tmp_path / "c.json").write_text(json.dumps(code_to_json(repetition_code(Alphabet.plain(2), 2000))))
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    argv = ["soundness", "exact", "--tester", str(tmp_path / "t.json"), "--code", str(tmp_path / "c.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exact soundness requires" in proc.stderr and "Traceback" not in proc.stderr


def _error_exit(capsys, argv):
    """The one stderr line of a run that exits 2 with nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_input_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.load refuses an int of more than 4,300 digits with a ValueError
    _, doc = run_cli(capsys, "tester", "equality", "--n", "3", "--size", "3")
    text = json.dumps({**doc["tester"], "n": 987654321}).replace("987654321", "1" + "0" * 5000)
    (tmp_path / "big.json").write_text(text)
    assert main(["build", "longcode", "--s", "2", "--delta-size", "3", "--out", str(tmp_path / "lc23.json")]) == 0
    capsys.readouterr()
    argv = ["soundness", "exact", "--tester", str(tmp_path / "big.json"), "--code", str(tmp_path / "lc23.json")]
    assert _error_exit(capsys, argv).startswith(f"error: {tmp_path / 'big.json'}: ")


def test_capacity_past_the_digit_limit_exits_2(tmp_path, capsys):
    # 2**15000 words (4,516 digits): the ladder overflows at the bound, and
    # the message states the count by its magnitude
    from ltcforge.codes import Alphabet, repetition_code
    from ltcforge.serialize import code_to_json

    _, doc = run_cli(capsys, "tester", "equality", "--size", "2", "--n", "15000")
    (tmp_path / "t.json").write_text(json.dumps(doc["tester"]))
    (tmp_path / "c.json").write_text(json.dumps(code_to_json(repetition_code(Alphabet.plain(2), 15000))))
    argv = ["soundness", "exact", "--tester", str(tmp_path / "t.json"), "--code", str(tmp_path / "c.json")]
    line = _error_exit(capsys, argv + ["--bound", "100"])
    assert line == "error: exact soundness requires at least 2**15000 items, budget is 67108864"


def test_output_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # weights 1/(10**2200 + 1) and 1/(10**2200 + 3) on the two orders of one
    # pair: the exact soundness has a denominator of 4,401 digits
    big = 10**2200
    checks = [
        {"accept": [0, 3], "queries": queries, "weight": {"num": 1, "den": big + extra}}
        for queries, extra in [([0, 1], 1), ([1, 0], 3)]
    ]
    two = {"kind": "plain", "size": 2}
    tester = {"schema": "ltc-forge/tester-v2", "alphabet": two, "n": 2, "q": 2, "checks": checks}
    code = {"schema": "ltc-forge/code-v1", "alphabet": two, "n": 2, "codewords": [[0, 0], [1, 1]]}
    (tmp_path / "t.json").write_text(json.dumps(tester))
    (tmp_path / "c.json").write_text(json.dumps(code))
    out = tmp_path / "out.json"
    argv = ["soundness", "exact", "--tester", str(tmp_path / "t.json"), "--code", str(tmp_path / "c.json")]
    line = _error_exit(capsys, argv + ["--out", str(out)])
    assert line.startswith("error: cannot write the output (") and "(4300 digits)" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, build, tester, extra",
    [
        ("general", "longcode --s 2 --delta-size 3", "--n 3 --size 3", "--d 3 --c 3"),
        ("linear", "hadamard --p 2 --dimv 1 --dimd 2", "--n 2 --p 2 --dim 1", "--dimd 2 --c 2"),
        ("semilinear", "hadamard --p 2 --dimv 1 --dimd 2", "--n 2 --p 2 --dim 1", ""),
    ],
    ids=["general", "linear", "semilinear"],
)
def test_pipeline_on_a_tester_for_another_code_exits_2(tmp_path, capsys, kind, build, tester, extra):
    code_path, tester_path = tmp_path / "c.json", tmp_path / "t.json"
    assert main(f"build {build} --out {code_path}".split()) == 0
    assert main(f"tester equality {tester} --out {tester_path}".split()) == 0
    capsys.readouterr()
    argv = f"pipeline {kind} --code {code_path} --tester {tester_path} --mu 1/2 {extra}".split()
    assert _error_exit(capsys, argv) == "error: tester incompatible with code"


@pytest.mark.parametrize("kind, extra", [("linear", "--dimd 2 --c 2"), ("semilinear", "")])
def test_pipeline_on_a_nonlinear_tester_exits_2(tmp_path, capsys, kind, extra):
    # a tester over GF(2) accepting {00, 10, 11}: both codewords of the
    # repetition code, but no subspace
    code_path, tester_path = tmp_path / "c.json", tmp_path / "t.json"
    assert main(f"tester equality --n 2 --p 2 --dim 1 --out {tester_path}".split()) == 0
    doc = json.loads(tester_path.read_text())
    code = {"schema": "ltc-forge/code-v1", "alphabet": doc["tester"]["alphabet"], "n": 2, "codewords": [[0, 0], [1, 1]]}
    code_path.write_text(json.dumps(code))
    doc["tester"]["checks"][0]["accept"] = [0, 1, 3]
    tester_path.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = f"pipeline {kind} --code {code_path} --tester {tester_path} --mu 1/2 {extra}".split()
    assert _error_exit(capsys, argv) == "error: linear replacement is defined for linear testers"


@pytest.mark.parametrize("field, expect", [("n", "outer tester does not match the code"), ("q", "accept bitset")])
def test_concat_outer_tester_of_huge_n_or_q_exits_2_quickly(tmp_path, capsys, field, expect):
    # An outer tester declaring 2**40 more positions or queries than it has:
    # composing used to loop over every declared block (n), or to build a
    # tuple of 2**40 padding queries per check (q).  Run in a child under a
    # timeout.
    import os
    from pathlib import Path

    import ltcforge

    for name, command, key in [
        ("lc22.json", "build longcode --s 2 --delta-size 2", "code"),
        ("enc22.json", "build encoder --sigma-size 2 --delta-size 2", "encoder"),
        ("dep22.json", "tester dependence --longcode 2 2 --q 2", "tester"),
    ]:
        assert main(command.split()) == 0
        (tmp_path / name).write_text(json.dumps(json.loads(capsys.readouterr().out)[key]))
    outer = json.loads((tmp_path / "dep22.json").read_text())
    outer[field] += 2**40
    (tmp_path / "outer.json").write_text(json.dumps(outer))
    argv = "concat --code lc22.json --encoder enc22.json --outer-tester outer.json --mu 1/2"
    argv += " --inner-tester dep22.json --nu 1/2"
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ltcforge", *argv.split()],
        capture_output=True, text=True, env=env, timeout=30, cwd=tmp_path,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert expect in proc.stderr and "Traceback" not in proc.stderr


def test_hadamard_outer_reductions_stay_small(tmp_path, capsys):
    # The three reductions of the binary Hadamard code (n = 4) under its
    # 64-check dependence tester at mu = 3/8.  One check per distinct
    # (queries, accept) keeps the final testers at 208, 725 and 550 checks
    # (6,352, 125,288 and 58,192 unmerged) and each report under 3 MB (13,
    # 209 and 89 MB unmerged).  The prune ladder certifies each final
    # soundness exactly (4^16, 3^36 and 3^40 words), with the value and
    # witness that a since-removed bucket-elimination engine gave at a
    # budget of 2^40 (the linear one, 3.5 s) or on forced plans (the
    # others, over 30 s each).
    # Run in children under one 60 s deadline.
    import os
    import time
    from pathlib import Path

    import ltcforge

    for name, command, key in [
        ("had.json", "build hadamard --p 2 --dimv 2 --dimd 1", "code"),
        ("dep.json", "tester dependence --hadamard 2 2 1 --q 3", "tester"),
    ]:
        assert main(command.split()) == 0
        (tmp_path / name).write_text(json.dumps(json.loads(capsys.readouterr().out)[key]))
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    inputs = ["--code", str(tmp_path / "had.json"), "--tester", str(tmp_path / "dep.json"), "--mu", "3/8"]
    deadline = time.monotonic() + 60
    for kind, extra, checks, value in [
        ("linear", ["--dimd", "2", "--c", "2"], 208, {"num": 5, "den": 62}),
        ("general", ["--d", "3", "--c", "3"], 725, {"num": 9, "den": 386}),
        ("semilinear", [], 550, {"num": 5, "den": 171}),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "ltcforge", "pipeline", kind, *inputs, *extra],
            capture_output=True, text=True, env=env, timeout=max(deadline - time.monotonic(), 1),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.encode()) < 3 * 10**6
        report = json.loads(proc.stdout)["report"]
        assert report["overall"] == "pass"
        assert len(report["stages"]["final_tester"]["$tester"]["checks"]) == checks
        soundness = report["achieved"]["soundness"]["$soundness"]
        assert (soundness["mode"], soundness["engine"], soundness["value"]) == ("exact", "prune", value)

"""End-to-end reductions and their certificates."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ltcforge
from ltcforge.algebra import Field, VecSpace
from ltcforge.codes import Alphabet, make_rate, repetition_code, vector_alphabet
from ltcforge.errors import DomainError
from ltcforge.pipeline import (
    IncompleteReportError,
    PipelineReport,
    certify,
    general_reduction,
    linear_reduction,
    semilinear_reduction,
)
from ltcforge.testers import equality_tester, soundness_exact


def desk_linear_inputs():
    code = repetition_code(vector_alphabet(2, 1), 2)
    tester = equality_tester(code.alphabet, 2)
    mu = soundness_exact(tester, code).value
    return code, tester, mu


def desk_plain_inputs():
    code = repetition_code(Alphabet.plain(2), 2)
    tester = equality_tester(code.alphabet, 2)
    mu = soundness_exact(tester, code).value
    return code, tester, mu


def test_linear_reduction_demo_all_exact():
    code, tester, mu = desk_linear_inputs()
    report = linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 2, seed=3)
    assert report.overall == "pass"
    assert report.achieved["soundness"].mode == "exact"
    assert report.params["k"] == 4
    assert report.stages["final_code"].n == 8
    assert report.promised["distance"] == Fraction(3, 4)
    assert report.achieved["distance"] >= Fraction(3, 4)
    # direct rate and the displayed formula disagree by the factor c
    assert report.promised["rate"] == make_rate(Fraction(1, 16))
    assert report.promised["rate_closed_form"] == make_rate(Fraction(1, 8))
    assert report.achieved["rate"] == report.promised["rate"]
    assert report.verdicts["linearity"] == "pass"


def test_linear_reduction_rejects_c1_with_two_queries():
    code, tester, mu = desk_linear_inputs()
    with pytest.raises(DomainError):
        linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 1)


def test_linear_reduction_rejects_bad_c():
    code, tester, mu = desk_linear_inputs()
    with pytest.raises(DomainError):
        linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 3)


def test_general_reduction_demo_exact():
    code, tester, mu = desk_plain_inputs()
    report = general_reduction(code, tester, mu, 3, 3, seed=3, trials=4000)
    assert report.overall == "pass"
    assert report.verdicts["soundness"] == "pass"
    assert report.achieved["soundness"].mode == "exact"
    assert report.params["k"] == 9
    assert report.promised["distance"] == Fraction(2, 3)
    assert report.achieved["inner_soundness"] == Fraction(2, 3)
    assert report.achieved["rate"] == make_rate(Fraction(1, 18), 2, 3)


def test_general_reduction_no_valid_c_for_binary_two_query():
    code, tester, mu = desk_plain_inputs()
    with pytest.raises(DomainError):
        general_reduction(code, tester, mu, 2, 2)  # c = 2 requires q >= 3


def test_semilinear_reduction_demo():
    code, tester, mu = desk_linear_inputs()
    report = semilinear_reduction(code, tester, mu, seed=3, trials=4000)
    assert report.overall == "pass"
    assert report.params["k"] == 10  # t + 2 t^2 with t = 2
    assert report.stages["final_code"].n == 20
    assert report.promised["distance"] == Fraction(1, 10)
    assert report.achieved["inner_distance"] == Fraction(2, 5)
    assert report.verdicts["inner_distance"] == "pass"
    assert report.achieved["inner_soundness"] >= Fraction(1, 100)


def test_semilinear_rejects_plain_alphabet():
    code, tester, mu = desk_plain_inputs()
    with pytest.raises(DomainError):
        semilinear_reduction(code, tester, mu)


def test_certify_incomplete_report():
    code, tester, mu = desk_linear_inputs()
    report = linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 2)
    report.achieved = dict(report.achieved)
    report.achieved["inner_soundness"] = None
    with pytest.raises(IncompleteReportError):
        certify(report)


def test_certify_detects_violation():
    code, tester, mu = desk_linear_inputs()
    report = linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 2)
    report.promised = dict(report.promised)
    report.promised["distance"] = Fraction(99, 100)
    summary = certify(report)
    assert summary["verdicts"]["distance"] == "fail"
    assert summary["overall"] == "fail"


@pytest.fixture(scope="module")
def desk_reports():
    code, tester, mu = desk_linear_inputs()
    return {
        "linear": linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 2, seed=3),
        "semilinear": semilinear_reduction(code, tester, mu, seed=3, trials=4000),
    }


@pytest.mark.parametrize(
    "kind, part, key, value, verdict, expect",
    [
        ("linear", "achieved", "separable_soundness", None, "separable_soundness", None),
        ("linear", "promised", "separable_bound", Fraction(99), "separable_soundness", "fail"),
        ("semilinear", "promised", "inner_distance_floor", Fraction(99, 100), "inner_distance", "fail"),
        ("linear", "achieved", "tester_linear", False, "linearity", "fail"),
    ],
)
def test_certify_optional_verdicts(desk_reports, kind, part, key, value, verdict, expect):
    # The verdicts only some reports carry: absent without their value, and
    # "fail" below their floor or for a nonlinear tester.
    report = desk_reports[kind]
    assert report.verdicts[verdict] == "pass"
    changed = PipelineReport(**{**vars(report), part: {**getattr(report, part), key: value}})
    summary = certify(changed)
    assert summary["verdicts"].get(verdict) == expect
    assert summary["overall"] == ("fail" if expect else report.overall)


def test_pipeline_exact_when_budget_allows():
    # tiny final space: the linear demo's 4^8 words are certified exactly
    code, tester, mu = desk_linear_inputs()
    report = linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 2)
    assert report.achieved["soundness"].mode == "exact"
    assert report.achieved["soundness"].value >= report.promised["soundness"]


def test_pipeline_sampled_when_over_budget():
    code, tester, mu = desk_linear_inputs()
    report = linear_reduction(
        code, tester, mu, VecSpace(Field(2), 2), 2, budget=1000, trials=500, seed=11
    )
    assert report.achieved["soundness"].mode == "sampled"
    assert report.overall == "conditional"
    assert report.verdicts["soundness"] == "consistent"


_DEMO_SCRIPT = """
from ltcforge.pipeline import DEMO_PARAMS, demo_inputs, run_reduction
for kind in ("general", "semilinear"):
    s = run_reduction(kind, *demo_inputs(kind), DEMO_PARAMS[kind]).achieved["soundness"]
    print(kind, s.mode, s.engine, s.verdict, s.value, *s.witness.letters)
"""


def test_demo_final_soundness_exact_by_prune():
    # 3^18 and 3^20 words, far past the default budget: the prune ladder
    # certifies both exactly from their bounds, in a child under a timeout.
    # Values and witnesses equal brute force's (run at a raised budget) and
    # the separator engine's, and were re-checked with reject_probability /
    # dist_to_code.
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _DEMO_SCRIPT], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "general exact prune pass 1/21 0 0 0 1 1 1 2 2 2 0 1 2 0 1 2 0 1 2",
        "semilinear exact prune pass 5/107 0 0 2 2 2 0 0 0 0 0 0 1 2 0 1 2 0 0 0 0",
    ]


def test_linear_demo_final_soundness_by_its_cheapest_plan():
    # 4^8 words fit the default budget, but the separator plan costs less
    # than the scan, so it runs; value and witness are the explicit scan's.
    from ltcforge import testers
    from ltcforge.algebra import decode_tuple
    from ltcforge.pipeline import DEMO_PARAMS, demo_inputs, run_reduction

    report = run_reduction("linear", *demo_inputs("linear"), DEMO_PARAMS["linear"])
    final, code = report.stages["final_tester"], report.stages["final_code"]
    sound = soundness_exact(final, code)
    assert (sound.engine, sound.value) == ("separator", Fraction(8, 33))
    compiled, _, dtype = testers._compiled_checks(final)
    size, n = final.alphabet.size, final.n
    _, _, widx = testers._least_ratio(compiled, dtype, size, n, code.codewords, list(range(n)), [])
    assert sound.witness.letters == decode_tuple(widx, size, n)[::-1]


def test_raised_budget_keeps_the_general_demo_on_its_plan():
    # 3^18 words fit a budget of 4*10^8, but the budget only caps the prune
    # frontier, so the raised budget changes only the recorded budget and
    # command, and the run stays well under the scan's time.
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    argv = [sys.executable, "-m", "ltcforge", "pipeline", "general", "--demo"]
    raised = subprocess.run(argv + ["--budget", "400000000"], capture_output=True, text=True, timeout=10, env=env)
    assert raised.returncode == 0, raised.stderr
    default = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    docs = [json.loads(default.stdout), json.loads(raised.stdout)]
    for doc in docs:
        doc["manifest"]["budget"] = doc["report"]["params"]["budget"] = None
        doc["manifest"]["command"] = None
    assert docs[0] == docs[1]
    assert docs[1]["report"]["achieved"]["soundness"]["$soundness"]["engine"] == "prune"


_REPETITION_SCRIPT = """
from fractions import Fraction
from ltcforge import testers
from ltcforge.algebra import decode_tuple
from ltcforge.codes import Alphabet, dist_to_code, repetition_code
from ltcforge.pipeline import general_reduction
from ltcforge.testers import equality_tester, reject_probability, soundness_exact
code = repetition_code(Alphabet.plain(2), 4)
tester = equality_tester(code.alphabet, 4)
report = general_reduction(code, tester, soundness_exact(tester, code).value, 3, 3, trials=100)
sound = report.achieved["soundness"]
final, fcode = report.stages["final_tester"], report.stages["final_code"]
print(sound.mode, sound.engine, sound.verdict, sound.value, *sound.witness.letters)
print(reject_probability(final, sound.witness) / dist_to_code(sound.witness, fcode))
compiled, den, dtype = testers._compiled_checks(final)
n, sep = final.n, [0, 3, 12, 18, 30]
adj = [sum(1 << p for p in {p for s, _ in compiled if pos in s for p in s}) for pos in range(n)]
masks = testers._components(adj, (1 << n) - 1 - sum(1 << p for p in sep))
blocks = [[p for p in range(n) if m >> p & 1] for m in masks]
rn, mm, widx = testers._least_ratio(compiled, dtype, 3, n, fcode.codewords, sep, blocks)
print(Fraction(rn * n, den * mm), decode_tuple(widx, 3, n)[::-1] == sound.witness.letters)
plain = soundness_exact(final, fcode)
print(plain.engine, plain.value, plain.witness == sound.witness)
"""


def test_repetition_length_4_general_reduction_exact():
    # The general reduction (d = c = 3) of the length-4 repetition code ends
    # on 3^36 words; the prune ladder certifies it exactly from its bound.
    # The witness is re-evaluated, and a forced separator and the greedy
    # plan (soundness_exact without a bound) give the same value and
    # witness.  Run in a child under a timeout.
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _REPETITION_SCRIPT], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    witness = "0 0 0 1 1 1 2 2 2 0 0 0 1 1 1 2 2 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2"
    assert proc.stdout.splitlines() == [
        f"exact prune pass 3/71 {witness}",
        "3/71",
        "3/71 True",
        "separator 3/71 True",
    ]


_CHUNKED_PLAN_SCRIPT = """
from fractions import Fraction
from unittest import mock
from ltcforge import testers
from ltcforge.algebra import decode_tuple
from ltcforge.codes import Alphabet, repetition_code
from ltcforge.pipeline import general_reduction
from ltcforge.testers import equality_tester, soundness_exact
code = repetition_code(Alphabet.plain(2), 4)
tester = equality_tester(code.alphabet, 4)
report = general_reduction(code, tester, soundness_exact(tester, code).value, 3, 3, trials=100)
final, fcode = report.stages["final_tester"], report.stages["final_code"]
compiled, den, dtype = testers._compiled_checks(final)
_, sep, blocks = testers._separator_plan(3, final.n, [s for s, _ in compiled], len(fcode.codewords))
print(*sep, "|", *map(len, blocks))
with mock.patch.object(testers, "CHUNK", 3):
    rn, mm, widx = testers._least_ratio(compiled, dtype, 3, final.n, fcode.codewords, sep, blocks)
witness = decode_tuple(widx, 3, final.n)[::-1]
print(Fraction(rn * final.n, den * mm), witness == report.achieved["soundness"].witness.letters)
"""


def test_repetition_length_4_plan_across_chunks():
    # The unmocked plan of the length-4 repetition code's general reduction
    # (X = {0,12,18,30}, four blocks) run with chunks of 3 cells: X's 81
    # assignments span 27 chunks, each sliced one row at a time through the
    # blocks, and the value and witness stay those of the unmocked run.
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHUNKED_PLAN_SCRIPT], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 12 18 30 | 8 8 8 8", "3/71 True"]


_FRONTIER_SCRIPT = """
import sys
from ltcforge.codes import Alphabet, dist_to_code, repetition_code, vector_alphabet
from ltcforge.pipeline import general_reduction, semilinear_reduction
from ltcforge.testers import equality_tester, reject_probability, soundness_exact
kind = sys.argv[1]
code = repetition_code(Alphabet.plain(2) if kind == "general" else vector_alphabet(2, 1), 5)
tester = equality_tester(code.alphabet, 5)
mu = soundness_exact(tester, code).value
if kind == "general":
    report = general_reduction(code, tester, mu, 3, 3, trials=100)
else:
    report = semilinear_reduction(code, tester, mu, trials=100)
sound = report.achieved["soundness"]
final, fcode = report.stages["final_tester"], report.stages["final_code"]
print(final.n, sound.mode, sound.engine, sound.verdict, sound.value, sound.bound)
print(*sound.witness.letters)
print(reject_probability(final, sound.witness) / dist_to_code(sound.witness, fcode))
"""

_L5_GENERAL_WITNESS = ("0 0 0 1 1 1 2 2 2 " * 3 + "0 1 2 " * 6).strip()
_L5_SEMILINEAR_WITNESS = ("0 0 2 2 2 0 0 0 0 0 " * 3 + "0 1 2 0 1 2 0 0 0 0 " * 2).strip()


@pytest.mark.parametrize(
    "kind, n, value, bound, witness",
    [
        ("general", 45, "15/359", "10/359", _L5_GENERAL_WITNESS),
        ("semilinear", 50, "25/557", "10/557", _L5_SEMILINEAR_WITNESS),
    ],
)
def test_repetition_length_5_reductions_exact_by_prune(kind, n, value, bound, witness):
    # The length-5 repetition code's general (3^45 words) and semilinear
    # (3^50) reductions: without a bound the separator plan takes about 5 s
    # on the first, and the second passes the default budget and is
    # sampled.  The prune ladder certifies both from their bounds, with the
    # values and witnesses the separator plan gives at a budget of 2^40
    # (5 and 7 s, too slow to repeat here); each witness is re-evaluated.
    # Run in a child under a timeout.
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRONTIER_SCRIPT, kind], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{n} exact prune pass {value} {bound}", witness, value]

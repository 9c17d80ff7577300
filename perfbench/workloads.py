"""The three workloads: their inputs, their timed operations and their oracles.

A workload is built once from the seed (set-up) and then run as
iterations.  An iteration is a list of operations; each operation is a
pair (work, check).  `work` is the timed call into ltcforge; `check` runs
untimed on its result, raises `OracleError` on a wrong output and returns
the number of work items the operation completed:

* pipelines, exact-scan: words certified exactly, i.e. |Sigma|^n summed
  over soundness results of mode "exact";
* artifacts: tester checks built, written and read back.

Modules are called through their attributes (`testers.soundness_exact`)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from ltcforge import cli, codes, constructions, pipeline, separability, serialize, testers
from ltcforge.algebra import DEFAULT_BUDGET, Field, VecSpace


class OracleError(Exception):
    """An operation returned a wrong output."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _alphabet_size(doc: dict) -> int:
    return doc["size"] if doc["kind"] == "plain" else doc["p"] ** doc["dim"]


class Pipelines:
    """`ltcforge pipeline <kind> --demo` in-process, stdout captured."""

    bytes_read = 0

    def __init__(self, seed: int, small: bool, break_oracle: bool):
        kinds = ["linear"] if small else ["linear", "general", "semilinear"]
        cli_seed = str(random.Random(seed).getrandbits(32))
        self.argvs = {k: ["pipeline", k, "--demo", "--seed", cli_seed] for k in kinds}
        self.linear_value = Fraction(8, 34 if break_oracle else 33)
        self.first_digest: dict[str, str] = {}

    def operations(self):
        for kind, argv in self.argvs.items():
            yield (lambda argv=argv: _run_cli(argv)), (lambda out, kind=kind: self._check(kind, out))

    def _check(self, kind: str, out: tuple[int, str]) -> int:
        rc, text = out
        _expect(rc == 0, f"{kind}: exit code {rc}")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        _expect(self.first_digest.setdefault(kind, digest) == digest,
                f"{kind}: stdout differs from the first iteration")
        report = json.loads(text)["report"]
        bad = [k for k, v in report["verdicts"].items() if v in ("fail", "violated")]
        _expect(not bad and report["overall"] != "fail", f"{kind}: verdicts {bad}")
        sound = report["achieved"]["soundness"]["$soundness"]
        if kind == "linear":
            value = Fraction(sound["value"]["num"], sound["value"]["den"])
            _expect(report["overall"] == "pass" and sound["mode"] == "exact"
                    and value == self.linear_value, f"linear: soundness {value}, expected {self.linear_value}")
        if sound["mode"] != "exact":
            return 0
        final = report["stages"]["final_code"]["$code"]
        return _alphabet_size(final["alphabet"]) ** final["n"]


def _random_tester(rng: random.Random, n: int, n_checks: int, n_supports: int):
    """Arity-3 checks over {0,1,2}^n on few supports; each accepts the
    repetition code plus a few random tuples."""
    alphabet = codes.Alphabet.plain(3)
    supports: set[tuple[int, ...]] = set()
    while len(supports) < n_supports:
        supports.add(tuple(sorted(rng.sample(range(n), 3))))
    ordered = sorted(supports)
    checks = []
    for i in range(n_checks):
        accepted = {(a, a, a) for a in range(3)}
        for _ in range(rng.randint(2, 10)):
            accepted.add(tuple(rng.randrange(3) for _ in range(3)))
        accept = testers.accept_from_tuples(accepted, 3)
        checks.append(testers.Check(rng.choice(ordered), accept, Fraction(1, n_checks)))
    tester = testers.Tester(alphabet, n, 3, tuple(checks))
    return tester, codes.repetition_code(alphabet, n)


class ExactScan:
    """`testers.soundness_exact` on a ladder of exhaustible instances."""

    bytes_read = 0

    def __init__(self, seed: int, small: bool, break_oracle: bool):
        ladder = []  # (label, tester, code, frozen value or None)

        # The linear demo's final tester: 4^8 words, 73 checks.
        code = codes.repetition_code(codes.vector_alphabet(2, 1), 2)
        eq = testers.equality_tester(code.alphabet, 2)
        mu = testers.soundness_exact(eq, code).value
        report = pipeline.linear_reduction(code, eq, mu, VecSpace(Field(2), 2), 2)
        ladder.append(("linear-final", report.stages["final_tester"],
                       report.stages["final_code"], Fraction(8, 33)))

        # q=2 dependence tester of the generalized Hadamard code F_p^1 -> F_p^1:
        # p^p words, p^2 checks on p^2 distinct supports.
        p, frozen = (5, Fraction(4, 5)) if small else (7, Fraction(6, 7))
        if break_oracle:
            frozen += Fraction(1, 1000)
        fam, had = constructions.generalized_hadamard(VecSpace(Field(p), 1), VecSpace(Field(p), 1))
        ladder.append((f"hadamard-F{p}", constructions.dependence_tester(fam, 2), had, frozen))

        # Seeded random tester, reject-kernel heavy: few supports, many checks.
        shape = (8, 60, 20) if small else (11, 400, 60)
        tester, rep = _random_tester(random.Random(seed), *shape)
        ladder.append(("random", tester, rep, None))
        self.ladder = ladder

    def operations(self):
        for label, tester, code, frozen in self.ladder:
            yield ((lambda t=tester, c=code: testers.soundness_exact(t, c, DEFAULT_BUDGET)),
                   (lambda rep, l=label, t=tester, c=code, f=frozen: self._check(l, t, c, f, rep)))

    @staticmethod
    def _check(label, tester, code, frozen, rep) -> int:
        _expect(rep.mode == "exact" and not rep.infinite, f"{label}: not an exact finite value")
        _expect(frozen is None or rep.value == frozen, f"{label}: soundness {rep.value}, expected {frozen}")
        # Re-evaluate the witness with the reference evaluators.
        again = testers.reject_probability(tester, rep.witness) / codes.dist_to_code(rep.witness, code)
        _expect(again == rep.value, f"{label}: witness gives {again}, report says {rep.value}")
        return tester.alphabet.size ** tester.n


class Artifacts:
    """Artifact-writing CLI commands, each read back and compared with the
    object built directly."""

    def __init__(self, seed: int, small: bool, break_oracle: bool, workdir: str):
        cli_seed = str(random.Random(seed).getrandbits(32))
        plain, vec = codes.Alphabet.plain, lambda p, d: VecSpace(Field(p), d)
        long_code, hadamard = constructions.generalized_long_code, constructions.generalized_hadamard
        dep = constructions.dependence_tester
        if small:
            testers_ = {"longcode-2-3-q2": (["--longcode", "2", "3", "--q", "2"],
                                            dep(long_code(2, plain(3))[0], 2))}
            codes_ = {"longcode-2-3": (["longcode", "--s", "2", "--delta-size", "3"],
                                       long_code(2, plain(3))[1])}
            self.separable = ("longcode-2-3-q2", 3)
        else:
            testers_ = {
                "longcode-3-3-q3": (["--longcode", "3", "3", "--q", "3"], dep(long_code(3, plain(3))[0], 3)),
                "hadamard-3-2-2-q2": (["--hadamard", "3", "2", "2", "--q", "2"],
                                      dep(hadamard(vec(3, 2), vec(3, 2))[0], 2)),
                "longcode-2-5-q3": (["--longcode", "2", "5", "--q", "3"], dep(long_code(2, plain(5))[0], 3)),
                "longcode-3-3-q2": (["--longcode", "3", "3", "--q", "2"], dep(long_code(3, plain(3))[0], 2)),
            }
            codes_ = {
                "longcode-3-3": (["longcode", "--s", "3", "--delta-size", "3"], long_code(3, plain(3))[1]),
                "hadamard-3-2-2": (["hadamard", "--p", "3", "--dimv", "2", "--dimd", "2"],
                                   hadamard(vec(3, 2), vec(3, 2))[1]),
                "longcode-2-5": (["longcode", "--s", "2", "--delta-size", "5"], long_code(2, plain(5))[1]),
            }
            self.separable = ("longcode-3-3-q2", 3)
        self.jobs = []  # (label, argv, key in the output, expected object)
        for label, (args, tester) in testers_.items():
            self.jobs.append((label, ["tester", "dependence", *args], "tester", tester))
        for label, (args, code) in codes_.items():
            self.jobs.append((label, ["build", *args], "code", code))
        self.cli_seed = cli_seed
        self.workdir = workdir
        self.bump = 1 if break_oracle else 0
        self.loaded: dict[str, object] = {}
        self.bytes_read = 0

    def operations(self):
        for label, argv, key, expected in self.jobs:
            path = os.path.join(self.workdir, label + ".json")
            full = [*argv, "--seed", self.cli_seed, "--out", path]
            yield (lambda a=full: _run_cli(a)), (lambda out, l=label: self._check_write(l, out))
            yield ((lambda p=path, k=key: self._read(p, k)),
                   (lambda obj, l=label, e=expected: self._check_read(l, obj, e)))
        label, delta = self.separable
        yield (lambda: self._separate(label, delta)), (lambda out: self._check_separate(label, out))

    @staticmethod
    def _check_write(label: str, out: tuple[int, str]) -> int:
        _expect(out[0] == 0, f"{label}: exit code {out[0]}")
        return 0

    def _read(self, path: str, key: str):
        with open(path, "rb") as fh:
            raw = fh.read()
        self.bytes_read += len(raw)
        reader = serialize.tester_from_json if key == "tester" else serialize.code_from_json
        return reader(json.loads(raw)[key])

    def _check_read(self, label: str, obj, expected) -> int:
        self.loaded[label] = obj
        _expect(obj == expected, f"{label}: read back differs from the object built directly")
        if isinstance(obj, testers.Tester):
            _expect(len(obj.checks) + self.bump == len(expected.checks), f"{label}: check count")
            return len(obj.checks)
        return 0

    def _separate(self, label: str, delta: int):
        tester = self.loaded[label]
        replaced = separability.separable_replacement(tester, Fraction(1, 9), delta)
        return tester, replaced, separability.check_separable(replaced, delta)

    @staticmethod
    def _check_separate(label: str, out) -> int:
        tester, replaced, cert = out
        factor = tester.alphabet.size ** tester.q
        _expect(len(replaced.checks) == factor * len(tester.checks), f"{label}: replacement size")
        _expect(isinstance(cert, separability.SeparabilityCertificate), f"{label}: not separable")
        return 0


def build(name: str, seed: int, small: bool, break_oracle: bool, workdir: str):
    if name == "pipelines":
        return Pipelines(seed, small, break_oracle)
    if name == "exact-scan":
        return ExactScan(seed, small, break_oracle)
    return Artifacts(seed, small, break_oracle, workdir)

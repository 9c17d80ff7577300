"""Acceptance criteria: every closed-form bound checked at desk scale.

Each criterion is a function (budget, seed) -> result dict with a "status"
of "pass" or "fail" plus deterministic details, so the verify command's
output is byte-identical across runs of the same manifest.  The pytest
suite runs the same functions one criterion per test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import DEFAULT_BUDGET, Field, VecSpace
from .codes import (
    Alphabet,
    Code,
    Word,
    dist_to_code,
    distance,
    rate,
    repetition_code,
    vector_alphabet,
)
from .concat import Encoder, check_f_compatible, concat_tester, concatenate
from .concat import CompatFailure, alphabet_increase_tester, embed_code
from .constructions import (
    FunctionFamily,
    critical_family,
    code_from_family,
    dependence_tester,
    generalized_hadamard,
    generalized_long_code,
    majority_counterexample,
    ring_constraint_tester,
)
from .pipeline import DEMO_PARAMS, demo_inputs, run_reduction
from .separability import (
    SeparabilityCertificate,
    check_linearly_separable,
    check_separable,
    compatibility_encoder,
    linear_separable_replacement,
    separable_replacement,
)
from .testers import (
    Check,
    Tester,
    accept_from_tuples,
    accepted_words,
    classify_linear,
    equality_tester,
    reject_probability,
    soundness_exact,
)

# Frozen regression constant: exact soundness of the 2-dependence tester of
# the two-element long code over three symbols, 3^9-word scan.
NU_9 = Fraction(2, 3)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def criterion_1(budget: int, seed: int) -> dict:
    """Hadamard relative distance is exactly 1 - 1/|Delta|."""
    cases = [(2, 1, 2), (2, 2, 1), (3, 1, 2), (2, 1, 3)]
    details = []
    ok = True
    for p, dimv, dimd in cases:
        _, code = generalized_hadamard(VecSpace(Field(p), dimv), VecSpace(Field(p), dimd), budget)
        got = distance(code)
        want = 1 - Fraction(1, p**dimd)
        ok &= got == want
        details.append({"p": p, "dimv": dimv, "dimd": dimd, "distance": got, "expected": want})
    return {"status": _status(ok), "cases": details}


def criterion_2(budget: int, seed: int) -> dict:
    """Two-query testability of Hadamard codes with dim(target) >= 2, and
    soundness zero with witness when the source has dim > 1 and target dim 1."""
    details = {}
    ok = True
    for dimd in (2, 3):
        fam, code = generalized_hadamard(
            VecSpace(Field(2), 1), VecSpace(Field(2), dimd), budget
        )
        acc = accepted_words(dependence_tester(fam, 2, budget), budget)
        match = set(acc) == set(code.codewords)
        ok &= match
        details[f"accepted_equals_code_dimd{dimd}"] = match
    fam0, code0 = generalized_hadamard(VecSpace(Field(2), 2), VecSpace(Field(2), 1), budget)
    rep = soundness_exact(dependence_tester(fam0, 2, budget), code0, budget)
    ok &= rep.value == 0 and rep.witness is not None
    details["soundness_dimv2"] = rep.value
    details["witness"] = list(rep.witness.letters)
    return {"status": _status(ok), **details}


def criterion_3(budget: int, seed: int) -> dict:
    """Two-query testability of the 2-element long code over 3 symbols, with
    the exact soundness pinned as a regression constant."""
    fam, code = generalized_long_code(2, Alphabet.plain(3), budget)
    tester = dependence_tester(fam, 2, budget)
    acc = accepted_words(tester, budget)
    rep = soundness_exact(tester, code, budget)
    ok = set(acc) == set(code.codewords) and rep.value == NU_9 and rep.value > 0
    return {
        "status": _status(ok),
        "accepted_equals_code": set(acc) == set(code.codewords),
        "nu9": rep.value,
        "expected": NU_9,
    }


def criterion_4(budget: int, seed: int) -> dict:
    """Ring-constraint characterization of the binary long code."""
    ok = True
    details = {}
    for s in (2, 3):
        tester = ring_constraint_tester(s)
        _, code = generalized_long_code(s, Alphabet.plain(2), budget)
        match = set(accepted_words(tester, budget)) == set(code.codewords)
        ok &= match
        details[f"s{s}"] = match
    return {"status": _status(ok), **details}


def criterion_5(budget: int, seed: int) -> dict:
    """Majority word defeats the 2-dependence tester for |S| > 2; for |S| = 2
    the accepted set is exactly the canonical two codewords."""
    ok = True
    details = {}
    for s in (3, 4):
        word = majority_counterexample(s, budget)
        fam, code = generalized_long_code(s, Alphabet.plain(2), budget)
        tester = dependence_tester(fam, 2, budget)
        rej = reject_probability(tester, word)
        dist = dist_to_code(word, code)
        ok &= rej == 0 and dist > 0
        details[f"s{s}"] = {"reject": rej, "distance": dist}
    fam2, _ = generalized_long_code(2, Alphabet.plain(2), budget)
    acc = accepted_words(dependence_tester(fam2, 2, budget), budget)
    match = set(acc) == {(0, 1, 0, 1), (0, 0, 1, 1)}
    ok &= match
    details["s2_accepted"] = sorted(acc)
    return {"status": _status(ok), **details}


def criterion_6(budget: int, seed: int) -> dict:
    """The derived three-symbol family of all binary functions on a 2-element
    domain is 2-letter defined: accepted set equals its code."""
    g, _ = generalized_long_code(2, Alphabet.plain(2), budget)
    fam = critical_family(g)
    code = code_from_family(fam)
    acc = accepted_words(dependence_tester(fam, 2, budget), budget)
    ok = set(acc) == set(code.codewords)
    return {"status": _status(ok), "family_size": fam.k, "codewords": len(code.codewords)}


def _random_code(rng: random.Random, alphabet: Alphabet, n: int, count: int) -> Code:
    words = set()
    while len(words) < count:
        words.add(tuple(rng.randrange(alphabet.size) for _ in range(n)))
    return Code(alphabet, n, tuple(sorted(words)))


def _random_encoder(rng: random.Random, sigma_size: int, delta: Alphabet, k: int) -> Encoder:
    while True:
        tables = tuple(
            tuple(rng.randrange(delta.size) for _ in range(sigma_size)) for _ in range(k)
        )
        images = {tuple(t[s] for t in tables) for s in range(sigma_size)}
        if len(images) == sigma_size:
            return Encoder(FunctionFamily(sigma_size, delta, tables))


def criterion_7(budget: int, seed: int) -> dict:
    """Concatenation arithmetic on randomized instances."""
    rng = random.Random(seed * 1009 + 7)
    details = []
    ok = True
    for _ in range(5):
        sigma = Alphabet.plain(rng.choice([2, 3]))
        n = rng.choice([2, 3])
        code = _random_code(rng, sigma, n, rng.randrange(2, min(5, sigma.size**n) + 1))
        delta = Alphabet.plain(rng.choice([2, 3, 4]))
        k = rng.choice([2, 3])
        enc = _random_encoder(rng, sigma.size, delta, k)
        joined = concatenate(code, enc)
        inner = enc.image_code()
        dist_ok = distance(joined) >= distance(code) * distance(inner)
        rate_ok = rate(joined) == rate(code) * rate(inner)
        ok &= dist_ok and rate_ok
        details.append(
            {
                "sigma": sigma.size,
                "n": n,
                "k": k,
                "delta": delta.size,
                "distance_ok": dist_ok,
                "rate_ok": rate_ok,
            }
        )
    return {"status": _status(ok), "instances": details}


def criterion_8(budget: int, seed: int) -> dict:
    """Concatenated tester soundness bound on the all-binary instance."""
    code = repetition_code(Alphabet.plain(2), 2)
    outer = equality_tester(code.alphabet, 2)
    mu_outer = soundness_exact(outer, code, budget).value
    fam, inner_code = generalized_long_code(2, Alphabet.plain(2), budget)
    encoder = Encoder(fam)
    inner = dependence_tester(fam, 2, budget)
    mu_inner = soundness_exact(inner, inner_code, budget).value
    wit = check_f_compatible(outer, encoder)
    joined = concatenate(code, encoder)
    tester = concat_tester(outer, mu_outer, inner, mu_inner, encoder, wit)
    q, k = outer.q, encoder.k
    bound = mu_outer * mu_inner / ((q * k + 1) * mu_outer + mu_inner)
    rep = soundness_exact(tester, joined, budget, bound=bound)
    ok = rep.value >= bound
    return {
        "status": _status(ok),
        "mu_outer": mu_outer,
        "mu_inner": mu_inner,
        "bound": bound,
        "soundness": rep.value,
    }


def criterion_9(budget: int, seed: int) -> dict:
    """Alphabet-increase soundness bound on the binary repetition code."""
    code = repetition_code(Alphabet.plain(2), 2)
    tester = equality_tester(code.alphabet, 2)
    mu = soundness_exact(tester, code, budget).value
    target = Alphabet.plain(3)
    bigger = alphabet_increase_tester(tester, mu, (0, 1), target)
    big_code = embed_code(code, (0, 1), target)
    bound = mu / (mu + 1)
    rep = soundness_exact(bigger, big_code, budget, bound=bound)
    ok = rep.value >= bound
    return {"status": _status(ok), "mu": mu, "bound": bound, "soundness": rep.value}


def _random_tester(rng: random.Random, alphabet: Alphabet, n: int, q: int) -> Tester:
    count = rng.randrange(1, 4)
    size = alphabet.size
    checks = []
    w = Fraction(1, count)
    for _ in range(count):
        queries = tuple(rng.randrange(n) for _ in range(q))
        accept = rng.randrange(1, 1 << size**q)
        checks.append(Check(queries, accept, w))
    return Tester(alphabet, n, q, tuple(checks))


def _random_linear_tester(rng: random.Random, dim_sigma: int, n: int, q: int) -> Tester:
    from .algebra import span_vectors

    alphabet = vector_alphabet(2, dim_sigma)
    space = alphabet.space
    flat_dim = q * dim_sigma
    count = rng.randrange(1, 3)
    checks = []
    w = Fraction(1, count)
    for _ in range(count):
        queries = tuple(rng.randrange(n) for _ in range(q))
        basis = [
            tuple(rng.randrange(2) for _ in range(flat_dim))
            for _ in range(rng.randrange(0, flat_dim + 1))
        ]
        members = span_vectors(basis, flat_dim, 2)
        tuples = [
            tuple(
                space.index(vec[i * dim_sigma : (i + 1) * dim_sigma]) for i in range(q)
            )
            for vec in members
        ]
        checks.append(Check(queries, accept_from_tuples(tuples, alphabet.size), w))
    return Tester(alphabet, n, q, tuple(checks))


def criterion_10(budget: int, seed: int) -> dict:
    """Separable replacement: pointwise reject factor and separability."""
    import itertools

    rng = random.Random(seed * 1009 + 10)
    ok = True
    details = []
    for _ in range(5):
        alphabet = Alphabet.plain(rng.choice([2, 3]))
        n = rng.choice([2, 3, 4])
        tester = _random_tester(rng, alphabet, n, 2)
        replaced = separable_replacement(tester, Fraction(1), 2)
        factor = alphabet.size**tester.q
        pointwise = all(
            reject_probability(replaced, Word(alphabet, w))
            >= reject_probability(tester, Word(alphabet, w)) / factor
            for w in itertools.product(range(alphabet.size), repeat=n)
        )
        separable = isinstance(check_separable(replaced, 2), SeparabilityCertificate)
        ok &= pointwise and separable
        details.append({"sigma": alphabet.size, "n": n, "pointwise": pointwise, "separable": separable})
    return {"status": _status(ok), "instances": details}


def criterion_11(budget: int, seed: int) -> dict:
    """Linear separable replacement: pointwise 1/m factor and linearity."""
    import itertools

    rng = random.Random(seed * 1009 + 11)
    ok = True
    details = []
    target = VecSpace(Field(2), 1)
    for _ in range(5):
        dim = rng.choice([1, 2])
        n = rng.choice([2, 3])
        tester = _random_linear_tester(rng, dim, n, 2)
        replaced = linear_separable_replacement(tester, Fraction(1), target)
        m = replaced.meta["m"]
        alphabet = tester.alphabet
        pointwise = all(
            reject_probability(replaced, Word(alphabet, w))
            >= reject_probability(tester, Word(alphabet, w)) / m
            for w in itertools.product(range(alphabet.size), repeat=n)
        )
        linear = classify_linear(replaced) is not None
        ok &= pointwise and linear
        details.append({"dim_sigma": dim, "n": n, "m": m, "pointwise": pointwise, "linear": linear})
    return {"status": _status(ok), "instances": details}


def criterion_12(budget: int, seed: int) -> dict:
    """Separability holds exactly when some compatibility encoder works."""
    rng = random.Random(seed * 1009 + 12)
    ok = True
    set_counts = {"both": 0, "neither": 0}
    for _ in range(8):
        alphabet = Alphabet.plain(rng.choice([2, 3]))
        n = rng.choice([2, 3])
        delta_size = rng.choice([2, 3])
        tester = _random_tester(rng, alphabet, n, 2)
        sep = check_separable(tester, delta_size)
        enc = compatibility_encoder(alphabet, Alphabet.plain(delta_size), False, budget)
        compat = check_f_compatible(tester, enc)
        s_ok = isinstance(sep, SeparabilityCertificate)
        c_ok = not isinstance(compat, CompatFailure)
        ok &= s_ok == c_ok
        set_counts["both" if s_ok else "neither"] += 1
    lin_counts = {"both": 0, "neither": 0}
    target = VecSpace(Field(2), 1)
    for _ in range(8):
        dim = rng.choice([1, 2])
        n = rng.choice([2, 3])
        tester = _random_linear_tester(rng, dim, n, 2)
        sep = check_linearly_separable(tester, target)
        enc = compatibility_encoder(tester.alphabet, vector_alphabet(2, 1), True, budget)
        compat = check_f_compatible(tester, enc)
        s_ok = isinstance(sep, SeparabilityCertificate)
        c_ok = not isinstance(compat, CompatFailure)
        ok &= s_ok == c_ok
        lin_counts["both" if s_ok else "neither"] += 1
    return {
        "status": _status(ok),
        "set_case": set_counts,
        "linear_case": lin_counts,
    }


def criterion_13(budget: int, seed: int) -> dict:
    """The three reduction pipelines on their desk instances."""
    lin, gen, semi = (
        run_reduction(kind, *demo_inputs(kind, budget), params, budget=budget, seed=seed)
        for kind, params in DEMO_PARAMS.items()
    )

    def clean(report):
        return not any(v in ("fail", "violated") for v in report.verdicts.values())

    # exhaustible stages must pass exactly; under the default budget the
    # prune ladder certifies the two big pipelines exactly ("pass"), while
    # a budget too small for both its frontier and the scan samples their
    # final soundness ("conditional"), which is equally acceptable
    ok = lin.overall == "pass"
    ok &= clean(gen) and gen.overall in ("conditional", "pass")
    ok &= clean(semi) and semi.overall in ("conditional", "pass")
    return {
        "status": _status(ok),
        "linear": {"overall": lin.overall, "verdicts": dict(lin.verdicts)},
        "general": {"overall": gen.overall, "verdicts": dict(gen.verdicts)},
        "semilinear": {"overall": semi.overall, "verdicts": dict(semi.verdicts)},
    }


def criterion_14(budget: int, seed: int) -> dict:
    """Replaying the same manifest produces byte-identical reports."""
    from .serialize import dumps

    def run():
        inputs = demo_inputs("general", budget)
        report = run_reduction(
            "general", *inputs, DEMO_PARAMS["general"], budget=budget, seed=seed, trials=2000
        )
        return dumps(report)

    first, second = run(), run()
    ok = first == second
    return {"status": _status(ok), "bytes": len(first), "identical": ok}


CRITERIA = [
    (1, "hadamard-distance", criterion_1),
    (2, "hadamard-2-testability", criterion_2),
    (3, "long-code-2-testability", criterion_3),
    (4, "ring-constraint-characterization", criterion_4),
    (5, "majority-counterexample", criterion_5),
    (6, "derived-family-2-letter", criterion_6),
    (7, "concatenation-arithmetic", criterion_7),
    (8, "concatenated-tester-bound", criterion_8),
    (9, "alphabet-increase-bound", criterion_9),
    (10, "separable-replacement", criterion_10),
    (11, "linear-separable-replacement", criterion_11),
    (12, "separability-iff-compatibility", criterion_12),
    (13, "reduction-pipelines", criterion_13),
    (14, "determinism", criterion_14),
]


def run_criteria(
    only: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> dict:
    results = []
    for cid, name, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        outcome = fn(budget, seed)
        results.append({"id": cid, "name": name, **outcome})
    overall = "pass" if all(r["status"] == "pass" for r in results) else "fail"
    return {"criteria": results, "overall": overall}

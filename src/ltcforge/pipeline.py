"""End-to-end alphabet reductions with parameter certificates.

Each reduction runs the full construction path (separable replacement,
compatibility encoder, inner dependence tester, tester concatenation and,
where needed, the alphabet-increase step) and returns a report comparing
promised distance/rate/soundness formulas against achieved values.  All
comparisons are exact rationals.  The final soundness is exact whenever
`soundness_exact` does not refuse it at the budget (the prune ladder,
started at the composed bound, certifies the 3^18 and 3^20 demo spaces);
only when it does is it checked by seeded sampling, and the overall
verdict degrades from "pass" to "conditional".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import DEFAULT_BUDGET, Field, VecSpace
from .codes import Alphabet, Code, distance, is_linear_code, make_rate, rate, repetition_code
from .concat import (
    CompatibilityWitness,
    Encoder,
    alphabet_increase_tester,
    concat_tester,
    concatenate,
    embed_code,
)
from .constructions import (
    FunctionFamily,
    code_from_family,
    critical_family,
    dependence_tester,
    generalized_hadamard,
    generalized_long_code,
)
from .errors import CapacityError, DomainError, ForgeError, MismatchError
from .separability import (
    SeparabilityFailure,
    check_linearly_separable,
    check_separable,
    compatibility_encoder,
    extend_compatibility,
    linear_separable_replacement,
    separable_replacement,
    witness_from_certificate,
)
from .testers import (
    Tester,
    classify_linear,
    equality_tester,
    require_compatible,
    soundness_exact,
    soundness_sampled,
    validate,
)

# The parameters each reduction takes after (code, tester, mu), at their
# values on the desk instance of `demo_inputs`.
DEMO_PARAMS = {"linear": {"dimd": 2, "c": 2}, "general": {"d": 3, "c": 3}, "semilinear": {}}


class IncompleteReportError(ForgeError):
    """A report is missing a quantity its certification needs."""


@dataclass
class PipelineReport:
    kind: str
    params: dict
    promised: dict
    achieved: dict
    stages: dict

    @property
    def verdicts(self) -> dict:
        return certify(self)["verdicts"]

    @property
    def overall(self) -> str:
        return certify(self)["overall"]


def certify(report: PipelineReport) -> dict:
    """Recompute the verdict of every promised inequality, exactly.

    Sampled soundness can only be "consistent" or "violated", never "pass";
    a report whose exhaustible quantities are missing raises.
    """
    promised, achieved = report.promised, report.achieved
    for key in ("distance", "rate", "soundness", "nu_floor"):
        if key not in promised:
            raise IncompleteReportError(f"promised {key} missing")
    for key in ("distance", "rate", "soundness", "inner_soundness", "validation_ok"):
        if key not in achieved or achieved[key] is None:
            raise IncompleteReportError(f"achieved {key} missing")
    verdicts: dict[str, str] = {}
    verdicts["validation"] = "pass" if achieved["validation_ok"] else "fail"
    verdicts["distance"] = "pass" if achieved["distance"] >= promised["distance"] else "fail"
    verdicts["rate"] = "pass" if achieved["rate"] == promised["rate"] else "fail"
    verdicts["nu_floor"] = (
        "pass" if achieved["inner_soundness"] >= promised["nu_floor"] else "fail"
    )
    verdicts["soundness"] = replace(achieved["soundness"], bound=promised["soundness"]).verdict
    if "separable_soundness" in achieved and achieved["separable_soundness"] is not None:
        verdicts["separable_soundness"] = (
            "pass"
            if achieved["separable_soundness"] >= promised["separable_bound"]
            else "fail"
        )
    if "tester_linear" in achieved:
        verdicts["linearity"] = (
            "pass" if achieved["tester_linear"] and achieved["code_linear"] else "fail"
        )
    if "inner_distance" in achieved and "inner_distance_floor" in promised:
        verdicts["inner_distance"] = (
            "pass"
            if achieved["inner_distance"] >= promised["inner_distance_floor"]
            else "fail"
        )
    bad = [k for k, v in verdicts.items() if v in ("fail", "violated")]
    sampled = any(v == "consistent" for v in verdicts.values())
    overall = "fail" if bad else ("conditional" if sampled else "pass")
    return {"verdicts": verdicts, "overall": overall}


def _reduce(
    kind: str, code: Code, t_sep: Tester, mu_prime: Fraction, encoder: Encoder,
    wit: CompatibilityWitness, inner_code: Code, q_dep: int,
    promise: Callable[[Fraction], dict], params: dict, target: Alphabet | None,
    budget: int, seed: int, trials: int,
) -> PipelineReport:
    """The path every reduction shares once its separable tester t_sep
    (certified soundness mu_prime), encoder and witness exist: the inner
    dependence tester of arity q_dep and its exact soundness nu, the
    concatenated code and tester, the alphabet increase to `target` (none
    when target is None), then promised against achieved values.

    promise(nu) gives the reduction's closed forms; the closed-form
    soundness is asserted equal to the bound the testers' constructions
    composed from mu_prime and nu.
    """
    q, k = t_sep.q, encoder.k
    t_inner = dependence_tester(encoder.family, q_dep, budget)
    nu = soundness_exact(t_inner, inner_code, budget).value
    concat_code = concatenate(code, encoder)
    t_concat = concat_tester(t_sep, mu_prime, t_inner, nu, encoder, wit)
    promised = {**promise(nu), "separable_bound": mu_prime}
    final_code, t_final = concat_code, t_concat
    if target is not None:
        mapping = tuple(range(encoder.target.size))
        t_final = alphabet_increase_tester(t_concat, t_concat.meta["bound"], mapping, target)
        final_code = embed_code(concat_code, mapping, target)
        promised["soundness_before_increase"] = t_concat.meta["bound"]
    bound = t_final.meta["bound"]
    assert promised["soundness"] == bound
    try:
        s_rep = soundness_exact(t_final, final_code, budget, bound=bound)
    except CapacityError:
        s_rep = soundness_sampled(t_final, final_code, trials, seed, bound=bound)
    try:
        sep = soundness_exact(t_sep, code, budget)
    except CapacityError:
        sep = None
    achieved = {
        "distance": distance(final_code),
        "rate": rate(final_code),
        "soundness": s_rep,
        "inner_soundness": nu,
        "inner_distance": distance(inner_code),
        "separable_soundness": None if sep is None else sep.value,
        "validation_ok": validate(t_final, final_code),
    }
    if kind == "linear":
        achieved["tester_linear"] = classify_linear(t_final) is not None
        achieved["code_linear"] = is_linear_code(final_code) is not None
    params = {**params, "q": q, "k": k, "mu_prime": mu_prime}
    params.update(seed=seed, trials=s_rep.trials, budget=budget)
    stages = {
        "separable_tester": t_sep,
        "encoder": encoder,
        "inner_code": inner_code,
        "inner_tester": t_inner,
        "witness": wit,
    }
    if target is not None:  # without an increase step they are the final stages
        stages.update(concatenated_code=concat_code, concatenated_tester=t_concat)
    stages.update(final_code=final_code, final_tester=t_final)
    return PipelineReport(kind, params, promised, achieved, stages)


def linear_reduction(
    code: Code,
    tester: Tester,
    mu: Fraction,
    delta_space: VecSpace,
    c: int,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    trials: int = 10**5,
) -> PipelineReport:
    """Reduce a linear tester's alphabet to a dim-d space through the
    generalized Hadamard code over a c-dimensional subspace."""
    require_compatible(tester, code)
    space = code.alphabet.space
    if space is None:
        raise DomainError("linear reduction needs a vector-space alphabet")
    if delta_space.field != space.field:
        raise MismatchError("target space lies over a different field")
    q = tester.q
    d = delta_space.dim
    if not 1 <= c <= d:
        raise DomainError("c must lie in 1..dim(target)")
    if c == 1 and q < 3:
        raise DomainError("c = 1 requires a tester with at least 3 queries")
    p = space.field.p
    sigma_size = space.size
    delta_prime = VecSpace(space.field, c)

    t_sep = linear_separable_replacement(tester, mu, delta_prime, budget)
    cert = check_linearly_separable(t_sep, delta_prime)
    assert not isinstance(cert, SeparabilityFailure)
    inner_family, inner_code = generalized_hadamard(space, delta_prime, budget)
    encoder = Encoder(inner_family)
    delta_c, r_c = distance(code), rate(code)

    def promise(nu: Fraction) -> dict:
        return {
            "distance": (1 - Fraction(1, p**c)) * delta_c,
            "rate": Fraction(c, d) * (r_c * rate(inner_code)),
            "rate_closed_form": Fraction(c * space.dim, d * sigma_size**c) * r_c,
            "soundness": c * mu * nu
            / ((q * sigma_size**c + 1) * c * mu + (q * space.dim + c) * nu + c * mu * nu),
            "nu_floor": Fraction(1, sigma_size ** (2 * c))
            if c > 1
            else Fraction(1, sigma_size**3),
        }

    wit = witness_from_certificate(cert, encoder)
    mu_prime = Fraction(c, q * space.dim + c) * mu
    return _reduce(
        "linear", code, t_sep, mu_prime, encoder, wit, inner_code, 2 if c > 1 else 3, promise,
        {"c": c, "d": d, "p": p, "mu": mu}, Alphabet.vector(delta_space), budget, seed, trials,
    )


def general_reduction(
    code: Code,
    tester: Tester,
    mu: Fraction,
    d: int,
    c: int,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    trials: int = 10**5,
) -> PipelineReport:
    """Reduce any tester's alphabet to d symbols through the generalized
    long code over a c-symbol subset."""
    require_compatible(tester, code)
    q = tester.q
    if not 2 <= c <= d:
        raise DomainError("c must lie in 2..d; no valid c exists when q = 2 and d = 2")
    if c == 2 and q < 3:
        raise DomainError("c = 2 requires a tester with at least 3 queries")
    sigma_size = code.alphabet.size

    t_sep = separable_replacement(tester, mu, c, budget)
    cert = check_separable(t_sep, c)
    assert not isinstance(cert, SeparabilityFailure)
    inner_family, inner_code = generalized_long_code(sigma_size, Alphabet.plain(c), budget)
    encoder = Encoder(inner_family)
    delta_c, r_c = distance(code), rate(code)

    def promise(nu: Fraction) -> dict:
        return {
            "distance": (1 - Fraction(1, c)) * delta_c,
            "rate": make_rate(Fraction(1, encoder.k), sigma_size, d) * r_c,
            "soundness": mu * nu / ((q * c**sigma_size + 1) * mu + sigma_size**q * nu + mu * nu),
            "nu_floor": Fraction(1, c ** (2 * sigma_size))
            if c > 2
            else Fraction(1, 2 ** (3 * sigma_size)),
        }

    wit = witness_from_certificate(cert, encoder)
    return _reduce(
        "general", code, t_sep, mu / sigma_size**q, encoder, wit, inner_code, 2 if c > 2 else 3,
        promise, {"c": c, "d": d, "mu": mu}, Alphabet.plain(d), budget, seed, trials,
    )


def semilinear_reduction(
    code: Code,
    tester: Tester,
    mu: Fraction,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    trials: int = 10**5,
) -> PipelineReport:
    """Reduce a binary-field linear tester to the three-symbol alphabet
    through the derived two-letter family of the linear maps onto GF(2).

    Ends without an alphabet-increase step: the target alphabet {0,1,2}
    is already the construction's alphabet.
    """
    require_compatible(tester, code)
    space = code.alphabet.space
    if space is None or space.field.p != 2:
        raise DomainError("semilinear reduction needs a GF(2) vector alphabet")
    q = tester.q
    f2 = VecSpace(space.field, 1)

    t_sep = linear_separable_replacement(tester, mu, f2, budget)
    cert = check_linearly_separable(t_sep, f2)
    assert not isinstance(cert, SeparabilityFailure)
    g_encoder = compatibility_encoder(code.alphabet, Alphabet.vector(f2), True, budget)
    t_count = space.size
    k = t_count + 2 * t_count**2
    derived = critical_family(g_encoder.family)
    padded = FunctionFamily(
        derived.domain_size,
        derived.target,
        derived.tables + ((0,) * derived.domain_size,) * (k - derived.k),
    )
    encoder = Encoder(padded)
    wit = extend_compatibility(witness_from_certificate(cert, g_encoder), g_encoder, encoder)
    inner_code = code_from_family(padded)
    delta_c, r_c = distance(code), rate(code)

    def promise(nu: Fraction) -> dict:
        return {
            "distance": delta_c / k,
            "rate": make_rate(Fraction(1, k), t_count, 3) * r_c,
            "soundness": mu * nu
            / ((2 * q * t_count**2 + q * t_count + 1) * mu + (q * space.dim) * nu),
            "nu_floor": Fraction(1, k**2),
            "inner_distance_floor": Fraction(1, k),
        }

    return _reduce(
        "semilinear", code, t_sep, mu / (q * space.dim), encoder, wit, inner_code, 2, promise,
        {"t": t_count, "mu": mu}, None, budget, seed, trials,
    )


def demo_inputs(kind: str, budget: int = DEFAULT_BUDGET) -> tuple[Code, Tester, Fraction]:
    """The desk instance of a reduction: the length-2 repetition code over
    two letters (over GF(2) for the linear kinds), its equality tester and
    that tester's exact soundness."""
    alphabet = Alphabet.plain(2) if kind == "general" else Alphabet.vector(VecSpace(Field(2), 1))
    code = repetition_code(alphabet, 2)
    tester = equality_tester(alphabet, 2)
    return code, tester, soundness_exact(tester, code, budget).value


def run_reduction(kind: str, code: Code, tester: Tester, mu: Fraction, params: dict, **opts):
    """The reduction `kind` with the parameters DEMO_PARAMS[kind] names;
    opts are its budget, seed and trials."""
    if kind == "linear":
        space = code.alphabet.space  # None is refused by linear_reduction
        delta = None if space is None else VecSpace(space.field, params["dimd"])
        return linear_reduction(code, tester, mu, delta, params["c"], **opts)
    if kind == "general":
        return general_reduction(code, tester, mu, params["d"], params["c"], **opts)
    return semilinear_reduction(code, tester, mu, **opts)

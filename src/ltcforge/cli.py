"""Command-line surface: build artifacts, run testers, verify bounds.

Every command prints one JSON document to stdout (and to --out when given)
with the replay manifest embedded; rerunning the same command line
reproduces the document byte for byte.  Exit codes: 0 all verdicts pass,
1 a violation was found, 2 usage or capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .acceptance import CRITERIA, run_criteria
from .algebra import DEFAULT_BUDGET, Field, VecSpace
from .codes import Alphabet, distance, rate, vector_alphabet
from .concat import CompatFailure, check_f_compatible, concat_tester, concatenate
from .constructions import (
    critical_family,
    code_from_family,
    dependence_tester,
    generalized_hadamard,
    generalized_long_code,
    ring_constraint_tester,
)
from .errors import DomainError, ForgeError, MismatchError, SchemaError
from .pipeline import DEMO_PARAMS, demo_inputs, run_reduction
from .separability import (
    SeparabilityFailure,
    check_linearly_separable,
    check_separable,
    compatibility_encoder,
    linear_separable_replacement,
    separable_replacement,
)
from .serialize import (
    SCHEMAS,
    certificate_to_json,
    code_from_json,
    code_to_json,
    dumps,
    encoder_from_json,
    encoder_to_json,
    family_from_json,
    family_to_json,
    frac_to_json,
    rate_to_json,
    soundness_to_json,
    tester_from_json,
    value_to_json,
    witness_to_json,
)
from .testers import equality_tester, gc_paused, soundness_exact, soundness_sampled, validate


_READERS = {
    "code": code_from_json,
    "encoder": encoder_from_json,
    "family": family_from_json,
    "tester": tester_from_json,
}


@gc_paused
def _load(path: str, kind: str):
    """The `kind` artifact in the JSON file at path: the artifact itself, or
    the output of another command holding exactly one artifact of that
    schema among its top-level values (`build --out`, `tester ... --out`).
    The collector is paused from parsing to the artifact, as in the
    readers: parsing builds one dict per check and no cycle."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # undecodable text, or an int past Python's digit limit
            raise SchemaError(f"{path}: {exc}") from None
    schema = SCHEMAS[kind]
    if isinstance(doc, dict) and "schema" not in doc:
        held = [v for v in doc.values() if isinstance(v, dict) and v.get("schema") == schema]
        if len(held) != 1:
            raise SchemaError(
                f"{path}: expected a {schema} artifact or an output holding exactly one,"
                f" found {len(held)}"
            )
        doc = held[0]
    return _READERS[kind](doc)


def _int_in(low: int, high: int):
    """argparse type: an integer in [low, high)."""

    def parse(text: str) -> int:
        value = int(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, {high})")
        return value

    return parse


def _rational(text: str) -> Fraction:
    """argparse type: a rational such as 3/4 or 0.5, with a nonzero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational: {text!r}") from None


def _criterion_ids(text: str) -> list[int]:
    """argparse type: one or more comma-separated ids of acceptance.CRITERIA."""
    known = [cid for cid, _, _ in CRITERIA]
    try:
        ids = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        ids = []
    if not ids or not set(ids) <= set(known):
        raise argparse.ArgumentTypeError(
            f"expected criterion ids among {known[0]}..{known[-1]}: {text!r}"
        )
    return ids


@cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # --budget caps what a command enumerates (words, frontier cells, family
    # tables, replacement bits and tuple tests); where nothing is enumerated
    # it is only recorded in the manifest
    common.add_argument("--budget", type=_int_in(1, 2**63), default=DEFAULT_BUDGET)
    seed_type = _int_in(0, 2**64)
    common.add_argument("--seed", type=seed_type, default=0, help="64-bit unsigned root seed")
    common.add_argument("--out", type=str, default=None)
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--delta-size", type=int)
    target.add_argument("--linear", action="store_true")
    target.add_argument("--p", type=int)
    target.add_argument("--delta-dim", type=int)

    parser = argparse.ArgumentParser(
        prog="ltcforge", description="locally-testable-code workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build").add_subparsers(dest="what", required=True)
    b_had = build.add_parser("hadamard", parents=[common])
    b_had.add_argument("--p", type=int, required=True)
    b_had.add_argument("--dimv", type=int, required=True)
    b_had.add_argument("--dimd", type=int, required=True)
    b_long = build.add_parser("longcode", parents=[common])
    b_long.add_argument("--s", type=int, required=True)
    b_long.add_argument("--delta-size", type=int, required=True)
    b_crit = build.add_parser("critical", parents=[common])
    b_crit.add_argument("--s", type=int, required=True)
    b_enc = build.add_parser("encoder", parents=[common, target])
    b_enc.add_argument("--sigma-size", type=int)
    b_enc.add_argument("--sigma-dim", type=int)

    tester = sub.add_parser("tester").add_subparsers(dest="what", required=True)
    t_dep = tester.add_parser("dependence", parents=[common])
    source = t_dep.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", type=str, help="family JSON path")
    source.add_argument("--hadamard", nargs=3, type=int, metavar=("P", "DIMV", "DIMD"))
    source.add_argument("--longcode", nargs=2, type=int, metavar=("S", "DELTA"))
    t_dep.add_argument("--q", type=int, default=2)
    t_ring = tester.add_parser("ring", parents=[common])
    t_ring.add_argument("--s", type=int, required=True)
    t_eq = tester.add_parser("equality", parents=[common])
    t_eq.add_argument("--n", type=int, required=True)
    t_eq.add_argument("--size", type=int)
    t_eq.add_argument("--p", type=int)
    t_eq.add_argument("--dim", type=int)

    sound = sub.add_parser("soundness").add_subparsers(dest="what", required=True)
    for what in ("exact", "sample"):
        s_cmd = sound.add_parser(what, parents=[common])
        s_cmd.add_argument("--tester", type=str, required=True)
        s_cmd.add_argument("--code", type=str, required=True)
        if what == "sample":
            s_cmd.add_argument("--trials", type=_int_in(1, 2**63), required=True)
        s_cmd.add_argument("--bound", type=_rational, default=None)

    conc = sub.add_parser("concat", parents=[common])
    conc.add_argument("--code", type=str, required=True)
    conc.add_argument("--encoder", type=str, required=True)
    conc.add_argument("--outer-tester", type=str)
    conc.add_argument("--mu", type=_rational)
    conc.add_argument("--inner-tester", type=str)
    conc.add_argument("--nu", type=_rational)

    sep = sub.add_parser("separate").add_subparsers(dest="what", required=True)
    sp_ck = sep.add_parser("check", parents=[common, target])
    sp_ck.add_argument("--tester", type=str, required=True)
    sp_rp = sep.add_parser("replace", parents=[common, target])
    sp_rp.add_argument("--tester", type=str, required=True)
    sp_rp.add_argument("--mu", type=_rational, required=True)

    pipe = sub.add_parser("pipeline").add_subparsers(dest="what", required=True)
    for kind, params in DEMO_PARAMS.items():
        pp = pipe.add_parser(kind, parents=[common])
        pp.add_argument("--demo", action="store_true")
        pp.add_argument("--code", type=str)
        pp.add_argument("--tester", type=str)
        pp.add_argument("--mu", type=_rational)
        pp.add_argument("--trials", type=_int_in(1, 2**63), default=10**5)
        for name in params:
            pp.add_argument(f"--{name}", type=int)

    ver = sub.add_parser("verify").add_subparsers(dest="what", required=True)
    v_all = ver.add_parser("all", parents=[common])
    v_all.add_argument("--only", type=_criterion_ids, default=None, help="comma-separated ids")

    return parser


def _family(kind: str, nums, budget: int):
    """Family and code of the generalized Hadamard code (P, DIMV, DIMD) or
    long code (S, DELTA)."""
    if kind == "hadamard":
        p, dimv, dimd = nums
        return generalized_hadamard(VecSpace(Field(p), dimv), VecSpace(Field(p), dimd), budget)
    s, d = nums
    return generalized_long_code(s, Alphabet.plain(d), budget)


def _target(args) -> VecSpace | int:
    """The GF(p) space of --linear --p --delta-dim, else --delta-size."""
    if args.linear:
        if args.p is None or args.delta_dim is None:
            raise DomainError("--linear needs --p and --delta-dim")
        return VecSpace(Field(args.p), args.delta_dim)
    if args.delta_size is None:
        raise DomainError("give --delta-size, or --linear with --p and --delta-dim")
    return args.delta_size


def _cmd_build(args) -> tuple[dict, int]:
    if args.what in ("hadamard", "longcode"):
        hadamard = args.what == "hadamard"
        nums = (args.p, args.dimv, args.dimd) if hadamard else (args.s, args.delta_size)
        fam, code = _family(args.what, nums, args.budget)
        return {
            "code": code_to_json(code),
            "family": family_to_json(fam),
            "distance": frac_to_json(distance(code)),
            "rate": rate_to_json(rate(code)),
        }, 0
    if args.what == "critical":
        g, _ = generalized_long_code(args.s, Alphabet.plain(2), args.budget)
        fam = critical_family(g)
        return {
            "family": family_to_json(fam),
            "code": code_to_json(code_from_family(fam)),
            "injective": fam.is_injective(),
        }, 0
    delta = _target(args)
    if (args.sigma_dim if args.linear else args.sigma_size) is None:
        raise DomainError("encoder needs --sigma-size, or --sigma-dim with --linear")
    if args.linear:
        sigma, delta = vector_alphabet(args.p, args.sigma_dim), Alphabet.vector(delta)
    else:
        sigma, delta = Alphabet.plain(args.sigma_size), Alphabet.plain(delta)
    enc = compatibility_encoder(sigma, delta, args.linear, args.budget)
    return {"encoder": encoder_to_json(enc)}, 0


def _cmd_tester(args) -> tuple[dict, int]:
    if args.what == "dependence":
        if args.family is not None:
            fam = _load(args.family, "family")
        elif args.hadamard is not None:
            fam, _ = _family("hadamard", args.hadamard, args.budget)
        else:
            fam, _ = _family("longcode", args.longcode, args.budget)
        tester = dependence_tester(fam, args.q, args.budget)
        return {
            "tester": tester,
            "degenerate": bool(tester.meta.get("degenerate", False)),
        }, 0
    if args.what == "ring":
        tester = ring_constraint_tester(args.s, args.budget)
        return {
            "tester": tester,
            "all_ones_index": tester.meta["all_ones_index"],
        }, 0
    if args.size is not None:
        alphabet = Alphabet.plain(args.size)
    elif args.p is not None and args.dim is not None:
        alphabet = vector_alphabet(args.p, args.dim)
    else:
        raise DomainError("equality tester needs --size or --p/--dim")
    return {"tester": equality_tester(alphabet, args.n, args.budget)}, 0


def _cmd_soundness(args) -> tuple[dict, int]:
    tester = _load(args.tester, "tester")
    code = _load(args.code, "code")
    if args.what == "exact":
        report = soundness_exact(tester, code, args.budget, bound=args.bound)
    else:
        report = soundness_sampled(tester, code, args.trials, args.seed, bound=args.bound)
    code_ok = report.verdict not in ("fail", "violated")
    return {"soundness": soundness_to_json(report)}, 0 if code_ok else 1


def _cmd_concat(args) -> tuple[dict, int]:
    code = _load(args.code, "code")
    encoder = _load(args.encoder, "encoder")
    joined = concatenate(code, encoder)
    payload: dict = {"code": code_to_json(joined)}
    if args.outer_tester:
        if args.mu is None or args.inner_tester is None or args.nu is None:
            raise DomainError("tester composition needs --mu, --inner-tester and --nu")
        outer = _load(args.outer_tester, "tester")
        if outer.n != code.n:
            raise MismatchError("outer tester does not match the code")
        inner = _load(args.inner_tester, "tester")
        wit = check_f_compatible(outer, encoder)
        if isinstance(wit, CompatFailure):
            payload["incompatible"] = {"check": wit.check_index, "coordinate": wit.coordinate}
            return payload, 1
        composed = concat_tester(outer, args.mu, inner, args.nu, encoder, wit)
        payload["tester"] = composed
        payload["witness"] = witness_to_json(wit)
        payload["bound"] = frac_to_json(composed.meta["bound"])
        payload["validation_ok"] = validate(composed, joined)
        return payload, 0 if payload["validation_ok"] else 1
    return payload, 0


def _cmd_separate(args) -> tuple[dict, int]:
    tester = _load(args.tester, "tester")
    target = _target(args)
    if args.what == "check":
        if args.linear:
            outcome = check_linearly_separable(tester, target)
        else:
            outcome = check_separable(tester, target)
        if isinstance(outcome, SeparabilityFailure):
            return {
                "separable": False,
                "failure": {
                    "check": outcome.check_index,
                    "coordinate": outcome.coordinate,
                    "required": outcome.required,
                },
            }, 1
        return {"separable": True, "certificate": certificate_to_json(outcome)}, 0
    if args.linear:
        replaced = linear_separable_replacement(tester, args.mu, target, args.budget)
    else:
        replaced = separable_replacement(tester, args.mu, target, args.budget)
    return {
        "tester": replaced,
        "bound": frac_to_json(replaced.meta["bound"]),
    }, 0


def _cmd_pipeline(args) -> tuple[dict, int]:
    kind, defaults = args.what, DEMO_PARAMS[args.what]
    given = {name: getattr(args, name) for name in defaults if getattr(args, name) is not None}
    if args.demo:
        code, tester, mu = demo_inputs(kind, args.budget)
        params = {**defaults, **given}
    else:
        if args.code is None or args.tester is None or args.mu is None:
            raise DomainError("pipeline needs --demo or --code/--tester/--mu")
        if len(given) < len(defaults):
            raise DomainError(f"{kind} pipeline needs " + " and ".join(f"--{n}" for n in defaults))
        code = _load(args.code, "code")
        tester = _load(args.tester, "tester")
        mu, params = args.mu, given
    report = run_reduction(
        kind, code, tester, mu, params, budget=args.budget, seed=args.seed, trials=args.trials
    )
    return {"report": report}, 0 if report.overall != "fail" else 1


def _cmd_verify(args) -> tuple[dict, int]:
    outcome = run_criteria(only=args.only, budget=args.budget, seed=args.seed)
    doc = {
        "schema": SCHEMAS["verify"],
        "criteria": value_to_json(outcome["criteria"]),
        "overall": outcome["overall"],
    }
    return doc, 0 if outcome["overall"] == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    manifest = {
        "command": argv,
        "seed": args.seed,
        "budget": args.budget,
        "version": __version__,
    }
    try:
        handler = {
            "build": _cmd_build,
            "tester": _cmd_tester,
            "soundness": _cmd_soundness,
            "concat": _cmd_concat,
            "separate": _cmd_separate,
            "pipeline": _cmd_pipeline,
            "verify": _cmd_verify,
        }[args.command]
        payload, exit_code = handler(args)
        text = dumps({"manifest": manifest, **payload})
    except ForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, KeyError) as exc:
        print(f"error: bad input ({exc})", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out} ({exc})", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

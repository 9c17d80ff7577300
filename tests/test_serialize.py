"""Round-trip identity for every serialized artifact."""

import ast
import gc
import json
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltcforge
from ltcforge.algebra import Field, VecSpace
from ltcforge.codes import Alphabet, Word, rate, repetition_code, vector_alphabet
from ltcforge.concat import check_f_compatible
from ltcforge.constructions import dependence_tester, generalized_long_code
from ltcforge.errors import CapacityError, DomainError, SchemaError
from ltcforge.pipeline import (
    DEMO_PARAMS,
    PipelineReport,
    demo_inputs,
    linear_reduction,
    run_reduction,
    semilinear_reduction,
)
from ltcforge.separability import (
    check_linearly_separable,
    check_separable,
    compatibility_encoder,
    separable_replacement,
)
from ltcforge.serialize import (
    alphabet_from_json,
    certificate_from_json,
    certificate_to_json,
    code_from_json,
    code_to_json,
    dumps,
    frac_from_json,
    frac_to_json,
    rate_from_json,
    rate_to_json,
    report_from_json,
    report_to_json,
    soundness_from_json,
    soundness_to_json,
    tester_from_json,
    tester_to_json,
    value_from_json,
    value_to_json,
    witness_from_json,
    witness_to_json,
    word_from_json,
    word_to_json,
)
from ltcforge.testers import (
    Check,
    Tester,
    accept_bits,
    equality_tester,
    full_accept,
    soundness_exact,
    soundness_sampled,
)

BIN = Alphabet.plain(2)


def roundtrip(obj):
    """The artifact read back from the text of its tagged document: pins the
    identity contract."""
    return value_from_json(json.loads(dumps(value_to_json(obj))))


def test_code_roundtrip_plain_and_linear():
    plain = repetition_code(BIN, 3)
    assert roundtrip(plain) == plain
    linear = repetition_code(vector_alphabet(2, 1), 2)
    assert roundtrip(linear) == linear


def test_code_reader_ignores_an_old_linear_member():
    # `build hadamard --p 2 --dimv 1 --dimd 2` wrote this member while codes
    # carried a generator basis; linearity is decided from the codewords.
    doc = {
        "alphabet": {"dim": 2, "kind": "vector", "p": 2},
        "codewords": [[0, 0, 0, 0], [0, 1, 2, 3]],
        "n": 4,
        "schema": "ltc-forge/code-v1",
    }
    code = code_from_json(doc)
    assert code_from_json({**doc, "linear": {"gen": [[0, 1, 2, 3]]}}) == code
    assert code_to_json(code) == doc


def test_tester_reader_builds_one_fraction_per_distinct_weight():
    fam, _ = generalized_long_code(2, Alphabet.plain(3))
    tester = dependence_tester(fam, 2)
    read = tester_from_json(json.loads(dumps(tester_to_json(tester))))
    assert read == tester
    assert len({id(ch.weight) for ch in read.checks}) == len({ch.weight for ch in tester.checks}) == 1


def test_tester_roundtrip_preserves_rationals():
    fam, _ = generalized_long_code(2, Alphabet.plain(3))
    tester = dependence_tester(fam, 2)
    doc = tester_to_json(tester)
    text = dumps(doc)
    again = tester_from_json(json.loads(text))
    assert again == tester
    weight = doc["checks"][0]["weight"]
    assert set(weight) == {"num", "den"}
    assert Fraction(weight["num"], weight["den"]) == tester.checks[0].weight


def test_fraction_thirds_exact():
    f = Fraction(1, 3)
    assert frac_from_json(frac_to_json(f)) == f
    assert frac_to_json(f) == {"num": 1, "den": 3}


def test_family_and_encoder_roundtrip():
    enc = compatibility_encoder(BIN, Alphabet.plain(3), False)
    assert roundtrip(enc) == enc
    assert roundtrip(enc.family) == enc.family


def test_witness_roundtrip():
    eq = equality_tester(BIN, 2)
    enc = compatibility_encoder(BIN, BIN, False)
    wit = check_f_compatible(eq, enc)
    doc = witness_to_json(wit, enc.target.size)
    assert witness_from_json(json.loads(dumps(doc))) == wit


def test_certificate_roundtrip():
    eq = equality_tester(Alphabet.plain(3), 2)
    replaced = separable_replacement(eq, Fraction(2), 3)
    cert = check_separable(replaced, 2)
    assert roundtrip(cert) == cert


def test_soundness_report_roundtrip():
    code = repetition_code(BIN, 2)
    eq = equality_tester(BIN, 2)
    exact = soundness_exact(eq, code)
    assert roundtrip(exact) == exact and exact.engine == "scan"
    # with a bound the prune ladder decides
    pruned = soundness_exact(eq, code, bound=Fraction(1))
    assert roundtrip(pruned) == pruned and pruned.engine == "prune" and pruned.verdict == "pass"
    assert soundness_to_json(pruned)["engine"] == "prune"
    sampled = soundness_sampled(eq, code, trials=16, seed=5, bound=Fraction(1, 2))
    assert roundtrip(sampled) == sampled and sampled.engine == "sampled"
    # 2^16 words over a budget of 2^14: without a bound the ladder decides
    wide = equality_tester(BIN, 16)
    unbounded = soundness_exact(wide, repetition_code(BIN, 16), budget=2**14)
    assert roundtrip(unbounded) == unbounded and unbounded.engine == "prune"
    assert soundness_to_json(unbounded)["engine"] == "prune"
    # documents name engines that no longer run, such as "separator"; they
    # still read back as written
    stored = dict(soundness_to_json(unbounded), engine="separator")
    assert soundness_to_json(soundness_from_json(stored)) == stored


def test_certificate_linear_flag_matches_subspaces():
    # A set certificate marked linear, and a linear one marked set, each
    # read back as written before the flag was held to the checks.
    plain = certificate_to_json(check_separable(equality_tester(BIN, 3), 2))
    space = VecSpace(Field(2), 2)
    linear = certificate_to_json(check_linearly_separable(equality_tester(vector_alphabet(2, 2), 2), space))
    assert linear["linear"] and not plain["linear"]
    for doc in (plain, linear):
        assert certificate_to_json(certificate_from_json(doc)) == doc
        with pytest.raises(SchemaError, match="subspaces must be listed exactly when linear is true"):
            certificate_from_json(dict(doc, linear=not doc["linear"]))


def test_pipeline_report_roundtrip():
    code = repetition_code(vector_alphabet(2, 1), 2)
    tester = equality_tester(code.alphabet, 2)
    mu = soundness_exact(tester, code).value
    report = linear_reduction(code, tester, mu, VecSpace(Field(2), 2), 2, seed=4)
    assert roundtrip(report) == report
    semi = semilinear_reduction(code, tester, mu, seed=4, trials=500)
    assert roundtrip(semi) == semi


def test_schema_mismatch_raises():
    code = repetition_code(BIN, 2)
    doc = code_to_json(code)
    doc["schema"] = "ltc-forge/code-v9"
    with pytest.raises(SchemaError):
        code_from_json(doc)
    with pytest.raises(SchemaError):
        tester_from_json({"schema": "ltc-forge/code-v1"})
    with pytest.raises(SchemaError, match="expected schema ltc-forge/tester-v2"):
        tester_from_json(dict(tester_to_json(equality_tester(BIN, 2)), schema="ltc-forge/tester-v1"))


def _valid_doc(kind):
    """A well-formed document of `kind` and its reader."""
    eq, code = equality_tester(BIN, 2), repetition_code(BIN, 2)
    if kind == "tester":
        return tester_to_json(eq), tester_from_json
    if kind == "code":
        return code_to_json(code), code_from_json
    if kind == "rate":
        return rate_to_json(rate(code)), rate_from_json
    if kind == "witness":
        return witness_to_json(check_f_compatible(eq, compatibility_encoder(BIN, BIN, False)), 2), witness_from_json
    if kind == "certificate":
        return certificate_to_json(check_separable(eq, 2)), certificate_from_json
    if kind == "soundness":
        return soundness_to_json(soundness_exact(eq, code)), soundness_from_json
    if kind == "word":
        return word_to_json(Word(BIN, (0, 1))), word_from_json
    lin = repetition_code(vector_alphabet(2, 1), 2)
    lin_eq = equality_tester(lin.alphabet, 2)
    report = linear_reduction(lin, lin_eq, soundness_exact(lin_eq, lin).value, VecSpace(Field(2), 2), 2)
    return json.loads(dumps(report)), report_from_json


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("witness", lambda doc: doc.update(target_size="2")),
        ("witness", lambda doc: doc.pop("checks")),
        ("certificate", lambda doc: doc["checks"][0].update(maps=5)),
        ("soundness", lambda doc: doc.pop("mode")),
        ("word", lambda doc: doc.update(letters=5)),
        ("report", lambda doc: doc.pop("kind")),
        ("witness", lambda doc: doc.update(target_size=2.0)),
        ("witness", lambda doc: doc["checks"][0].update(b=[0.0, 1])),
        ("certificate", lambda doc: doc.update(delta_size=2.0)),
        ("certificate", lambda doc: doc["checks"][0]["maps"][0].__setitem__(0, 0.0)),
        ("certificate", lambda doc: doc["checks"][0]["partitions"][0][0].__setitem__(0, 0.0)),
        ("rate", lambda doc: doc.update(log_num="x")),
        ("word", lambda doc: doc.update(letters=[1.0, 0])),
        ("soundness", lambda doc: doc.update(trials=2.5)),
        ("soundness", lambda doc: doc.update(seed="x")),
        ("tester", lambda doc: doc["checks"][0]["queries"].__setitem__(0, True)),
        ("tester", lambda doc: doc.update(n=True)),
        ("tester", lambda doc: doc.update(q=True)),
        ("code", lambda doc: doc["codewords"][1].__setitem__(0, True)),
        ("code", lambda doc: doc.update(n=True)),
        ("word", lambda doc: doc["letters"].__setitem__(0, False)),
        ("certificate", lambda doc: doc.update(linear=1.5)),
        ("soundness", lambda doc: doc.update(mode=1.5)),
        ("soundness", lambda doc: doc.update(verdict=1.5)),
        ("soundness", lambda doc: doc.update(engine=1.5)),
        ("soundness", lambda doc: doc.update(infinite=1.5)),
        ("report", lambda doc: doc.update(kind=1.5)),
        ("report", lambda doc: doc.update(overall=1.5)),
        ("report", lambda doc: doc["verdicts"].update(soundness=1.5)),
        ("report", lambda doc: doc["params"].update(x=1.5)),
        ("soundness", lambda doc: doc.update(infinite=True)),
        ("soundness", lambda doc: doc.update(mode="sampled")),
        ("soundness", lambda doc: doc.update(engine="sampled")),
        ("soundness", lambda doc: doc.update(bound=frac_to_json(Fraction(1)), verdict="fail")),
        ("soundness", lambda doc: doc.update(bound=frac_to_json(Fraction(3)), verdict="pass")),
        ("soundness", lambda doc: doc.update(mode=None)),
        ("soundness", lambda doc: doc.update(mode="bogus")),
        ("report", lambda doc: doc["promised"].update(distance=frac_to_json(Fraction(99, 100)))),
        ("report", lambda doc: doc["verdicts"].update(distance="fail")),
        ("certificate", lambda doc: doc["checks"][0]["partitions"].__setitem__(0, [[1], [0]])),
        ("certificate", lambda doc: doc.update(linear=True)),
        ("certificate", lambda doc: doc["checks"][0].update(subspaces=[])),
    ],
    ids=[
        "witness-target-size-str",
        "witness-no-checks",
        "certificate-maps-int",
        "soundness-no-mode",
        "word-letters-int",
        "report-no-kind",
        "witness-target-size-float",
        "witness-b-float",
        "certificate-delta-size-float",
        "certificate-map-entry-float",
        "certificate-partition-symbol-float",
        "rate-log-num-str",
        "word-letter-float",
        "soundness-trials-float",
        "soundness-seed-str",
        "tester-query-bool",
        "tester-n-bool",
        "tester-q-bool",
        "code-letter-bool",
        "code-n-bool",
        "word-letter-bool",
        "certificate-linear-float",
        "soundness-mode-float",
        "soundness-verdict-float",
        "soundness-engine-float",
        "soundness-infinite-float",
        "report-kind-float",
        "report-overall-float",
        "report-verdict-float",
        "report-param-float",
        "soundness-finite-marked-infinite",
        "soundness-exact-marked-sampled",
        "soundness-engine-sampled-mode-exact",
        "soundness-passing-verdict-flipped",
        "soundness-bound-above-value-verdict-kept",
        "soundness-mode-null",
        "soundness-mode-bogus",
        "report-distance-raised-overall-kept",
        "report-verdict-flipped",
        "certificate-partitions-swapped",
        "certificate-set-marked-linear",
        "certificate-subspaces-listed-marked-set",
    ],
)
def test_malformed_document_raises_schema_error(kind, corrupt):
    # The first six once escaped their reader as a KeyError or a TypeError;
    # the next fifteen, a non-integer where an integer belongs, were read as
    # valid: a JSON true or false, six of them, as the integer 1 or 0.  The
    # next nine were read, and `dumps` then could not write the artifact.
    # The last three were read as a report that contradicts itself: an
    # infinite flag beside a finite value, or a sampled value labelled
    # exact (or the reverse), which `certify` would then judge.  The nine
    # after them were read back as written, though each judgment or
    # partition they hold differs from the one the document's measurements
    # give: the exact value 2 passes at a bound of 1 and fails at 3, a mode
    # follows from the engine, a report's verdicts from its values, and a
    # certificate's partitions and linear flag from its maps and subspaces.
    doc, from_json = _valid_doc(kind)
    assert from_json(json.loads(dumps(doc))) is not None
    corrupt(doc)
    with pytest.raises(SchemaError, match=f"malformed {kind}"):
        from_json(doc)


def test_dumps_deterministic():
    code = repetition_code(BIN, 2)
    assert dumps(code_to_json(code)) == dumps(code_to_json(code))


def _accept_set_docs():
    """(document, reader) for a tester, a witness and a certificate, each
    with a first accept set over the 2**2 pairs of binary letters."""
    eq = equality_tester(BIN, 2)
    witness = check_f_compatible(eq, compatibility_encoder(BIN, BIN, False))
    return [
        (tester_to_json(eq), tester_from_json),
        (witness_to_json(witness, 2), witness_from_json),
        (certificate_to_json(check_separable(eq, 2)), certificate_from_json),
    ]


@pytest.mark.parametrize(
    "accept",
    [[[0, 0], [1, 1]], [True], [1.0], [-1], [4], [0, 0], "00", [3, 0], ["a"], {"0": 3}, 3],
)
def test_malformed_accept_set_raises(accept):
    # a tuple list, a bool, a float, a negative index, an index past the
    # 2**2 tuples, a repeat, a non-list, descending order, a string, ...
    for doc, from_json in _accept_set_docs():
        assert from_json(json.loads(dumps(doc))) is not None
        doc["checks"][0]["accept"] = accept
        with pytest.raises(SchemaError):
            from_json(doc)


def test_oversized_accept_table_refused_before_decoding():
    # 2**13 letters at arity 2 are 2**26 tuples, past the accept bitset cap:
    # refused before the indices are read or a bitset is built.
    docs = _accept_set_docs()
    docs[0][0]["alphabet"]["size"] = 2**13
    docs[1][0]["target_size"] = 2**13
    docs[2][0]["delta_size"] = 2**13
    for doc, from_json in docs:
        doc["checks"][0]["accept"] = [0, 2**26 - 1]
        with mock.patch("ltcforge.serialize.accept_from_indices", side_effect=AssertionError):
            with pytest.raises(SchemaError, match="accept bitset requires 67108864 items"):
                from_json(doc)


@pytest.mark.parametrize(
    "weight", [{"num": 1, "den": 0}, {"num": 0.5, "den": 1}, {"num": "1", "den": 2}, {"num": True, "den": 1}]
)
def test_malformed_rational_raises(weight):
    with pytest.raises(SchemaError):
        frac_from_json(weight)


@pytest.mark.parametrize("doc", [[1, 2], "tester", 3, None])
def test_artifact_not_an_object_raises(doc):
    with pytest.raises(SchemaError):
        tester_from_json(doc)
    with pytest.raises(SchemaError):
        code_from_json(doc)


def test_huge_alphabet_refused_before_decoding_accept_sets():
    doc = tester_to_json(equality_tester(BIN, 2))
    doc["alphabet"]["size"] = 10**30
    with pytest.raises(CapacityError):
        tester_from_json(doc)
    doc["alphabet"] = {"kind": "vector", "p": 2, "dim": 10**12}
    with pytest.raises(CapacityError):
        tester_from_json(doc)


_TEXT = st.text(alphabet=st.sampled_from('aZ0 "\\/[],:{}\n\té€\u2028\U0001f600'), max_size=6)
_INTS = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
_LEAVES = st.none() | st.booleans() | _INTS | _TEXT
_INT_LISTS = st.lists(_INTS, max_size=4)
_DOCS = st.recursive(
    _LEAVES | _INT_LISTS | st.lists(_INT_LISTS, max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_dumps_matches_the_reference_encoder(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_BIG = st.integers(2**64 + 1, 2**70)


@st.composite
def _testers(draw):
    """A tester over a plain or vector alphabet whose checks have arities
    up to q and accept sets empty, full, of one bit or any; weights are
    small or past 2**64, equal ones often distinct Fraction objects."""
    alphabets = [Alphabet.plain(2), Alphabet.plain(3), vector_alphabet(2, 2), vector_alphabet(3, 1)]
    alphabet = draw(st.sampled_from(alphabets))
    n, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    part = st.integers(1, 5) | _BIG
    values = draw(st.lists(st.tuples(part, part), min_size=1, max_size=3))
    checks = []
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.integers(1, q))
        bits = alphabet.size**arity
        accept = draw(
            st.sampled_from([0, full_accept(alphabet.size, arity)])
            | st.integers(0, bits - 1).map(lambda b: 1 << b)
            | st.integers(0, 2**bits - 1)
        )
        queries = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity)))
        checks.append(Check(queries, accept, Fraction(*draw(st.sampled_from(values)))))
    return Tester(alphabet, n, q, tuple(checks))


def _nested(v, depth: int):
    """v held at the given depth, in lists and dicts by turns."""
    for level in range(depth):
        v = [v] if level % 2 else {"tester": v, "n": level}
    return v


@settings(max_examples=200, deadline=None)
@given(t=_testers())
def test_dumps_writes_a_tester_as_its_dict(t):
    # every nesting in one example: an accept text is rendered per nesting
    for depth in range(4):
        assert dumps(_nested(t, depth)) == dumps(_nested(tester_to_json(t), depth))
    assert tester_from_json(json.loads(dumps(t))) == t


def _as_dicts(v):
    """v with every Tester in it, in nested reports too, as its dict form
    `tester_to_json`: the reference `dumps` writes a report against."""
    if isinstance(v, Tester):
        return tester_to_json(v)
    if isinstance(v, PipelineReport):
        return _as_dicts(report_to_json(v))
    if isinstance(v, dict):
        return {k: _as_dicts(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_as_dicts(x) for x in v]
    return v


def _report_forms_agree(report: PipelineReport) -> None:
    # every nesting of one report: a tester's accept and weight texts are
    # rendered per nesting
    for depth in range(4):
        assert dumps(_nested(report, depth)) == dumps(_nested(_as_dicts(report), depth))


@pytest.mark.parametrize("kind", ["linear", "general", "semilinear"])
def test_dumps_writes_a_demo_report_as_its_dict(kind):
    report = run_reduction(kind, *demo_inputs(kind), DEMO_PARAMS[kind], seed=3)
    _report_forms_agree(report)
    # read back from its file: each tester's weights are then one Fraction
    # per distinct value
    again = report_from_json(json.loads(dumps(report)))
    assert dumps(again) == dumps(report)
    _report_forms_agree(again)


def test_dumps_writes_a_report_of_testers_read_from_files():
    code, tester, mu = demo_inputs("general")
    code = code_from_json(json.loads(dumps(code_to_json(code))))
    tester = tester_from_json(json.loads(dumps(tester)))
    _report_forms_agree(run_reduction("general", code, tester, mu, DEMO_PARAMS["general"]))


# Equal weights as distinct Fraction objects, and 1/2 and 1/3 sharing a
# numerator: a weight text looked up by numerator alone would write 1/3 as
# 1/2.
_SHARED_NUMERATORS = Tester(
    BIN,
    3,
    2,
    (
        Check((0, 1), 9, Fraction(1, 2)),
        Check((1, 2), 9, Fraction(1, 3)),
        Check((0, 2), 6, Fraction(1, 6)),
        Check((2, 0), 9, Fraction(1, 3) + 0),
        Check((1,), 1, Fraction(2, 4)),
    ),
)


@cache
def _desk_linear_report() -> PipelineReport:
    return run_reduction("linear", *demo_inputs("linear"), DEMO_PARAMS["linear"], seed=4)


@settings(max_examples=60, deadline=None)
@given(stages=st.lists(_testers(), min_size=1, max_size=3), inner=st.booleans())
def test_dumps_writes_a_report_of_testers_as_its_dict(stages, inner):
    # Testers anywhere in a report's parts, in lists and in a report nested
    # in its parameters, written at every nesting of the report.  The
    # reports are complete, so that their verdicts can be computed, and hold
    # the testers in promised and achieved under keys `certify` does not read.
    stages = [_SHARED_NUMERATORS] + stages
    desk = _desk_linear_report()
    params = {"seed": 4, "mu": Fraction(1, 3), "testers": stages[1:]}
    if inner:
        achieved = {**desk.achieved, "tester": stages[-1]}
        params["report"] = replace(desk, kind="general", params={"n": 1}, achieved=achieved, stages={"t": stages[0]})
    report = replace(
        desk, params=params, promised={**desk.promised, "tester": stages[-1]},
        achieved={**desk.achieved, "rate_tester": stages[0]}, stages={f"tester_{i}": t for i, t in enumerate(stages)},
    )
    _report_forms_agree(report)


def test_dumps_writes_equal_weights_once_and_numerators_apart():
    assert dumps(_SHARED_NUMERATORS) == dumps(tester_to_json(_SHARED_NUMERATORS))
    weights = [ch["weight"] for ch in json.loads(dumps(_SHARED_NUMERATORS))["checks"]]
    assert weights == [{"num": 1, "den": 2}, {"num": 1, "den": 3}, {"num": 1, "den": 6}, {"num": 1, "den": 3},
                       {"num": 1, "den": 2}]


def test_readers_size_each_accept_table_once_per_arity():
    # tester_from_json and the witness and certificate readers ask for
    # size**arity once per arity they meet, not once per check.
    fam, _ = generalized_long_code(2, Alphabet.plain(3))
    mixed = dependence_tester(fam, 2)
    mixed = Tester(mixed.alphabet, mixed.n, 2, mixed.checks + (Check((0,), 1, Fraction(1)),) * 3)
    eq = equality_tester(BIN, 4)
    witness = check_f_compatible(eq, compatibility_encoder(BIN, BIN, False))
    docs = [
        (tester_to_json(mixed), tester_from_json, 2),
        (witness_to_json(witness, 2), witness_from_json, 1),
        (certificate_to_json(check_separable(eq, 2)), certificate_from_json, 1),
    ]
    for doc, read, arities in docs:
        assert len(doc["checks"]) > arities
        with mock.patch("ltcforge.serialize.accept_bits", wraps=accept_bits) as sized:
            read(json.loads(dumps(doc)))
        assert sized.call_count == arities


def _shared_accept_docs():
    """(document, reader) for a tester, a witness and a certificate, each
    with two checks of one accept set over the 2**2 binary pairs, and the
    tester's of one weight."""
    eq = equality_tester(BIN, 3)
    witness = check_f_compatible(eq, compatibility_encoder(BIN, BIN, False))
    return [
        (tester_to_json(eq), tester_from_json),
        (witness_to_json(witness, 2), witness_from_json),
        (certificate_to_json(check_separable(eq, 2)), certificate_from_json),
    ]


@pytest.mark.parametrize("second", [[True], [1.0]])
def test_decoded_accept_sets_do_not_hide_a_later_bool_or_float(second):
    # True and 1.0 equal 1 as dict keys: every accept set is type-checked
    # before the first is decoded and kept
    for doc, read in _shared_accept_docs():
        doc["checks"][0]["accept"] = [1]
        doc["checks"][1]["accept"] = [1]
        assert read(json.loads(dumps(doc))) is not None
        doc["checks"][1]["accept"] = second
        what = read.__name__.removesuffix("_from_json")
        with pytest.raises(SchemaError, match=f"malformed {what}"):
            read(doc)


@pytest.mark.parametrize("second", [{"num": True, "den": 1}, {"num": 1, "den": 1.0}, {"num": 1, "den": 1, "x": 0}])
def test_decoded_weights_do_not_hide_a_later_malformed_weight(second):
    doc, _ = _shared_accept_docs()[0]
    doc["checks"][0]["weight"] = {"num": 1, "den": 1}
    doc["checks"][1]["weight"] = {"num": 1, "den": 1}
    assert tester_from_json(json.loads(dumps(doc))).checks[1].weight == 1
    doc["checks"][1]["weight"] = second
    with pytest.raises(SchemaError, match="malformed tester"):
        tester_from_json(doc)


def test_one_index_list_is_range_checked_at_each_arity():
    # [5] lies in the 3**2 pairs of three letters, not in the three letters
    tri = {"kind": "plain", "size": 3}
    checks = [{"queries": [0, 1], "accept": [5], "weight": {"num": 1, "den": 2}},
              {"queries": [0], "accept": [2], "weight": {"num": 1, "den": 2}}]
    doc = {"schema": "ltc-forge/tester-v2", "alphabet": tri, "n": 2, "q": 2, "checks": checks}
    assert tester_from_json(doc).checks[1].accept == 1 << 2
    checks[1]["accept"] = [5]
    with pytest.raises(SchemaError, match="indices in 0..2"):
        tester_from_json(doc)
    # the witness and certificate readers, over two letters: [3] at arities 2 and 1
    _, witness, certificate = _shared_accept_docs()
    witness[0]["checks"][1]["b"] = [1]
    certificate[0]["checks"][1]["maps"] = [[0, 1]]
    certificate[0]["checks"][1]["partitions"] = [[[0], [1]]]
    for doc, read in (witness, certificate):
        doc["checks"][0]["accept"] = [3]
        doc["checks"][1]["accept"] = [1]
        assert read(doc) is not None
        doc["checks"][1]["accept"] = [3]
        with pytest.raises(SchemaError, match="indices in 0..1"):
            read(doc)


def _collector_cases():
    """(call, exception or None) for dependence_tester and every reader,
    returning and raising."""
    fam, _ = generalized_long_code(2, Alphabet.plain(3))
    huge = tester_to_json(equality_tester(BIN, 2))
    huge["alphabet"]["size"] = 10**30
    cases = [
        (lambda: dependence_tester(fam, 2), None),
        (lambda: dependence_tester(fam, 2, budget=2), CapacityError),
        (lambda: tester_from_json(huge), CapacityError),
    ]
    for kind in ["tester", "code", "rate", "witness", "certificate", "soundness", "word", "report"]:
        doc, read = _valid_doc(kind)
        cases.append((lambda doc=doc, read=read: read(doc), None))
        cases.append((lambda read=read: read({"schema": 3}), SchemaError))
    return cases


def test_builders_and_readers_restore_the_collector():
    # dependence_tester and the readers pause the cyclic collector, and
    # turn it back on whether they return or raise
    assert gc.isenabled()
    for call, error in _collector_cases():
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled()


def test_builders_and_readers_leave_a_paused_collector_paused():
    gc.disable()
    try:
        for call, error in _collector_cases():
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_reader_leaves_the_collector_paused_until_the_outer_returns():
    # tester_from_json reads its alphabet through alphabet_from_json, itself
    # a reader: the collector stays off after the inner one returns
    real, seen = alphabet_from_json, []

    def inner(doc):
        out = real(doc)
        seen.append(gc.isenabled())
        return out

    with mock.patch("ltcforge.serialize.alphabet_from_json", side_effect=inner):
        tester_from_json(tester_to_json(equality_tester(BIN, 3)))
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("position", [np.int64(1), 1.0, True], ids=["numpy", "float", "bool"])
def test_tester_refuses_a_query_position_that_is_no_int(position):
    # each equals 1, and so is one member of the position set {0, 1}; `dumps`
    # could not write it (a numpy integer or a float) or wrote `true`, which
    # tester_from_json refuses
    with pytest.raises(DomainError, match="tuples of int positions"):
        Tester(BIN, 2, 2, (Check((0, 1), 9, Fraction(1, 2)), Check((position, 1), 6, Fraction(1, 2))))


def test_a_tester_with_an_int_weight_reads_back_equal():
    t = Tester(BIN, 2, 2, (Check((0, 1), 9, 1),))
    assert tester_from_json(json.loads(dumps(t))) == t


@pytest.mark.parametrize(
    "doc",
    [{"x": 0.5}, [1, 2.0], {1: "a"}, {"a": (1, 2)}, [[1, 2], (3,)], {"a": object()}, [0, np.int64(1)]],
)
def test_dumps_refuses_values_outside_the_artifact_types(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_no_module_calls_json_dumps():
    # The text format has one home, serialize.dumps.
    calls = []
    for path in sorted(Path(ltcforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "dumps":
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                calls += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "dumps"]
    assert calls == []


def _package_trees():
    paths = sorted(Path(ltcforge.__file__).parent.glob("*.py"))
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_no_module_imports_an_unused_name():
    # Every name a module of the package or of its tests imports is read in
    # that module.
    trees = _package_trees()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        trees[f"tests/{path.name}"] = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for name, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in read]
    assert unused == []


def test_every_private_function_is_referenced():
    # A module-level function named with a leading underscore is called,
    # passed or imported somewhere in the package, or it is dead.
    trees = _package_trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name[0] == "_" and node.name not in referenced
    ]
    assert dead == []


def test_every_public_function_is_referenced():
    # A module-level public function of the package is named, read as an
    # attribute or imported somewhere in the package, its tests, the
    # benchmark or the scripts, besides its own definition; else it is dead.
    root = Path(ltcforge.__file__).parents[2]
    referenced = set()
    for path in [p for d in ("src", "tests", "perfbench", "scripts") for p in sorted((root / d).rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _package_trees().items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_" and node.name not in referenced
    ]
    assert dead == []

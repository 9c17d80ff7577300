"""Round-trip identity for every serialized artifact."""

import ast
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltcforge
from ltcforge.algebra import Field, VecSpace
from ltcforge.codes import Alphabet, Word, rate, repetition_code, vector_alphabet
from ltcforge.concat import check_f_compatible
from ltcforge.constructions import dependence_tester, generalized_long_code
from ltcforge.errors import CapacityError, SchemaError
from ltcforge.pipeline import linear_reduction, semilinear_reduction
from ltcforge.separability import check_separable, compatibility_encoder, separable_replacement
from ltcforge.serialize import (
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
    roundtrip,
    soundness_from_json,
    soundness_to_json,
    tester_from_json,
    tester_to_json,
    witness_from_json,
    witness_to_json,
    word_from_json,
    word_to_json,
)
from ltcforge.testers import equality_tester, soundness_exact, soundness_sampled

BIN = Alphabet.plain(2)


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
    # 2^16 words over a budget of 2^14: the separator engine decides
    wide = equality_tester(BIN, 16)
    separated = soundness_exact(wide, repetition_code(BIN, 16), budget=2**14)
    assert roundtrip(separated) == separated and separated.engine == "separator"
    assert soundness_to_json(separated)["engine"] == "separator"


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
    return report_to_json(report), report_from_json


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
    ],
)
def test_malformed_document_raises_schema_error(kind, corrupt):
    # The first six once escaped their reader as a KeyError or a TypeError;
    # the others, a non-integer where an integer belongs, were read as valid.
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
    "weight", [{"num": 1, "den": 0}, {"num": 0.5, "den": 1}, {"num": "1", "den": 2}]
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


@pytest.mark.parametrize(
    "doc", [{"x": 0.5}, [1, 2.0], {1: "a"}, {"a": (1, 2)}, [[1, 2], (3,)], {"a": object()}]
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

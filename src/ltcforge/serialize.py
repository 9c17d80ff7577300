"""JSON formats for every artifact, exact and deterministic.

Rationals are {num, den} integer pairs and rates carry their symbolic log
form; nothing is ever converted through floating point.  Every document
has a versioned "schema" field.  Dumping is canonical (sorted keys, fixed
indentation), so identical artifacts serialize to identical bytes.

`dumps` is the one text encoder of the package.  Its output is byte for
byte that of `json.dumps` with `sort_keys=True` and an indent of 2, plus a
final newline, but it takes only the types artifacts are made of: dicts
with str keys, lists, str, int, bool and None.  Anything else, a float
included, raises TypeError, so "never through floating point" is enforced
at the last step; an int of more digits than Python converts to text
raises ForgeError.  A list of ints is laid out from its one `repr` by
string replacement: accept sets are such lists, the bulk of every tester.

`dumps` is the one writer of a `Tester` and a `PipelineReport` too.  It
takes a tester as a value and writes it straight from its checks: each
distinct accept set and weight is rendered once, and a check's text is the
one of its accept set, its query positions and the one of its weight,
joined.  A report it writes from `report_to_json(r)`, which, like
`value_to_json`, holds each tester and nested report as the object itself
under its tag.  `tester_to_json` stays the dict form of a tester, the
reference the tests hold the written text to, byte for byte.  Every
`Tester` can be written and reads back equal: it admits only ints for
positions and accept sets and ints or Fractions for weights.

An accept set (of a tester check, a witness entry or a certificate check)
is the strictly ascending list of its accepted tuple indices, the index of
(t_0, ..., t_{q-1}) being sum t_l * size**l: the bit order of the bitsets
in `testers`, which hold them.

Query positions are 0-based here and throughout the package.  Readers
raise SchemaError for a non-integer where an integer belongs, a JSON true
or false included, and for any value `dumps` could not write back, such as
a float in a report; `_reader` turns every missing key or value of the
wrong type or shape into one.

Readers pay per distinct item where they can.  The tester, witness and
certificate readers decode each distinct (arity, accept index list) once,
and the tester reader builds one Fraction per distinct (num, den).  The
types of every list and pair are tested first, in passes over the whole
document, because True and 1.0 equal 1 as keys.  `_reader` also runs each
reader with the cyclic garbage collector paused (`testers.gc_paused`): a
reader builds one object per check and no reference cycle, so reference
counting frees what it drops, and the collector's passes would only walk
every object the process holds.  The package runs in one thread, so
nothing else allocates while the collector is off.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter
from types import NoneType
from typing import Any, Callable, Iterable

from .codes import Alphabet, Code, Rate, Word, vector_alphabet
from .concat import CompatibilityWitness, Encoder, WitnessEntry
from .constructions import FunctionFamily
from .errors import CapacityError, ForgeError, SchemaError
from .pipeline import IncompleteReportError, PipelineReport, certify
from .separability import CheckCertificate, SeparabilityCertificate
from .testers import (
    Check,
    SoundnessReport,
    Tester,
    accept_bits,
    accept_from_indices,
    gc_paused,
    indices_from_accept,
)

SCHEMAS = {
    "code": "ltc-forge/code-v1",
    "tester": "ltc-forge/tester-v2",
    "family": "ltc-forge/family-v1",
    "encoder": "ltc-forge/encoder-v1",
    "witness": "ltc-forge/witness-v2",
    "certificate": "ltc-forge/certificate-v2",
    "soundness": "ltc-forge/soundness-v2",
    "report": "ltc-forge/report-v2",
    "verify": "ltc-forge/verify-v1",
}


def dumps(doc: dict | Tester | PipelineReport) -> str:
    try:
        return _encode(doc, "\n") + "\n"
    except ValueError as exc:  # an int past Python's limit on int-to-str digits
        raise ForgeError(f"cannot write the output ({exc})") from None


def _encode(v: Any, nl: str) -> str:
    """The text of v at the nesting given by nl, a newline plus the
    indentation of the line v starts on."""
    t = type(v)
    if t is str:
        return _string(v)
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is list:
        if not v:
            return "[]"
        inner = nl + "  "
        if set(map(type, v)) == {int}:
            return "[" + inner + repr(v)[1:-1].replace(", ", "," + inner) + nl + "]"
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in v]) + nl + "]"
    if t is dict:
        if not v:
            return "{}"
        inner = nl + "  "
        parts = []
        for key, x in sorted(v.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            tx = type(x)
            text = int.__repr__(x) if tx is int else _string(x) if tx is str else _encode(x, inner)
            parts.append(_string(key) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if isinstance(v, Tester):
        return _encode_tester(v, nl)
    if isinstance(v, PipelineReport):
        return _encode(report_to_json(v), nl)
    raise TypeError(f"{t.__name__} has no JSON form here")


def _encode_tester(t: Tester, nl: str) -> str:
    """The text of tester_to_json(t) at the nesting given by nl."""
    inner = nl + "  "
    at = inner + "  "  # a check
    key = at + "  "  # a member of a check
    item = key + "  "  # a query position
    # a check's text is a head fixed by its accept set, its positions and a
    # tail fixed by its weight; a head opens with the comma that separates
    # the check from the one before, dropped before the first
    heads: dict[int, str] = {}
    tails: dict[int, str] = {}  # by id: the tester holds every weight
    valued: dict[tuple[int, int], str] = {}  # by value: equal weights may be distinct objects
    name = list(map(str, range(t.n))).__getitem__  # `Tester` holds int positions below n
    sep = "," + item
    parts = []
    for ch in t.checks:
        if (head := heads.get(ch.accept)) is None:
            accept = _encode(indices_from_accept(ch.accept), key)
            head = "," + at + "{" + key + '"accept": ' + accept + "," + key + '"queries": [' + item
            heads[ch.accept] = head
        if (tail := tails.get(id(ch.weight))) is None:
            value = ch.weight.numerator, ch.weight.denominator
            if (tail := valued.get(value)) is None:
                weight = _encode(frac_to_json(ch.weight), key)
                tail = valued[value] = key + "]," + key + '"weight": ' + weight + at + "}"
            tails[id(ch.weight)] = tail
        parts += head, sep.join(map(name, ch.queries)), tail
    checks = "[" + "".join(parts)[1:] + inner + "]" if parts else "[]"
    return (
        "{" + inner + '"alphabet": ' + _encode(alphabet_to_json(t.alphabet), inner)
        + "," + inner + '"checks": ' + checks
        + "," + inner + '"n": ' + _encode(t.n, inner)
        + "," + inner + '"q": ' + _encode(t.q, inner)
        + "," + inner + '"schema": ' + _string(SCHEMAS["tester"]) + nl + "}"
    )


def _reader(read):
    """The reader `read`, with KeyError, TypeError, ValueError and
    IncompleteReportError raised as SchemaError, run with the cyclic
    collector paused (`gc_paused`)."""
    what = read.__name__.removesuffix("_from_json")

    @gc_paused
    @wraps(read)
    def checked(doc: Any):
        try:
            return read(doc)
        except (KeyError, TypeError, ValueError, IncompleteReportError) as exc:
            raise SchemaError(f"malformed {what} ({exc!r})") from None

    return checked


def _expect(doc: Any, kind: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a {SCHEMAS[kind]} object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMAS[kind]:
        raise SchemaError(f"expected schema {SCHEMAS[kind]}, got {doc.get('schema')!r}")


def _typed(v: Any, *types: type) -> Any:
    """v if its type is one of types; TypeError, which the readers raise as
    SchemaError, for anything else, a bool where an int belongs included."""
    if type(v) not in types:
        raise TypeError(f"not a {' or '.join(t.__name__ for t in types)}: {v!r}")
    return v


def _ints(v: Any) -> tuple[int, ...]:
    """The list of ints v as a tuple, its types tested in one pass, or
    TypeError as in `_int`."""
    if type(v) is not list or set(map(type, v)) - {int}:
        raise TypeError("not a list of integers")
    return tuple(v)


def _int_lists(docs: Iterable, key: str) -> list[list[int]]:
    """doc[key] for each doc in docs, or TypeError as in `_ints` unless each
    is a list of ints: their types are tested first, in two passes over all
    of them, so no bool or float is ever used as a key."""
    get = itemgetter(key)
    if set(map(type, map(get, docs))) - {list} or set(map(type, chain.from_iterable(map(get, docs)))) - {int}:
        raise TypeError(f"not a list of integers at {key!r}")
    return list(map(get, docs))


def _decoded(keys: Iterable, docs: Iterable, decode: Callable) -> list:
    """[decode(doc) for doc in docs], decode called once per distinct key:
    the i-th key is the i-th doc's, and docs of one key decode alike."""
    values, out = {}, []
    for key, doc in zip(keys, docs):
        if (value := values.get(key)) is None:
            value = values[key] = decode(doc)
        out.append(value)
    return out


def frac_to_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def frac_from_json(d: Any) -> Fraction:
    if not (
        isinstance(d, dict)
        and set(d) == {"num", "den"}
        and type(d["num"]) is int
        and type(d["den"]) is int
        and d["den"] != 0
    ):
        raise SchemaError(f"not a rational: {d!r}")
    return Fraction(d["num"], d["den"])


def _fractions(docs: list) -> list[Fraction]:
    """frac_from_json of each doc, one Fraction per distinct (num, den).
    Every doc is type-checked first, in passes over all of them: a JSON
    true is not 1, nor is 1.0."""
    pair = itemgetter("num", "den")
    if set(map(len, docs)) - {2} or set(map(type, chain.from_iterable(map(pair, docs)))) - {int}:
        raise TypeError("not a list of rationals")
    return _decoded(map(pair, docs), docs, frac_from_json)


def _accept_sets(docs: list, arities: list[int], size: int) -> list[int]:
    """The accept bitset of each doc's "accept", a strictly ascending list
    of tuple indices below size**arity at the doc's arity.  Every list is
    type-checked before any is a key, each table is sized once per arity
    and an oversized one refused before anything is decoded, and each
    distinct (arity, list) is decoded once."""
    try:
        tables = {arity: accept_bits(size, arity) for arity in dict.fromkeys(arities)}
    except CapacityError as exc:
        raise SchemaError(f"accept set too large: {exc}") from None
    lists = _int_lists(docs, "accept")

    def decode(doc: tuple[int, list[int]]) -> int:
        arity, indices = doc
        if indices and not (
            0 <= indices[0]
            and indices[-1] < tables[arity]
            and all(map(int.__lt__, indices, indices[1:]))
        ):
            raise SchemaError(
                f"accept set is not a strictly ascending list of indices in 0..{tables[arity] - 1}"
            )
        return accept_from_indices(indices)

    return _decoded(zip(arities, map(tuple, lists)), zip(arities, lists), decode)


def alphabet_to_json(a: Alphabet) -> dict:
    if a.space is not None:
        return {"kind": "vector", "p": a.space.field.p, "dim": a.space.dim}
    return {"kind": "plain", "size": a.size}


@_reader
def alphabet_from_json(d: Any) -> Alphabet:
    # letters are int64 in the soundness kernels: 2**63 or more are refused
    if d["kind"] == "plain":
        if (size := _typed(d["size"], int)) >= 2**63:
            raise CapacityError(size, 2**63 - 1, "plain alphabet")
        return Alphabet.plain(size)
    if d["kind"] == "vector":
        return vector_alphabet(_typed(d["p"], int), _typed(d["dim"], int))
    raise SchemaError(f"unknown alphabet kind {d['kind']!r}")


def code_to_json(c: Code) -> dict:
    return {
        "schema": SCHEMAS["code"],
        "alphabet": alphabet_to_json(c.alphabet),
        "n": c.n,
        "codewords": [list(w) for w in c.codewords],
    }


@_reader
def code_from_json(doc: Any) -> Code:
    _expect(doc, "code")
    alphabet = alphabet_from_json(doc["alphabet"])
    words = tuple(_ints(w) for w in doc["codewords"])
    return Code(alphabet, _typed(doc["n"], int), words)


def word_to_json(w: Word) -> dict:
    return {"alphabet": alphabet_to_json(w.alphabet), "letters": list(w.letters)}


@_reader
def word_from_json(d: Any) -> Word:
    return Word(alphabet_from_json(d["alphabet"]), _ints(d["letters"]))


def tester_to_json(t: Tester) -> dict:
    return {
        "schema": SCHEMAS["tester"],
        "alphabet": alphabet_to_json(t.alphabet),
        "n": t.n,
        "q": t.q,
        "checks": [
            {
                "queries": list(ch.queries),
                "accept": indices_from_accept(ch.accept),
                "weight": frac_to_json(ch.weight),
            }
            for ch in t.checks
        ],
    }


@_reader
def tester_from_json(doc: Any) -> Tester:
    _expect(doc, "tester")
    alphabet = alphabet_from_json(doc["alphabet"])
    n, q, docs = _typed(doc["n"], int), _typed(doc["q"], int), doc["checks"]
    queries = list(map(tuple, _int_lists(docs, "queries")))
    accepts = _accept_sets(docs, list(map(len, queries)), alphabet.size)
    weights = _fractions(list(map(itemgetter("weight"), docs)))
    return Tester(alphabet, n, q, tuple(map(Check, queries, accepts, weights)))


def family_to_json(f: FunctionFamily) -> dict:
    return {
        "schema": SCHEMAS["family"],
        "domain_size": f.domain_size,
        "target": alphabet_to_json(f.target),
        "tables": [list(t) for t in f.tables],
    }


@_reader
def family_from_json(doc: Any) -> FunctionFamily:
    _expect(doc, "family")
    target = alphabet_from_json(doc["target"])
    tables = tuple(_ints(t) for t in doc["tables"])
    return FunctionFamily(_typed(doc["domain_size"], int), target, tables)


def encoder_to_json(e: Encoder) -> dict:
    doc = family_to_json(e.family)
    doc["schema"] = SCHEMAS["encoder"]
    doc["injective"] = True
    return doc


def encoder_from_json(doc: Any) -> Encoder:
    _expect(doc, "encoder")
    return Encoder(family_from_json({**doc, "schema": SCHEMAS["family"]}))


def witness_to_json(w: CompatibilityWitness, target_size: int) -> dict:
    return {
        "schema": SCHEMAS["witness"],
        "target_size": target_size,
        "checks": [
            {
                "b": list(e.positions),
                "accept": indices_from_accept(e.accept),
            }
            for e in w.entries
        ],
    }


@_reader
def witness_from_json(doc: Any) -> CompatibilityWitness:
    _expect(doc, "witness")
    size, docs = _typed(doc["target_size"], int), doc["checks"]
    positions = list(map(tuple, _int_lists(docs, "b")))
    accepts = _accept_sets(docs, list(map(len, positions)), size)
    return CompatibilityWitness(tuple(map(WitnessEntry, positions, accepts)))


def certificate_to_json(c: SeparabilityCertificate) -> dict:
    return {
        "schema": SCHEMAS["certificate"],
        "delta_size": c.delta_size,
        "linear": c.linear,
        "checks": [
            {
                "partitions": [[list(cls) for cls in coord] for coord in chk.partitions],
                "maps": [list(m) for m in chk.coord_maps],
                "accept": indices_from_accept(chk.accept),
                "subspaces": None
                if chk.subspaces is None
                else [[list(v) for v in basis] for basis in chk.subspaces],
            }
            for chk in c.checks
        ],
    }


@_reader
def certificate_from_json(doc: Any) -> SeparabilityCertificate:
    _expect(doc, "certificate")
    size, linear, docs = _typed(doc["delta_size"], int), _typed(doc["linear"], bool), doc["checks"]
    maps = [tuple(_ints(m) for m in chk["maps"]) for chk in docs]
    accepts = _accept_sets(docs, list(map(len, maps)), size)
    checks = []
    for chk, coord_maps, accept in zip(docs, maps, accepts):
        if (bases := chk["subspaces"]) is not None:
            bases = tuple(tuple(_ints(v) for v in basis) for basis in bases)
        if (bases is None) == linear:
            raise ValueError("subspaces must be listed exactly when linear is true")
        checks.append(cert := CheckCertificate(coord_maps, accept, bases))
        if tuple(tuple(_ints(cls) for cls in coord) for coord in chk["partitions"]) != cert.partitions:
            raise ValueError("partitions are not the fibers of the maps")
    return SeparabilityCertificate(size, linear, tuple(checks))


def soundness_to_json(r: SoundnessReport) -> dict:
    return {
        "schema": SCHEMAS["soundness"],
        "mode": r.mode,
        "value": None if r.value is None else frac_to_json(r.value),
        "infinite": r.infinite,
        "witness": None if r.witness is None else word_to_json(r.witness),
        "bound": None if r.bound is None else frac_to_json(r.bound),
        "verdict": r.verdict,
        "trials": r.trials,
        "seed": r.seed,
        "engine": r.engine,
    }


@_reader
def soundness_from_json(doc: Any) -> SoundnessReport:
    _expect(doc, "soundness")
    r = SoundnessReport(
        _typed(doc["engine"], str, NoneType),
        None if doc["value"] is None else frac_from_json(doc["value"]),
        None if doc["witness"] is None else word_from_json(doc["witness"]),
        None if doc["bound"] is None else frac_from_json(doc["bound"]),
        _typed(doc["trials"], int, NoneType),
        _typed(doc["seed"], int, NoneType),
    )
    if (doc["mode"], _typed(doc["infinite"], bool), doc["verdict"]) != (r.mode, r.infinite, r.verdict):
        raise ValueError("mode, infinite or verdict contradicts engine, value and bound")
    return r


def rate_to_json(r: Rate) -> dict:
    return {
        "scalar": frac_to_json(r.scalar),
        "log_num": r.log_num,
        "log_base": r.log_base,
    }


@_reader
def rate_from_json(d: Any) -> Rate:
    return Rate(frac_from_json(d["scalar"]), _typed(d["log_num"], int), _typed(d["log_base"], int))


# ---------------------------------------------------------------------------
# Tagged values for heterogeneous report dictionaries
# ---------------------------------------------------------------------------


def value_to_json(v: Any) -> Any:
    """The tagged form of v: each artifact under its $tag, a Tester or a
    PipelineReport, in nested reports too, as the object itself, which
    `dumps` writes."""
    for tag, (cls, to_json, _) in _TAGS.items():
        if isinstance(v, cls):
            return {tag: v if to_json is None else to_json(v)}
    if isinstance(v, dict):
        return {k: value_to_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [value_to_json(x) for x in v]
    if v is None or isinstance(v, (bool, int, str)):
        return v
    raise SchemaError(f"value of type {type(v).__name__} has no JSON form")


def value_from_json(v: Any) -> Any:
    """The value of a tagged form; TypeError, which the readers raise as
    SchemaError, for a leaf `dumps` cannot write back, a float included."""
    if isinstance(v, dict):
        if len(v) == 1:
            ((tag, inner),) = v.items()
            if tag in _TAGS:
                return _TAGS[tag][2](inner)
        return {k: value_from_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [value_from_json(x) for x in v]
    if v is None or type(v) in (bool, int, str):
        return v
    raise TypeError(f"no JSON value of type {type(v).__name__}")


def report_to_json(r: PipelineReport) -> dict:
    """The report's document, its testers and nested reports left as
    objects under their tags, for `dumps` to write."""
    stages = dict(r.stages)
    witness = stages.pop("witness", None)
    doc = {
        "schema": SCHEMAS["report"],
        "kind": r.kind,
        "params": value_to_json(r.params),
        "promised": value_to_json(r.promised),
        "achieved": value_to_json(r.achieved),
        "stages": value_to_json(stages),
        "verdicts": dict(r.verdicts),
        "overall": r.overall,
    }
    if witness is not None:
        target_size = r.stages["encoder"].target.size
        doc["stages"]["witness"] = witness_to_json(witness, target_size)
    return doc


@_reader
def report_from_json(doc: Any) -> PipelineReport:
    _expect(doc, "report")
    stages_doc = dict(doc["stages"])
    witness_doc = stages_doc.pop("witness", None)
    stages = value_from_json(stages_doc)
    if witness_doc is not None:
        stages["witness"] = witness_from_json(witness_doc)
    report = PipelineReport(
        kind=_typed(doc["kind"], str),
        params=value_from_json(doc["params"]),
        promised=value_from_json(doc["promised"]),
        achieved=value_from_json(doc["achieved"]),
        stages=stages,
    )
    if {"verdicts": doc["verdicts"], "overall": doc["overall"]} != (computed := certify(report)):
        raise ValueError(f"verdicts and overall {doc['overall']!r} differ from the recomputed {computed}")
    return report


# $tag -> (type, to_json, from_json) for every artifact that stands alone.
# A Tester and a PipelineReport have no to_json here: they stay objects,
# and `dumps` writes them.
_TAGS = {
    "$frac": (Fraction, frac_to_json, frac_from_json),
    "$rate": (Rate, rate_to_json, rate_from_json),
    "$soundness": (SoundnessReport, soundness_to_json, soundness_from_json),
    "$code": (Code, code_to_json, code_from_json),
    "$tester": (Tester, None, tester_from_json),
    "$encoder": (Encoder, encoder_to_json, encoder_from_json),
    "$word": (Word, word_to_json, word_from_json),
    "$certificate": (SeparabilityCertificate, certificate_to_json, certificate_from_json),
    "$family": (FunctionFamily, family_to_json, family_from_json),
    "$report": (PipelineReport, None, report_from_json),
}

"""The shipped JSON schemas, the package's walker of them, and jsonschema.

``src/cuspcheck/schemas/`` describe the three input documents, and the
package validates their structure by walking them with
``cuspcheck.schema``, a subset of draft 2020-12; each ``from_data`` adds
only what no schema states.  These tests run ``jsonschema`` as an
independent oracle on one corpus and require that the walker alone, and
``from_data`` as a whole, reject everything the schema rejects, at the
schema's pointer or below it, and that a document the schema accepts
either parses or fails with InputValidationError.
"""

import copy
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from cuspcheck import DelzantPolytope, MomentConfiguration, schema, spectra_from_data
from cuspcheck.errors import InputValidationError

DATA = Path(__file__).parent / "data"

PARSERS = {
    "polytope-v1": DelzantPolytope.from_data,
    "moment-configuration-v1": MomentConfiguration.from_data,
    "spectra-v1": spectra_from_data,
}


def _validator(kind):
    text = resources.files("cuspcheck").joinpath(f"schemas/{kind}.json").read_text()
    schema = json.loads(text)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


VALIDATORS = {kind: _validator(kind) for kind in PARSERS}


def _load(name):
    return json.loads((DATA / name).read_text())


VALID = [
    ("polytope-v1", _load("simplex2.json")),
    ("polytope-v1", _load("lopsided.json")),
    ("polytope-v1", _load("golden/blowup.json")["result"]["polytope"]),
    ("polytope-v1", _load("golden/tower.json")["result"]["polytope"]),
    ("moment-configuration-v1", _load("config3d.json")),
    ("moment-configuration-v1", _load("config-unbalanced.json")),
    ("spectra-v1", _load("trivial.json")),
    (
        "spectra-v1",
        {
            "pairs": [{"lambda": 2.5, "mu": 1.25, "mult": 3}],
            "scale": 2,
            "coefficients": {"square": 1.0, "mixed": 2.0, "linear": 1.0},
        },
    ),
]

SIMPLEX = _load("simplex2.json")
CONFIG = _load("config3d.json")


def _with(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


# Documents the schema rejects and from_data once accepted or reported
# above the schema's pointer.
DISAGREEMENTS = {
    "empty label": ("polytope-v1", _with(SIMPLEX, ("facets", 0, "label"), "")),
    "null label": ("polytope-v1", _with(SIMPLEX, ("facets", 0, "label"), None)),
    "padded offset": ("polytope-v1", _with(SIMPLEX, ("facets", 0, "offset"), " 0 ")),
    "leading space": ("polytope-v1", _with(SIMPLEX, ("facets", 2, "offset"), " -1")),
    "arabic-indic offset": (
        "polytope-v1",
        _with(SIMPLEX, ("facets", 0, "offset"), "٠"),
    ),
    "non-integer normal entry": (
        "polytope-v1",
        _with(SIMPLEX, ("facets", 0, "normal", 1), "0"),
    ),
    "padded weight": ("moment-configuration-v1", _with(CONFIG, ("weights", 0), " 1")),
    "arabic-indic weight": (
        "moment-configuration-v1",
        _with(CONFIG, ("weights", 0), "١"),
    ),
    "empty point": ("moment-configuration-v1", _with(CONFIG, ("points",), [[]])),
    "empty basis vector": ("moment-configuration-v1", _with(CONFIG, ("t_basis",), [[]])),
    "empty points": ("moment-configuration-v1", _with(CONFIG, ("points",), [])),
    "empty weights": ("moment-configuration-v1", _with(CONFIG, ("weights",), [])),
    "empty eval_matrix": ("moment-configuration-v1", _with(CONFIG, ("eval_matrix",), [])),
    "null eval_matrix": ("moment-configuration-v1", _with(CONFIG, ("eval_matrix",), None)),
    "zero-length everything": (
        "moment-configuration-v1",
        {"n": 2, "points": [[]], "weights": [1], "t_basis": [], "eval_matrix": [[]]},
    ),
    "null coefficients": ("spectra-v1", {"pairs": [{"lambda": 0, "mu": 0}], "coefficients": None}),
    "negative lambda": ("spectra-v1", {"pairs": [{"lambda": -1, "mu": 0}]}),
    "negative mu": ("spectra-v1", {"pairs": [{"lambda": 0, "mu": -0.5}]}),
}


# Documents the schema accepts but from_data must refuse, and only ever
# with InputValidationError.
SEMANTIC_REJECTS = {
    "empty polytope": _with(SIMPLEX, ("facets", 2, "offset"), 1),
    "unbounded polytope": _with(SIMPLEX, ("facets",), SIMPLEX["facets"][:2]),
    "repeated label": _with(SIMPLEX, ("facets", 1, "label"), "x"),
    "non-primitive normal": _with(SIMPLEX, ("facets", 2, "normal"), [-2, -2]),
    "zero denominator": _with(SIMPLEX, ("facets", 0, "offset"), "1/0"),
}


def _pointer(path):
    return "".join(f"/{p}" for p in path)


def _at_or_below(pointer, ancestor):
    return pointer == ancestor or pointer.startswith(ancestor + "/")


def _assert_at_or_below(name, pointers, schema_pointers):
    for p in pointers:
        assert any(_at_or_below(p, s) for s in schema_pointers), (
            f"{name} reports {p!r}, schema reports {sorted(schema_pointers)}"
        )
    for s in schema_pointers:
        assert any(_at_or_below(p, s) for p in pointers), (
            f"schema reports {s!r}, {name} reports {pointers}"
        )


def check_agreement(kind, doc):
    """Run the schema, the walker and from_data on one document and compare."""
    schema_pointers = {
        _pointer(e.absolute_path) for e in VALIDATORS[kind].iter_errors(doc)
    }
    walked = [p for p, _ in schema.violations(kind, doc)]
    try:
        PARSERS[kind](doc)
    except InputValidationError as exc:
        pointers = [p for p, _ in exc.errors]
    else:
        pointers = None
    if not schema_pointers:
        return
    assert pointers is not None, f"schema rejects at {sorted(schema_pointers)}"
    _assert_at_or_below("schema.violations", walked, schema_pointers)
    _assert_at_or_below("from_data", pointers, schema_pointers)


def test_schema_files_ship_and_are_valid_schemas():
    for kind in PARSERS:
        assert kind in VALIDATORS[kind].schema["$id"]


# The draft 2020-12 keywords cuspcheck.schema implements, with the
# annotations it ignores; a schema using any other would be half-checked.
WALKED_KEYWORDS = {
    "$schema", "$id", "$defs", "$ref", "title", "description", "type",
    "required", "properties", "additionalProperties", "items", "minItems",
    "minLength", "minimum", "exclusiveMinimum", "pattern", "oneOf",
}


def _subschemas(node):
    yield node
    children = [*node.get("properties", {}).values(), *node.get("$defs", {}).values()]
    children += [node["items"]] if "items" in node else []
    for child in children + node.get("oneOf", []):
        yield from _subschemas(child)


def test_walker_implements_every_keyword_the_schemas_use():
    # The walker also needs a "type" on every subschema that is not a
    # oneOf or a bare $ref, and additionalProperties only ever false.
    for kind, validator in VALIDATORS.items():
        for node in _subschemas(validator.schema):
            assert set(node) <= WALKED_KEYWORDS, (kind, node)
            assert "type" in node or "oneOf" in node or set(node) == {"$ref"}, (kind, node)
            assert node.get("additionalProperties", False) is False, (kind, node)


@pytest.mark.parametrize("index", range(len(VALID)))
def test_valid_corpus_accepted_by_both(index):
    kind, doc = VALID[index]
    assert not list(VALIDATORS[kind].iter_errors(doc))
    assert schema.violations(kind, doc) == []
    PARSERS[kind](doc)


@pytest.mark.parametrize("case", sorted(DISAGREEMENTS))
def test_former_disagreements_now_agree(case):
    kind, doc = DISAGREEMENTS[case]
    assert list(VALIDATORS[kind].iter_errors(doc)), "case must violate the schema"
    with pytest.raises(InputValidationError):
        PARSERS[kind](doc)
    check_agreement(kind, doc)


@pytest.mark.parametrize("case", sorted(SEMANTIC_REJECTS))
def test_schema_valid_polytopes_refused_as_input_errors(case):
    doc = SEMANTIC_REJECTS[case]
    assert not list(VALIDATORS["polytope-v1"].iter_errors(doc))
    assert schema.violations("polytope-v1", doc) == []
    with pytest.raises(InputValidationError):
        DelzantPolytope.from_data(doc)


def test_disagreement_pointers():
    def pointers(case):
        kind, doc = DISAGREEMENTS[case]
        with pytest.raises(InputValidationError) as err:
            PARSERS[kind](doc)
        return [p for p, _ in err.value.errors]

    assert pointers("empty label") == ["/facets/0/label"]
    assert pointers("padded offset") == ["/facets/0/offset"]
    assert pointers("non-integer normal entry") == ["/facets/0/normal/1"]
    assert pointers("empty points") == ["/points"]
    assert pointers("empty weights") == ["/weights"]
    assert pointers("empty eval_matrix") == ["/eval_matrix"]
    assert pointers("null eval_matrix") == ["/eval_matrix"]
    assert pointers("zero-length everything") == ["/eval_matrix/0", "/points/0"]
    assert pointers("empty basis vector") == ["/t_basis/0"]
    assert pointers("null coefficients") == ["/coefficients"]
    assert pointers("negative lambda") == ["/pairs/0/lambda"]


# Mutations of the valid corpus: drop a key, add an unknown key, replace a
# value by one of another type, empty an array, pad or re-digit a rational.

REPLACEMENTS = [None, True, 0, -1, 1.5, "x", "1/2", [], {}]
FOREIGN_ZEROS = ["٠", "०", "０"]  # Arabic-Indic, Devanagari, fullwidth


def _paths(node, prefix=()):
    yield prefix, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _redigit(text, digits):
    return "".join(digits[int(c)] if c in "0123456789" else c for c in text)


@st.composite
def mutated_documents(draw):
    kind, base = draw(st.sampled_from(VALID))
    nodes = list(_paths(base))
    mutation = draw(st.sampled_from(["drop", "add", "replace", "empty", "rational"]))
    if mutation in ("drop", "add"):
        dicts = [(p, n) for p, n in nodes if isinstance(n, dict)]
        path, node = draw(st.sampled_from(dicts))
        doc = copy.deepcopy(base)
        target = doc
        for step in path:
            target = target[step]
        if mutation == "drop":
            del target[draw(st.sampled_from(sorted(node)))]
        else:
            target["zz_unknown"] = draw(st.sampled_from(REPLACEMENTS))
        return kind, doc
    if mutation == "replace":
        path, _ = draw(st.sampled_from(nodes[1:]))
        return kind, _with(base, path, draw(st.sampled_from(REPLACEMENTS)))
    if mutation == "empty":
        lists = [(p, n) for p, n in nodes if isinstance(n, list)]
        path, _ = draw(st.sampled_from(lists))
        return kind, _with(base, path, [])
    scalars = [
        (p, n) for p, n in nodes if isinstance(n, (int, str)) and not isinstance(n, bool)
    ]
    path, node = draw(st.sampled_from(scalars))
    text = str(node)
    pad = draw(st.sampled_from([" ", "\t", "\n"]))
    style = draw(st.sampled_from(["pad-left", "pad-right", "foreign", "ascii"]))
    if style == "pad-left":
        text = pad + text
    elif style == "pad-right":
        text += pad
    elif style == "foreign":
        zero = ord(draw(st.sampled_from(FOREIGN_ZEROS)))
        text = _redigit(text, [chr(zero + d) for d in range(10)])
    else:
        digits = st.lists(st.sampled_from("0123456789"), min_size=10, max_size=10)
        text = _redigit(text, draw(digits))
    return kind, _with(base, path, text)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_documents())
def test_mutated_documents_agree(case):
    kind, doc = case
    check_agreement(kind, doc)


# Arbitrary JSON built from the documents' own keys and awkward scalars:
# whatever its shape, each parser returns or raises InputValidationError.

DOCUMENT_KEYS = sorted(
    {
        key
        for validator in VALIDATORS.values()
        for path, node in _paths(validator.schema)
        if path and path[-1] == "properties"
        for key in node
    }
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), float("nan"), float("inf"), -float("inf"), 1.5]),
    st.sampled_from(["1/2", "-3/4", "1/0", "1\n", " 1", "٠", "", "x"]),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=2), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_values)
def test_arbitrary_json_never_crashes_a_parser(value):
    for parse in PARSERS.values():
        try:
            parse(value)
        except InputValidationError:
            pass

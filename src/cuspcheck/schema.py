"""Structural checks of input documents against the shipped JSON schemas.

``schemas/<kind>.json`` is the one description of each input document's
shape, and ``violations`` walks a document against it.  Only the part of
JSON Schema draft 2020-12 that the three schemas use is implemented:
``type``, ``required``, ``properties`` with ``additionalProperties:
false``, ``items``, ``minItems``, ``minLength``, ``minimum``,
``exclusiveMinimum``, ``pattern``, ``oneOf`` and local ``$ref``.
``"integer"`` admits neither bool nor float, and ``"number"`` no bool.
"""

from __future__ import annotations

import functools
import json
import os
import re
from typing import Any, Callable

_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float)}


@functools.cache
def _schema(kind: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schemas", f"{kind}.json")) as handle:
        return json.load(handle)


def violations(kind: str, document: object) -> list[tuple[str, str]]:
    """Every ``(json_pointer, message)`` by which ``document`` breaks
    ``schemas/<kind>.json``, in document order.  A missing or unknown
    field is reported at its own pointer."""
    return load(kind, document, None)[1]


def load(kind: str, document: object, leaf: Callable[[str, Any], Any] | None) -> tuple[Any, list]:
    """Walk ``document`` against ``schemas/<kind>.json``, converting it.

    Returns the converted document and the errors: the walk's violations,
    and each ValueError that ``leaf`` raised, at its leaf's pointer.  Every
    leaf that passed the walk is replaced by ``leaf(pointer, value)``, or
    kept if ``leaf`` is None; every value that the walk or ``leaf`` refused
    by None (no schema admits a JSON null); a missing field stays absent.
    """
    root = _schema(kind)
    return _walk(root, root, document, "", leaf)


def _walk(
    root: dict, node: dict, value: object, pointer: str, leaf: Callable[[str, Any], Any] | None
) -> tuple[Any, list[tuple[str, str]]]:
    """``load`` at ``pointer``: the converted value, None if refused, and the errors."""
    if "$ref" in node:  # local only: "#/$defs/<name>"
        node = functools.reduce(dict.__getitem__, node["$ref"][2:].split("/"), root)
    if "oneOf" in node:
        # Count the matches unconverted; leaf meets only the one that matched.
        matched = [alt for alt in node["oneOf"] if not _walk(root, alt, value, pointer, None)[1]]
        if len(matched) == 1:
            return _walk(root, matched[0], value, pointer, leaf)
        forms = ", ".join(
            alt["type"] + (f" matching {alt['pattern']!r}" if "pattern" in alt else "")
            for alt in node["oneOf"]
        )
        return None, [(pointer, f"must be exactly one of: {forms}")]
    kind = node["type"]
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        return None, [(pointer, f"must be of type {kind}")]
    out = []
    converted = value
    if kind == "object":
        properties = node.get("properties", {})
        for key in node.get("required", ()):
            if key not in value:
                out.append((f"{pointer}/{key}", "missing required field"))
        converted = dict(value)
        for key, item in value.items():
            at = f"{pointer}/{key}"
            if key in properties:
                converted[key], errors = _walk(root, properties[key], item, at, leaf)
                out += errors
            elif node.get("additionalProperties") is False:
                converted[key] = None
                out.append((at, "unknown field"))
    elif kind in ("array", "string"):
        least = node.get("minItems" if kind == "array" else "minLength", 0)
        if len(value) < least:
            short = "must be non-empty" if least == 1 else f"must have length at least {least}"
            out.append((pointer, short))
        if "items" in node:
            converted = []
            for i, item in enumerate(value):
                item, errors = _walk(root, node["items"], item, f"{pointer}/{i}", leaf)
                converted.append(item)
                out += errors
        if "pattern" in node and not re.search(node["pattern"], value):
            out.append((pointer, f"must match {node['pattern']!r}"))
    else:
        if "minimum" in node and value < node["minimum"]:
            out.append((pointer, f"must be at least {node['minimum']}"))
        if "exclusiveMinimum" in node and value <= node["exclusiveMinimum"]:
            out.append((pointer, f"must be greater than {node['exclusiveMinimum']}"))
    if any(at == pointer for at, _ in out):
        return None, out
    if kind in ("object", "array") or leaf is None:
        return converted, out
    try:
        return leaf(pointer, value), out
    except ValueError as exc:
        return None, [(pointer, str(exc))]

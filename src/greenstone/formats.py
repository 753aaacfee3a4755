"""On-disk JSON formats for semigroups and biacts.

Semigroup files:

    {"kind": "table", "order": N, "table": [[...]], "labels": [...]}
    {"kind": "transformations", "degree": k, "generators": [[...], ...]}

Biact files:

    {"kind": "biact", "left": <semigroup>, "right": <semigroup>,
     "size": m, "left_action": [[...]], "right_action": [[...]]}

Images are 0-indexed.  Every file the toolkit writes re-parses and
re-validates to an identical in-memory object.  See docs/formats.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .errors import BadEntry, ParseError, ValidationError

# the engine modules load on the first load or dump, so a command that
# never reads or writes a file does not load them
if TYPE_CHECKING:
    from .biact import FiniteBiact
    from .core import FiniteSemigroup


def semigroup_to_dict(s: FiniteSemigroup) -> dict:
    if s.provenance.get("kind") == "transformations":
        return {"kind": "transformations",
                "degree": s.provenance["degree"],
                "generators": [list(g) for g in s.provenance["generators"]]}
    return {"kind": "table", "order": s.order,
            "table": [list(row) for row in s.table],
            "labels": list(s.labels)}


def semigroup_from_dict(data: dict) -> FiniteSemigroup:
    from .core import generate_from_transformations, validate_table

    if not isinstance(data, dict):
        raise ParseError(f"a semigroup must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "table":
        for key in ("order", "table"):
            if key not in data:
                raise ParseError(f"semigroup table file is missing {key!r}")
        return validate_table(data["order"], data["table"], labels=data.get("labels"))
    if kind == "transformations":
        for key in ("degree", "generators"):
            if key not in data:
                raise ParseError(f"transformation file is missing {key!r}")
        return generate_from_transformations(data["degree"], data["generators"])
    raise ParseError(f"unknown semigroup kind {kind!r}")


def biact_to_dict(b: FiniteBiact) -> dict:
    return {"kind": "biact",
            "left": semigroup_to_dict(b.left),
            "right": semigroup_to_dict(b.right),
            "size": b.size,
            "left_action": [list(row) for row in b.left_action],
            "right_action": [list(row) for row in b.right_action],
            "labels": list(b.labels)}


def biact_from_dict(data: dict) -> FiniteBiact:
    from .biact import validate_biact

    for key in ("left", "right", "size", "left_action", "right_action"):
        if key not in data:
            raise ParseError(f"biact file is missing {key!r}")
    size, rows = data["size"], data["right_action"]
    if type(size) is not int:
        raise BadEntry(f"biact 'size' must be an integer, got {size!r}")
    if isinstance(rows, list) and len(rows) != size:
        raise BadEntry(f"biact 'size' is {size} but 'right_action' has {len(rows)} rows")
    left = semigroup_from_dict(data["left"])
    right = semigroup_from_dict(data["right"])
    return validate_biact(left, right, data["left_action"], data["right_action"],
                          labels=data.get("labels"))


def load(path: Union[str, Path]) -> Union[FiniteSemigroup, FiniteBiact]:
    """Parse a semigroup or biact file, dispatching on its "kind".  Every
    refusal names the file: a ``ValidationError`` raised while the decoded
    document is parsed and validated keeps its class and attributes, and
    its message gains the prefix ``<path>: ``."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text: {exc.reason}",
                         offset=exc.start) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", offset=exc.pos) from exc
    except RecursionError:
        # the decoder recurses once per nesting level
        raise ParseError(f"{path}: JSON nested too deeply to decode") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    try:
        if data.get("kind") == "biact":
            return biact_from_dict(data)
        return semigroup_from_dict(data)
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def dump(obj: Union[FiniteSemigroup, FiniteBiact], path: Union[str, Path]) -> None:
    from .biact import FiniteBiact

    if isinstance(obj, FiniteBiact):
        data = biact_to_dict(obj)
    else:
        data = semigroup_to_dict(obj)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

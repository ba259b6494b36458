"""JSON file formats for lattices and maps.

Lattice files carry {"name", "n", "covers"}; covers are Hasse edges and
the transitive closure is rebuilt on load.  Map files carry
{"dom", "cod", "values"} where dom and cod are lattice file paths,
resolved relative to the directory containing the map file.
"""

from __future__ import annotations

import json
import os

from .errors import ParseError
from .lattice import Lattice, Poset, build_lattice, build_poset
from .maps import LatMap


def dumps(doc: dict) -> str:
    """Canonical rendering: two-space indent and a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def lattice_to_doc(L: Lattice) -> dict:
    name = L.name if L.name else f"lattice{L.n}"
    return {
        "name": name,
        "n": L.n,
        "covers": L.poset.covers.tolist(),
    }


def _is(value, kind: type) -> bool:
    """Exact JSON type: unlike isinstance, true and false are no integers."""
    return type(value) is kind


def _expect(doc: dict, field: str, kind: type, where: str):
    if field not in doc:
        raise ParseError(f"{where} is missing field {field!r}")
    value = doc[field]
    if not _is(value, kind):
        raise ParseError(f"{where} field {field!r} has the wrong type")
    return value


def poset_from_doc(doc, where: str) -> tuple[str, Poset]:
    """Name and poset of a {"name", "n", "covers"} document."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    name = _expect(doc, "name", str, where)
    n = _expect(doc, "n", int, where)
    pairs = []
    for item in _expect(doc, "covers", list, where):
        if (not _is(item, list) or len(item) != 2
                or not all(_is(v, int) for v in item)):
            raise ParseError("covers entries must be pairs of integers")
        pairs.append((item[0], item[1]))
    return name, build_poset(n, pairs)


def lattice_from_doc(doc) -> Lattice:
    name, p = poset_from_doc(doc, "lattice document")
    return build_lattice(p, name=name)


def map_to_doc(f: LatMap, dom_ref: str, cod_ref: str) -> dict:
    return {"dom": dom_ref, "cod": cod_ref, "values": f.values.tolist()}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from e
    except RecursionError as e:
        raise ParseError(f"{path}: JSON nested too deeply to read") from e


def load_lattice(path: str) -> Lattice:
    return lattice_from_doc(_load_json(path))


def save_lattice(L: Lattice, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(lattice_to_doc(L)))


def _resolve(ref: str, base_dir: str) -> str:
    return ref if os.path.isabs(ref) else os.path.join(base_dir, ref)


def map_from_doc(doc, base_dir: str = ".",
                 carriers: dict | None = None) -> LatMap:
    """`carriers` maps the absolute path of each lattice file read so far
    to its Lattice; maps loaded through one table share their carriers."""
    if not isinstance(doc, dict):
        raise ParseError("map document must be a JSON object")
    refs = [_expect(doc, key, str, "map document") for key in ("dom", "cod")]
    values = _expect(doc, "values", list, "map document")
    if not all(_is(v, int) for v in values):
        raise ParseError("map values must be integers")
    carriers = {} if carriers is None else carriers
    ends = []
    for path in (_resolve(ref, base_dir) for ref in refs):
        key = os.path.abspath(path)
        if key not in carriers:
            carriers[key] = load_lattice(path)
        ends.append(carriers[key])
    return LatMap(*ends, values)


def load_map(path: str, carriers: dict | None = None) -> LatMap:
    return map_from_doc(_load_json(path),
                        os.path.dirname(os.path.abspath(path)), carriers)


def save_map(f: LatMap, dom_ref: str, cod_ref: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(map_to_doc(f, dom_ref, cod_ref)))

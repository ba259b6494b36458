import json

import pytest

import latq
from latq import docio


def test_lattice_round_trip_is_byte_identical(tmp_path, zoo):
    for name in ("c3", "b2", "m3", "n5"):
        path = tmp_path / f"{name}.json"
        docio.save_lattice(zoo[name], str(path))
        first = path.read_bytes()
        back = docio.load_lattice(str(path))
        assert back == zoo[name]
        assert back.name == name
        docio.save_lattice(back, str(path))
        assert path.read_bytes() == first


def test_lattice_doc_shape(zoo):
    doc = docio.lattice_to_doc(zoo["c3"])
    assert doc == {"name": "c3", "n": 3, "covers": [[0, 1], [1, 2]]}
    anon = latq.build_lattice(latq.build_poset(2, [(0, 1)]))
    assert docio.lattice_to_doc(anon)["name"] == "lattice2"


def test_dumps_is_canonical():
    text = docio.dumps({"a": 1})
    assert text == '{\n  "a": 1\n}\n'


@pytest.mark.parametrize("doc, message", [
    ([], "must be a JSON object"),
    ({"n": 2, "covers": []}, "missing field 'name'"),
    ({"name": "x", "covers": []}, "missing field 'n'"),
    ({"name": "x", "n": 2}, "missing field 'covers'"),
    ({"name": 3, "n": 2, "covers": []}, "wrong type"),
    ({"name": "x", "n": "2", "covers": []}, "wrong type"),
    ({"name": "x", "n": 2, "covers": [[0]]}, "pairs of integers"),
    ({"name": "x", "n": 2, "covers": [[0, "1"]]}, "pairs of integers"),
    ({"name": "x", "n": 2, "covers": [0, 1]}, "pairs of integers"),
])
def test_lattice_doc_rejections(doc, message):
    with pytest.raises(latq.ParseError, match=message):
        docio.lattice_from_doc(doc)


def test_bad_covers_surface_as_typed_errors():
    with pytest.raises(latq.IndexOutOfRange):
        docio.lattice_from_doc({"name": "x", "n": 2, "covers": [[0, 5]]})
    bowtie = {"name": "x", "n": 5,
              "covers": [[0, 2], [1, 2], [0, 3], [1, 3], [2, 4], [3, 4]]}
    with pytest.raises(latq.NotALattice):
        docio.lattice_from_doc(bowtie)


def test_invalid_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(latq.ParseError, match="not valid JSON"):
        docio.load_lattice(str(path))


def test_map_round_trip_with_relative_refs(tmp_path, zoo):
    sub = tmp_path / "deep"
    sub.mkdir()
    docio.save_lattice(zoo["c3"], str(sub / "dom.json"))
    docio.save_lattice(zoo["b2"], str(sub / "cod.json"))
    f = latq.LatMap(zoo["c3"], zoo["b2"], [0, 1, 3])
    map_path = sub / "f.json"
    docio.save_map(f, "dom.json", "cod.json", str(map_path))
    doc = json.loads(map_path.read_text())
    assert doc == {"dom": "dom.json", "cod": "cod.json", "values": [0, 1, 3]}
    # loading resolves refs against the map file's own directory,
    # so it works from any cwd
    back = docio.load_map(str(map_path))
    assert back == f
    assert back.dom == zoo["c3"] and back.cod == zoo["b2"]


def test_endo_map_shares_the_lattice_object(tmp_path, zoo):
    docio.save_lattice(zoo["c3"], str(tmp_path / "L.json"))
    path = tmp_path / "f.json"
    path.write_text(docio.dumps(
        {"dom": "L.json", "cod": "L.json", "values": [0, 0, 1]}))
    f = docio.load_map(str(path))
    assert f.dom is f.cod


@pytest.mark.parametrize("doc, message", [
    (7, "must be a JSON object"),
    ({"cod": "x", "values": []}, "missing field 'dom'"),
    ({"dom": "x", "values": []}, "missing field 'cod'"),
    ({"dom": "x", "cod": "x"}, "missing field 'values'"),
    ({"dom": "x", "cod": "x", "values": [0, None]}, "must be integers"),
])
def test_map_doc_rejections(doc, message):
    with pytest.raises(latq.ParseError, match=message):
        docio.map_from_doc(doc)


def test_map_value_validation(tmp_path, zoo):
    docio.save_lattice(zoo["c3"], str(tmp_path / "L.json"))

    def write(values):
        path = tmp_path / "f.json"
        path.write_text(docio.dumps(
            {"dom": "L.json", "cod": "L.json", "values": values}))
        return str(path)

    with pytest.raises(latq.DomainMismatch):
        docio.load_map(write([0, 1]))
    with pytest.raises(latq.IndexOutOfRange):
        docio.load_map(write([0, 1, 9]))

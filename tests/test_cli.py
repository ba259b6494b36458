import argparse
import contextlib
import hashlib
import io
import json
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

import latq
import latq.suite
from latq import cli, docio
from latq.cd import CheckResult
from latq.suite import SuiteReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c3_file(tmp_path, zoo):
    path = tmp_path / "c3.json"
    docio.save_lattice(zoo["c3"], str(path))
    return str(path)


@pytest.fixture()
def b2_file(tmp_path, zoo):
    path = tmp_path / "b2.json"
    docio.save_lattice(zoo["b2"], str(path))
    return str(path)


def map_file(tmp_path, lat_file, name, values):
    path = tmp_path / f"{name}.json"
    ref = lat_file.rsplit("/", 1)[-1]
    path.write_text(docio.dumps(
        {"dom": ref, "cod": ref, "values": values}))
    return str(path)


# ------------------------------------------------------------------- gen

def test_gen_shapes(capsys, tmp_path):
    for argv, name, n in (
        (("gen", "chain", "4"), "c4", 4),
        (("gen", "boolean", "3"), "b3", 8),
        (("gen", "m3"), "m3", 5),
        (("gen", "n5"), "n5", 5),
        (("gen", "product", "2", "3"), "c2xc3", 6),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["name"] == name and doc["n"] == n


def test_gen_random_is_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "random", "--seed", "5", "--size", "6")
    assert code == 0
    code, second, _ = run(capsys, "gen", "random", "--seed", "5",
                          "--size", "6")
    assert code == 0
    assert first == second
    code, third, _ = run(capsys, "gen", "random", "--seed", "6", "--size", "6")
    assert code == 0
    assert json.loads(third)["name"] != json.loads(first)["name"]


def test_gen_output_file_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "L.json"
    code, _, _ = run(capsys, "gen", "chain", "3", "-o", str(out_file))
    assert code == 0
    code, streamed, _ = run(capsys, "gen", "chain", "3")
    assert code == 0
    assert out_file.read_text() == streamed


def test_gen_downsets(capsys, tmp_path):
    poset = tmp_path / "vee.json"
    poset.write_text(docio.dumps(
        {"name": "vee", "n": 3, "covers": [[0, 1], [0, 2]]}))
    code, out, _ = run(capsys, "gen", "downsets", str(poset))
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "downsets_vee"
    assert doc["n"] == 5


def test_gen_rejections(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "chain", "0")
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text(docio.dumps({"name": "x", "n": 3}))
    code, _, err = run(capsys, "gen", "downsets", str(bad))
    assert code == 2 and "covers" in err


# ----------------------------------------------------------------- check

def test_check_text(capsys, tmp_path, zoo):
    path = tmp_path / "m3.json"
    docio.save_lattice(zoo["m3"], str(path))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "name: m3" in out
    assert "completely_distributive: False" in out
    assert "raney_join_criterion: fails" in out
    assert "criteria agree: True" in out
    assert "ms]" not in out
    code, timed, _ = run(capsys, "check", str(path), "--timing")
    assert code == 0 and "ms]" in timed


def test_check_json(capsys, c3_file):
    code, out, _ = run(capsys, "check", c3_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["criteria_agree"] is True
    assert doc["profile"]["chain"] is True
    assert doc["profile"]["join_primes"] == [1, 2]
    assert [c["name"] for c in doc["criteria"]] == [
        "raney_join_criterion", "raney_meet_criterion",
        "distributive_oracle"]
    assert all(c["holds"] for c in doc["criteria"])


def test_check_runs_the_join_criterion_once(capsys, tmp_path, zoo,
                                            monkeypatch):
    # the profile's completely_distributive is the criterion's verdict; the
    # meet criterion runs the join criterion on the dual
    path = tmp_path / "m3.json"
    docio.save_lattice(zoo["m3"], str(path))
    seen = []
    criterion = latq.cd.raney_join_criterion

    def spy(L):
        seen.append(L.name)
        return criterion(L)

    monkeypatch.setattr(latq.cd, "raney_join_criterion", spy)
    for flags in ((), ("--json",)):
        seen.clear()
        code, _, _ = run(capsys, "check", str(path), *flags)
        assert code == 0 and seen == ["m3", "m3_dual"]


def test_check_bad_inputs(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    bowtie = tmp_path / "bowtie.json"
    bowtie.write_text(docio.dumps({
        "name": "x", "n": 5,
        "covers": [[0, 2], [1, 2], [0, 3], [1, 3], [2, 4], [3, 4]]}))
    code, _, err = run(capsys, "check", str(bowtie))
    assert code == 2 and "error:" in err


def test_check_refuses_too_many_elements_before_building(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(docio.dumps({"name": "big", "n": 1025, "covers": []}))
    tracemalloc.start()
    try:
        with pytest.raises(latq.TooLarge):
            docio.load_lattice(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1025 * 1025 // 4          # no order table was allocated
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "1025 elements exceeds the 1024 cap" in err


@pytest.mark.parametrize("argv, doc, message", [
    (["check"], {"name": "x", "n": True, "covers": []},
     "lattice document field 'n' has the wrong type"),
    (["check"], {"name": "c2", "n": 2, "covers": [[False, True]]},
     "covers entries must be pairs of integers"),
    (["gen", "downsets"], {"name": "c2", "n": 2, "covers": [[False, True]]},
     "covers entries must be pairs of integers"),
    (["map", "interior"], {"dom": "c3.json", "cod": "c3.json",
                           "values": [False, True, True]},
     "map values must be integers"),
])
def test_json_booleans_are_not_integers(capsys, tmp_path, c3_file,
                                        argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(docio.dumps(doc))
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert f"error: {message}" in err


DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("payload, message", [
    (DEEP, "JSON nested too deeply to read"),
    (b'{"name": "c1", "n": 1, "covers": []}\xff', "not UTF-8 text"),
], ids=["deep", "not_utf8"])
def test_unreadable_json_names_the_file(capsys, tmp_path, payload, message):
    path = tmp_path / "doc.json"
    path.write_bytes(payload)
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert f"error: {path}: {message}" in err
    assert "Traceback" not in err


# ------------------------------------------------------------------- map

def test_map_specials(capsys, c3_file, b2_file):
    code, out, _ = run(capsys, "map", "o", c3_file)
    assert code == 0
    assert json.loads(out)["values"] == [0, 0, 1]
    code, out, _ = run(capsys, "map", "omega", c3_file)
    assert json.loads(out)["values"] == [1, 2, 2]
    code, out, _ = run(capsys, "map", "c", "2", c3_file)
    assert json.loads(out)["values"] == [0, 2, 2]
    code, out, _ = run(capsys, "map", "nu", "1", c3_file)
    assert json.loads(out)["values"] == [0, 0, 2]
    code, out, _ = run(capsys, "map", "alpha", "1", b2_file)
    assert json.loads(out)["values"] == [0, 3, 0, 3]
    code, _, err = run(capsys, "map", "c", "9", c3_file)
    assert code == 2 and "error:" in err


def test_map_adjoint_and_interior(capsys, tmp_path, c3_file, b2_file):
    o_file = map_file(tmp_path, c3_file, "o", [0, 0, 1])
    code, out, _ = run(capsys, "map", "adjoint", o_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [1, 2, 2]
    alpha_file = map_file(tmp_path, b2_file, "alpha_top", [0, 0, 0, 3])
    code, out, _ = run(capsys, "map", "adjoint", alpha_file)
    assert code == 0
    # meet- but not join-continuous: the left adjoint is produced
    assert json.loads(out)["values"] == [0, 3, 3, 3]
    code, out, _ = run(capsys, "map", "interior", alpha_file)
    assert json.loads(out)["values"] == [0, 0, 0, 0]
    broken = map_file(tmp_path, c3_file, "broken", [1, 0, 2])
    code, _, err = run(capsys, "map", "adjoint", broken)
    assert code == 2 and "error:" in err


def test_map_commands_keep_the_lattice_file_labels(capsys, tmp_path):
    # 2 is the bottom of this file, so constant 2 is constant bottom: it is
    # join-continuous, its own interior, and c(2)
    lat = tmp_path / "L.json"
    lat.write_text(json.dumps(
        {"name": "L", "n": 3, "covers": [[2, 1], [1, 0]]}))
    bottom = map_file(tmp_path, str(lat), "bottom", [2, 2, 2])
    code, out, _ = run(capsys, "map", "interior", bottom)
    assert code == 0 and json.loads(out)["values"] == [2, 2, 2]
    code, out, _ = run(capsys, "map", "c", "2", str(lat))
    assert code == 0 and json.loads(out)["values"] == [2, 2, 2]


def test_map_raney_transforms(capsys, tmp_path, c3_file):
    id_file = map_file(tmp_path, c3_file, "id", [0, 1, 2])
    code, out, _ = run(capsys, "map", "raney-join", id_file)
    assert json.loads(out)["values"] == [0, 0, 1]
    code, out, _ = run(capsys, "map", "raney-meet", id_file)
    assert json.loads(out)["values"] == [1, 2, 2]


def test_map_output_refs_relative_to_output_dir(tmp_path, capsys, c3_file):
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, "map", "o", c3_file, "-o", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["dom"] == "c3.json" and doc["cod"] == "c3.json"
    back = docio.load_map(str(out_file))
    assert back.values.tolist() == [0, 0, 1]


# --------------------------------------------------------------------- q

def test_q_enumerate(capsys, c3_file):
    code, out, _ = run(capsys, "q", "enumerate", c3_file)
    assert code == 0 and out == "count 6\n"
    code, out, _ = run(capsys, "q", "enumerate", c3_file, "--list")
    lines = out.splitlines()
    assert lines[0] == "count 6"
    rows = sorted(json.loads(line) for line in lines[1:])
    assert rows == [[0, 0, 0], [0, 0, 1], [0, 0, 2],
                    [0, 1, 1], [0, 1, 2], [0, 2, 2]]


@pytest.mark.parametrize("name, spec, digest", [
    ("m3", latq.GeneratorSpec("m3"),
     "15730a33341e5a42b39ca27071aa1b82662017c155fc3760b88a071323674ac6"),
    ("b3", latq.GeneratorSpec("boolean", k=3),
     "21a216db46992ab7be70e9075ee460a0a13583761146634ac99abe1329162062"),
])
def test_q_enumerate_list_rows_in_homset_order(capsys, tmp_path, name, spec,
                                               digest):
    # one line per member, in homset order, as each LatMap's values print;
    # the digest pins the exact bytes
    L = latq.generate(spec)
    path = tmp_path / f"{name}.json"
    docio.save_lattice(L, str(path))
    code, out, _ = run(capsys, "q", "enumerate", str(path), "--list")
    Q = latq.enumerate_homset(L, L)
    assert code == 0
    assert out == "".join(f"{line}\n" for line in [f"count {len(Q)}", *(
        json.dumps(f.values.tolist()) for f in Q.maps)])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_q_enumerate_cap(capsys, c3_file):
    # c3 has two join-irreducibles: 3^2 = 9 maps at most, above the cap
    code, out, err = run(capsys, "q", "enumerate", c3_file, "--cap", "4")
    assert code == 2 and out == ""
    assert err == "error: homset estimate 9 beyond enumeration cap\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--cap", "0"),
    ("verify", "--checks", "T6", "--cap", "-3"),
    ("q", "enumerate", "missing.json", "--cap", "0"),
    ("q", "dualizing", "missing.json", "--cap", "-1"),
])
def test_cap_below_one_is_refused_up_front(capsys, argv):
    # before any file is read or any cell runs: a zero cap would make
    # every homset-gated cell an expected skip
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --cap must be at least 1, got {argv[-1]}\n"


def test_q_element_classes(capsys, c3_file):
    code, out, _ = run(capsys, "q", "cyclic", c3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count 2"
    assert sorted(json.loads(r) for r in lines[1:]) == [[0, 0, 1], [0, 2, 2]]
    code, out, _ = run(capsys, "q", "central", c3_file)
    lines = out.splitlines()
    assert lines[0] == "count 2"
    assert sorted(json.loads(r) for r in lines[1:]) == [[0, 0, 0], [0, 1, 2]]
    code, out, _ = run(capsys, "q", "dualizing", c3_file)
    lines = out.splitlines()
    assert lines[0] == "count 1"
    assert json.loads(lines[1]) == [0, 0, 1]


def test_q_star_and_binary_ops(capsys, tmp_path, c3_file):
    id_file = map_file(tmp_path, c3_file, "id", [0, 1, 2])
    o_file = map_file(tmp_path, c3_file, "o", [0, 0, 1])
    ctop_file = map_file(tmp_path, c3_file, "ctop", [0, 2, 2])
    code, out, _ = run(capsys, "q", "star", id_file)
    assert code == 0 and json.loads(out)["values"] == [0, 0, 1]
    code, out, _ = run(capsys, "q", "star", o_file)
    assert json.loads(out)["values"] == [0, 1, 2]
    code, out, _ = run(capsys, "q", "compose", ctop_file, o_file)
    assert json.loads(out)["values"] == [0, 0, 2]
    code, out, _ = run(capsys, "q", "residual-left", ctop_file, o_file)
    assert json.loads(out)["values"] == [0, 0, 0]
    code, out, _ = run(capsys, "q", "residual-right", o_file, ctop_file)
    assert json.loads(out)["values"] == [0, 0, 0]
    code, out, _ = run(capsys, "q", "oplus", o_file, o_file)
    assert json.loads(out)["values"] == [0, 0, 1]
    code, out, _ = run(capsys, "q", "oplus", id_file, id_file)
    assert json.loads(out)["values"] == [0, 2, 2]


# map files between different lattice files: name -> (dom, cod, values);
# "square" is b2 under another name, so only its file tells it apart
_MAPS_BETWEEN_FILES = {
    "f": ("c2", "b2", [0, 1]),              # join-continuous
    "g": ("b2", "c3", [0, 1, 2, 2]),        # join-continuous
    "h": ("c2", "c3", [0, 2]),              # join-continuous
    "k": ("c2", "b2", [1, 3]),              # meet- but not join-continuous
    "m": ("b2", "c3", [1, 2, 1, 2]),        # meet- but not join-continuous
    "s": ("square", "b2", [0, 2, 1, 3]),    # an isomorphism
}


@pytest.mark.parametrize("argv, dom, cod, values", [
    (("map", "interior", "k"), "c2", "b2", [0, 3]),
    (("map", "adjoint", "f"), "b2", "c2", [0, 1, 0, 1]),
    (("map", "adjoint", "m"), "c3", "b2", [0, 0, 1]),
    (("map", "adjoint", "s"), "b2", "square", [0, 2, 1, 3]),
    (("map", "raney-join", "k"), "c2", "b2", [0, 1]),
    (("map", "raney-meet", "k"), "c2", "b2", [3, 3]),
    (("q", "star", "f"), "b2", "c2", [0, 0, 1, 1]),
    (("q", "star", "s"), "b2", "square", [0, 1, 2, 3]),
    (("q", "compose", "g", "f"), "c2", "c3", [0, 1]),
    (("q", "residual-left", "g", "h"), "c2", "b2", [0, 3]),
    (("q", "residual-right", "h", "f"), "b2", "c3", [0, 2, 2, 2]),
    (("q", "oplus", "g", "f"), "c2", "c3", [0, 2]),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_map_valued_commands_name_the_files_of_their_carriers(
        capsys, tmp_path, monkeypatch, zoo, argv, dom, cod, values):
    # each output's dom and cod name the file its carrier was read from,
    # relative to the working directory on stdout and to the -o file's
    # directory otherwise
    (tmp_path / "lat").mkdir()
    (tmp_path / "maps").mkdir()
    (tmp_path / "out").mkdir()
    for name, L in (("c2", zoo["c2"]), ("b2", zoo["b2"]), ("c3", zoo["c3"]),
                    ("square", zoo["b2"].rename("square"))):
        docio.save_lattice(L, str(tmp_path / "lat" / f"{name}.json"))
    for name, (d, c, v) in _MAPS_BETWEEN_FILES.items():
        (tmp_path / "maps" / f"{name}.json").write_text(docio.dumps(
            {"dom": f"../lat/{d}.json", "cod": f"../lat/{c}.json",
             "values": v}))
    monkeypatch.chdir(tmp_path)
    command, op, *names = argv
    files = [f"maps/{name}.json" for name in names]
    code, out, err = run(capsys, command, op, *files)
    assert code == 0, err
    assert json.loads(out) == {"dom": f"lat/{dom}.json",
                               "cod": f"lat/{cod}.json", "values": values}
    code, out, err = run(capsys, command, op, *files, "-o", "out/r.json")
    assert code == 0 and out == "", err
    assert json.loads((tmp_path / "out" / "r.json").read_text()) == {
        "dom": f"../lat/{dom}.json", "cod": f"../lat/{cod}.json",
        "values": values}


def test_a_lattice_file_named_by_several_maps_is_read_once(
        capsys, tmp_path, monkeypatch, c3_file):
    reads = []
    load = docio.load_lattice
    monkeypatch.setattr(docio, "load_lattice",
                        lambda path: reads.append(path) or load(path))
    f_file = map_file(tmp_path, c3_file, "f", [0, 2, 2])
    g_file = map_file(tmp_path, c3_file, "g", [0, 2, 2])
    h_file = map_file(tmp_path, c3_file, "h", [0, 0, 1])
    for argv in (("compose", f_file, f_file),
                 ("residual-left", g_file, h_file)):
        reads.clear()
        code, _, err = run(capsys, "q", *argv)
        assert code == 0, err
        assert len(reads) == 1, argv


# ---------------------------------------------------------------- verify

def test_verify_subset_of_checks(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "T1,T11")
    assert code == 0
    assert "0 fail" in out
    assert "legend:" in out


def test_verify_json_on_directory_corpus(capsys, tmp_path, zoo):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    docio.save_lattice(zoo["c3"], str(corpus / "c3.json"))
    docio.save_lattice(zoo["m3"], str(corpus / "m3.json"))
    code, out, _ = run(capsys, "verify", "--corpus", str(corpus),
                       "--checks", "T8n,T13", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["corpus"] == ["c3", "m3"]
    assert doc["summary"]["fail"] == 0
    assert doc["results"]["T8n"]["c3"]["status"] == "skip"
    assert doc["results"]["T8n"]["m3"]["status"] == "pass"
    assert doc["results"]["T13"]["c3"]["status"] == "pass"


def test_verify_refuses_two_carriers_of_one_name(capsys, tmp_path, zoo):
    # the second carrier named c3 would take the first one's cells
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    docio.save_lattice(zoo["c3"], str(corpus / "c3.json"))
    docio.save_lattice(zoo["m3"].rename("c3"), str(corpus / "m3.json"))
    code, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert (code, out) == (2, "")
    assert err == "error: corpus has two carriers named 'c3'\n"


def test_verify_bad_corpus(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--corpus",
                       str(tmp_path / "nowhere"))
    assert code == 2 and "corpus directory" in err
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "verify", "--corpus", str(empty))
    assert code == 2 and "no .json" in err


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "T1,bogus")
    assert code == 2 and "unknown check ids" in err


def test_verify_exit_one_on_failing_report(capsys, monkeypatch):
    report = SuiteReport(
        corpus=["x"], checks=["T1"],
        results={"T1": {"x": CheckResult("T1", False, witness={"y": 0})}},
        seed=0)
    monkeypatch.setattr(latq.suite, "run_suite",
                        lambda **kw: report)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL T1 on x" in out


def test_internal_error_exit_three(capsys, monkeypatch):
    def boom(**kw):
        raise RuntimeError("wires crossed")
    monkeypatch.setattr(latq.suite, "run_suite", boom)
    code, _, err = run(capsys, "verify")
    assert code == 3
    assert "RuntimeError" in err


@pytest.mark.parametrize("value", [2 ** 40, -2 ** 40, 2 ** 64])
@pytest.mark.parametrize("argv", [("map", "interior"), ("map", "adjoint"),
                                  ("q", "star")])
def test_map_values_beyond_int32_exit_two(capsys, tmp_path, c3_file,
                                          argv, value):
    # the range is checked on the values as read, before any cast
    f = map_file(tmp_path, c3_file, "huge", [0, 1, value])
    code, _, err = run(capsys, *argv, f)
    assert code == 2
    assert "error: value outside the codomain carrier" in err
    assert "Traceback" not in err


# ------------------------------------------------------------------ misc

# every action of gen, map, q and their subcommands, in order:
# (option strings, dest, metavar, default, type name)
_HELP = (("-h", "--help"), "help", None, argparse.SUPPRESS, None)
_OUT = (("-o", "--output"), "output", None, None, None)
_CAP = (("--cap",), "cap", None, 1048576, "int")
_LATTICE = ((), "lattice", None, None, None)
_ELEMENT = ((), "element", None, None, "int")
_MAPFILE = ((), "mapfile", None, None, None)
_SURFACE = [
    ("gen", [_HELP, ((), "shape", None, None, None)]),
    ("gen chain", [_HELP, ((), "n", "size", None, "int"), _OUT]),
    ("gen boolean", [_HELP, ((), "k", "exponent", None, "int"), _OUT]),
    ("gen m3", [_HELP, _OUT]),
    ("gen n5", [_HELP, _OUT]),
    ("gen product", [_HELP, ((), "a", None, None, "int"),
                     ((), "b", None, None, "int"), _OUT]),
    ("gen random", [_HELP, (("--seed",), "seed", None, 0, "int"),
                    (("--size",), "n", "SIZE", 8, "int"), _OUT]),
    ("gen downsets", [_HELP, ((), "posetfile", None, None, None), _OUT]),
    ("map", [_HELP, ((), "kind", None, None, None)]),
    ("map o", [_HELP, _LATTICE, _OUT]),
    ("map omega", [_HELP, _LATTICE, _OUT]),
    ("map c", [_HELP, _ELEMENT, _LATTICE, _OUT]),
    ("map a", [_HELP, _ELEMENT, _LATTICE, _OUT]),
    ("map alpha", [_HELP, _ELEMENT, _LATTICE, _OUT]),
    ("map nu", [_HELP, _ELEMENT, _LATTICE, _OUT]),
    ("map interior", [_HELP, _MAPFILE, _OUT]),
    ("map adjoint", [_HELP, _MAPFILE, _OUT]),
    ("map raney-join", [_HELP, _MAPFILE, _OUT]),
    ("map raney-meet", [_HELP, _MAPFILE, _OUT]),
    ("q", [_HELP, ((), "op", None, None, None)]),
    ("q enumerate", [_HELP, _LATTICE, _CAP,
                     (("--list",), "list", None, False, None)]),
    ("q cyclic", [_HELP, _LATTICE, _CAP]),
    ("q central", [_HELP, _LATTICE, _CAP]),
    ("q dualizing", [_HELP, _LATTICE, _CAP]),
    ("q star", [_HELP, _MAPFILE, _OUT]),
    ("q compose", [_HELP, ((), "outer", None, None, None),
                   ((), "inner", None, None, None), _OUT]),
    ("q residual-left", [_HELP, ((), "g", None, None, None),
                         ((), "h", None, None, None), _OUT]),
    ("q residual-right", [_HELP, ((), "h", None, None, None),
                          ((), "f", None, None, None), _OUT]),
    ("q oplus", [_HELP, ((), "g", None, None, None),
                 ((), "f", None, None, None), _OUT]),
]


def _parser_surface(parser, path=()):
    """(path, actions) for parser and every subparser below it, in order."""
    yield " ".join(path), [
        (tuple(a.option_strings), a.dest, a.metavar, a.default,
         getattr(a.type, "__name__", a.type)) for a in parser._actions]
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                yield from _parser_surface(sub, path + (name,))


def test_help_and_no_args(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
    code, _, _ = run(capsys)
    assert code == 2  # subcommand required
    surface = [(path, actions)
               for path, actions in _parser_surface(cli.build_parser())
               if path.split(" ")[0] in ("gen", "map", "q")]
    assert surface == _SURFACE



# ------------------------------------------------------------------ fuzz

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# sizes and cover indices run to just past the element cap; at most ten
# covers make every n above 11 a non-lattice, refused within a second
_CAP = latq.lattice.MAX_ELEMENTS
_indices = st.integers(-2, _CAP + 1)
_lattice_docs = st.fixed_dictionaries({
    "name": st.text(max_size=4) | _json,
    "n": _indices | _json,
    "covers": st.lists(st.lists(_indices, max_size=3) | _json, max_size=10)
    | _json,
})
_documents = (_json | _lattice_docs).map(
    lambda doc: json.dumps(doc).encode())


@st.composite
def _damaged(draw):
    """A valid lattice file: whole, cut short, or with a byte that is not
    UTF-8."""
    spec = draw(st.sampled_from([
        latq.GeneratorSpec("chain", n=3), latq.GeneratorSpec("boolean", k=2),
        latq.GeneratorSpec("n5")]))
    text = docio.dumps(docio.lattice_to_doc(latq.generate(spec))).encode()
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["whole", "cut", "byte"]))
    if how == "whole":
        return text
    if how == "cut":
        return text[:at]
    return text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) \
        + text[at:]


def _lattice_doc(n: int, covers: list) -> bytes:
    return json.dumps({"name": "x", "n": n, "covers": covers}).encode()


_CHAIN = [[i, i + 1] for i in range(_CAP - 1)]


@given(payload=_documents | _damaged() | st.binary(max_size=64),
       exit_code=st.none())
@example(payload=DEEP, exit_code=None)
# at the element cap: an antichain, a chain, and a chain with two tops
@example(payload=_lattice_doc(_CAP, []), exit_code=2)
@example(payload=_lattice_doc(_CAP, _CHAIN), exit_code=0)
@example(payload=_lattice_doc(_CAP, _CHAIN[:-1] + [[_CAP - 3, _CAP - 1]]),
         exit_code=2)
def test_check_fuzz_exits_cleanly(tmp_path_factory, payload, exit_code):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    assert exit_code in (None, code), err.getvalue()
    assert "Traceback" not in err.getvalue()


_map_docs = st.fixed_dictionaries({
    "dom": st.just("c3.json") | _json,
    "cod": st.just("c3.json") | _json,
    "values": st.lists(st.integers() | _json, max_size=4) | _json,
}).map(lambda doc: json.dumps(doc).encode())


def _map_doc(values) -> bytes:
    return json.dumps({"dom": "c3.json", "cod": "c3.json",
                       "values": values}).encode()


_TWO_MAPS = [("q", "compose"), ("q", "residual-left"),
             ("q", "residual-right"), ("q", "oplus")]


@given(payload=_map_docs | _documents | st.binary(max_size=64),
       argv=st.sampled_from([("map", "interior"), ("map", "adjoint"),
                             ("q", "star"), *_TWO_MAPS]),
       fuzzed_first=st.booleans())
@example(payload=_map_doc([0, 1, 2 ** 40]), argv=("map", "interior"),
         fuzzed_first=True)
@example(payload=_map_doc([0, 2 ** 64, 1]), argv=("q", "star"),
         fuzzed_first=True)
def test_map_fuzz_exits_cleanly(tmp_path_factory, payload, argv,
                                fuzzed_first):
    # a two-map command gets the fuzzed file in one slot and a valid c3
    # map in the other
    where = tmp_path_factory.mktemp("fuzz")
    docio.save_lattice(latq.generate(latq.GeneratorSpec("chain", n=3)),
                       str(where / "c3.json"))
    (where / "id.json").write_bytes(_map_doc([0, 1, 2]))
    path = where / "map.json"
    path.write_bytes(payload)
    valid = [str(where / "id.json")] if argv in _TWO_MAPS else []
    files = [str(path), *valid] if fuzzed_first else [*valid, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, *files])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greenstone import cli, core, formats
from greenstone.biact import product_biact, regular_biact


@pytest.fixture()
def t2_file(tmp_path):
    s = core.generate_from_transformations(2, [(1, 0), (0, 0)])
    path = tmp_path / "t2.json"
    formats.dump(s, path)
    return path


@pytest.fixture()
def triv_files(tmp_path):
    triv = core.validate_table(1, [[0]])
    s_path = tmp_path / "triv.json"
    formats.dump(triv, s_path)
    b_path = tmp_path / "trivbiact.json"
    formats.dump(regular_biact(triv), b_path)
    return s_path, b_path


TRIV = {"kind": "table", "order": 1, "table": [[0]]}


def _biact(**fields):
    return {"kind": "biact", "left": TRIV, "right": TRIV, "size": 1,
            "left_action": [[0]], "right_action": [[0]], **fields}


def _maps(**fields):
    return {"kind": "transformations", "degree": 2, "generators": [[1, 0]], **fields}


# files with a field of the wrong JSON type; each must be refused by name
HOSTILE = {
    "order-string": {**TRIV, "order": "1"},
    "order-true": {**TRIV, "order": True},
    "table-number": {**TRIV, "table": 7},
    "table-row-number": {**TRIV, "table": [7]},
    "table-entry-false": {**TRIV, "table": [[False]]},
    "labels-number": {**TRIV, "labels": 7},
    "labels-object": {**TRIV, "labels": [{}]},
    "biact-left-float": _biact(left_action=[[0.0]]),
    "biact-left-string": _biact(left_action=[["0"]]),
    "biact-left-row-number": _biact(left_action=[0]),
    "biact-right-number": _biact(right_action=7),
    "biact-right-false": _biact(right_action=[[False]]),
    "biact-labels-number": _biact(labels=5),
    "biact-left-semigroup-number": _biact(left=7),
    "biact-size-string": _biact(size="three"),
    "biact-size-true": _biact(size=True),
    "biact-size-float": _biact(size=1.0),
    "biact-size-mismatch": _biact(size=2),
    "maps-image-string": _maps(generators=[["1", "0"]]),
    "maps-image-float": _maps(generators=[[1.0, 0]]),
    "maps-image-true": _maps(generators=[[True, 0]]),
    "maps-generator-number": _maps(generators=[7]),
    "maps-generators-number": _maps(generators=7),
    "maps-degree-true": _maps(degree=True, generators=[[0]]),
}


def _transformations(*gens):
    return lambda: core.generate_from_transformations(len(gens[0]), gens)


# input -> sha256 of the whole stdout of ``analyze``, recorded with the
# per-pair table fill, relation forms and principal ideals that the
# Cayley-graph fill and the masks replaced
ANALYZE_PINS = {
    "T3": (_transformations([1, 2, 0], [1, 0, 2], [0, 0, 2]),
           "7869468f25ef67a48cf3fd2b713aa4ceeede0ba2614c90d1335366da782d18ae"),
    "T4": (_transformations([1, 2, 3, 0], [1, 0, 2, 3], [0, 0, 2, 3]),
           "34b97b33103d86247f63ac5a674ead6a6798a278077f6a69e5d4c2423fb4df14"),
    "T2-regular-biact": (lambda: regular_biact(_transformations([1, 0], [0, 0])()),
                         "aed8ad79ce3ff6934c33195fe802c2a5057812598a1314d780860e25cef1e73c"),
}

OUT = "{out}"           # replaced by a directory under tmp_path
TRIV_FILE = "{triv}"    # replaced by the trivial semigroup's file


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_t2_summary_line(self, capsys, t2_file):
        code, out, _ = run(capsys, "analyze", str(t2_file))
        assert code == 0
        assert "L:3 R:2 J:2 H:3 D:2; stable: true" in out

    def test_missing_file_is_a_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "byte offset" in err

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_file_is_a_validation_error(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(HOSTILE[name]))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "validation error" in err

    @pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
    def test_full_output_is_pinned(self, capsys, tmp_path, name):
        build, digest = ANALYZE_PINS[name]
        path = tmp_path / f"{name}.json"
        formats.dump(build(), path)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_closure_over_the_cap_is_refused(self, capsys, tmp_path):
        # T6 has 46,656 elements, more than the default closure cap
        assert core.DEFAULT_CLOSURE_CAP == 4096
        path = tmp_path / "t6.json"
        path.write_text(json.dumps({"kind": "transformations", "degree": 6, "generators": [
            [1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5]]}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "size cap of 4096 elements" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 4

    def test_unknown_flag(self, capsys, t2_file):
        assert run(capsys, "analyze", "--frobnicate", str(t2_file))[0] == 4

    def test_unknown_claim_id(self, capsys, tmp_path):
        # the report path is checked before the selection, and an existing
        # report survives the refusal
        report = tmp_path / "r.json"
        report.write_text("kept\n")
        assert run(capsys, "verify", "--suite", "nope", "--report", str(report))[0] == 4
        assert report.read_text() == "kept\n"

    def test_refused_or_failed_run_leaves_no_new_report(self, capsys, tmp_path, monkeypatch):
        from greenstone import verify as ver
        from greenstone.errors import GreenstoneError

        report = tmp_path / "new.json"
        assert run(capsys, "verify", "--suite", "nope", "--report", str(report))[0] == 4
        assert not report.exists()

        def fails(config):
            raise GreenstoneError("forced")

        monkeypatch.setattr(ver, "probe_open_problem", fails)
        assert run(capsys, "probe", "--report", str(report))[0] == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "L3.3,Ex4.8,C4.19", "--depth", "-3", "--samples", "-2"),
        ("verify", "--suite", "C4.19", "--samples", "0"),
        ("verify", "--suite", "P3.5", "--max-order", "0"),
        ("verify", "--suite", "P3.5", "--random-biacts", "-1"),
        ("catalog", "show", "bicyclic", "--chain", "L", "--depth", "0"),
        ("catalog", "show", "bicyclic", "--chain", "L", "--depth", "1"),
        ("verify", "--suite", "P3.5", "--max-order", "5"),
        ("verify", "--suite", "C3.13", "--max-order", "5"),
        ("enum", "--order", "0", "--out", OUT),
        ("enum", "--order", "-2", "--out", OUT),
        ("enum", "--order", "5", "--out", OUT),
        ("enum", "--order", "9", "--out", OUT),
        ("enum", "--biacts", "--left", TRIV_FILE, "--right", TRIV_FILE,
         "--carrier", "0", "--out", OUT),
        ("enum", "--biacts", "--left", TRIV_FILE, "--right", TRIV_FILE,
         "--carrier", "-3", "--out", OUT),
        ("enum", "--biacts", "--left", TRIV_FILE, "--right", TRIV_FILE,
         "--carrier", "4", "--out", OUT),
    ])
    def test_out_of_range_parameters(self, capsys, tmp_path, triv_files, argv):
        # each would otherwise check nothing and report a pass, or write
        # files that cannot be read back
        out_dir = tmp_path / "out"
        fill = {OUT: str(out_dir), TRIV_FILE: str(triv_files[0])}
        code, out, err = run(capsys, *(fill.get(a, a) for a in argv))
        assert code == 4
        assert "PASS" not in out and "usage error" in err
        assert not out_dir.exists()

    def test_construct_missing_parts(self, capsys, t2_file, tmp_path):
        code, _, err = run(capsys, "construct", "usta", "--s", str(t2_file),
                           "--out", str(tmp_path / "u.json"))
        assert code == 4 and "--biact" in err

    def test_catalog_show_without_name(self, capsys):
        assert run(capsys, "catalog", "show")[0] == 4

    def test_enum_biacts_need_files(self, capsys, tmp_path):
        code, _, _ = run(capsys, "enum", "--biacts", "--out", str(tmp_path / "d"))
        assert code == 4


class TestCommands:
    def test_eggbox_text(self, capsys, t2_file):
        code, out, _ = run(capsys, "eggbox", str(t2_file))
        assert code == 0 and "D-class 0" in out

    def test_eggbox_dot(self, capsys, t2_file):
        code, out, _ = run(capsys, "eggbox", str(t2_file), "--dot", "--d-class", "0")
        assert code == 0 and out.startswith("digraph")

    def test_index(self, capsys, t2_file):
        code, out, _ = run(capsys, "index", "--semigroup", str(t2_file), "--sub", "0,2")
        assert code == 0 and "green index: 3" in out

    def test_catalog_chain(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "bicyclic",
                           "--chain", "L", "--depth", "5")
        assert code == 0
        elements = json.loads(out.splitlines()[0])
        assert elements == [[0, 0], [0, 1], [0, 2], [0, 3], [0, 4]]
        assert "strictly descending" in out

    def test_catalog_show_sheet(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "nat-plus")
        assert code == 0
        payload = json.loads(out)
        assert payload["sheet"]["M_L"]["value"] is False

    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and "bicyclic" in out

    def test_construct_roundtrip(self, capsys, triv_files, tmp_path):
        s_path, b_path = triv_files
        out_path = tmp_path / "usta.json"
        code, _, _ = run(capsys, "construct", "usta", "--s", str(s_path),
                         "--t", str(s_path), "--biact", str(b_path),
                         "--out", str(out_path))
        assert code == 0
        rebuilt = formats.load(out_path)
        assert rebuilt.order == 4

    def test_construct_product_roundtrip(self, capsys, t2_file, triv_files, tmp_path):
        out_path = tmp_path / "product.json"
        code, out, _ = run(capsys, "construct", "product", "--s", str(t2_file),
                           "--t", str(triv_files[0]), "--out", str(out_path))
        assert code == 0 and "wrote" in out
        built = product_biact(formats.load(t2_file), formats.load(triv_files[0]))
        assert formats.load(out_path) == built

    def test_construct_checks_a_biact_roundtrip(self, capsys, monkeypatch, t2_file,
                                                triv_files, tmp_path):
        # a biact whose file reloads as a different biact is refused
        def dump_relabelled(obj, path):
            formats.dump(dataclasses.replace(obj, labels=tuple(reversed(obj.labels))), path)

        monkeypatch.setattr(cli, "dump", dump_relabelled)
        code, _, err = run(capsys, "construct", "product", "--s", str(t2_file),
                           "--t", str(triv_files[0]), "--out", str(tmp_path / "p.json"))
        assert code == 2 and "round-trip mismatch" in err

    def test_enum_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "census"
        code, out, _ = run(capsys, "enum", "--order", "2", "--out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 5
        for f in files:
            formats.load(f)  # every written instance re-validates

    def test_verify_subset_and_report(self, capsys, tmp_path):
        report = tmp_path / "rep.json"
        code, out, _ = run(capsys, "verify", "--suite", "P3.6",
                           "--random-biacts", "20", "--report", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["all_passed"] is True

    def test_probe(self, capsys):
        code, out, _ = run(capsys, "probe", "--seed", "42")
        assert code == 0 and "no counterexample" in out
        # probe reads the Env subsemigroup corpus; its stdout is pinned
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "f4d5def50f62771ac93fa29968843dc35b8fdb7fb211da717fc1af354f9c72b4")

    def test_claim_failure_exits_three(self, capsys, monkeypatch):
        from greenstone import verify as ver

        def broken(env):
            return ver.ClaimOutcome(ok=False, instances=1, notes="forced")

        claim = ver.Claim("P3.6", "forced failure", "finite-sampled",
                          "must-hold", broken)
        monkeypatch.setitem(ver.REGISTRY, "P3.6", claim)
        code, out, _ = run(capsys, "verify", "--suite", "P3.6",
                           "--random-biacts", "5")
        assert code == 3
        assert "FAIL P3.6" in out


class TestBadPaths:
    """Unreadable inputs and unwritable outputs are validation errors
    (exit 2) that name the path, never a traceback, and leave nothing
    behind: no file and no output, because the path is refused before any
    work is done."""

    def _refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("validation error:") and "Traceback" not in err
        assert out == ""
        return err

    def test_enum_out_is_an_existing_file(self, capsys, tmp_path):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        err = self._refused(capsys, "enum", "--order", "2", "--out", str(out))
        assert "taken" in err
        assert out.read_text() == "kept\n"

    def test_verify_report_is_a_directory(self, capsys, tmp_path):
        report = tmp_path / "reports"
        report.mkdir()
        err = self._refused(capsys, "verify", "--suite", "P3.4", "--report", str(report))
        assert "reports" in err
        assert list(report.iterdir()) == []

    def test_probe_report_is_a_directory(self, capsys, tmp_path, monkeypatch):
        from greenstone import verify as ver

        probed = []
        monkeypatch.setattr(ver, "probe_open_problem",
                            lambda config: probed.append(config) or {})
        report = tmp_path / "reports"
        report.mkdir()
        err = self._refused(capsys, "probe", "--report", str(report))
        assert "reports" in err
        assert list(report.iterdir()) == [] and probed == []

    def test_construct_product_above_the_cap(self, capsys, tmp_path):
        paths = []
        for n in (65, 64):
            paths.append(tmp_path / f"lz{n}.json")
            formats.dump(core.validate_table(n, [[i] * n for i in range(n)]), paths[-1])
        out = tmp_path / "p.json"
        code, _, err = run(capsys, "construct", "product", "--s", str(paths[0]),
                           "--t", str(paths[1]), "--out", str(out))
        assert code == 2
        assert "65" in err and "64" in err and "4096" in err
        assert not out.exists()

    def test_construct_out_is_a_directory(self, capsys, triv_files, tmp_path):
        out = tmp_path / "built"
        out.mkdir()
        s_path = str(triv_files[0])
        err = self._refused(capsys, "construct", "zdu", "--s", s_path, "--t", s_path,
                            "--out", str(out))
        assert "built" in err
        assert list(out.iterdir()) == []

    def test_analyze_a_directory(self, capsys, tmp_path):
        err = self._refused(capsys, "analyze", str(tmp_path))
        assert str(tmp_path) in err

    def test_analyze_a_binary_file(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(bytes(range(128, 256)))
        err = self._refused(capsys, "analyze", str(path))
        assert "binary.json" in err and "byte offset 0" in err


def test_cli_imports_only_the_engine():
    # analyze and the other file commands never use the claim suite, the
    # census or the symbolic catalog; the package's lazy names still work
    script = (
        "import sys, greenstone.cli\n"
        "lazy = ('greenstone.verify', 'greenstone.symbolic', 'greenstone.enumeration')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "import greenstone\n"
        "print(greenstone.catalog is greenstone.symbolic.catalog)\n"
        "ns = {}\n"
        "exec('from greenstone import *', ns)\n"
        "print(all(name in ns for name in greenstone.__all__))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["[]", "True", "True"]

import json

import pytest

from greenstone import core, formats
from greenstone.biact import product_biact, regular_biact
from greenstone.errors import ParseError


def t2():
    return core.generate_from_transformations(2, [(1, 0), (0, 0)])


class TestRoundTrips:
    def test_table_semigroup(self, tmp_path):
        s = core.validate_table(2, [[0, 0], [1, 1]], labels=["x", "y"])
        path = tmp_path / "s.json"
        formats.dump(s, path)
        loaded = formats.load(path)
        assert loaded.table == s.table and loaded.labels == s.labels

    def test_transformation_semigroup(self, tmp_path):
        s = t2()
        path = tmp_path / "t2.json"
        formats.dump(s, path)
        loaded = formats.load(path)
        assert loaded.table == s.table
        assert loaded.provenance["kind"] == "transformations"

    def test_biact(self, tmp_path):
        b = product_biact(t2(), core.validate_table(2, [[0, 1], [1, 0]]))
        path = tmp_path / "b.json"
        formats.dump(b, path)
        loaded = formats.load(path)
        assert loaded.left_action == b.left_action
        assert loaded.right_action == b.right_action

    def test_regular_biact_roundtrip(self, tmp_path):
        b = regular_biact(t2())
        path = tmp_path / "reg.json"
        formats.dump(b, path)
        assert formats.load(path).left_action == b.left_action


class TestErrors:
    def test_malformed_json_reports_the_byte_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "table", "order": }')
        with pytest.raises(ParseError) as exc:
            formats.load(path)
        assert exc.value.offset == 27

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"kind": "table", "order": 2}))
        with pytest.raises(ParseError):
            formats.load(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "group", "order": 1}))
        with pytest.raises(ParseError):
            formats.load(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            formats.load(path)

    def test_deep_nesting_is_a_parse_error_naming_the_path(self, tmp_path, capsys):
        from greenstone import cli

        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ParseError, match="deep.json: JSON nested too deeply"):
            formats.load(path)
        assert cli.main(["analyze", str(path)]) == 2
        assert f"{path}: JSON nested too deeply to decode" in capsys.readouterr().err

    def test_undecodable_bytes_name_the_path(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"kind": \xff\xfe}')
        with pytest.raises(ParseError, match="binary.json") as exc:
            formats.load(path)
        assert exc.value.offset == 9

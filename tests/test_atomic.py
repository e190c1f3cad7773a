import os

import pytest

from spikecodec._atomic import atomic_write, read_json, sidecar_path, write_json


class TestAtomicWrite:
    def test_clean_exit_replaces_target(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with atomic_write(str(path)) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_raising_body_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(str(path)) as fh:
                fh.write("partial")
                raise RuntimeError("mid-write")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_raising_body_without_target_leaves_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(str(tmp_path / "out.json")):
                raise ValueError("bad value")
        assert os.listdir(tmp_path) == []


class TestWriteJson:
    def test_layout_is_indented_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"b": [1, 2.5], "a": None})
        assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_is_rejected_and_nothing_written(self, tmp_path, value):
        # json.dump wrote Infinity and NaN, which strict JSON readers reject
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_json(str(tmp_path / "out.json"), {"rmse": value})
        assert os.listdir(tmp_path) == []


class TestReadJson:
    def test_reads_what_write_json_wrote(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json(path, {"b": [1, 2.5], "a": None})
        assert read_json(path) == {"a": None, "b": [1, 2.5]}

    @pytest.mark.parametrize("content", [b"", b"{", b"[1,]", b"\xff"])
    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            read_json(str(path))
        assert str(exc.value).startswith(f"{path}: not a JSON file (")

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(str(tmp_path / "missing.json"))


class TestSidecarPath:
    @pytest.mark.parametrize("csv_path, json_path", [
        ("t.csv", "t.json"),
        ("t", "t.json"),
        ("run.v1/t", "run.v1/t.json"),
        ("t.tar.csv", "t.tar.json"),
        (".json", ".json.json"),
    ])
    def test_extension_is_replaced_by_json(self, csv_path, json_path):
        assert sidecar_path(csv_path) == json_path

    @pytest.mark.parametrize("csv_path", ["t.json", "out/t.json", "a.b.json"])
    def test_own_sidecar_is_refused(self, csv_path):
        with pytest.raises(ValueError, match=f"^{csv_path} would be its own JSON sidecar"):
            sidecar_path(csv_path)

import os

import pytest

from spikecodec._atomic import json_bytes, read_json, sidecar_path, write_files


def failing(*chunks):
    """Chunks that fail once the given ones are read."""
    yield from chunks
    raise RuntimeError("mid-write")


class TestAtomicWrite:
    def test_clean_exit_replaces_target(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        write_files([(str(path), [b"new\n"])])
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_raising_body_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="mid-write"):
            write_files([(str(path), failing(b"partial"))])
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_raising_body_without_target_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_files([(str(tmp_path / "out.json"), failing())])
        assert os.listdir(tmp_path) == []


class TestWriteFiles:
    """A batch replaces every path or none, and refuses what it can
    before it writes anything."""

    @staticmethod
    def old_files(tmp_path, *names):
        for name in names:
            (tmp_path / name).write_text(f"old {name}\n")
        return [str(tmp_path / name) for name in names]

    def test_a_directory_at_an_earlier_path_leaves_a_later_path_unchanged(self, tmp_path):
        # the batch used to replace its paths last first, so b.csv was
        # replaced before a.csv failed
        (tmp_path / "a.csv").mkdir()
        (later,) = self.old_files(tmp_path, "b.csv")
        with pytest.raises(IsADirectoryError) as exc:
            write_files([(str(tmp_path / "a.csv"), [b"new\n"]), (later, [b"new\n"])])
        assert str(exc.value) == f"[Errno 21] Is a directory: {str(tmp_path / 'a.csv')!r}"
        assert (tmp_path / "b.csv").read_text() == "old b.csv\n"
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]

    def test_a_path_named_twice_is_refused_before_anything_is_written(self, tmp_path):
        # both files used to go to one temporary file
        (path,) = self.old_files(tmp_path, "a.csv")
        again = str(tmp_path / "." / "a.csv")
        with pytest.raises(ValueError) as exc:
            write_files([(path, failing()), (str(tmp_path / "b.csv"), failing()), (again, failing())])
        assert str(exc.value) == f"{again} is written twice in one batch"
        assert (tmp_path / "a.csv").read_text() == "old a.csv\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_a_failure_in_a_later_files_chunks_replaces_nothing(self, tmp_path):
        csv_path, json_path = self.old_files(tmp_path, "t.csv", "t.json")
        with pytest.raises(RuntimeError, match="mid-write"):
            write_files([(csv_path, [b"window,bin\n", b"0,1\n"]), (json_path, failing(b"{"))])
        assert (tmp_path / "t.csv").read_text() == "old t.csv\n"
        assert (tmp_path / "t.json").read_text() == "old t.json\n"
        assert sorted(os.listdir(tmp_path)) == ["t.csv", "t.json"]

    def test_an_os_error_names_the_path(self, tmp_path):
        path = str(tmp_path / "nodir" / "t.csv")
        with pytest.raises(FileNotFoundError) as exc:
            write_files([(path, [b"x\n"])])
        assert str(exc.value) == f"[Errno 2] No such file or directory: {path!r}"


class TestWriteJson:
    def test_layout_is_indented_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "out.json"
        write_files([(str(path), [json_bytes({"b": [1, 2.5], "a": None})])])
        assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_is_rejected_and_nothing_written(self, tmp_path, value):
        # json.dump wrote Infinity and NaN, which strict JSON readers reject
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_files([(str(tmp_path / "out.json"), [json_bytes({"rmse": value})])])
        assert os.listdir(tmp_path) == []


class TestReadJson:
    def test_reads_what_write_json_wrote(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_files([(path, [json_bytes({"b": [1, 2.5], "a": None})])])
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

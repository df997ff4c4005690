"""The README's "Library usage" block and "Command line" lines run as written,
and its "Mesh format" section lists the mesh table columns."""

import dataclasses
import re
import shlex
from pathlib import Path

from hho2d import cli
from hho2d.mesh import ElementTable, FaceTable

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = block.splitlines()
    assert len(lines) == 3 and all(line.startswith("hho2d ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        # the bracketed option is run too
        assert cli.main(shlex.split(line.replace("[", "").replace("]", ""))[1:]) == 0, line
    assert {p.name for p in tmp_path.iterdir()} == {"mat.txt", "study.csv", "study.md"}
    assert "FAILURE" not in capsys.readouterr().err


def test_mesh_format_names_every_table_column():
    (section,) = re.findall(r"\n## Mesh format\n(.*?)\n## ", README.read_text(), flags=re.S)
    for table in (FaceTable, ElementTable):
        for column in dataclasses.fields(table):
            assert f"`{column.name}`" in section, column.name
    # element rows are read only as the table columns
    for gone in ("mesh.elements[e]", "`Element`", "face_lengths", "face_midpoints"):
        assert gone not in section, gone

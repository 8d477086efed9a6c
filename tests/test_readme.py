"""The README's "Library use" examples run as printed, in one namespace."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_use_blocks():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = _library_use_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    speeds, verdict = capsys.readouterr().out.splitlines()
    flow_speed, c3, oracle_c3 = map(float, speeds.split())
    assert abs(flow_speed - c3) < 1e-7 and abs(c3 - oracle_c3) < 1e-5
    assert verdict == "True"
    assert (tmp_path / "out" / "flow_run" / "manifest.json").is_file()

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "dl_packet_delay_ms" in out and "d array('d', [" in out

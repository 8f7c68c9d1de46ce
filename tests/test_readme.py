"""README.md's samples run as written: every ``spin-atlas`` line of its
Command line block, from the repository root, and its Library block."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from spin_atlas.cli import main

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    lines = [shlex.split(line, comments=True) for line in block("Command line", "sh").splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "spin-atlas"]
    assert [argv[0] for argv in commands] == ["catalog", "sweep", "features", "tshift", "fit-trace"]
    monkeypatch.chdir(ROOT)
    for k, argv in enumerate(commands):
        # Every output goes under tmp_path, named as the README names it.
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / Path(argv[at]).name)
        else:
            argv += ["--out", str(tmp_path / f"{k}-{argv[0]}.out")]
        assert main(argv) == 0, argv
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0
    assert capsys.readouterr().err == ""


def test_library_sample_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block("Library", "python"), "README.md", "exec"), {})
    assert out.getvalue()

"""README.md stays executable: its CLI commands exit 0 and its library example runs."""

import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import hscascade
from hscascade import cascade
from hscascade.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang: str) -> list:
    """The bodies of README.md's fenced code blocks in `lang`."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)


def readme_commands() -> list:
    """The argv (program name dropped) of every `hscascade` command in the sh blocks."""
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "hscascade":
                commands.append(argv[1:])
    return commands


def test_readme_lists_every_command():
    assert [argv[0] for argv in readme_commands()] == [
        "simulate", "analyze", "spectrum", "stability", "classify-family", "determinacy"]


def test_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands write structure.csv, zeta.csv, spectrum.csv
    for argv in readme_commands():
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv", "structure.csv",
                                                          "zeta.csv"]


# runs the README's simulate (canonical rate, below the count table), spectrum and determinacy
# in a fresh interpreter, then lists the scipy modules loaded
SCIPY_FREE = """
import contextlib, io, json, sys
import hscascade, hscascade.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hscascade.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_simulate_spectrum_and_determinacy_load_no_scipy(tmp_path):
    argvs = [argv for argv in readme_commands()
             if argv[0] in ("simulate", "spectrum", "determinacy")]
    src = str(pathlib.Path(hscascade.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == [[0, 0, 0], []]


def test_structure_csv_rebuilds_the_zeta_csv(tmp_path, monkeypatch, capsys):
    # the README simulate's structure.csv carries the covariance that zeta.csv's errors come
    # from, so estimating again from the file writes the same zeta.csv, byte for byte
    monkeypatch.chdir(tmp_path)
    (argv,) = [argv for argv in readme_commands() if argv[0] == "simulate"]
    assert main(argv) == 0
    capsys.readouterr()
    zhat = cascade.estimate_zeta(cascade.StructureTable.from_csv("structure.csv"))
    zhat.to_csv("rebuilt.csv")
    assert (tmp_path / "rebuilt.csv").read_bytes() == (tmp_path / "zeta.csv").read_bytes()


def test_library_example():
    (block,) = readme_blocks("python")
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(block, namespace)
    assert namespace["report"].to_dict()["verdict"] == "a1-holds"
    assert '"verdict": "a1-holds"' in out.getvalue()

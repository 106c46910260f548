"""The README's library tour runs and prints the values its comments promise,
and every command of its CLI block exits 0."""
import itertools
import re
from pathlib import Path

import pslb
from pslb.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace, shown = {}, []
    for line in block.splitlines():
        code = line.split("#", 1)[0]
        if "# ->" in line:
            shown.append(eval(code, namespace))
        else:
            exec(code, namespace)
    crt, twins, pair, reports = shown
    assert crt == 2291
    assert twins == 465
    assert (pair.p1, pair.p2) == (19, 79)
    assert len(reports) == 18 and all(isinstance(r, pslb.ClaimReport) for r in reports)


def readme_cli_commands():
    """Each `pslb ...` line of the CLI block, with `[...]` optional parts
    dropped and every `a|b` alternative expanded into its own argv."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n+```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        words = re.sub(r"\[.*?\]", "", line.split("#", 1)[0]).split()
        assert words[0] == "pslb", line
        commands += [list(argv) for argv in itertools.product(*(w.split("|") for w in words[1:]))]
    return commands


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = readme_cli_commands()
    for argv in (["scaffold", "pairs"], ["goldbach", "6", "--filter"],
                 ["audit", "--scale", "large"], ["cache", "verify", "primes.sieve"]):
        assert argv in commands
    monkeypatch.chdir(tmp_path)  # cache build writes, and cache verify reads, primes.sieve here
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv

"""CLI start-up: a process imports the library modules and nothing that its
command does not run.  With no bytecode cache every imported module is
compiled again in each process, so each one costs start-up time."""

import os
import pathlib
import subprocess
import sys

import pytest

import gtboson

SRC = pathlib.Path(gtboson.__file__).resolve().parent.parent

# Loaded only by the commands that use them: `threej` (the Racah sum),
# `selftest` (with the other oracles), and `--format json`; `dataclasses`
# pulls in `inspect`.
NOT_AT_START = ("dataclasses", "inspect", "json", "gtboson.racah",
                "gtboson.oracles", "gtboson.selftest")
# The package imports these eagerly; the benchmark's tracer reads each one
# from sys.modules after `import gtboson.cli`.
LIBRARY = ("gtboson.gelfand", "gtboson.polyengine", "gtboson.basisgen",
           "gtboson.coupling")


def _new_modules(body: str) -> tuple[set[str], str]:
    """Run `body` in a fresh interpreter that writes no bytecode; return the
    modules it loaded beyond those the interpreter starts with, and its
    stdout before that report."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"{body}\n"
            "sys.stdout.write('@@' + ' '.join(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    out, _, names = proc.stdout.rpartition("@@")
    return set(names.split()), out


def test_cli_import_loads_only_the_library():
    loaded, _ = _new_modules("import gtboson.cli")
    assert "gtboson.cli" in loaded
    assert not loaded & set(NOT_AT_START)
    assert set(LIBRARY) <= loaded


@pytest.mark.parametrize("argv, needed, out", [
    (["threej", "--j", "1,1,1", "--m", "1,-1,0"], "gtboson.racah",
     "1/1*sqrt(1/6)\n"),
    (["dim", "--label", "2,1,0", "--format", "json"], "json",
     '{\n  "dimension": 8,\n  "label": [\n    2,\n    1,\n    0\n  ]\n}\n'),
])
def test_a_command_loads_what_it_runs(argv, needed, out):
    loaded, text = _new_modules("from gtboson import cli\n"
                                f"assert cli.run({argv!r}) == 0")
    assert text == out
    assert needed in loaded
    assert not loaded & {"gtboson.oracles", "gtboson.selftest"}

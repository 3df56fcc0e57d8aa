"""What starting colorcomp costs: the standard-library modules that importing
the package and building the CLI parser load.  A module that only one
command or one output format uses is imported where it is used."""

import os
import subprocess
import sys
from pathlib import Path

import colorcomp

# The setup code every colorcomp process runs before its command.
SETUP = "import colorcomp, colorcomp.cli; colorcomp.cli.build_parser()"

# dataclasses brings inspect, ast, dis and tokenize; json and csv serve one
# format each, and typing only annotations.
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv", "typing")


def test_setup_loads_no_module_the_command_does_not_use():
    # A fresh interpreter: pytest itself has imported most of UNUSED here.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{SETUP}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(colorcomp.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(proc.stdout.split())
    assert "colorcomp.cli" in loaded
    assert sorted(loaded.intersection(UNUSED)) == []

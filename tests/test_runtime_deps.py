"""scipy is a test-only extra: the package must run on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_modules_and_quick_checks_do_not_import_scipy():
    # the quick checks run fits, solves, alignments and quadrature, so a
    # lazy import inside a function shows up as well as a module-level one
    code = (
        "import contextlib, io, sys\n"
        "import reconstab.cli, reconstab.harness, reconstab.attack, reconstab.verify\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = reconstab.cli.main(['verify', '--level', 'quick'])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "0 []"

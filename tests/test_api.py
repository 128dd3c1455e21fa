"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import inkbasis


def test_all_names_resolve():
    missing = [name for name in inkbasis.__all__ if not hasattr(inkbasis, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(inkbasis.__all__)) == len(inkbasis.__all__)


def test_cli_import_loads_no_scipy():
    # a fresh process, so modules the tests import do not count
    env = dict(os.environ, PYTHONPATH=str(Path(inkbasis.__file__).parents[1]))
    code = "import sys, inkbasis.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

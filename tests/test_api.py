"""The public surface and the promise of no runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import ontosim


def test_every_public_name_resolves_once():
    assert len(ontosim.__all__) == len(set(ontosim.__all__))
    for name in ontosim.__all__:
        assert hasattr(ontosim, name), name


def loaded_after_import(names, *flags):
    """Which of ``names`` a fresh interpreter, run with ``flags``, has loaded
    after importing ontosim and its CLI."""
    probe = f"import sys, ontosim, ontosim.cli; print(' '.join(m for m in {names!r} if m in sys.modules))"
    src = str(Path(ontosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return result.stdout.split()


def test_import_loads_no_third_party_package():
    assert loaded_after_import(("numpy", "scipy", "psutil", "hypothesis")) == []


def test_cli_import_loads_no_statistics():
    # -S: no site hooks, so only the package's own imports are seen
    assert loaded_after_import(("statistics",), "-S") == []

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


def test_import_loads_no_third_party_package():
    probe = (
        "import sys, ontosim, ontosim.cli; "
        "print(' '.join(m for m in ('numpy', 'scipy', 'psutil', 'hypothesis') if m in sys.modules))"
    )
    src = str(Path(ontosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout == "\n"

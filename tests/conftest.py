"""Shared test fixtures and environment setup.

Served sweeps with ``start_method="spawn"`` launch cold
interpreters that re-import :mod:`repro` from scratch; since the
package is run from the source tree (not installed), the spawned
children need ``src`` on ``PYTHONPATH``.  Normal forked workers and
in-process tests inherit ``sys.path`` and don't care.
"""

import os
import sys

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                    os.pardir, "src"))
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_parts = os.environ.get("PYTHONPATH", "")
if _SRC not in _parts.split(os.pathsep):
    os.environ["PYTHONPATH"] = (f"{_SRC}{os.pathsep}{_parts}"
                                if _parts else _SRC)

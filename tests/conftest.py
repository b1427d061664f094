"""Child interpreters that the tests start import the same qhk as the tests,
whether it is installed or found through pytest's `pythonpath` setting."""

import os
from pathlib import Path

import qhk

_where = str(Path(qhk.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_where, os.environ.get("PYTHONPATH")) if p)

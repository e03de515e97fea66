"""Session setup for standalone ``python jobs/x.py`` / ``spark-submit`` runs.

Puts the repository root on ``sys.path`` and re-exports
:func:`conftest.get_session`, so jobs get the same session configuration
as the tests (importing ``conftest`` also sets ``PYSPARK_SUBMIT_ARGS``
before pyspark starts the JVM).
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import get_session  # noqa: E402,F401

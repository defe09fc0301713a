import os
from pathlib import Path

import pytest

import dbarlab


@pytest.fixture(scope="session")
def subprocess_env() -> dict:
    """A copy of os.environ under which `python -m dbarlab` imports the package under test.

    pytest's pythonpath setting reaches only the test process, so the
    imported package's parent directory goes first on PYTHONPATH.  One dict
    serves the whole session: a test that changes it copies it first.
    """
    env = dict(os.environ)
    src = str(Path(dbarlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env

"""The package ``__init__``s import nothing until a name is used.

The wall-clock serving path (gateway, client, device config) must load
without numpy, the simulator or the experiments, and the top-level
names must still resolve on first use.  Each check runs in a fresh
interpreter, because this test session has long since imported
everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_gateway_path_imports_neither_numpy_nor_the_simulator():
    loaded = _fresh(
        "import sys\n"
        "import repro.realtime.gateway, repro.realtime.client, repro.device.config\n"
        "heavy = ('numpy', 'repro.sim', 'repro.experiments')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
        "             or m.startswith(heavy[1:])))\n"
    )
    assert loaded == "[]"


def test_top_level_names_resolve_on_first_use():
    out = _fresh(
        "import sys\n"
        "import repro\n"
        "assert 'repro.experiments' not in sys.modules\n"
        "from repro import Scenario, run_scenario, FrameFeedbackController\n"
        "from repro.realtime import InferenceGateway\n"
        "from repro.models import jpeg_bits_per_pixel\n"
        "assert 'Scenario' in dir(repro) and 'Scenario' in repro.__all__\n"
        "print(Scenario.__module__, run_scenario.__name__,\n"
        "      FrameFeedbackController.__name__, InferenceGateway.__name__)\n"
    )
    assert out == (
        "repro.experiments.scenario run_scenario FrameFeedbackController InferenceGateway"
    )


def test_unknown_name_is_an_attribute_error():
    import pytest

    with pytest.raises(AttributeError):
        repro.NoSuchThing  # noqa: B018
    with pytest.raises(ImportError):
        from repro.metrics import NoSuchThing  # noqa: F401

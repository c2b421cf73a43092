"""Start-up cost: importing a module loads only what that module uses.

Each check runs in a fresh interpreter, because this process has long
since imported everything.  The package root is lazy (PEP 562), so
``import repro.<anything>`` no longer drags in ``repro.core``, and
scipy is imported inside the functions that call it; networkx is not a
dependency at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.import_cost

REPO_ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy", "networkx")


def _loaded_after(statement: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = (f"import json, sys\n{statement}\n"
              f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, cwd=str(REPO_ROOT), timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("statement", [
    "import repro",
    "import repro.simkit",
    "import repro.sync.federation",
])
def test_import_loads_neither_scipy_nor_networkx(statement):
    assert _loaded_after(statement) == []


def test_root_exports_still_resolve_lazily():
    assert _loaded_after(
        "from repro import Simulator, build_unit_case\n"
        "assert Simulator.__module__ == 'repro.simkit.engine'\n"
        "assert callable(build_unit_case)") == []


def test_seat_assignment_imports_scipy_on_first_use():
    assert _loaded_after(
        "import numpy as np\n"
        "from repro.edge.seats import Seat, assign_seats_hungarian\n"
        "assert 'scipy' not in sys.modules\n"
        "assign_seats_hungarian({'a': np.zeros(3)}, [Seat('s', np.zeros(3))])"
    ) == ["scipy"]

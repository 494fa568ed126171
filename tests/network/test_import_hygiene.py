"""No engine needs numpy, and the kernel tier is gone.

``peak_rss_mb`` and ``setup_s`` of every run pay for whatever the import
chain drags in; numpy alone is ~10 MB and ~60 ms.  Its only readers were
``repro.network.kernels`` and ``repro.network.soa``, both deleted — nothing
under ``src/`` imports it, and ``pyproject.toml`` declares no dependency.
Likewise ``import repro`` loads no process or event-loop machinery: the
campaign layer that needs it is imported only where it is used.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = """
import sys
from repro.config import SimulationConfig, tiny_default
from repro.network.simulator import NetworkSimulator

configs = [
    tiny_default(measure_cycles=200),
    SimulationConfig(
        topology="torus3d", dims=(3, 2, 2), link_latencies=(1, 1, 3),
        routing="dor", message_length=8, warmup_cycles=0, measure_cycles=200,
    ),
    SimulationConfig(
        topology="dragonfly", dims=(3, 1, 1), routing="df-min",
        message_length=8, warmup_cycles=0, measure_cycles=200,
    ),
]
for cfg in configs:
    assert NetworkSimulator(cfg).run().delivered > 0
print("numpy" in sys.modules)
"""


def test_default_engine_imports_no_numpy_or_kernel_modules():
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False", "a default or zoo run imported numpy"
    for gone in ("repro.network.kernels", "repro.network.soa"):
        assert importlib.util.find_spec(gone) is None, f"{gone} is back"


_PROCESS_MODULES = (
    "concurrent.futures", "multiprocessing", "subprocess", "asyncio"
)


def test_import_repro_loads_no_process_or_event_loop_machinery():
    """Process pools and the event loop load only with the campaign layer."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; "
            f"print([m for m in {_PROCESS_MODULES!r} if m in sys.modules])",
        ],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.strip()
    assert loaded == "[]", f"import repro loaded {loaded}"
    assert importlib.util.find_spec("repro.metrics.parallel") is None

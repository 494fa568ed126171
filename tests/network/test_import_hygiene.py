"""The default engine's process stays free of numpy and the kernel tier.

``peak_rss_mb`` and ``setup_s`` of every default run pay for whatever the
default import chain drags in; numpy alone is ~10 MB and ~60 ms.  Only
``engine_kernels=True`` may import it (with ``repro.network.soa`` and
``repro.network.kernels``, its readers).
"""

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
leaked = [
    m for m in ("numpy", "repro.network.soa", "repro.network.kernels")
    if m in sys.modules
]
print(",".join(leaked))
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
    assert out.stdout.strip() == "", (
        f"default-engine runs imported: {out.stdout.strip()}"
    )

"""Smoke tests: every example script must run clean end-to-end.

Examples are user-facing documentation; breaking one silently is worse
than breaking a unit. Each runs in a subprocess with small arguments.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", ["6"]),
    ("anisotropic_domains.py", []),
    ("visualize_mapping.py", []),
    ("visualize_mapping.py", ["8", "4", "4", "2"]),
    ("strategy_comparison.py", ["4"]),
    ("bt_block_solver.py", ["4"]),
    ("topology_aware_mapping.py", []),
    ("hpf_compiler_demo.py", ["4"]),
    ("trace_visualization.py", ["2"]),
]


@pytest.mark.parametrize(
    "script,args", CASES, ids=[f"{s}:{'-'.join(a) or 'default'}" for s, a in CASES]
)
def test_example_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print something"

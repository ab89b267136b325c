"""Every fault of the register (``faults.py``) still applies to the source, and
its recorded killer is a test that Tier-1 runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from faults import FAULTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rbmpo"


@pytest.fixture(scope="module")
def tier1_ids():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
                          "no:cacheprovider", "--continue-on-collection-errors"],
                         cwd=ROOT, capture_output=True, text=True, env=env)
    return set(run.stdout.splitlines())


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.name for fault in FAULTS])
def test_source_text_occurs_once(fault):
    counts = {path.name: path.read_text().count(fault.text) for path in SRC.glob("*.py")}
    assert counts.pop(fault.file) == 1 and not any(counts.values()), counts


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.name for fault in FAULTS])
def test_recorded_killer_is_a_tier1_test(fault, tier1_ids):
    assert fault.killer in tier1_ids

"""Every fault of the register (``faults.py``) still applies to the source."""

from pathlib import Path

import pytest

from faults import FAULTS

SRC = Path(__file__).resolve().parents[1] / "src" / "rbmpo"


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.name for fault in FAULTS])
def test_source_text_occurs_once(fault):
    counts = {path.name: path.read_text().count(fault.text) for path in SRC.glob("*.py")}
    assert counts.pop(fault.file) == 1 and not any(counts.values()), counts

"""The seeded differential corpus against the digests recorded in tests/differential.json.

Every block of every family is recomputed here, as ``scripts/differential.py
--full`` does; ``--dump FAMILY`` prints the records behind a digest.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"
_spec = importlib.util.spec_from_file_location("differential", SCRIPT)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def test_differential_digests_cover_every_family_and_block():
    recorded = json.loads(differential.DIGESTS.read_text())
    assert list(recorded) == differential.FAMILIES
    assert all(len(blocks) == differential.BLOCKS for blocks in recorded.values())


def test_differential_every_block_matches():
    expected = json.loads(differential.DIGESTS.read_text())
    assert differential.mismatches(expected, range(differential.BLOCKS)) == []

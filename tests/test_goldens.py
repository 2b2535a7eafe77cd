"""The golden registry writes back exactly what goldens/ holds."""

import json
import pathlib

from mongebde.goldens import check_goldens, write_goldens

GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "goldens"


def _without_value(entry: dict) -> dict:
    return {key: v for key, v in entry.items() if key != "value"}


def test_write_goldens_round_trip(tmp_path):
    write_goldens(str(tmp_path))
    assert (tmp_path / "exact.json").read_bytes() == (GOLDENS / "exact.json").read_bytes()
    results = check_goldens(str(tmp_path))
    assert [r.name for r in results if not r.ok] == []
    fresh = json.loads((tmp_path / "traced.json").read_text())
    stored = json.loads((GOLDENS / "traced.json").read_text())
    assert len(results) == len(json.loads((GOLDENS / "exact.json").read_text())) + len(stored)
    # Traced values may move within their tolerance; names, tolerances
    # and flags may not.
    assert {n: _without_value(e) for n, e in fresh.items()} == {
        n: _without_value(e) for n, e in stored.items()
    }

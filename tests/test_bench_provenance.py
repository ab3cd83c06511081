"""Provenance stamped on the benchmark twins by ``benchmarks.conftest``."""

import json

from benchmarks.conftest import report


def test_report_stamps_dirty_flag(tmp_path):
    report(tmp_path, "probe.txt", "probe table", data={})
    twin = json.loads((tmp_path / "BENCH_probe.json").read_text())
    provenance = twin["provenance"]
    assert provenance["dirty"] is None or isinstance(provenance["dirty"], bool)
    assert provenance["repeats"] == 1
    assert (tmp_path / "probe.txt").read_text() == "probe table\n"

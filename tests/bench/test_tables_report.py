"""Tests for result recording and the EXPERIMENTS.md generator."""

import json

import pytest

from repro.bench.tables import Row, record_rows, render_table, within_factor
from repro.bench import report


class TestRow:
    def test_ratio(self):
        assert Row("x", 2.0, 3.0).ratio == pytest.approx(1.5)

    def test_zero_paper_value(self):
        import math

        assert math.isnan(Row("x", 0.0, 1.0).ratio)


class TestRecordRows(object):
    def test_creates_and_merges(self, tmp_path, monkeypatch):
        results = tmp_path / "results.json"
        monkeypatch.setattr(
            "repro.bench.tables.RESULTS_PATH", str(results)
        )
        record_rows("exp-a", [Row("one", 1.0, 1.1, "ms")], notes="n1")
        record_rows("exp-b", [Row("two", 2.0, 2.2)])
        record_rows("exp-a", [Row("one", 1.0, 1.05, "ms")])  # update

        data = json.loads(results.read_text())
        assert set(data) == {"exp-a", "exp-b"}
        assert data["exp-a"]["rows"][0]["measured"] == 1.05
        assert data["exp-a"]["notes"] == ""

    def test_survives_corrupt_file(self, tmp_path, monkeypatch):
        results = tmp_path / "results.json"
        results.write_text("{ not json")
        monkeypatch.setattr(
            "repro.bench.tables.RESULTS_PATH", str(results)
        )
        record_rows("exp", [Row("r", 1.0, 1.0)])
        assert "exp" in json.loads(results.read_text())


class TestReportGeneration:
    def test_generates_markdown(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({
            "table-6-1": {
                "rows": [
                    {"label": "pf 128B", "paper": 1.9, "measured": 1.94,
                     "unit": "ms"},
                ],
                "notes": "a note",
            },
            "custom-extra": {
                "rows": [
                    {"label": "thing", "paper": 2.0, "measured": 4.0,
                     "unit": ""},
                ],
                "notes": "",
            },
        }))
        output = report.generate(str(results))
        assert "Table 6-1" in output
        assert "| pf 128B | 1.9 ms | 1.94 ms | 1.02 |" in output
        assert "a note" in output
        assert "custom-extra" in output  # unknown keys still rendered

    def test_row_without_paper_value_renders_a_dash(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({
            "perf-demux-throughput": {
                "rows": [
                    {"label": "ir, 32 filters", "paper": 0.0,
                     "measured": 846000.0, "unit": "pkts/sec"},
                ],
                "notes": "",
            },
        }))
        output = report.generate(str(results))
        assert "| ir, 32 filters | — | 846000 pkts/sec | — |" in output
        assert "nan" not in output

        table = render_table("demo", [Row("ir", 0.0, 2.5, "pkts/sec")])
        assert table.splitlines()[-1].split() == [
            "ir", "—", "2.50", "—", "pkts/sec",
        ]
        assert "nan" not in table

    def test_missing_file_is_a_clear_error(self, tmp_path):
        with pytest.raises(SystemExit, match="benchmark"):
            report.generate(str(tmp_path / "absent.json"))

    def test_every_benchmark_key_has_a_title(self):
        """Each experiment id recorded by the benchmarks must have a
        human title, so EXPERIMENTS.md never shows raw keys."""
        import re
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        recorded = set()
        for path in bench_dir.glob("test_*.py"):
            recorded.update(
                re.findall(r'record_rows\(\s*[\'"]([\w\-]+)[\'"]', path.read_text())
            )
        assert recorded, "no record_rows calls found?"
        missing = recorded - set(report.TITLES)
        assert not missing, f"add titles for: {sorted(missing)}"


class TestNumberFormatting:
    @pytest.mark.parametrize(
        "value,expect",
        [
            (1780.0, "1780"),
            (1.9, "1.9"),
            (1.94321, "1.94"),
            (0.063, "0.063"),
            (336.0, "336"),
            (7.44, "7.44"),
            (0.0, "0"),
        ],
    )
    def test_plain_decimal(self, value, expect):
        assert report._number(value) == expect


class TestWithinFactor:
    @pytest.mark.parametrize(
        "measured,paper,factor,expect",
        [
            (1.0, 1.0, 1.01, True),
            (2.0, 1.0, 2.0, True),
            (2.1, 1.0, 2.0, False),
            (0.5, 1.0, 2.0, True),
            (0.4, 1.0, 2.0, False),
        ],
    )
    def test_symmetric(self, measured, paper, factor, expect):
        assert within_factor(measured, paper, factor) is expect

"""Paper-vs-measured table rendering and shape assertions.

Every benchmark prints its table through :func:`render_table` so the
output format is uniform, and records its rows with :func:`record_rows`
so ``EXPERIMENTS.md`` can be regenerated from an actual run
(``python -m repro.bench.report``).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

__all__ = ["Row", "render_table", "record_rows", "within_factor"]

RESULTS_PATH = os.environ.get("REPRO_RESULTS", "bench_results.json")


@dataclass(frozen=True)
class Row:
    """One line of a reproduced table."""

    label: str
    paper: float
    measured: float
    unit: str = ""

    @property
    def ratio(self) -> float:
        if self.paper == 0:
            return float("nan")
        return self.measured / self.paper


def render_table(title: str, rows: list[Row]) -> str:
    """Uniform paper-vs-measured rendering; a row with no paper value
    shows ``—`` for the paper and ratio columns."""
    width = max(len(row.label) for row in rows)
    lines = [
        "",
        f"=== {title} ===",
        f"{'':{width}}  {'paper':>10}  {'measured':>10}  {'meas/paper':>10}",
    ]
    for row in rows:
        if row.paper:
            paper, ratio = f"{row.paper:10.2f}", f"{row.ratio:10.2f}"
        else:
            paper = ratio = f"{'—':>10}"
        lines.append(
            f"{row.label:{width}}  {paper}  {row.measured:10.2f}"
            f"  {ratio}  {row.unit}"
        )
    return "\n".join(lines)


def record_rows(experiment: str, rows: list[Row], notes: str = "") -> None:
    """Append results to the JSON the report generator reads.

    Appends are merged by experiment id, so re-running a single bench
    updates just its section.
    """
    data: dict = {}
    if os.path.exists(RESULTS_PATH):
        try:
            with open(RESULTS_PATH) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            data = {}
    data[experiment] = {
        "rows": [asdict(row) for row in rows],
        "notes": notes,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)


def within_factor(measured: float, paper: float, factor: float) -> bool:
    """True when measured is within ``factor``x of the paper's value in
    either direction — the loose absolute check; benches assert shapes
    (orderings, ratios) tightly and absolutes loosely."""
    if paper <= 0 or measured <= 0:
        return False
    big, small = max(measured, paper), min(measured, paper)
    return big / small <= factor

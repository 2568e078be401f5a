#!/usr/bin/env python3
"""Check the count cells of EXPERIMENTS.md against the committed records.

Usage:
  check_experiments.py [EXPERIMENTS_MD]

Recomputes, from the BENCH records committed under bench/baselines
(table1_cost_runtime) and bench/baselines/table2 (table2_sat_sweeping):

  E1  the mean per-circuit cost ratio of each SimGen arm to RevS, in the
      measured Cost row and wherever the headline table names an arm
      with a ratio;
  E2  the summed SAT calls of RevS and AI+DC+MFFC, and on how many
      circuits AI+DC+MFFC needs no more calls than RevS, in E2 and in
      the headline table;
  E4  the Figure 5 means of the AI+DC+MFFC / RevS cost and SAT-call
      ratios, and on how many circuits each ratio is below 1.0.

Every one of these cells must be present and quote the recomputed value.
Times are not checked: they depend on the machine that recorded them.
EXPERIMENTS_MD defaults to the EXPERIMENTS.md next to tools/.

Exit code 0 when every cell matches, 1 on a mismatch, a missing cell or
unreadable records.
"""
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARMS = ("SI+RD", "AI+RD", "AI+DC", "AI+DC+MFFC")
SIMGEN = "AI+DC+MFFC"


def load_records(directory):
    """Maps (benchmark, strategy) to the BENCH record in directory."""
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        records[(record["benchmark"], record["strategy"])] = record
    if not records:
        raise ValueError(f"no BENCH_*.json records in {directory}")
    return records


def ratio(value, baseline):
    """The bench drivers' ratio: 0/0 compares equal."""
    if baseline == 0:
        return 1.0 if value == 0 else 0.0
    return value / baseline


def per_circuit(records, arm, field):
    circuits = sorted({name for name, _ in records})
    return [ratio(records[(c, arm)][field], records[(c, "RevS")][field])
            for c in circuits]


def mean(values):
    return sum(values) / len(values)


def expected_cells():
    """The values EXPERIMENTS.md must quote, as the doc formats them."""
    table1 = load_records(ROOT / "bench" / "baselines")
    table2 = load_records(ROOT / "bench" / "baselines" / "table2")
    circuits = sorted({name for name, _ in table2})
    n = len(circuits)
    cells = {f"e1.{arm}": f"{mean(per_circuit(table1, arm, 'cost')):.3f}"
             for arm in ARMS}
    revs = sum(table2[(c, "RevS")]["sat_calls"] for c in circuits)
    simgen = sum(table2[(c, SIMGEN)]["sat_calls"] for c in circuits)
    wins = sum(table2[(c, SIMGEN)]["sat_calls"] <= table2[(c, "RevS")]["sat_calls"]
               for c in circuits)
    cells["e2.revs_calls"] = f"{revs:,}"
    cells["e2.simgen_calls"] = f"{simgen:,}"
    cells["e2.wins"] = f"{wins}/{n}"
    cost = per_circuit(table2, SIMGEN, "cost")
    calls = per_circuit(table2, SIMGEN, "sat_calls")
    cells["e4.cost"] = f"{mean(cost):.3f}"
    cells["e4.calls"] = f"{mean(calls):.3f}"
    cells["e4.cost_below"] = f"{sum(r < 1.0 for r in cost)}/{n}"
    cells["e4.calls_below"] = f"{sum(r < 1.0 for r in calls)}/{n}"
    return cells


def section(doc, heading):
    """The text from the line starting with heading to the next '## '."""
    start = doc.find("\n" + heading)
    if start < 0:
        return ""
    end = doc.find("\n## ", start + 1)
    return doc[start:end if end >= 0 else len(doc)]


def quoted_cells(doc):
    """Yields (cell, quoted value, where) for every gated cell found."""
    headline = section(doc, "## Headline summary")
    for line in headline.splitlines():
        # An arm named with a ratio ("SI+RD 0.920") quotes E1. Longer arm
        # names first, so "AI+DC+MFFC 0.920" is not read as "AI+DC".
        for arm, value in re.findall(r"(AI\+DC\+MFFC|AI\+DC|AI\+RD|SI\+RD) (\d\.\d{3})", line):
            yield f"e1.{arm}", value, "headline"
        match = re.search(r"(\d+/\d+) benchmarks, ([\d,]+) → ([\d,]+) calls", line)
        if match:
            yield "e2.wins", match.group(1), "headline"
            yield "e2.revs_calls", match.group(2), "headline"
            yield "e2.simgen_calls", match.group(3), "headline"
    e1 = section(doc, "## E1")
    cost_rows = [line for line in e1.splitlines() if line.startswith("| Cost")]
    if cost_rows:
        measured = [cell.strip() for cell in cost_rows[-1].strip("|").split("|")]
        for arm, value in zip(ARMS, measured[2:]):
            yield f"e1.{arm}", value, "E1 measured Cost row"
    e2 = " ".join(section(doc, "## E2").split())
    match = re.search(r"SimGen <= RevS SAT calls on (\d+/\d+)", e2)
    if match:
        yield "e2.wins", match.group(1), "E2"
    match = re.search(r"total calls ([\d,]+) -> ([\d,]+)", e2)
    if match:
        yield "e2.revs_calls", match.group(1), "E2"
        yield "e2.simgen_calls", match.group(2), "E2"
    e4 = " ".join(section(doc, "## E4").split())
    match = re.search(r"cost (\d\.\d{3}) and SAT calls (\d\.\d{3})", e4)
    if match:
        yield "e4.cost", match.group(1), "E4"
        yield "e4.calls", match.group(2), "E4"
    match = re.search(r"below 1\.0 on (\d+/\d+) circuits for cost, (\d+/\d+) for SAT calls", e4)
    if match:
        yield "e4.cost_below", match.group(1), "E4"
        yield "e4.calls_below", match.group(2), "E4"


def main():
    doc_path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "EXPERIMENTS.md"
    try:
        doc = doc_path.read_text()
        expected = expected_cells()
    except (OSError, ValueError, KeyError) as error:
        print(f"check_experiments: {error}")
        return 1
    failures = []
    seen = set()
    checked = 0
    for cell, value, where in quoted_cells(doc):
        seen.add(cell)
        checked += 1
        if value != expected[cell]:
            failures.append(f"MISMATCH {where}: {cell} is {value}, the records give "
                            f"{expected[cell]}")
    for cell in sorted(set(expected) - seen):
        failures.append(f"MISSING  {cell} ({expected[cell]}): no cell quotes it")
    for line in failures:
        print(line)
    if failures:
        print(f"{doc_path.name}: {len(failures)} count cells disagree with the records")
        return 1
    print(f"{doc_path.name}: {checked} count cells match the committed records")
    return 0


if __name__ == "__main__":
    sys.exit(main())

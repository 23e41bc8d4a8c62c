"""Summarise benchmark records and compare two summaries.

    python3 perfbench/compare.py summary .perfbench_out/*-trace0.json > new.json
    python3 perfbench/compare.py diff perfbench/baseline.json new.json

``summary`` groups the records run.py wrote by workload and gives, for every
end-to-end metric and the raw pass wall time, the median and quartiles over
the runs, with the run
count, the seeds and the report digests of each seed.  ``diff`` prints each
metric's median change against its bound from BENCHMARK.json and lists the
experiments whose report bodies changed on a seed both summaries ran.  A
changed digest is reported, not failed: it means the experiment's output
changed, which is expected only where the sampler behind it changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def summary(paths: list[str]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["provenance"]["trace"] == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(by_workload.items()):
        metrics = {}
        # The raw pass wall time rides along: it has no bound, the drift of a
        # shared host is in it, but it is the time a user waits.
        for m in BENCHMARK["end_to_end"] + [{"name": "run.wall_s", "unit": "s"}]:
            values = [r["metrics"][m["name"]] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "runs": len(values),
            }
        first = records[0]["provenance"]
        out[workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "digests": {str(r["provenance"]["seed"]): r["digests"] for r in records},
            "provenance": {k: v for k, v in first.items() if k != "seed"},
        }
    return out


def diff(old: dict, new: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    lines = []
    for workload in sorted(set(old) & set(new)):
        for name, bound in bounds.items():
            a = old[workload]["metrics"][name]["median"]
            b = new[workload]["metrics"][name]["median"]
            change = b / a - 1.0
            verdict = "worse beyond bound" if change > bound else "within bound"
            lines.append(f"{workload} {name}: {a:.6g} -> {b:.6g} ({change:+.1%}, bound {bound:.0%}): {verdict}")
        seeds = set(old[workload]["digests"]) & set(new[workload]["digests"])
        changed = sorted({
            name
            for seed in seeds
            for name, digest in new[workload]["digests"][seed].items()
            if old[workload]["digests"][seed].get(name) != digest
        })
        lines.append(
            f"{workload} report bodies changed on {len(seeds)} common seeds: "
            + (", ".join(changed) if changed else "none")
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[1] == "summary":
        print(json.dumps(summary(argv[2:]), indent=2, sort_keys=True))
        return 0
    if len(argv) == 4 and argv[1] == "diff":
        old, new = (json.loads(Path(p).read_text()) for p in argv[2:])
        print("\n".join(diff(old.get("workloads", old), new.get("workloads", new))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Step 2 of run -> raw -> csv -> table: flatten ``perfbench/raw/*.json``.

Reads the per-run documents ``run.py`` left in ``perfbench/raw/``
(``<workload>_r<k>.json`` untraced, ``<workload>_trace.json`` traced),
writes ``end_to_end.csv`` (one row per run and metric) and
``per_layer.csv`` (one row per layer metric) next to them, and prints
the per-workload medians with quartiles.

    python3 perfbench/to_csv.py [RAW_DIR]
"""

from __future__ import annotations

import csv
import glob
import json
import os
import sys

from pb_common import RAW_DIR, quartiles


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    raw_dir = argv[0] if argv else RAW_DIR
    runs = []
    for path in sorted(glob.glob(os.path.join(raw_dir, "*.json"))):
        with open(path) as handle:
            document = json.load(handle)
        if isinstance(document, dict) and "workload" in document:
            runs.append((os.path.basename(path), document))
    if not runs:
        print(f"no run documents in {raw_dir}; run perfbench/run.py first",
              file=sys.stderr)
        return 1
    tables = {False: [], True: []}
    for file_name, document in runs:
        # A traced run speaks only for its own workload's layers.
        own = document["detail"].get("own_layers", document["metrics"])
        for name, metric in document["metrics"].items():
            if name not in own:
                continue
            tables[document["trace"]].append(
                {
                    "workload": document["workload"],
                    "run": file_name,
                    "seed": document["provenance"]["seed"],
                    "metric": name,
                    "value": metric["value"],
                    "unit": metric["unit"],
                    "failed": document["failed"],
                    "attempted": document["attempted"],
                    "degraded": bool(document["provenance"]["degraded"]),
                }
            )
    for traced, file_name in ((False, "end_to_end.csv"), (True, "per_layer.csv")):
        rows = tables[traced]
        if not rows:
            continue
        with open(os.path.join(raw_dir, file_name), "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    grouped = {}
    for row in tables[False]:
        if not row["degraded"]:
            key = (row["workload"], row["metric"], row["unit"])
            grouped.setdefault(key, []).append(row["value"])
    print(f"{'workload':15s} {'metric':14s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s}  unit")
    for (workload, metric, unit), values in grouped.items():
        q1, q2, q3 = quartiles(values)
        print(f"{workload:15s} {metric:14s} {q2:14.4f} {q1:14.4f} "
              f"{q3:14.4f} {len(values):3d}  {unit}")
    for row in tables[True]:
        print(f"{row['workload']:15s} {row['metric']:40s} "
              f"{row['value']:16.6f}  {row['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

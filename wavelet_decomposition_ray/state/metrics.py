"""Per-stage metrics + run lineage.

``parse_dataset_stats`` turns Ray Data's ``ds.stats()`` text into structured
per-operator rows (wall time, cpu time, rows, bytes, tasks) so
``metrics.json`` carries machine-readable per-stage throughput, not just a
blob. ``write_lineage`` records what a run consumed and how it was
configured — with the per-bucket manifest rows this is the engine's lineage
story (north_rule: "resumable from per-partition checkpoints with lineage
and throughput metrics emitted per stage").
"""

from __future__ import annotations

import json
import os
import re


_NUM = r"([0-9.]+)(us|ms|s|min)?"


def _to_seconds(val: str, unit: str | None) -> float:
    f = float(val)
    return f * {"us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0, None: 1.0}[unit]


def parse_dataset_stats(stats: str) -> list[dict]:
    """Best-effort structured view of ``Dataset.stats()`` output: one row
    per operator.  An all-to-all operator (``Operator 3 Sort: executed in
    0.53s``) gets its own row; the totals of its indented sub-operators
    (``SortMap``, ``SortReduce``) go into that row's ``suboperators`` list
    and are summed into its ``task_wall_total_s`` / ``task_cpu_total_s``,
    never into the row before it."""
    out = []
    op = cur = None
    for line in stats.splitlines():
        s = line.strip()
        m = re.match(r"Operator (\d+) (.+?): (?:(\d+) tasks executed, )?(\d+) blocks? produced in ([0-9.]+)s", s)
        if m:
            op = cur = {
                "operator": m.group(2)[:120],
                "tasks": int(m.group(3)) if m.group(3) else None,
                "blocks": int(m.group(4)),
                "wall_s": float(m.group(5)),
            }
            out.append(cur)
            continue
        m = re.match(r"Operator (\d+) (.+?): executed in ([0-9.]+)s", s)
        if m:
            op = cur = {"operator": m.group(2)[:120], "wall_s": float(m.group(3)),
                        "suboperators": []}
            out.append(cur)
            continue
        m = re.match(r"Suboperator (\d+) (.+?): (\d+) tasks executed, (\d+) blocks? produced", s)
        if m and op is not None and "suboperators" in op:
            cur = {"operator": m.group(2)[:120], "tasks": int(m.group(3)),
                   "blocks": int(m.group(4))}
            op["suboperators"].append(cur)
            continue
        if re.match(r"(Operator|Dataset) ", s):
            cur = None  # a header this parser does not know: stop attributing
            continue
        if cur is None:
            continue
        m = re.match(rf"\* Remote wall time: .* {_NUM} total", s)
        if m:
            cur["task_wall_total_s"] = round(_to_seconds(m.group(1), m.group(2)), 4)
        m = re.match(rf"\* Remote cpu time: .* {_NUM} total", s)
        if m:
            cur["task_cpu_total_s"] = round(_to_seconds(m.group(1), m.group(2)), 4)
        m = re.match(r"\* Output num rows per block: .* (\d+) total", s)
        if m:
            cur["rows_out"] = int(m.group(1))
        m = re.match(r"\* Output size bytes per block: .* (\d+) total", s)
        if m:
            cur["bytes_out"] = int(m.group(1))
    for row in out:
        subs = row.get("suboperators")
        if not subs:
            continue
        for k in ("task_wall_total_s", "task_cpu_total_s"):
            if any(k in x for x in subs):
                row[k] = round(sum(x.get(k, 0.0) for x in subs), 4)
    return out


def write_lineage(out_dir: str, input_path: str, config: dict) -> None:
    """Record run lineage: input files (path, size, mtime) + job config."""
    files = []
    if os.path.isdir(input_path):
        for f in sorted(os.listdir(input_path)):
            p = os.path.join(input_path, f)
            if os.path.isfile(p):
                st = os.stat(p)
                files.append({"file": f, "bytes": st.st_size,
                              "mtime": int(st.st_mtime)})
    elif os.path.isfile(input_path):
        st = os.stat(input_path)
        files.append({"file": os.path.basename(input_path),
                      "bytes": st.st_size, "mtime": int(st.st_mtime)})
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, ".lineage.json.tmp")
    with open(tmp, "w") as fh:
        json.dump({"input_path": os.path.abspath(input_path),
                   "input_files": files, "config": config}, fh, indent=1,
                  sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "lineage.json"))

"""Run lineage.

``write_lineage`` records what a run consumed and how it was configured —
with the per-bucket manifest rows and the per-layer rows the job writes to
``metrics.json`` this is the engine's lineage story (north_rule:
"resumable from per-partition checkpoints with lineage and throughput
metrics emitted per stage").
"""

from __future__ import annotations

import json
import os


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

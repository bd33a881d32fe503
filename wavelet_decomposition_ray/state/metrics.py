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


def input_files(input_path: str) -> list[dict]:
    """What a run consumes: (file, bytes, mtime) of each file of the input
    directory, by name, or of the one input file."""
    if os.path.isdir(input_path):
        paths = [os.path.join(input_path, f) for f in sorted(os.listdir(input_path))]
    else:
        paths = [input_path]
    files = []
    for p in paths:
        if os.path.isfile(p):
            st = os.stat(p)
            files.append({"file": os.path.basename(p), "bytes": st.st_size,
                          "mtime": int(st.st_mtime)})
    return files


def write_lineage(out_dir: str, input_path: str, config: dict) -> None:
    """Record run lineage: :func:`input_files` + job config."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, ".lineage.json.tmp")
    with open(tmp, "w") as fh:
        json.dump({"input_path": os.path.abspath(input_path),
                   "input_files": input_files(input_path), "config": config},
                  fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "lineage.json"))

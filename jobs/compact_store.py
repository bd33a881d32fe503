"""CLI: compact a retention store into fewer, larger partitions.

    python jobs/compact_store.py --src /path/to/store \
        --dst /path/to/compacted --n-buckets 4

Runs on the job's write path (one plain Ray task per row group of the
source's committed data files, then the job's commit phase) and never
decodes; the result is byte-identical to a from-scratch build at the new
bucket count (same deterministic doc_id hash, same single bucket
writer), passes fsck, and reruns skip completed buckets.  A source whose
committed buckets are not all of its ``n_buckets`` (from its
``lineage.json``, written before any commit) is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--n-buckets", type=int, required=True)
    p.add_argument("--num-cpus", type=int, default=8)
    args = p.parse_args()

    import ray

    owned = not ray.is_initialized()
    if owned:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    try:
        from wavelet_decomposition_ray.state.compact import compact_store

        print(json.dumps(compact_store(args.src, args.dst, args.n_buckets)))
    finally:
        if owned:
            ray.shutdown()


if __name__ == "__main__":
    main()

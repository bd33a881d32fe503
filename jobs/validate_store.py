"""CLI: fsck a retention store against its manifest.

    python jobs/validate_store.py --store /tmp/store_dir

Exit code 0 iff every bucket passes (checksum, row count, blob decode,
window count, doc fingerprint, manifest-row partials), every bucket of the
store's lineage is committed and no file in its data directory goes unnamed
by a manifest row. One JSON summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--store", required=True)
    p.add_argument("--num-cpus", type=int, default=8)
    args = p.parse_args()

    import ray

    owned = not ray.is_initialized()
    if owned:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
    try:
        from wavelet_decomposition_ray.state.validate import validate_store

        summary = validate_store(args.store)
        print(json.dumps(summary))
        sys.exit(0 if summary["ok"] else 1)
    finally:
        if owned:
            ray.shutdown()


if __name__ == "__main__":
    main()

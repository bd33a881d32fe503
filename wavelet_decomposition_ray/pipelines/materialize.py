"""Idempotent query materialization: run any registry query and persist
its result as an on-disk artifact with crash-safe, skip-if-complete
semantics.

Reference analog: the skip-if-exists matrix cache
(``/root/reference/wavelet_decomposition.py:30-35``) generalized from the
store build to EVERY pipeline in the registry — the "materialized view"
lifecycle a production deployment runs nightly.

Protocol (same atomic-rename discipline as ``state/manifest.py``):

* results stream into ``<out>.tmp-<host>-<pid>`` (Dataset writers produce
  one file per block there — partitioned output, never one giant file);
* a ``_SUCCESS`` JSON (query name, row count, wall seconds) is written
  INSIDE the tmp dir, then the tmp dir is atomically renamed to ``<out>``;
* a rerun sees ``<out>/_SUCCESS`` and returns without touching Ray — the
  resume path costs one stat call;
* a crashed run leaves only a ``.tmp-*`` orphan which the next run clears.

Datasets stream straight to the sink (no driver materialization); pandas
results (the few driver-side top-K finishes) write a single file.
"""

from __future__ import annotations

import json
import os
import shutil
import time

FORMATS = ("parquet", "jsonl", "csv")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


# a tmp dir untouched this long is an orphan regardless of pid liveness:
# covers pid recycling (dead run's pid adopted by a long-lived process ->
# otherwise immortal orphan) and foreign hosts on a shared filesystem
# (their pids can't be probed locally)
ORPHAN_STALE_S = 24 * 3600


def _tmp_is_orphan(path: str, name: str) -> bool:
    """True when a ``<base>.tmp-...`` sibling belongs to a crashed run.

    Tmp names embed ``<host>-<pid>`` (legacy: bare ``<pid>``). Same-host
    dirs are orphans when the pid is dead; dirs from OTHER hosts (shared
    filesystem, concurrent multi-node materializers) are never pid-probed
    locally — both fall back to the mtime staleness cutoff."""
    import socket
    import time as _time

    try:
        stale = (_time.time() - os.path.getmtime(path)) > ORPHAN_STALE_S
    except OSError:
        return False  # vanished concurrently: someone else cleaned it
    suffix = name.rsplit(".tmp-", 1)[1]
    host, _, pid_s = suffix.rpartition("-")
    try:
        pid = int(pid_s)
    except ValueError:
        return stale  # unrecognized format: only age can judge it
    if host and host != socket.gethostname():
        return stale
    if pid == os.getpid():
        return True  # our own pid: a leftover from THIS process's past run
    return stale or not _pid_alive(pid)


def success_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_SUCCESS")


def is_complete(out_dir: str) -> bool:
    return os.path.isfile(success_path(out_dir))


def materialize_query(
    name: str, sf_dir: str, out_dir: str, fmt: str = "parquet"
) -> dict:
    """Run registry query ``name`` over ``sf_dir`` and persist the result
    under ``out_dir``.  Returns the _SUCCESS manifest dict (existing one
    on a skip).  Ray must already be initialised by the caller."""
    import pandas as pd
    import pyarrow as pa

    if fmt not in FORMATS:
        raise ValueError(f"fmt must be one of {FORMATS}, got {fmt!r}")
    if is_complete(out_dir):
        with open(success_path(out_dir)) as f:
            return json.load(f)

    from .data_queries import DATA_QUERIES
    from .queries import CORE_QUERIES

    registry = {**CORE_QUERIES, **DATA_QUERIES}
    if name not in registry:
        raise KeyError(f"unknown query {name!r}")

    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    # clear orphans of CRASHED runs for this target — but never the live
    # tmp dir of a concurrent materializer (ADVICE r3: rmtree'ing a
    # running sibling's tmp made it fail mid-write instead of one of the
    # two winning). Same-host liveness = pid probe; foreign-host dirs and
    # pid-recycled zombies resolve via the mtime staleness cutoff
    # (_tmp_is_orphan); the eventual double-rename is resolved by _swap.
    import socket

    base = os.path.basename(out_dir)
    for d in os.listdir(parent):
        if not d.startswith(f"{base}.tmp-"):
            continue
        p = os.path.join(parent, d)
        if _tmp_is_orphan(p, d):
            shutil.rmtree(p, ignore_errors=True)
    tmp = f"{out_dir}.tmp-{socket.gethostname()}-{os.getpid()}"
    os.makedirs(tmp)

    t0 = time.perf_counter()
    res = registry[name][0](sf_dir)
    if isinstance(res, pa.Table):  # driver-collected: one part file
        res = res.to_pandas()
    if isinstance(res, pd.DataFrame):
        path = os.path.join(tmp, f"part-0.{fmt}")
        if fmt == "parquet":
            res.to_parquet(path, index=False)
        elif fmt == "jsonl":
            res.to_json(path, orient="records", lines=True)
        else:
            res.to_csv(path, index=False)
        n_rows = len(res)
    else:
        if fmt == "parquet":
            res.write_parquet(f"local://{tmp}")
        elif fmt == "jsonl":
            res.write_json(f"local://{tmp}")
        else:
            res.write_csv(f"local://{tmp}")
        # row count from the written files' metadata (parquet) or a cheap
        # line count for text formats; avoids holding the dataset twice
        if fmt == "parquet":
            import pyarrow.parquet as pq

            n_rows = sum(
                pq.read_metadata(os.path.join(tmp, f)).num_rows
                for f in os.listdir(tmp)
                if f.endswith(".parquet")
            )
        else:
            hdr = 1 if fmt == "csv" else 0  # every csv shard repeats the header
            n_rows = sum(
                max(sum(1 for _ in open(os.path.join(tmp, f))) - hdr, 0)
                for f in os.listdir(tmp)
                if not f.startswith("_")
            )

    meta = {
        "query": name,
        "sf_dir": sf_dir,
        "format": fmt,
        "n_rows": int(n_rows),
        "wall_s": round(time.perf_counter() - t0, 3),
    }
    with open(success_path(tmp), "w") as f:
        json.dump(meta, f)
    if os.path.isdir(out_dir):
        _swap(tmp, out_dir)
    else:
        os.replace(tmp, out_dir)
    return meta


def _swap(tmp: str, out_dir: str) -> None:
    # an incomplete (no _SUCCESS) previous out_dir is replaced atomically
    # as far as POSIX allows: move it aside, rename tmp in, drop the old
    old = f"{out_dir}.old-{os.getpid()}"
    os.replace(out_dir, old)
    os.replace(tmp, out_dir)
    shutil.rmtree(old, ignore_errors=True)

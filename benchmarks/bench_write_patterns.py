"""Cost of one partition-sized file write under four write patterns.

A spilling run rewrites each partition file many times.  This measures,
in a directory on the file system under test, the milliseconds per
write of a fixed-size payload when the file is

* ``replace_fsync``   -- written to a temp file, fsynced, renamed over
                         the target (``serialize.atomic_write_bytes``,
                         the durable path);
* ``replace``         -- the same without the fsync;
* ``truncate``        -- opened ``"wb"`` and rewritten in place;
* ``write_once``      -- written to a fresh name, the previous name
                         unlinked (the scratch store's path).

It prints one JSON object: the host fields and, per pattern, the median
and the quartiles of the per-write times.  The results depend on the
file system and its mount options (``discard`` in particular), so
record them with the numbers.

Usage::

    python benchmarks/bench_write_patterns.py [--dir DIR] [--kib 95] [--writes 40]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time


def _replace(directory, i, data, fsync):
    path = os.path.join(directory, "part.bin")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        if fsync:
            f.flush()
            os.fsync(f.fileno())
    os.replace(tmp, path)


def _truncate(directory, i, data):
    with open(os.path.join(directory, "part.bin"), "wb") as f:
        f.write(data)


def _write_once(directory, i, data):
    with open(os.path.join(directory, f"part_{i:05d}.bin"), "wb") as f:
        f.write(data)
    try:
        os.remove(os.path.join(directory, f"part_{i - 1:05d}.bin"))
    except FileNotFoundError:
        pass


PATTERNS = {
    "replace_fsync": lambda d, i, data: _replace(d, i, data, fsync=True),
    "replace": lambda d, i, data: _replace(d, i, data, fsync=False),
    "truncate": _truncate,
    "write_once": _write_once,
}


def _mount_of(path: str) -> str:
    """``"<mount point> <fs type> <options>"`` for the mount holding
    ``path`` (empty where ``/proc/mounts`` is unavailable)."""
    path = os.path.realpath(path)
    point, found = "", ""
    try:
        with open("/proc/mounts") as f:
            mounts = [line.split()[1:4] for line in f]
    except OSError:
        return ""
    for mount, fstype, options in mounts:
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(point):
            point, found = mount, f"{mount} {fstype} {options}"
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=None,
                        help="directory on the file system under test"
                             " (default: the temp dir)")
    parser.add_argument("--kib", type=int, default=95)
    parser.add_argument("--writes", type=int, default=40)
    args = parser.parse_args(argv)
    data = os.urandom(args.kib * 1024)
    result = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "mount": _mount_of(args.dir or tempfile.gettempdir()),
        },
        "payload_kib": args.kib,
        "writes": args.writes,
        "ms_per_write": {},
    }
    for name, write in PATTERNS.items():
        with tempfile.TemporaryDirectory(dir=args.dir) as directory:
            times = []
            for i in range(args.writes):
                start = time.perf_counter()
                write(directory, i, data)
                times.append((time.perf_counter() - start) * 1000)
        q1, median, q3 = statistics.quantiles(times, n=4)
        result["ms_per_write"][name] = {
            "median": round(median, 3), "q1": round(q1, 3),
            "q3": round(q3, 3),
        }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

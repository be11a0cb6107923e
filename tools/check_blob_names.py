#!/usr/bin/env python3
"""Check that every frame blob hashes to its file name.

A warehouse frame (``frame-<digest>.json``, in a warehouse or a spill
directory) is ``canonical_json(payload)`` plus one newline, so the
first 16 hex digits of the SHA-256 of its bytes less that newline are
the digest its file name (and its manifest entry) carries.

    python tools/check_blob_names.py DIR [DIR ...]

Each ``DIR`` must hold at least one such blob.  Exit status 0 when
every blob checks out (one summary line per directory), 1 otherwise
(each failure listed).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def blob_failures(directory: Path) -> tuple[int, list[str]]:
    """``(blobs checked, failures)`` for one directory."""
    blobs = sorted(directory.glob("frame-*.json"))
    if not blobs:
        return 0, [f"{directory}: no frame blobs"]
    failures = []
    for blob in blobs:
        data = blob.read_bytes()
        digest = blob.stem.rpartition("-")[2]
        if not data.endswith(b"\n") or data.count(b"\n") != 1:
            failures.append(f"{blob}: not one newline-terminated line")
            continue
        actual = hashlib.sha256(data[:-1]).hexdigest()[:16]
        if actual != digest:
            failures.append(f"{blob}: hashes to {actual}")
    return len(blobs), failures


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_blob_names.py DIR [DIR ...]", file=sys.stderr)
        return 1
    status = 0
    for directory in map(Path, argv):
        count, failures = blob_failures(directory)
        for failure in failures:
            print(failure, file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"{directory}: {count} blobs hash to their names")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

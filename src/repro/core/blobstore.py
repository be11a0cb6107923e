"""The storage primitive every on-disk container publishes through.

Shard artifacts, warehouse frames and chunk-store chunks, their
manifests, and the queue's manifest, leases and failure ledgers are
all JSON files written and read here and nowhere else:

* :func:`publish_bytes` — atomic publication: a ``.tmp`` sibling,
  flushed, fsynced and renamed over the destination with
  :func:`os.replace`.  :func:`write_json` publishes a payload's JSON
  line through it.
  A reader sees no file or a complete one, and a writer killed at any
  instant leaves the destination absent or at its previous value
  (:class:`ArtifactState`);
* :func:`create_json_exclusive` — ``O_CREAT | O_EXCL``: one winner;
* :func:`read_json` — the one strict reader: every failure raises the
  caller's error class with the path in the message (:func:`parse_json`
  applies it to bytes a caller read with :func:`read_bytes`);
* :func:`content_digest` / :func:`put_blob` / :func:`get_blob` —
  content addressing: a blob's bytes are its canonical JSON plus one
  newline, so its digest (embedded in its file name) is the SHA-256 of
  the stored bytes less that newline.  It is read back only by a bare
  name inside its container directory, verified by hashing the raw
  file against the digest its manifest recorded: a file that fails the
  hash is tampered, torn or mispaired, and is refused.

Each container keeps its own manifest layout and revision counter and
republishes the manifest with :func:`write_json` after its blob lands.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Callable, Optional, Union

from ..errors import SpecificationError

PathLike = Union[str, Path]

#: The caller's error class: every read failure is raised as one.
ErrorClass = type[SpecificationError]


def canonical_json(payload) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, exact floats.

    The single serialisation used for content digests *and* query
    responses, so "byte-identical" means the same thing everywhere.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload) -> str:
    """Content digest of a payload: SHA-256 of its canonical JSON, 16 hex."""
    return _bytes_digest(canonical_json(payload).encode("utf-8"))


def _bytes_digest(data) -> str:
    """16-hex SHA-256 of canonical JSON bytes (any bytes-like)."""
    return hashlib.sha256(data).hexdigest()[:16]


# -- the write protocol ------------------------------------------------


class ArtifactState(enum.Enum):
    """Durability state of one published path.

    The write protocol gives every path exactly three observable
    states, which is what lets watchers poll a directory safely:

    * ``ABSENT`` — neither the file nor its temp sibling exists;
    * ``PENDING`` — only the ``.tmp`` sibling exists: a writer is
      mid-serialisation, or died there.  Never read it; a retry will
      atomically replace it;
    * ``COMPLETE`` — the destination path exists.  Because the only
      way it comes into existence is :func:`os.replace` of a fully
      written, fsynced temp file, existence *is* completeness: a
      reader that can open it sees every byte.
    """

    ABSENT = "absent"
    PENDING = "pending"
    COMPLETE = "complete"


def pending_path(path: PathLike) -> Path:
    """The temp sibling an in-flight write uses: ``<name>.tmp``.

    The suffix keeps it out of every ``*.json`` glob, so shard scans
    and stray-chunk checks never pick up a half-written file.
    """
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def artifact_state(path: PathLike) -> ArtifactState:
    """Classify a published path (see :class:`ArtifactState`)."""
    path = Path(path)
    if path.exists():
        return ArtifactState.COMPLETE
    if pending_path(path).exists():
        return ArtifactState.PENDING
    return ArtifactState.ABSENT


def _json_line(payload) -> bytes:
    """``payload`` as one JSON line, built by one :func:`json.dumps`.

    CPython serves ``json.dumps`` with its C encoder (``json.dump`` to
    a file always streams through the pure-Python one).  Default
    separators and key order, so the bytes equal the old
    ``json.dump(payload, handle); handle.write("\\n")`` stream.
    """
    return (json.dumps(payload) + "\n").encode("utf-8")


def _write_synced(handle, data: bytes) -> None:
    """Land ``data`` in a single ``write``, then flush and fsync."""
    handle.write(data)
    handle.flush()
    os.fsync(handle.fileno())


def write_json(path: PathLike, payload) -> Path:
    """Atomically publish ``payload`` at ``path`` (one JSON line)."""
    return publish_bytes(path, _json_line(payload))


def publish_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically publish ``data`` at ``path``: the write protocol.

    On any failure the temp file is removed and the exception
    propagates, leaving ``path`` absent or unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = pending_path(path)
    try:
        with tmp.open("wb") as handle:
            _write_synced(handle, data)
        os.replace(tmp, path)
    except BaseException:
        # A failed write must not leave a stale PENDING file claiming
        # a writer is still at work.
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def create_json_exclusive(path: PathLike, payload) -> bool:
    """Create ``path`` holding ``payload`` unless it exists.

    ``O_CREAT | O_EXCL`` (atomic on POSIX and NFSv3+) decides the race:
    ``True`` for the one creator that won, ``False`` otherwise.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    with os.fdopen(fd, "wb") as handle:
        _write_synced(handle, _json_line(payload))
    return True


# -- the strict reader -------------------------------------------------


def check_payload(
    payload,
    error: ErrorClass,
    label: str,
    source: str,
    format: Optional[str] = None,
    remedy: Optional[str] = None,
) -> dict:
    """``payload`` if it is an object declaring ``format`` (when given);
    also the check of the ``payload_to_*`` rebuilders.  ``remedy``, when
    given, ends the message of a format refusal: how to regenerate a
    file an older release wrote."""
    if not isinstance(payload, dict):
        raise error(f"{source}: {label} is not an object")
    if format is not None:
        declared = payload.get("format")
        if declared != format:
            raise error(
                f"{source}: unsupported {label} format {declared!r} "
                f"(expected {format!r})"
                + (f"; {remedy}" if remedy else "")
            )
    return payload


def read_json(
    path: PathLike,
    error: ErrorClass,
    label: str,
    *,
    format: Optional[str] = None,
    digest: Optional[str] = None,
    remedy: Optional[str] = None,
) -> dict:
    """Load one JSON object, raising ``error`` on every failure.

    ``label`` names the file kind in messages ("shard artifact",
    "frame chunk", ...).  With ``format`` the payload must declare it
    (``remedy`` as :func:`check_payload` takes it); with ``digest`` the
    file must be the blob that digest names — a tampered, truncated or
    mispaired file is refused.

    A digest is checked on the raw bytes before parsing: a blob
    :func:`put_blob` wrote is ``canonical_json(payload) + "\\n"``, so
    the SHA-256 of its bytes less the final newline *is* its digest and
    nothing is re-encoded.
    """
    path = Path(path)
    if digest is not None:
        return _read_verified(path, error, label, format, digest)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc}") from None
    with handle:
        return _load_checked(handle, path, error, label, format, remedy)


def _read_verified(path: Path, error, label, format, digest: str) -> dict:
    """:func:`read_json` with a digest: the raw bytes must hash to it."""
    raw = read_bytes(path, error, label)
    body = memoryview(raw)[:-1] if raw.endswith(b"\n") else raw
    actual = _bytes_digest(body)
    del body
    if actual != digest:
        # Parsed only to name the failure: a torn write, a foreign
        # format, or else tampered or mispaired bytes.
        handle = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        _load_checked(handle, path, error, label, format, None)
        raise error(
            f"{path}: {label} content digest {actual} does not "
            f"match the manifest's {digest} (tampered or mispaired "
            f"{label} file)"
        )
    # The bytes are the canonical text the digest was taken of.
    source = _DecodeOnRead(raw)
    del raw
    return _load_checked(source, path, error, label, format, None)


class _DecodeOnRead:
    """A one-shot ``read()`` of bytes as strict UTF-8 that lets go of
    them, so only the decoded text is resident while it is parsed."""

    def __init__(self, raw: bytes) -> None:
        self._raw = raw

    def read(self) -> str:
        raw, self._raw = self._raw, b""
        return raw.decode("utf-8")


def read_bytes(path: PathLike, error: ErrorClass, label: str) -> bytes:
    """The raw bytes of ``path``, raising ``error`` when unreadable."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc}") from None


def parse_json(
    raw: bytes, path: PathLike, error: ErrorClass, label: str
) -> dict:
    """:func:`read_json` of bytes already read from ``path``.

    For a caller that compares the bytes it read before parsing them
    (the query service's manifest memo): the bytes are decoded as the
    UTF-8 text file they came from, so the payload and every message
    equal a :func:`read_json` of the same file.
    """
    handle = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    return _load_checked(handle, Path(path), error, label, None, None)


def _load_checked(handle, path: Path, error, label, format, remedy) -> dict:
    """The strict reader's parse and checks over a text handle."""
    try:
        payload = json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(
            f"{label} {path} is not valid JSON (truncated write?): {exc}"
        ) from None
    except UnicodeDecodeError as exc:
        # A write torn mid multi-byte character must surface as the
        # caller's error, not a UnicodeDecodeError traceback.
        raise error(
            f"{label} {path} is not valid JSON: not valid UTF-8 "
            f"(truncated write?): {exc}"
        ) from None
    return check_payload(payload, error, label, str(path), format, remedy)


# -- content-addressed blobs ------------------------------------------


def check_blob_name(name, error: ErrorClass, label: str) -> str:
    """``name`` if it is a bare file name, else ``error``: a manifest
    must not point outside its container directory."""
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or "/" in name
        or "\\" in name
        or "\x00" in name
    ):
        raise error(f"{label} file must be a bare file name, got {name!r}")
    return name


def put_blob(
    directory: PathLike, name_for_digest: Callable[[str], str], payload
) -> tuple[str, str]:
    """Publish ``payload`` as ``name_for_digest(content_digest)``;
    returns ``(name, digest)`` for the caller's manifest entry.

    The payload is encoded once: the blob's bytes are
    ``canonical_json(payload) + "\\n"`` and its digest is the hash of
    those bytes less the newline, published with :func:`publish_bytes`.
    """
    data = (canonical_json(payload) + "\n").encode("utf-8")
    digest = _bytes_digest(memoryview(data)[:-1])
    name = name_for_digest(digest)
    publish_bytes(Path(directory) / name, data)
    return name, digest


def get_blob(
    directory: PathLike,
    name: str,
    digest: str,
    error: ErrorClass,
    label: str,
    *,
    format: Optional[str] = None,
) -> dict:
    """Read back a blob by its bare ``name`` and verify its ``digest``
    (on the raw bytes, as :func:`read_json` describes)."""
    check_blob_name(name, error, label)
    return read_json(
        Path(directory) / name, error, label, format=format, digest=digest
    )

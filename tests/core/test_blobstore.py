"""Fault suite for the storage primitive (``repro.core.blobstore``).

Every on-disk container — shard artifacts, warehouse frames and
manifests (a spilled store's included), the queue manifest — publishes
and reads through one module, so crash safety is proven once, here:

* a written file truncated at *every* byte offset, or with any byte
  flipped, ends in the caller's error class (or, for a flip that keeps
  the parsed payload identical, in that same payload);
* a foreign ``format``, a blob paired with the wrong digest and a
  non-bare blob name are refused with the caller's error class;
* a writer killed during serialisation, at flush, at fsync or at
  ``os.replace`` leaves the destination absent or at its previous
  value, with no ``.tmp`` sibling behind.

The truncate and tamper cases then run through each container's public
reader to show that each one inherits the guarantee.  The blob layout
is pinned too: a blob's bytes are ``canonical_json(payload) + "\\n"``,
its digest is the hash of those bytes less the newline, a verified read
re-encodes nothing, and a blob written in the old layout (``json.dumps``
with default separators and insertion key order) fails the raw hash
and is refused as tampered.  The last class guards the
single-copy property: no other ``repro.core`` module may grow its own
atomic writer, exclusive create, JSON reader or content digest.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core as core_package
from repro.core import blobstore
from repro.core.blobstore import ArtifactState, artifact_state, pending_path
from repro.core.framestore import ChunkedFrameStore
from repro.core.queue import (
    QueueError,
    QueueManifest,
    read_manifest,
    write_manifest,
)
from repro.core.resultframe import ResultFrame, SweepRow
from repro.core.sharding import (
    GridIdentity,
    ShardArtifact,
    ShardMergeError,
    read_shard_artifact,
    write_shard_artifact,
)
from repro.core.warehouse import (
    MANIFEST_NAME as STORE_MANIFEST,
    DecisionFrame,
    WarehouseError,
    frame_filename,
    frame_payload,
    read_warehouse_frame,
)
from repro.errors import SpecificationError


class BlobError(SpecificationError):
    """The error class the primitive's own cases pass in."""


REFUSED = object()

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=5)

#: Payloads with everything the writer's encoder must format exactly as
#: ``json.dump`` did: NaN, ±inf, -0.0, any float, non-ASCII text.
wild_objects = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        st.one_of(
            json_scalars,
            st.floats(),
            st.sampled_from(
                [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324]
            ),
            st.text(
                alphabet=st.characters(min_codepoint=0x80), max_size=6
            ),
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=5,
)


def _outcome(read, error):
    """``read()``'s result, or :data:`REFUSED` when it raised ``error``.

    Any other exception escapes and fails the test: a reader must never
    leak a raw traceback.
    """
    try:
        return read()
    except error:
        return REFUSED


def _row(index: int) -> SweepRow:
    return SweepRow(
        volume=float(10 ** (index + 2)),
        substrate="pcb",
        process="none",
        tolerance="paper",
        q_model="paper",
        nre="paper",
        weights="paper",
        candidate=f"cand{index}",
        performance=0.5 + index,
        area_percent=100.0 - index,
        cost_percent=100.0 + index,
        figure_of_merit=1.0 + index / 8,
        is_winner=index == 0,
        on_pareto_front=index % 2 == 0,
    )


def _frame(rows: int = 3) -> ResultFrame:
    return ResultFrame.from_rows([_row(i) for i in range(rows)])


# -- the primitive ------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(json_objects)
    def test_write_then_read_returns_the_payload(self, payload):
        with tempfile.TemporaryDirectory() as scratch:
            path = blobstore.write_json(
                Path(scratch) / "a" / "x.json", payload
            )
            assert blobstore.read_json(path, BlobError, "blob") == payload
            assert artifact_state(path) is ArtifactState.COMPLETE
            assert not pending_path(path).exists()

    @settings(max_examples=60, deadline=None)
    @given(json_objects)
    def test_blob_round_trip_is_content_addressed(self, payload):
        with tempfile.TemporaryDirectory() as scratch:
            name, digest = blobstore.put_blob(
                scratch, lambda d: f"blob-{d}.json", payload
            )
            assert name == f"blob-{digest}.json"
            assert digest == blobstore.content_digest(payload)
            assert (
                blobstore.get_blob(scratch, name, digest, BlobError, "blob")
                == payload
            )

    @settings(max_examples=80, deadline=None)
    @given(wild_objects)
    def test_written_bytes_equal_the_streamed_encoder(self, payload):
        """One ``json.dumps`` write gives the bytes ``json.dump``
        streamed: same separators, key order and float text."""
        with tempfile.TemporaryDirectory() as scratch:
            reference = Path(scratch) / "reference.json"
            with reference.open("w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.write("\n")
            written = blobstore.write_json(Path(scratch) / "x.json", payload)
            exclusive = Path(scratch) / "lease.json"
            assert blobstore.create_json_exclusive(exclusive, payload)
            assert written.read_bytes() == reference.read_bytes()
            assert exclusive.read_bytes() == reference.read_bytes()

    def test_canonical_json_ignores_key_order(self):
        a = {"b": 1, "a": [1.5, {"z": None, "y": True}]}
        b = {"a": [1.5, {"y": True, "z": None}], "b": 1}
        assert blobstore.canonical_json(a) == blobstore.canonical_json(b)
        assert blobstore.content_digest(a) == blobstore.content_digest(b)
        assert len(blobstore.content_digest(a)) == 16

    def test_exclusive_create_has_one_winner(self, tmp_path):
        path = tmp_path / "lease.json"
        assert blobstore.create_json_exclusive(path, {"owner": "a"})
        assert not blobstore.create_json_exclusive(path, {"owner": "b"})
        assert blobstore.read_json(path, BlobError, "lease") == {"owner": "a"}


def _canonical_bytes(payload) -> bytes:
    return (blobstore.canonical_json(payload) + "\n").encode("utf-8")


def _legacy_put_blob(directory, name_for_digest, payload):
    """``put_blob`` as it was before blob bytes were canonical: the
    digest of the canonical JSON, the file a ``json.dumps`` line."""
    digest = blobstore.content_digest(payload)
    name = name_for_digest(digest)
    path = Path(directory) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes((json.dumps(payload) + "\n").encode("utf-8"))
    return name, digest


class TestBlobLayout:
    @settings(max_examples=100, deadline=None)
    @given(wild_objects)
    def test_blob_bytes_are_canonical_and_hash_to_the_digest(self, payload):
        with tempfile.TemporaryDirectory() as scratch:
            name, digest = blobstore.put_blob(
                scratch, lambda d: f"blob-{d}.json", payload
            )
            data = (Path(scratch) / name).read_bytes()
            assert data == _canonical_bytes(payload)
            assert digest == hashlib.sha256(data[:-1]).hexdigest()[:16]
            assert digest == blobstore.content_digest(payload)
            got = blobstore.get_blob(scratch, name, digest, BlobError, "blob")
            # NaN != NaN, so compare the canonical text (which keeps
            # -0.0, int/float and every float bit apart).
            assert blobstore.canonical_json(got) == (
                blobstore.canonical_json(payload)
            )


@contextlib.contextmanager
def _counting(*names: str):
    """Count calls of ``blobstore``'s ``names`` (``"json.dumps"`` for the
    encoder every JSON text comes from)."""
    calls = dict.fromkeys(names, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            owner = json if name == "json.dumps" else blobstore
            attribute = name.rpartition(".")[2]
            real = getattr(owner, attribute)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            patch.setattr(owner, attribute, counted)
        yield calls


class TestNoReEncode:
    """A verified read hashes the stored bytes instead of re-encoding
    the parsed payload; a write encodes once."""

    ENCODERS = ("content_digest", "canonical_json", "json.dumps")

    def test_verified_reads_of_canonical_blobs_encode_nothing(self, tmp_path):
        frame, digest = _frame_file(tmp_path / "warehouse")
        store = _store(tmp_path / "store")
        manifest = json.loads((store.directory / STORE_MANIFEST).read_bytes())
        chunk = manifest["frames"][0]
        with _counting(*self.ENCODERS) as calls:
            read_warehouse_frame(frame, expected_digest=digest)
            blobstore.get_blob(
                frame.parent, frame.name, digest, BlobError, "blob"
            )
            blobstore.read_json(frame, BlobError, "blob", digest=digest)
            blobstore.get_blob(
                store.directory,
                chunk["file"],
                chunk["digest"],
                BlobError,
                "blob",
            )
            ChunkedFrameStore.open(tmp_path / "store").to_frame()
        assert calls == dict.fromkeys(self.ENCODERS, 0)

    def test_a_refused_read_re_digests_nothing(self, tmp_path):
        """A legacy blob fails the raw hash and is refused; nothing is
        re-encoded to decide that."""
        name, digest = _legacy_put_blob(
            tmp_path, lambda d: f"blob-{d}.json", {"b": [1.5], "a": 1}
        )
        with _counting(*self.ENCODERS) as calls:
            with pytest.raises(BlobError, match="tampered or mispaired"):
                blobstore.get_blob(tmp_path, name, digest, BlobError, "blob")
        assert calls == dict.fromkeys(self.ENCODERS, 0)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_put_blob_runs_the_encoder_once(self, tmp_path, rows):
        dframe = DecisionFrame(
            frame=_frame(rows),
            size_ratio=np.ones(rows),
            cost_ratio=np.ones(rows),
            indices=tuple(range(rows)),
            row_counts=(1,) * rows,
        )
        payload = frame_payload(
            dframe, fingerprint="f" * 16, order_digest="o" * 16,
            total_points=rows,
        )
        with _counting(*self.ENCODERS) as calls:
            blobstore.put_blob(tmp_path, frame_filename, payload)
        assert calls == {
            "content_digest": 0, "canonical_json": 1, "json.dumps": 1
        }


class TestLegacyBlobs:
    """Blobs written before blob bytes were canonical fail the raw hash
    and are refused: there is no parse-and-re-digest fallback."""

    @settings(max_examples=60, deadline=None)
    @given(wild_objects)
    def test_legacy_blob_is_refused(self, payload):
        with tempfile.TemporaryDirectory() as scratch:
            name, digest = _legacy_put_blob(
                scratch, lambda d: f"blob-{d}.json", payload
            )
            legacy = (Path(scratch) / name).read_bytes()
            got = _outcome(
                lambda: blobstore.get_blob(
                    scratch, name, digest, BlobError, "blob"
                ),
                BlobError,
            )
            # Only a payload whose two layouts coincide ({}) is read.
            if legacy == _canonical_bytes(payload):
                assert got == payload
            else:
                assert got is REFUSED

    @settings(max_examples=120, deadline=None)
    @given(
        json_objects,
        st.integers(min_value=0),
        st.integers(min_value=1, max_value=255),
    )
    def test_any_flipped_byte_in_a_legacy_blob(self, payload, offset, mask):
        with tempfile.TemporaryDirectory() as scratch:
            name, digest = _legacy_put_blob(
                scratch, lambda d: f"blob-{d}.json", payload
            )
            path = Path(scratch) / name
            data = bytearray(path.read_bytes())
            data[offset % len(data)] ^= mask
            path.write_bytes(bytes(data))
            got = _outcome(
                lambda: blobstore.get_blob(
                    scratch, name, digest, BlobError, "blob"
                ),
                BlobError,
            )
            assert got is REFUSED

    def test_tampered_legacy_blob_gets_the_mismatch_message(self, tmp_path):
        payload = {"format": "x/1", "values": [1.5, 2.5]}
        name, digest = _legacy_put_blob(
            tmp_path, lambda d: f"blob-{d}.json", payload
        )
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"2.5", b"2.4"))
        actual = hashlib.sha256(path.read_bytes()[:-1]).hexdigest()[:16]
        with pytest.raises(BlobError) as excinfo:
            blobstore.get_blob(tmp_path, name, digest, BlobError, "blob")
        assert str(excinfo.value) == (
            f"{path}: blob content digest {actual} does not match the "
            f"manifest's {digest} (tampered or mispaired blob file)"
        )

    def test_legacy_containers_are_refused(self, tmp_path, monkeypatch):
        """A frame file and chunks in the old layout keep their names
        (the digest is still the canonical JSON's) and are refused."""
        frame, digest = _frame_file(tmp_path / "new")
        _store(tmp_path / "new" / "store")
        monkeypatch.setattr(blobstore, "put_blob", _legacy_put_blob)
        legacy_frame, legacy_digest = _frame_file(tmp_path / "old")
        _store(tmp_path / "old" / "store")
        monkeypatch.undo()
        assert (legacy_frame.name, legacy_digest) == (frame.name, digest)
        legacy_chunks = sorted((tmp_path / "old" / "store").glob("frame-*"))
        chunks = sorted((tmp_path / "new" / "store").glob("frame-*"))
        assert [p.name for p in legacy_chunks] == [p.name for p in chunks]
        for old, new in zip([legacy_frame, *legacy_chunks], [frame, *chunks]):
            assert old.read_bytes() != new.read_bytes()
            assert json.loads(old.read_bytes()) == json.loads(new.read_bytes())
        with pytest.raises(WarehouseError, match="tampered or mispaired"):
            read_warehouse_frame(legacy_frame, expected_digest=digest)
        with pytest.raises(WarehouseError, match="tampered or mispaired"):
            ChunkedFrameStore.open(tmp_path / "old" / "store").to_frame()


class TestTornAndTampered:
    @settings(max_examples=25, deadline=None)
    @given(json_objects)
    def test_blob_truncation_at_every_offset_is_refused(self, payload):
        """Canonical blobs on the raw-hash path: every cut but the final
        newline is refused; that one takes the fallback and reads back
        the payload."""
        with tempfile.TemporaryDirectory() as scratch:
            name, digest = blobstore.put_blob(
                scratch, lambda d: f"blob-{d}.json", payload
            )
            path = Path(scratch) / name
            data = path.read_bytes()
            for cut in range(len(data)):
                path.write_bytes(data[:cut])
                got = _outcome(
                    lambda: blobstore.get_blob(
                        scratch, name, digest, BlobError, "blob"
                    ),
                    BlobError,
                )
                if cut < len(data) - 1:
                    assert got is REFUSED, cut
                else:
                    assert got == payload

    @settings(max_examples=25, deadline=None)
    @given(json_objects, st.booleans())
    def test_truncation_at_every_offset_is_refused(self, payload, digested):
        # A digested read is of a blob, so the digested case writes the
        # blob layout; the other a ``write_json`` line.
        with tempfile.TemporaryDirectory() as scratch:
            path = blobstore.write_json(Path(scratch) / "x.json", payload)
            digest = None
            if digested:
                path.write_bytes(_canonical_bytes(payload))
                digest = blobstore.content_digest(payload)
            data = path.read_bytes()
            for cut in range(len(data)):
                path.write_bytes(data[:cut])
                got = _outcome(
                    lambda: blobstore.read_json(
                        path, BlobError, "blob", digest=digest
                    ),
                    BlobError,
                )
                if cut < len(data) - 1:
                    assert got is REFUSED, cut
                else:
                    # Only the trailing newline is outside the object.
                    assert got == payload

    @settings(max_examples=200, deadline=None)
    @given(
        json_objects,
        st.integers(min_value=0),
        st.integers(min_value=1, max_value=255),
    )
    def test_any_flipped_byte_is_refused_by_digest(
        self, payload, offset, mask
    ):
        with tempfile.TemporaryDirectory() as scratch:
            name, digest = blobstore.put_blob(
                scratch, lambda d: f"blob-{d}.json", payload
            )
            path = Path(scratch) / name
            data = bytearray(path.read_bytes())
            data[offset % len(data)] ^= mask
            path.write_bytes(bytes(data))
            got = _outcome(
                lambda: blobstore.get_blob(
                    scratch, name, digest, BlobError, "blob"
                ),
                BlobError,
            )
            # A flip that leaves the parsed object unchanged (whitespace
            # swapped for whitespace) is harmless; anything else fails.
            assert got is REFUSED or got == payload

    @settings(max_examples=20, deadline=None)
    @given(json_objects)
    def test_parsing_read_bytes_equals_reading_the_file(self, payload):
        """``parse_json`` of a file's bytes gives ``read_json``'s payload
        or its exact error, at every truncation offset."""

        def outcome(read):
            try:
                return read()
            except BlobError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as scratch:
            path = blobstore.write_json(Path(scratch) / "x.json", payload)
            data = path.read_bytes()
            for end in range(len(data) + 1):
                path.write_bytes(data[:end] + b"\r\n")
                raw = blobstore.read_bytes(path, BlobError, "blob")
                assert outcome(
                    lambda: blobstore.parse_json(raw, path, BlobError, "blob")
                ) == outcome(
                    lambda: blobstore.read_json(path, BlobError, "blob")
                )

    def test_torn_multibyte_character_names_both_causes(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"format": "\xc2')
        with pytest.raises(BlobError) as excinfo:
            blobstore.read_json(path, BlobError, "blob")
        assert "not valid JSON" in str(excinfo.value)
        assert "not valid UTF-8" in str(excinfo.value)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(BlobError, match="cannot read blob"):
            blobstore.read_json(tmp_path / "nope.json", BlobError, "blob")

    @pytest.mark.parametrize("payload", [[1, 2], 3, "x", None, True])
    def test_non_object_is_refused(self, tmp_path, payload):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(BlobError, match="not an object"):
            blobstore.read_json(path, BlobError, "blob")

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.none(), st.integers(), st.text(max_size=12)))
    def test_foreign_format_is_refused(self, declared):
        if declared == "repro-blob/1":
            declared = "repro-blob/2"
        with tempfile.TemporaryDirectory() as scratch:
            path = blobstore.write_json(
                Path(scratch) / "x.json", {"format": declared, "v": 1}
            )
            with pytest.raises(BlobError, match="unsupported blob format"):
                blobstore.read_json(
                    path, BlobError, "blob", format="repro-blob/1"
                )

    @settings(max_examples=40, deadline=None)
    @given(json_objects, json_objects)
    def test_blob_with_the_wrong_digest_is_refused(self, first, second):
        if blobstore.canonical_json(first) == blobstore.canonical_json(
            second
        ):
            second = {**second, "_": "differs"}
        with tempfile.TemporaryDirectory() as scratch:
            name, _ = blobstore.put_blob(
                scratch, lambda d: f"a-{d}.json", first
            )
            _, other = blobstore.put_blob(
                scratch, lambda d: f"b-{d}.json", second
            )
            with pytest.raises(BlobError, match="digest"):
                blobstore.get_blob(scratch, name, other, BlobError, "blob")


non_bare_names = st.one_of(
    st.sampled_from(["", ".", ".."]),
    st.builds(
        lambda head, sep, tail: head + sep + tail,
        st.text(max_size=6),
        st.sampled_from(["/", "\\"]),
        st.text(max_size=6),
    ),
    st.builds(lambda tail: "/" + tail, st.text(max_size=8)),
    st.none(),
    st.integers(),
)


class TestBlobNames:
    @settings(max_examples=80, deadline=None)
    @given(non_bare_names)
    def test_non_bare_names_are_refused(self, name):
        with tempfile.TemporaryDirectory() as scratch:
            inner = Path(scratch) / "store"
            inner.mkdir()
            # A perfectly valid blob sits outside the container.
            _, digest = blobstore.put_blob(
                scratch, lambda d: "outside.json", {"v": 1}
            )
            with pytest.raises(BlobError, match="bare file name"):
                blobstore.get_blob(inner, name, digest, BlobError, "blob")

    def test_escape_to_a_valid_blob_is_refused(self, tmp_path):
        (tmp_path / "store").mkdir()
        _, digest = blobstore.put_blob(
            tmp_path, lambda d: "outside.json", {"v": 1}
        )
        with pytest.raises(BlobError, match="bare file name"):
            blobstore.get_blob(
                tmp_path / "store", "../outside.json", digest, BlobError,
                "blob",
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.",
            min_size=1,
            max_size=12,
        ).filter(lambda name: name not in (".", ".."))
    )
    def test_bare_names_are_accepted(self, name):
        assert blobstore.check_blob_name(name, BlobError, "blob") == name


class _Handle:
    """A file handle that dies at ``stage``: ``serialise`` writes the
    first five characters of the text and raises (a kill mid-write),
    ``flush`` raises at flush."""

    def __init__(self, inner, stage, exc):
        self._inner = inner
        self._stage = stage
        self._exc = exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._inner.close()
        return False

    def write(self, text):
        if self._stage == "serialise":
            self._inner.write(text[:5])
            raise self._exc
        return self._inner.write(text)

    def flush(self):
        if self._stage == "flush":
            raise self._exc
        return self._inner.flush()

    def fileno(self):
        return self._inner.fileno()


@contextlib.contextmanager
def _killed_at(stage: str, exc: BaseException):
    """Patch the write path so the writer dies at ``stage``."""

    def die(*args, **kwargs):
        raise exc

    with pytest.MonkeyPatch.context() as patch:
        if stage in ("serialise", "flush"):
            real_open = Path.open

            def flaky_open(self, *args, **kwargs):
                return _Handle(real_open(self, *args, **kwargs), stage, exc)

            patch.setattr(Path, "open", flaky_open)
        elif stage == "fsync":
            patch.setattr(blobstore.os, "fsync", die)
        else:
            patch.setattr(blobstore.os, "replace", die)
        yield


class TestKilledWriter:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["serialise", "flush", "fsync", "replace"]),
        st.sampled_from([OSError("disk gone"), KeyboardInterrupt()]),
        st.one_of(st.none(), json_objects),
        json_objects,
    )
    def test_destination_is_absent_or_previous(
        self, stage, exc, previous, payload
    ):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "x.json"
            if previous is not None:
                blobstore.write_json(path, previous)
            before = path.read_bytes() if previous is not None else None
            with _killed_at(stage, exc):
                with pytest.raises(type(exc)):
                    blobstore.write_json(path, payload)
            assert not pending_path(path).exists()
            assert os.listdir(scratch) == (
                [] if previous is None else ["x.json"]
            )
            if previous is None:
                assert artifact_state(path) is ArtifactState.ABSENT
            else:
                assert path.read_bytes() == before
                assert (
                    blobstore.read_json(path, BlobError, "blob") == previous
                )

    @pytest.mark.parametrize("stage", ["serialise", "fsync", "replace"])
    def test_killed_blob_publication_leaves_nothing(self, tmp_path, stage):
        with _killed_at(stage, OSError("kill -9")):
            with pytest.raises(OSError):
                blobstore.put_blob(
                    tmp_path, lambda d: f"blob-{d}.json", {"v": 1}
                )
        assert list(tmp_path.iterdir()) == []


# -- every container inherits the guarantee -----------------------------


def _shard_file(directory: Path) -> Path:
    artifact = ShardArtifact(
        grid=GridIdentity("f" * 16, "o" * 16, 4),
        shards=2,
        shard_index=0,
        dframe=DecisionFrame(
            frame=_frame(3),
            size_ratio=np.array([1.0, 0.5, 2.0]),
            cost_ratio=np.array([1.0, 1.5, 0.25]),
            indices=(0, 1),
            row_counts=(2, 1),
        ),
        cache_state={},
    )
    return write_shard_artifact(
        directory / "shard-0000-of-0002.json", artifact
    )


def _frame_file(directory: Path) -> tuple[Path, str]:
    dframe = DecisionFrame(
        frame=_frame(3),
        size_ratio=np.array([1.0, 0.5, 2.0]),
        cost_ratio=np.array([1.0, 1.5, 0.25]),
        indices=(0, 1),
        row_counts=(2, 1),
    )
    payload = frame_payload(
        dframe, fingerprint="f" * 16, order_digest="o" * 16, total_points=4
    )
    name, digest = blobstore.put_blob(directory, frame_filename, payload)
    return directory / name, digest


def _store(directory: Path) -> ChunkedFrameStore:
    store = ChunkedFrameStore.create(
        directory, GridIdentity("f" * 16, "o" * 16, 3), max_rows_in_memory=2
    )
    ones = np.ones(3)
    store.append(DecisionFrame(_frame(3), ones, ones, (0, 1, 2), (1, 1, 1)))
    return store.finish()


def _queue_manifest(directory: Path) -> Path:
    return write_manifest(
        directory / "manifest.json",
        QueueManifest(
            fingerprint="f" * 16,
            order_digest="o" * 16,
            shards=2,
            total_points=4,
        ),
    )


def _containers(directory: Path):
    """``(file, read, error, digested)`` for every container reader."""
    shard = _shard_file(directory / "shards")
    frame, digest = _frame_file(directory / "warehouse")
    store_dir = directory / "store"
    _store(store_dir)
    chunk = sorted(store_dir.glob("frame-*.json"))[0]
    queue = _queue_manifest(directory / "queue")

    def read_store():
        return ChunkedFrameStore.open(store_dir).to_frame()

    return [
        (shard, lambda: read_shard_artifact(shard), ShardMergeError, False),
        (
            frame,
            lambda: read_warehouse_frame(frame, expected_digest=digest),
            WarehouseError,
            True,
        ),
        (store_dir / STORE_MANIFEST, read_store, WarehouseError, False),
        (chunk, read_store, WarehouseError, True),
        (queue, lambda: read_manifest(queue), QueueError, False),
    ]


CONTAINERS = ["shard", "frame", "store-manifest", "chunk", "queue-manifest"]


class TestContainersInherit:
    @pytest.mark.parametrize("which", range(len(CONTAINERS)), ids=CONTAINERS)
    def test_truncation_at_every_offset(self, tmp_path, which):
        path, read, error, _ = _containers(tmp_path)[which]
        data = path.read_bytes()
        intact = read()
        for cut in range(len(data) - 1):
            path.write_bytes(data[:cut])
            assert _outcome(read, error) is REFUSED, cut
        path.write_bytes(data[:-1])  # only the trailing newline cut
        assert read() == intact

    @pytest.mark.parametrize("which", range(len(CONTAINERS)), ids=CONTAINERS)
    @settings(max_examples=120, deadline=None)
    @given(offset=st.integers(min_value=0), mask=st.integers(1, 255))
    def test_any_flipped_byte(self, which, offset, mask):
        with tempfile.TemporaryDirectory() as scratch:
            path, read, error, digested = _containers(Path(scratch))[which]
            intact = read()
            data = bytearray(path.read_bytes())
            data[offset % len(data)] ^= mask
            path.write_bytes(bytes(data))
            got = _outcome(read, error)
            if digested:
                # Digest-verified: refused unless the content survived.
                assert got is REFUSED or got == intact
            # Undigested files (shard artifacts, manifests) may parse to
            # a different valid payload; what they may never do is
            # escape with anything but the container's error class.

    @pytest.mark.parametrize("which", range(len(CONTAINERS)), ids=CONTAINERS)
    def test_foreign_format(self, tmp_path, which):
        path, read, error, _ = _containers(tmp_path)[which]
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format"] = "alien/9"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(error, match="alien/9"):
            read()


# -- one copy only -------------------------------------------------------

CORE = Path(core_package.__file__).parent

#: Functions that hash something other than a published payload.
NOT_PUBLICATION = {
    ("grid.py", "grid_fingerprint"),
    ("grid.py", "grid_order_digest"),
    ("sweep.py", "cache_key_digest"),
}

#: ``module.attribute`` uses only the primitive may make.
PROTOCOL = {
    ("os", "replace"),
    ("os", "fsync"),
    ("os", "O_EXCL"),
    ("json", "load"),
    ("hashlib", "sha256"),
}


def _protocol_uses(path: Path) -> list[str]:
    """Where a module outside the primitive touches the protocol."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            use = (node.value.id, node.attr)
            if use in PROTOCOL and not (
                use == ("hashlib", "sha256")
                and (path.name, function) in NOT_PUBLICATION
            ):
                found.append(f"{path.name}:{node.lineno} {'.'.join(use)}")
        if isinstance(node, ast.ImportFrom) and node.module in {
            module for module, _ in PROTOCOL
        }:
            for alias in node.names:
                if (node.module, alias.name) in PROTOCOL:
                    found.append(
                        f"{path.name}:{node.lineno} from {node.module} "
                        f"import {alias.name}"
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


class TestSingleCopy:
    def test_no_second_copy_of_the_protocol(self):
        modules = sorted(CORE.glob("*.py"))
        assert len(modules) > 10
        uses = [
            use
            for module in modules
            if module.name != "blobstore.py"
            for use in _protocol_uses(module)
        ]
        assert uses == [], (
            "publication code outside repro/core/blobstore.py: "
            + "; ".join(uses)
        )

    def test_the_guard_sees_a_second_copy(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text(
            "import hashlib, json, os\n"
            "from os import replace\n"
            "def save(p, h):\n"
            "    os.fsync(h.fileno()); os.replace(p, p)\n"
            "    os.open(p, os.O_EXCL)\n"
            "    return json.load(h), hashlib.sha256(b'').hexdigest()\n",
            encoding="utf-8",
        )
        found = " ".join(_protocol_uses(rogue))
        for needle in (
            "os.fsync",
            "os.replace",
            "os.O_EXCL",
            "json.load",
            "hashlib.sha256",
            "from os import replace",
        ):
            assert needle in found

    def test_the_primitive_holds_the_protocol(self):
        assert len(_protocol_uses(CORE / "blobstore.py")) >= 5

"""Resumable shard work queue: a sweep as a crash-tolerant service.

Cross-host sharding (:mod:`repro.core.sharding`) made a sweep's shards
portable; this module makes running them *orchestrated* instead of
hand-driven.  The coordination substrate is the shard directory
itself — a shared filesystem (or anything rsync-able) is the only
infrastructure a fleet of workers needs:

* :class:`QueueManifest` — the queue's contract, written once next to
  the shard artifacts.  It is keyed by the grid's
  :class:`~repro.core.sharding.GridIdentity` (fingerprint, order
  digest, point count), names the partition geometry, and sets the
  lease/retry policy.  Workers refuse a manifest whose fingerprint
  does not match the grid they resolved locally, so a stale manifest
  can never silently evaluate the wrong grid;
* :class:`ShardQueue` — claim/lease bookkeeping over the directory.
  A claim is a lease file created with
  :func:`~repro.core.blobstore.create_json_exclusive` (``O_CREAT |
  O_EXCL``, atomic on POSIX and NFSv3+), carrying owner, expiry and
  attempt count; an expired lease is stolen, so a host that died
  mid-shard only delays its shard by one lease TTL.  Completion is the
  atomically-written shard artifact itself — there is no separate
  "done" marker to get out of sync; the manifest and failure ledgers
  are published with :func:`~repro.core.blobstore.write_json`;
* :func:`run_queue_worker` — the worker loop: claim a shard, evaluate
  it (:func:`~repro.core.sharding.run_shard`), write the artifact
  atomically, repeat until nothing is claimable.  A failed
  evaluation releases the lease with a recorded attempt, so the shard
  is retried (by this worker or any other) up to
  :attr:`~QueueManifest.max_attempts` times before it is declared
  exhausted.

Correctness never rests on the leases: they only *reduce duplicate
work*.  If two workers do evaluate the same shard (an expired lease
stolen while the original straggler finishes), both write byte-identical
artifacts via :func:`os.replace`, and the gather tier
(:mod:`repro.core.gather`) deduplicates by shard index — so the merged
report is still exactly the serial engine's output.

The CLI surface is ``repro-gps sweep --queue-init MANIFEST --shards K
[axes...]`` (write the manifest) and ``repro-gps sweep --queue
MANIFEST`` (run a worker until the queue drains); see
``docs/sweep-guide.md``, "Running a sweep as a service".
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from ..errors import SpecificationError
from . import blobstore
from .figure_of_merit import FomWeights
from .sharding import (
    GridIdentity,
    ShardMergeError,
    read_shard_artifact,
    run_shard,
    shard_filename,
    write_shard_artifact,
)
from .sweep import CandidateFactory, DesignPoint, SweepGrid, resolve_sweep

#: Manifest format identifier; bumped on incompatible changes.
QUEUE_FORMAT = "repro-sweep-queue/1"


class QueueError(SpecificationError):
    """The work queue cannot be (safely) operated."""


@dataclass(frozen=True)
class QueueManifest:
    """The work queue's contract, stored next to the shard artifacts.

    Keyed by the grid's content fingerprint: a worker resolves the
    grid locally (from the manifest's ``grid_spec`` or its caller),
    and :func:`run_queue_worker` refuses to start unless fingerprint,
    order digest and point count all match — the same discipline shard
    merging applies, moved to the front of the pipeline.

    ``lease_ttl`` is the straggler bound: a worker that holds a shard
    longer than this (or died holding it) loses the lease to the next
    claimant.  ``max_attempts`` bounds retries of a shard whose
    evaluation *raises* (as opposed to a worker that dies — dying
    costs nothing but the lease).  ``grid_spec`` is an opaque,
    JSON-ready description of the grid for front-ends that rebuild it
    from the manifest (the CLI stores its axis argument strings
    there); the queue core never interprets it.
    """

    fingerprint: str
    order_digest: str
    shards: int
    total_points: int
    lease_ttl: float = 300.0
    max_attempts: int = 3
    grid_spec: Optional[dict] = None

    def __post_init__(self) -> None:
        if (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise SpecificationError(
                f"queue manifest needs a positive integer shard count, "
                f"got {self.shards!r}"
            )
        if (
            not isinstance(self.total_points, int)
            or isinstance(self.total_points, bool)
            or self.total_points < 1
        ):
            raise SpecificationError(
                f"queue manifest needs a positive integer point count, "
                f"got {self.total_points!r}"
            )
        if not isinstance(self.lease_ttl, (int, float)) or isinstance(
            self.lease_ttl, bool
        ) or not self.lease_ttl > 0:
            raise SpecificationError(
                f"queue manifest needs a positive lease TTL, "
                f"got {self.lease_ttl!r}"
            )
        if (
            not isinstance(self.max_attempts, int)
            or isinstance(self.max_attempts, bool)
            or self.max_attempts < 1
        ):
            raise SpecificationError(
                f"queue manifest needs a positive attempt limit, "
                f"got {self.max_attempts!r}"
            )

    @property
    def grid(self) -> GridIdentity:
        """The queue's grid identity."""
        return GridIdentity(
            self.fingerprint, self.order_digest, self.total_points
        )


def manifest_for_grid(
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    shards: int,
    lease_ttl: float = 300.0,
    max_attempts: int = 3,
    grid_spec: Optional[dict] = None,
) -> QueueManifest:
    """Build the manifest of a queue over ``grid`` cut into ``shards``."""
    points, _, _ = resolve_sweep(grid)
    return QueueManifest(
        **GridIdentity.of(points).payload(),
        shards=shards,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        grid_spec=grid_spec,
    )


def manifest_to_payload(manifest: QueueManifest) -> dict:
    """The manifest as a JSON-ready dict (see :data:`QUEUE_FORMAT`)."""
    payload = {
        "format": QUEUE_FORMAT,
        "fingerprint": manifest.fingerprint,
        "order_digest": manifest.order_digest,
        "shards": manifest.shards,
        "total_points": manifest.total_points,
        "lease_ttl": manifest.lease_ttl,
        "max_attempts": manifest.max_attempts,
    }
    if manifest.grid_spec is not None:
        payload["grid_spec"] = manifest.grid_spec
    return payload


def payload_to_manifest(
    payload: dict, source: str = "<payload>"
) -> QueueManifest:
    """Rebuild a :class:`QueueManifest` from its JSON payload."""
    blobstore.check_payload(
        payload, QueueError, "queue manifest", source, QUEUE_FORMAT
    )
    grid_spec = payload.get("grid_spec")
    if grid_spec is not None and not isinstance(grid_spec, dict):
        raise QueueError(
            f"{source}: queue manifest grid_spec must be an object"
        )
    try:
        return QueueManifest(
            fingerprint=payload["fingerprint"],
            order_digest=payload["order_digest"],
            shards=payload["shards"],
            total_points=payload["total_points"],
            lease_ttl=payload.get("lease_ttl", 300.0),
            max_attempts=payload.get("max_attempts", 3),
            grid_spec=grid_spec,
        )
    except (KeyError, TypeError, SpecificationError) as exc:
        raise QueueError(
            f"{source}: malformed queue manifest ({exc})"
        ) from None


def write_manifest(
    path: Union[str, Path], manifest: QueueManifest
) -> Path:
    """Write the queue manifest (atomically, like every artifact)."""
    return blobstore.write_json(path, manifest_to_payload(manifest))


def read_manifest(path: Union[str, Path]) -> QueueManifest:
    """Load a queue manifest, with path context on every failure."""
    payload = blobstore.read_json(path, QueueError, "queue manifest")
    return payload_to_manifest(payload, source=str(path))


def _default_owner() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(frozen=True)
class ShardClaim:
    """One successfully acquired lease on one shard."""

    shard_index: int
    attempt: int
    lease_path: Path
    token: str


class ShardQueue:
    """Claim/lease/retry bookkeeping over one shard directory.

    All state lives in files next to the artifacts, so any number of
    workers on any number of hosts coordinate through the directory
    alone:

    * ``lease-NNNN-of-KKKK.json`` — a live claim (owner, expiry,
      attempt, a per-claim token).  Created with ``O_CREAT | O_EXCL``,
      so exactly one claimant wins a race; an expired lease is
      deleted and re-raced;
    * ``failed-NNNN-of-KKKK.json`` — the retry ledger of a shard whose
      evaluation raised: attempt count plus the recorded errors.
      Cleared on success;
    * ``shard-NNNN-of-KKKK.json`` — the completion marker *is* the
      atomically-written artifact; a shard with a valid artifact is
      never claimable again (the ``--resume`` skip-if-valid check,
      enforced queue-wide).

    ``clock`` is injectable for tests (defaults to :func:`time.time`,
    the wall clock leases are stamped in).
    """

    def __init__(
        self,
        manifest_path: Union[str, Path],
        owner: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.manifest_path = Path(manifest_path)
        self.manifest = read_manifest(self.manifest_path)
        self.directory = self.manifest_path.parent
        self.owner = owner if owner is not None else _default_owner()
        self.clock = clock

    # -- paths --------------------------------------------------------

    def artifact_path(self, shard_index: int) -> Path:
        return self.directory / shard_filename(
            self.manifest.shards, shard_index
        )

    def lease_path(self, shard_index: int) -> Path:
        return self.directory / (
            f"lease-{shard_index:04d}-of-{self.manifest.shards:04d}.json"
        )

    def failure_path(self, shard_index: int) -> Path:
        return self.directory / (
            f"failed-{shard_index:04d}-of-{self.manifest.shards:04d}.json"
        )

    # -- state inspection ---------------------------------------------

    def valid_artifact(self, shard_index: int) -> bool:
        """True when the shard's artifact exists and matches the grid.

        A missing, torn, foreign or wrong-geometry artifact does *not*
        count — the shard stays claimable and the next completion
        atomically replaces the junk.
        """
        try:
            artifact = read_shard_artifact(self.artifact_path(shard_index))
        except ShardMergeError:
            return False
        return (artifact.grid, artifact.shards, artifact.shard_index) == (
            self.manifest.grid, self.manifest.shards, shard_index
        )

    def _read_json(self, path: Path) -> Optional[dict]:
        """A lease or ledger object, or ``None`` when absent or junk."""
        try:
            return blobstore.read_json(path, QueueError, "queue file")
        except QueueError:
            return None

    def attempts(self, shard_index: int) -> int:
        """Recorded failed attempts of one shard (0 when none)."""
        ledger = self._read_json(self.failure_path(shard_index))
        if ledger is None:
            return 0
        try:
            return max(0, int(ledger.get("attempts", 0)))
        except (TypeError, ValueError):
            return 0

    def errors(self, shard_index: int) -> list[str]:
        """The recorded evaluation errors of one shard."""
        ledger = self._read_json(self.failure_path(shard_index))
        if ledger is None:
            return []
        errors = ledger.get("errors", [])
        return [str(error) for error in errors] if isinstance(
            errors, list
        ) else []

    def shard_state(self, shard_index: int) -> str:
        """One of ``complete | leased | exhausted | available``."""
        if self.valid_artifact(shard_index):
            return "complete"
        lease = self._read_json(self.lease_path(shard_index))
        if lease is not None and self._lease_live(lease):
            return "leased"
        if self.attempts(shard_index) >= self.manifest.max_attempts:
            return "exhausted"
        return "available"

    def _lease_live(self, lease: dict) -> bool:
        try:
            expires = float(lease.get("expires", 0.0))
        except (TypeError, ValueError):
            # An unparsable lease is treated as expired: it blocks no
            # one forever.
            return False
        return expires > self.clock()

    def _stale(self, path: Path) -> bool:
        """True for a file older than the lease TTL: an unreadable
        lease that old (its claimant died between the exclusive create
        and the write) is expired, not mid-write."""
        try:
            age = self.clock() - path.stat().st_mtime
        except FileNotFoundError:
            return False
        return age > self.manifest.lease_ttl

    def outstanding(self) -> list[int]:
        """Shard indices without a valid artifact yet."""
        return [
            index
            for index in range(self.manifest.shards)
            if not self.valid_artifact(index)
        ]

    def exhausted(self) -> list[int]:
        """Shards that burned every allowed attempt without an artifact."""
        return [
            index
            for index in range(self.manifest.shards)
            if self.shard_state(index) == "exhausted"
        ]

    # -- claiming -----------------------------------------------------

    def claim(self, shard_index: int) -> Optional[ShardClaim]:
        """Try to acquire the lease on one shard.

        Returns ``None`` when the shard is complete, exhausted, held
        by a live lease, or lost to a concurrent claimant — all
        "someone else's problem" outcomes a worker simply moves past.
        """
        if not (0 <= shard_index < self.manifest.shards):
            raise QueueError(
                f"shard index {shard_index} out of range for "
                f"{self.manifest.shards} shards"
            )
        if self.valid_artifact(shard_index):
            return None
        attempt = self.attempts(shard_index) + 1
        if attempt > self.manifest.max_attempts:
            return None
        lease_path = self.lease_path(shard_index)
        existing = self._read_json(lease_path)
        if existing is not None and self._lease_live(existing):
            return None
        if existing is not None or self._stale(lease_path):
            # Expired (straggler or dead host): clear it, then race
            # for the fresh lease like everyone else.  Losing the
            # unlink race is fine — FileNotFoundError means another
            # claimant got there first.
            try:
                lease_path.unlink()
            except FileNotFoundError:
                pass
        now = self.clock()
        token = f"{self.owner}#{now!r}#{os.urandom(4).hex()}"
        payload = {
            "owner": self.owner,
            "token": token,
            "shard_index": shard_index,
            "acquired": now,
            "expires": now + self.manifest.lease_ttl,
            "attempt": attempt,
        }
        if not blobstore.create_json_exclusive(lease_path, payload):
            return None
        return ShardClaim(
            shard_index=shard_index,
            attempt=attempt,
            lease_path=lease_path,
            token=token,
        )

    def claim_next(self) -> Optional[ShardClaim]:
        """Acquire the first claimable shard, lowest index first."""
        for shard_index in range(self.manifest.shards):
            claim = self.claim(shard_index)
            if claim is not None:
                return claim
        return None

    def _release_lease(self, claim: ShardClaim) -> None:
        """Remove the claim's lease — but only if it is still ours.

        An expired lease may have been stolen while we straggled;
        deleting the thief's lease would invite a third evaluation.
        """
        current = self._read_json(claim.lease_path)
        if current is not None and current.get("token") == claim.token:
            try:
                claim.lease_path.unlink()
            except FileNotFoundError:
                pass

    # -- outcomes -----------------------------------------------------

    def complete(self, claim: ShardClaim, artifact) -> Path:
        """Publish a finished shard: atomic artifact, then cleanup."""
        path = write_shard_artifact(
            self.artifact_path(claim.shard_index), artifact
        )
        try:
            self.failure_path(claim.shard_index).unlink()
        except FileNotFoundError:
            pass
        self._release_lease(claim)
        return path

    def fail(self, claim: ShardClaim, error: str) -> None:
        """Record a failed attempt and release the shard for retry."""
        errors = self.errors(claim.shard_index)
        errors.append(error)
        blobstore.write_json(
            self.failure_path(claim.shard_index),
            {
                "shard_index": claim.shard_index,
                "attempts": claim.attempt,
                "errors": errors[-self.manifest.max_attempts:],
            },
        )
        self._release_lease(claim)


@dataclass(frozen=True)
class QueueWorkerReport:
    """What one :func:`run_queue_worker` invocation did and saw."""

    evaluated: tuple[int, ...]
    skipped: tuple[int, ...]
    failures: tuple[tuple[int, str], ...]
    outstanding: tuple[int, ...]
    exhausted: tuple[int, ...]

    @property
    def queue_drained(self) -> bool:
        """True when every shard had a valid artifact at exit."""
        return not self.outstanding


def run_queue_worker(
    manifest_path: Union[str, Path],
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    candidate_factory: CandidateFactory,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    owner: Optional[str] = None,
    clock: Callable[[], float] = time.time,
    on_event: Optional[Callable[[str, int, str], None]] = None,
) -> QueueWorkerReport:
    """Drain the queue: claim, evaluate, publish, until nothing is left.

    The worker resolves the grid locally and refuses a manifest whose
    fingerprint/order/point count disagree (:class:`QueueError`) — the
    manifest names *which* sweep this queue belongs to, it never
    defines it.  Each claimed shard runs through
    :func:`~repro.core.sharding.run_shard` and is published with the
    atomic write protocol, so a worker killed at any instant leaves
    either nothing or a complete artifact — never a torn one — and its
    lease expires for the next worker to pick up.

    An evaluation that *raises* is recorded (:meth:`ShardQueue.fail`)
    and retried — immediately by this worker, or by any other — until
    the manifest's ``max_attempts`` is spent; such exhausted shards
    are reported, not raised, so one poisoned shard cannot take down
    the fleet.  ``on_event(kind, shard_index, detail)`` observes the
    loop (kinds: ``claim``, ``complete``, ``fail``, ``skip``).

    Returns a :class:`QueueWorkerReport`; ``queue_drained`` tells a
    caller whether the whole sweep (not just this worker's share) is
    done.
    """
    queue = ShardQueue(manifest_path, owner=owner, clock=clock)
    points, weights, _ = resolve_sweep(grid, weights)
    queue.manifest.grid.check(
        GridIdentity.of(points),
        QueueError,
        "the resolved grid",
        f"queue manifest {queue.manifest_path}",
    )

    def emit(kind: str, shard_index: int, detail: str) -> None:
        if on_event is not None:
            on_event(kind, shard_index, detail)

    evaluated: list[int] = []
    failures: list[tuple[int, str]] = []
    skipped = [
        index
        for index in range(queue.manifest.shards)
        if queue.valid_artifact(index)
    ]
    for index in skipped:
        emit("skip", index, "valid artifact already present")

    while True:
        claim = queue.claim_next()
        if claim is None:
            break
        emit(
            "claim",
            claim.shard_index,
            f"attempt {claim.attempt}/{queue.manifest.max_attempts}",
        )
        try:
            artifact = run_shard(
                points,
                candidate_factory,
                shards=queue.manifest.shards,
                shard_index=claim.shard_index,
                reference=reference,
                weights=weights,
            )
        except Exception as exc:  # noqa: BLE001 — the retry ledger
            message = f"{type(exc).__name__}: {exc}"
            queue.fail(claim, message)
            if isinstance(exc, SpecificationError):
                # A mis-specified sweep (bad geometry, empty candidate
                # list, an overflowing weight) fails identically on
                # every retry: surface it.
                raise
            failures.append((claim.shard_index, message))
            emit("fail", claim.shard_index, message)
            continue
        queue.complete(claim, artifact)
        evaluated.append(claim.shard_index)
        emit(
            "complete",
            claim.shard_index,
            f"{len(artifact.dframe.indices)} points -> "
            f"{queue.artifact_path(claim.shard_index).name}",
        )

    return QueueWorkerReport(
        evaluated=tuple(evaluated),
        skipped=tuple(skipped),
        failures=tuple(failures),
        outstanding=tuple(queue.outstanding()),
        exhausted=tuple(queue.exhausted()),
    )

"""The benchmark's four workloads.

Each workload is a closed loop with one client: one process, no
load-generator threads, and each op starts only after the previous one
returned.  A *pass* is one round of the workload's op mix (``MIX``).
Every op returns its output; :meth:`Workload.check` digests that output
outside the timed region and compares it with the reference digest
that :meth:`Workload.prepare` computed from the plain in-RAM paths.

Inputs come from the seed only: volumes are drawn log-uniform in
[1e2, 1e7], sorted and deduplicated; the query workload also draws its
rotating re-rank weight triples and ``where`` filters.  The program
sees only the generated grids and asks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from repro.circuits.qfactor import Q_MODEL_SCENARIOS
from repro.cli import main
from repro.core.adaptive import global_front_mask
from repro.core.framestore import merge_artifacts_to_store
from repro.core.queryservice import QueryService, response_bytes
from repro.core.resultframe import ResultFrame
from repro.core.sharding import (
    find_shard_artifacts,
    shard_filename,
    write_shard_artifact,
)
from repro.core.sweep import EvaluationCache, SweepGrid
from repro.core.warehouse import (
    canonical_json,
    ingest_shard_directory,
    load_warehouse,
    manifest_to_payload,
)
from repro.gps.study import (
    NRE_SCENARIOS,
    build_gps_warehouse,
    run_adaptive_gps_sweep,
    run_gps_shard,
    run_gps_sweep,
    spill_gps_sweep,
    stream_gps_sweep,
)
from repro.passives.tolerance import TOLERANCE_CLASSES

#: Environment variables that select a non-default sweep path; the
#: benchmark removes them from its own and its children's environment.
SWEEP_ENV = (
    "REPRO_SWEEP_ENGINE",
    "REPRO_SWEEP_JOBS",
    "REPRO_SWEEP_SHARDS",
    "REPRO_SWEEP_BATCH",
    "REPRO_SWEEP_MAX_ROWS",
)


def seeded_volumes(rng: np.random.Generator, count: int) -> tuple:
    """``count`` distinct log-uniform volumes in [1e2, 1e7], sorted."""
    values: set = set()
    while len(values) < count:
        values.update(
            (10.0 ** rng.uniform(2.0, 7.0, count - len(values))).tolist()
        )
    return tuple(sorted(values))


def frame_digest(lines, mask) -> str:
    """Digest of a result's CSV rows and its global Pareto mask."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    digest.update(np.asarray(mask, dtype=bool).tobytes())
    return digest.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


Op = Callable[[], object]


class Workload:
    """One workload: seeded inputs, reference digests and the op mix.

    Subclasses set ``name``, ``why`` and ``MIX`` (op kinds of one pass,
    in order), implement :meth:`prepare` and one ``op_<kind>`` /
    ``check_<kind>`` pair per kind.  ``cells`` maps a kind to the grid
    cells one op evaluates, for ``cells_per_s``.
    """

    name = ""
    why = ""
    MIX: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.cells: dict[str, int] = {}
        self.caches: list[EvaluationCache] = []
        self._scratch = itertools.count()

    @property
    def input_size(self) -> str:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the inputs and the reference digests (one set-up)."""
        raise NotImplementedError

    def fresh_dir(self) -> Path:
        """A new, not yet existing directory under the work dir."""
        return self.workdir / f"op-{next(self._scratch)}"

    def ops(self) -> list[tuple[str, Op]]:
        return [(kind, getattr(self, f"op_{kind}")) for kind in self.MIX]

    def check(self, kind: str, output) -> bool:
        return getattr(self, f"check_{kind}")(output)

    def cache(self) -> EvaluationCache:
        """A fresh evaluation cache whose stats the traced run reads."""
        cache = EvaluationCache()
        self.caches.append(cache)
        return cache

    def rerank_stats(self) -> tuple[int, int]:
        """Cumulative re-rank LRU ``(hits, misses)`` of the op mix."""
        return (0, 0)

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the process running the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GridBatch(Workload):
    name = "grid-batch"
    why = (
        "closed loop, 1 client; 2304-point grid (256 volumes x 3 "
        "tolerances x 3 Q models) swept in RAM, CSV and global front: "
        "evaluation and Pareto layers, no streaming or disk"
    )
    MIX = ("batch",)

    @property
    def input_size(self) -> str:
        return f"{len(self.grid.points())} grid points"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.grid = SweepGrid(
            volumes=seeded_volumes(rng, 256),
            tolerances=tuple(TOLERANCE_CLASSES.values()),
            q_models=(
                None,
                Q_MODEL_SCENARIOS["skin"],
                Q_MODEL_SCENARIOS["substrate"],
            ),
        )
        self.cells = {"batch": len(self.grid.points())}
        frame = run_gps_sweep(self.grid).frame
        self.reference = frame_digest(
            frame.csv_lines(), global_front_mask(frame)
        )

    def op_batch(self):
        frame = run_gps_sweep(self.grid, cache=self.cache()).frame
        return frame.csv_lines(), global_front_mask(frame)

    def check_batch(self, output) -> bool:
        return frame_digest(*output) == self.reference


class GridStream(Workload):
    name = "grid-stream"
    why = (
        "closed loop, 1 client; a 256-volume grid through stream, spill "
        "(4 chunks) and adaptive in turn: the per-point streaming path "
        "and the chunk store"
    )
    MIX = ("stream", "spill", "adaptive")

    #: Row budget of the spill op: 1024 rows make four chunks.
    SPILL_ROWS = 256

    @property
    def input_size(self) -> str:
        return f"{len(self.grid.points())} grid points"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.grid = SweepGrid(volumes=seeded_volumes(rng, 256))
        points = len(self.grid.points())
        frame = run_gps_sweep(self.grid).frame
        self.reference = frame_digest(
            frame.csv_lines(), global_front_mask(frame)
        )
        # The adaptive sweep evaluates a subset of the grid; its frame
        # must equal the exhaustive frame restricted to those points.
        evaluated = run_adaptive_gps_sweep(self.grid).evaluated_indices
        rows = len(frame) // points
        subset = frame.take(
            [index * rows + row for index in evaluated for row in range(rows)]
        )
        self.adaptive_reference = frame_digest(
            subset.csv_lines(), global_front_mask(subset)
        )
        self.cells = {
            "stream": points,
            "spill": points,
            "adaptive": len(evaluated),
        }

    def op_stream(self):
        return list(stream_gps_sweep(self.grid, cache=self.cache()))

    def check_stream(self, output) -> bool:
        ordered = sorted(output, key=lambda streamed: streamed.index)
        frame = ResultFrame.concat([streamed.frame for streamed in ordered])
        return frame_digest(frame.csv_lines(), global_front_mask(frame)) == (
            self.reference
        )

    def op_spill(self):
        return spill_gps_sweep(
            self.grid, self.fresh_dir(), self.SPILL_ROWS, cache=self.cache()
        )

    def check_spill(self, store) -> bool:
        try:
            return frame_digest(store.csv_lines(), store.pareto_mask()) == (
                self.reference
            )
        finally:
            shutil.rmtree(store.directory)

    def op_adaptive(self):
        return run_adaptive_gps_sweep(self.grid, cache=self.cache())

    def check_adaptive(self, report) -> bool:
        frame = report.frame
        return frame_digest(frame.csv_lines(), global_front_mask(frame)) == (
            self.adaptive_reference
        )


class StoreQuery(Workload):
    name = "store-query"
    why = (
        "closed loop, 1 client; 8 shards of a 2500-point, 10k-row grid: "
        "ingest, merge, a cold and 4 warm query dashboards per pass; "
        "disk layers, no evaluation"
    )
    MIX = ("ingest", "merge", "query_cold") + ("query_warm",) * 4

    SHARDS = 8
    #: Row budget of the merge op's chunk store (three chunks).
    MERGE_ROWS = 4096
    #: More rotating triples than the query service's 16-entry re-rank
    #: LRU holds, so a cyclic walk over them always misses.
    ROTATING = 20
    FIXED_WEIGHTS = "2:1:1"

    @property
    def input_size(self) -> str:
        return (
            f"{self.points} grid points, {self.rows} rows in "
            f"{self.SHARDS} shards"
        )

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        volumes = seeded_volumes(rng, 625)
        grid = SweepGrid(
            volumes=volumes,
            tolerances=(None, TOLERANCE_CLASSES["precision"]),
            nres=(None, NRE_SCENARIOS["zero"]),
        )
        self.points = len(grid.points())
        if hasattr(self, "prepared"):
            shutil.rmtree(self.prepared)
        prepared = self.prepared = self.fresh_dir()
        self.shard_dir = prepared / "shards"
        self.shard_dir.mkdir(parents=True)
        for index in range(self.SHARDS):
            write_shard_artifact(
                self.shard_dir / shard_filename(self.SHARDS, index),
                run_gps_shard(grid, self.SHARDS, index),
            )

        frame = run_gps_sweep(grid).frame
        self.rows = len(frame)
        self.merge_reference = frame_digest(
            frame.csv_lines(), global_front_mask(frame)
        )
        directory, manifest = self.op_ingest()
        if load_warehouse(directory).frame.to_json_columns() != (
            frame.to_json_columns()
        ):
            raise RuntimeError(
                "ingested warehouse differs from the in-RAM sweep"
            )
        self.ingest_reference = self._manifest_digest(manifest)
        shutil.rmtree(directory)

        self.warehouse = prepared / "warehouse"
        build_gps_warehouse(self.warehouse, grid)
        self.rotation = self._draw_rotation(rng, volumes)
        reference_service = QueryService(self.warehouse)
        self.query_reference = {}
        for index in range(self.ROTATING):
            for ask in self._dashboard(index):
                key = self._key(ask)
                if key not in self.query_reference:
                    self.query_reference[key] = sha256(
                        response_bytes(reference_service.execute(ask))
                    )
        self._cold = itertools.count()
        self._warm = itertools.count()
        self._retired_rerank = [0, 0]
        self.warm_service = QueryService(self.warehouse)
        self._dashboard_pass(self.warm_service, self._warm)

    def _draw_rotation(self, rng, volumes) -> list[tuple[str, dict]]:
        """Distinct weight triples, each paired with a ``where`` filter.

        No exponent is 1 (which would skip the ``pow`` pass) and every
        other filter pins a volume, so the work per dashboard does not
        depend on the seed.
        """
        exponents = ("0.5", "1.5", "2", "2.5", "3")
        triples: list[str] = []
        while len(triples) < self.ROTATING:
            triple = ":".join(exponents[i] for i in rng.integers(0, 5, 3))
            if triple not in triples:
                triples.append(triple)
        rotation = []
        for index, triple in enumerate(triples):
            where = {
                "tolerance": ("paper", "precision")[rng.integers(0, 2)],
                "nre": ("paper", "zero")[rng.integers(0, 2)],
            }
            if index % 2:
                where["volume"] = volumes[rng.integers(0, len(volumes))]
            rotation.append((triple, where))
        return rotation

    def _dashboard(self, index: int) -> list[dict]:
        """One dashboard pass: fixed asks plus the rotating ones."""
        triple, where = self.rotation[index % self.ROTATING]
        return [
            {"kind": "manifest"},
            {"kind": "pareto"},
            {"kind": "winners"},
            {"kind": "best", "where": where},
            {"kind": "rerank", "fom_weights": self.FIXED_WEIGHTS},
            {"kind": "rerank", "fom_weights": triple, "where": where},
        ]

    @staticmethod
    def _key(ask: dict) -> str:
        return json.dumps(ask, sort_keys=True)

    def _dashboard_pass(self, service, counter) -> list[tuple[str, bytes]]:
        return [
            (self._key(ask), response_bytes(service.execute(ask)))
            for ask in self._dashboard(next(counter))
        ]

    @staticmethod
    def _manifest_digest(manifest) -> str:
        return sha256(canonical_json(manifest_to_payload(manifest)).encode())

    def op_ingest(self):
        directory = self.fresh_dir()
        manifest, _, _ = ingest_shard_directory(directory, self.shard_dir)
        return directory, manifest

    def check_ingest(self, output) -> bool:
        directory, manifest = output
        shutil.rmtree(directory)
        return self._manifest_digest(manifest) == self.ingest_reference

    def op_merge(self):
        directory = self.fresh_dir()
        store = merge_artifacts_to_store(
            find_shard_artifacts(self.shard_dir), directory, self.MERGE_ROWS
        )
        return directory, list(store.csv_lines()), store.pareto_mask()

    def check_merge(self, output) -> bool:
        directory, lines, mask = output
        shutil.rmtree(directory)
        return frame_digest(lines, mask) == self.merge_reference

    def op_query_cold(self):
        service = QueryService(self.warehouse)
        answers = self._dashboard_pass(service, self._cold)
        stats = service.rerank_cache_stats()
        self._retired_rerank[0] += stats["hits"]
        self._retired_rerank[1] += stats["misses"]
        return answers

    def op_query_warm(self):
        return self._dashboard_pass(self.warm_service, self._warm)

    def check_query_cold(self, answers) -> bool:
        return all(
            sha256(body) == self.query_reference[key] for key, body in answers
        )

    check_query_warm = check_query_cold

    def rerank_stats(self) -> tuple[int, int]:
        stats = self.warm_service.rerank_cache_stats()
        return (
            self._retired_rerank[0] + stats["hits"],
            self._retired_rerank[1] + stats["misses"],
        )


class CliCold(Workload):
    name = "cli-cold"
    why = (
        "closed loop, 1 client; a fresh `python -m repro.cli` per op, "
        "alternating a 3-volume sweep --csv and study: imports, argparse "
        "and flag checks on the clock"
    )
    MIX = ("cli_sweep", "cli_study")

    @property
    def input_size(self) -> str:
        return "3-volume sweep, 1-volume study"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        volumes = seeded_volumes(rng, 4)
        self.argv = {
            "cli_sweep": [
                "sweep",
                "--volumes",
                ",".join(repr(volume) for volume in volumes[:3]),
                "--csv",
            ],
            "cli_study": ["study", "--volume", repr(volumes[3])],
        }
        self.env = child_env(self.root)
        self.child_rss_kb = 0
        self.reference = {}
        for kind, argv in self.argv.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = main(argv)
            if status != 0:
                raise RuntimeError(f"repro.cli {argv} exited {status}")
            self.reference[kind] = sha256(out.getvalue().encode("utf-8"))

    def _run(self, kind: str):
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.argv[kind]],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        ) as child:
            stdout = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return kind, child.returncode, stdout

    def op_cli_sweep(self):
        return self._run("cli_sweep")

    def op_cli_study(self):
        return self._run("cli_study")

    def check_cli_sweep(self, output) -> bool:
        kind, status, stdout = output
        return status == 0 and sha256(stdout) == self.reference[kind]

    check_cli_study = check_cli_sweep

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the CLI children."""
        return self.child_rss_kb / 1024.0


def child_env(root: Path) -> dict:
    """The environment of a child ``python``: the checkout's ``src`` on
    the path and no sweep-path overrides."""
    env = {key: value for key, value in os.environ.items()
           if key not in SWEEP_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GridBatch, GridStream, StoreQuery, CliCold)
}

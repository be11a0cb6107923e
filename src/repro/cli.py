"""Command-line interface: run the GPS case study from the shell.

Installed as ``repro-gps``.  Subcommands:

* ``study`` (default) — run the full trade-off study and print the
  Fig. 3/5/6 tables plus the recommendation;
* ``flow N`` — render the MOE production flow of build-up N (Fig. 4);
* ``compare`` — print paper-vs-measured for every published number;
* ``calibrate`` — re-run the confidential chip-cost calibration;
* ``sweep`` — fan the methodology out over a design-space grid
  (volume x substrate rule x thin-film process x tolerance class x
  technology Q model x NRE scenario x FoM weight vector) and print
  Pareto-ready rows as a table or ``--csv`` (``--cache-stats`` adds
  the per-table memo tally).  One flag picks the run mode, in this
  order: ``--merge DIR`` reassembles shard artifacts into the report;
  ``--queue-init MANIFEST --shards K`` writes a work queue that any
  number of ``--queue MANIFEST`` workers drain; ``--shards K
  --shard-index I`` evaluates one shard into ``--shard-dir``
  (``--resume`` skips it when a valid artifact is already there);
  ``--adaptive`` refines a coarse subsample around the Pareto front
  (``--passes``, ``--budget``, ``--refine-margin``, ``--coarse``);
  otherwise the whole grid is swept;
* ``gather DIR`` — merge the shard artifacts in DIR into the report,
  once or ``--watch``-ing queue workers fill it;
* ``warehouse build|serve|query`` — materialise a sweep (or
  ``--from-shards``) into content-addressed frame files and answer
  decision queries from them, on the command line or over HTTP.

Every report mode streams through a chunked frame store under a row
budget (``--max-rows-in-memory`` or ``$REPRO_SWEEP_MAX_ROWS``), kept
in ``--spill-dir`` when one is given; stdout is byte-identical to the
in-RAM report.

Which flags each mode of ``sweep``, ``gather`` and ``warehouse build``
takes is one table, :data:`MODE_TABLES`, checked before the mode runs.
A flag counts as given when its value differs from its parser default;
a given flag the mode refuses exits 2 with one line.  Bad asks found
while running (unreadable files, foreign grids, a malformed budget)
exit 2 the same way, while exit 1 means "not done yet": an incomplete
gather or a queue shard out of attempts.

A module that only some commands run is imported inside the function
that runs it: every ``repro-gps`` start pays for the modules it loads
(``docs/architecture.md``, "Import budget").
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .area.substrate import SUBSTRATE_RULES
from .circuits.qfactor import Q_MODEL_SCENARIOS, SubstrateLossQModel
from .core.figure_of_merit import FomWeights
from .core.queryvocab import QUERY_KINDS, SENSITIVITY_AXES
from .core.resultframe import ResultFrame
from .core.sweep import (
    MAX_ROWS_ENV,
    SweepGrid,
    SweepReport,
    max_rows_from_env,
)
from .errors import CalibrationError, FlowError, SpecificationError
from .gps.buildups import flow_for
from .gps.study import (
    NRE_SCENARIOS,
    build_gps_warehouse,
    paper_comparison,
    run_adaptive_gps_sweep,
    run_gps_queue_worker,
    run_gps_shard,
    run_gps_study,
    run_gps_sweep,
    spill_adaptive_gps_sweep,
    spill_gps_sweep,
)
from .passives.thin_film import THIN_FILM_PROCESSES
from .passives.tolerance import TOLERANCE_CLASSES


def _cmd_study(args: argparse.Namespace) -> int:
    from .core.decision import full_report

    result = run_gps_study(volume=args.volume)
    print(full_report(result))
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from .cost.moe.builder import render_flow

    flow = flow_for(args.implementation)
    print(render_flow(flow))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    del args
    result = run_gps_study()
    comparison = paper_comparison(result)
    for metric, values in comparison.items():
        print(f"{metric}:")
        for implementation, (paper, measured) in values.items():
            print(
                f"  impl {implementation}: paper={paper:g} "
                f"measured={measured:.3g}"
            )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .cost.calibration import calibrate_chip_costs

    result = calibrate_chip_costs(bare_discount=args.bare_discount)
    print(
        f"RF chip:  packaged {result.rf_packaged:.1f}, "
        f"bare {result.rf_bare:.1f}"
    )
    print(
        f"DSP chip: packaged {result.dsp_packaged:.1f}, "
        f"bare {result.dsp_bare:.1f}"
    )
    for implementation, ratio in result.achieved_ratios.items():
        target = result.target_ratios[implementation]
        print(
            f"impl {implementation}: achieved {100 * ratio:.1f}% "
            f"(paper {100 * target:.1f}%)"
        )
    print(f"ordering preserved: {result.ordering_preserved}")
    return 0


def _axis_values(raw: str, registry: dict, axis: str) -> tuple:
    """Parse a comma-separated axis list; ``paper`` means the default."""
    values = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "paper":
            values.append(None)
        elif token in registry:
            values.append(registry[token])
        else:
            known = ", ".join(["paper", *sorted(registry)])
            raise argparse.ArgumentTypeError(
                f"unknown {axis} {token!r} (choose from {known})"
            )
    if not values:
        raise argparse.ArgumentTypeError(f"empty {axis} list")
    return tuple(values)


def _number(cast, ok: Callable[[float], bool], complaint: str):
    """An argparse type: ``cast(raw)``, refused unless ``ok(value)``.

    ``complaint`` is formatted with the parsed ``value`` and the
    ``raw`` token; a token ``cast`` cannot parse is "not an integer"
    (``int``) or "not a number" (``float``).
    """
    noun = "an integer" if cast is int else "a number"

    def parse(raw: str):
        try:
            value = cast(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{raw!r} is not {noun}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(
                complaint.format(value=value, raw=raw)
            )
        return value

    return parse


_positive_int = _number(
    int, lambda value: value >= 1, "need a positive integer, got {value}"
)
_positive_row_budget = _number(
    int, lambda value: value >= 1, "need a positive row budget, got {value}"
)
_nonnegative_int = _number(
    int, lambda value: value >= 0, "need a non-negative index, got {value}"
)
_port = _number(
    int,
    lambda value: 0 <= value <= 65535,
    "need a TCP port in 0-65535 (0 picks an ephemeral port), got {value}",
)
_coarse_rank_count = _number(
    int,
    lambda value: value >= 2,
    "the coarse pass needs at least 2 ranks per axis, got {value}",
)
_positive_float = _number(
    float,
    lambda value: math.isfinite(value) and value > 0,
    "need a positive finite number of seconds, got {raw!r}",
)
_nonnegative_float = _number(
    float,
    lambda value: math.isfinite(value) and value >= 0,
    "need a non-negative finite number, got {raw!r}",
)


def _bare_discount(raw: str) -> float:
    """Parse --bare-discount: a fraction in (0, 1], checked at parse time."""
    from .cost.calibration import check_bare_discount

    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a number"
        ) from None
    try:
        return check_bare_discount(value)
    except CalibrationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _create_directory(directory) -> Path:
    """``directory``, created with its parents to hold command output.

    A path that cannot be a directory (a regular file on the way, no
    permission) is a bad ask, not a crash: it raises
    :class:`SpecificationError`, which :func:`main` maps to the
    command's exit-2 message.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecificationError(
            f"cannot create directory {directory}: {exc.strerror or exc}"
        ) from None
    return directory


def _usage_error(command: str, message: str) -> "SystemExit":
    """Abort ``repro-gps <command>`` with argparse's exit contract.

    Bad asks — contradictory flags, a bad shard geometry, a malformed
    ``REPRO_SWEEP_MAX_ROWS``, an unreadable manifest — exit with code 2
    and a one-line message, never a traceback.
    """
    print(f"repro-gps {command}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _q_model_values(raw: str) -> tuple:
    """Parse the Q-model axis list.

    Tokens are ``paper`` (the per-process constant-Q default), a named
    scenario from :data:`repro.circuits.qfactor.Q_MODEL_SCENARIOS`, or
    ``tan=<value>`` for a substrate-loss model with a custom dielectric
    loss tangent — the knob behind "at what loss tangent does thin film
    stop winning?".
    """
    values = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "paper":
            values.append(None)
        elif token in Q_MODEL_SCENARIOS:
            values.append(Q_MODEL_SCENARIOS[token])
        elif token.startswith("tan="):
            try:
                tan_delta = float(token[len("tan="):])
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"loss tangent {token[len('tan='):]!r} is not a number"
                ) from None
            if not math.isfinite(tan_delta) or tan_delta <= 0:
                raise argparse.ArgumentTypeError(
                    f"loss tangent must be positive and finite, "
                    f"got {tan_delta:g}"
                )
            values.append(SubstrateLossQModel(tan_delta_ref=tan_delta))
        else:
            known = ", ".join(
                ["paper", "tan=<value>", *sorted(Q_MODEL_SCENARIOS)]
            )
            raise argparse.ArgumentTypeError(
                f"unknown Q model {token!r} (choose from {known})"
            )
    if not values:
        raise argparse.ArgumentTypeError("empty Q-model list")
    return tuple(values)


def _fom_weight_values(raw: str) -> tuple:
    """Parse the FoM-weights axis: ``paper`` or ``perf:size:cost`` triples."""
    values = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "paper":
            values.append(None)
            continue
        parts = token.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"FoM weights {token!r} must be perf:size:cost"
            )
        try:
            performance, size, cost = (float(part) for part in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"FoM weights {token!r} must be three numbers"
            ) from None
        if not all(
            math.isfinite(value) and value >= 0
            for value in (performance, size, cost)
        ):
            raise argparse.ArgumentTypeError(
                f"FoM weights must be non-negative finite numbers, "
                f"got {token!r}"
            )
        values.append(
            FomWeights(performance=performance, size=size, cost=cost)
        )
    if not values:
        raise argparse.ArgumentTypeError("empty FoM-weights list")
    return tuple(values)


def _volume(raw: str) -> float:
    """Parse one production volume (a positive, finite number)."""
    try:
        volume = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"volume {raw!r} is not a number"
        ) from None
    if not math.isfinite(volume) or volume <= 0:
        raise argparse.ArgumentTypeError(
            f"volume must be positive and finite, got {volume:g}"
        )
    return volume


def _volume_values(raw: str) -> tuple:
    """Parse a comma-separated list of positive, finite volumes."""
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        values.append(_volume(token))
    if not values:
        raise argparse.ArgumentTypeError("empty volume list")
    return tuple(values)


def _registry_token(value, registry: dict, axis: str) -> str:
    """The CLI token that names ``value`` on a registry-backed axis."""
    if value is None:
        return "paper"
    for name, candidate in registry.items():
        if candidate is value or candidate == value:
            return name
    raise SpecificationError(
        f"cannot name {axis} value {value!r} in a queue manifest"
    )


def _q_model_spec(values) -> str:
    """Q-model axis tokens; custom loss models become ``tan=<repr>``."""
    tokens = []
    for value in values:
        if value is None:
            tokens.append("paper")
            continue
        for name, candidate in Q_MODEL_SCENARIOS.items():
            if candidate is value or candidate == value:
                tokens.append(name)
                break
        else:
            tokens.append(f"tan={value.tan_delta_ref!r}")
    return ",".join(tokens)


def _fom_weight_spec(values) -> str:
    return ",".join(
        "paper"
        if value is None
        else f"{value.performance!r}:{value.size!r}:{value.cost!r}"
        for value in values
    )


def _registry_axis(registry: dict, axis: str, noun: str) -> tuple:
    """A registry-backed axis: token parser, token writer and help."""
    return (
        lambda raw: _axis_values(raw, registry, axis),
        lambda values: ",".join(
            _registry_token(value, registry, axis) for value in values
        ),
        f"comma-separated {noun}: paper, " + ", ".join(sorted(registry)),
    )


#: The seven grid axes of ``sweep`` and ``warehouse build``: parser
#: dest → (token parser, token writer, help).  The writer turns parsed
#: values back into tokens for a queue manifest's ``grid_spec`` —
#: ``repr()`` round-trips floats bit-exactly, registry values are
#: stored by name — and the parser rebuilds the grid from them.
_GRID_AXES = {
    "volumes": (
        _volume_values,
        lambda values: ",".join(repr(volume) for volume in values),
        "comma-separated production volumes, e.g. 1e3,1e4,1e5",
    ),
    "substrates": _registry_axis(
        SUBSTRATE_RULES, "substrate", "MCM substrate rules"
    ),
    "processes": _registry_axis(
        THIN_FILM_PROCESSES, "process", "thin-film processes"
    ),
    "tolerances": _registry_axis(
        TOLERANCE_CLASSES, "tolerance", "tolerance classes"
    ),
    "q_models": (
        _q_model_values,
        _q_model_spec,
        "comma-separated technology Q models: paper, tan=<value>, "
        + ", ".join(sorted(Q_MODEL_SCENARIOS)),
    ),
    "nres": _registry_axis(NRE_SCENARIOS, "NRE scenario", "NRE scenarios"),
    "fom_weights": (
        _fom_weight_values,
        _fom_weight_spec,
        "comma-separated FoM weight vectors as perf:size:cost "
        "(e.g. 1:1:1,2:1:0.5); paper = the plain product",
    ),
}


def _cache_line(stats: dict) -> str:
    """The one-line memo tally: ``cache: table=Nh/Mm ...``."""
    return "cache: " + " ".join(
        f"{table}={tally['hits']}h/{tally['misses']}m"
        for table, tally in stats.get("tables", {}).items()
    )


def _print_csv(lines, cache_stats: dict, args) -> None:
    """CSV rows on stdout; the --cache-stats tally goes to stderr."""
    print(ResultFrame.csv_header())
    for line in lines:
        print(line)
    if args.cache_stats:
        # Keep stdout pure CSV; the tally goes to stderr.
        print(_cache_line(cache_stats), file=sys.stderr)


def _print_sweep_report(report, args) -> None:
    """Render a sweep report: CSV, or the table with its summary."""
    if args.csv:
        # Columnar export: the frame formats whole columns at once
        # (byte-identical to the historical per-row str() path).
        _print_csv(report.frame.csv_lines(), report.cache_stats, args)
        return

    # Every evaluated grid point has exactly one winning row.
    n_points = int(report.frame.column("is_winner").sum())
    print(
        f"Design-space sweep: {n_points} points, {len(report.rows)} rows"
    )
    print(
        f"{'volume':>8} | {'substrate':>16} | {'process':>16} | "
        f"{'tolerance':>10} | {'q-model':>14} | {'nre':>10} | "
        f"{'weights':>9} | {'build-up':>20} | {'perf':>5} | "
        f"{'area%':>6} | {'cost%':>6} | {'FoM':>5} | flags"
    )
    for row in report.rows:
        flags = "".join(
            ("W" if row.is_winner else "", "P" if row.on_pareto_front else "")
        )
        print(
            f"{row.volume:>8g} | {row.substrate:>16.16} | "
            f"{row.process:>16.16} | {row.tolerance:>10} | "
            f"{row.q_model:>14.14} | {row.nre:>10.10} | "
            f"{row.weights:>9.9} | "
            f"{row.candidate:>20.20} | {row.performance:>5.2f} | "
            f"{row.area_percent:>6.1f} | {row.cost_percent:>6.1f} | "
            f"{row.figure_of_merit:>5.2f} | {flags}"
        )
    print("\nWinner counts (W = point winner, P = on Pareto front):")
    for name, count in sorted(report.winner_counts().items()):
        print(f"  {name}: {count}/{n_points}")
    best = report.best_row()
    print(
        f"Best overall: {best.candidate} (FoM {best.figure_of_merit:.2f}) "
        f"at volume={best.volume:g}, substrate={best.substrate}, "
        f"process={best.process}, tolerance={best.tolerance}, "
        f"q-model={best.q_model}, nre={best.nre}, weights={best.weights}"
    )
    hits, misses = report.cache_stats["hits"], report.cache_stats["misses"]
    print(f"Memoised sub-results: {hits} hits / {misses} misses")
    if args.cache_stats:
        print("Evaluation cache (merged across workers):")
        for table, tally in report.cache_stats["tables"].items():
            print(
                f"  {table:>12}: {tally['hits']} hits / "
                f"{tally['misses']} misses / {tally['entries']} entries"
            )


def _row_budget(args: argparse.Namespace) -> Optional[int]:
    """The out-of-core row budget: --max-rows-in-memory, else the env.

    ``None`` means in-RAM (the reference path).  A malformed
    ``$REPRO_SWEEP_MAX_ROWS`` raises :class:`SpecificationError`.
    """
    if args.max_rows_in_memory is not None:
        return args.max_rows_in_memory
    return max_rows_from_env()


def _render_spilled(args, build, identity=None) -> int:
    """Spill through ``build(directory)``, then render the frame store.

    Stdout is byte-identical to the in-RAM report: CSV streams the
    store chunk by chunk; the table crosses the identity bridge
    (:meth:`~repro.core.framestore.ChunkedFrameStore.to_frame`).
    Without --spill-dir the store lives in a temporary directory for
    as long as it is rendered.  With it, a complete store already
    there for exactly the grid ``identity()`` names (called only then;
    a merge or gather runs its cover over the shard directory) is
    re-read instead of rebuilt — the same discipline as ``--resume``;
    a half-written or foreign store is refused.  A run without an
    ``identity`` (adaptive) builds into the directory.
    """
    from .core.framestore import MANIFEST_NAME, ChunkedFrameStore
    from .core.sharding import GridIdentity

    if args.spill_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-spill-") as scratch:
            _print_store_report(build(Path(scratch) / "store"), args)
        return 0
    directory = Path(args.spill_dir)
    if identity is None or not (directory / MANIFEST_NAME).exists():
        _print_store_report(build(_create_directory(directory)), args)
        return 0
    grid = identity()
    store = ChunkedFrameStore.open(directory)
    if not store.complete:
        raise SpecificationError(
            f"spill directory {directory} holds an incomplete "
            f"frame store (crashed run?); remove it and re-run"
        )
    if GridIdentity.from_payload(store.meta) != grid:
        raise SpecificationError(
            f"spill directory {directory} holds a frame store for "
            f"a different grid; remove it or pick another "
            f"--spill-dir"
        )
    # Reuse is chatter, not output: stdout stays pure table/CSV.
    print(
        f"reusing spilled frame store at {directory} "
        f"({store.chunk_count} chunks, {store.total_rows} rows)",
        file=sys.stderr,
    )
    _print_store_report(store, args)
    return 0


def _print_store_report(store: ChunkedFrameStore, args) -> None:
    """Render a chunked frame store like :func:`_print_sweep_report`."""
    stats = store.meta.get("cache_stats", {})
    if args.csv:
        _print_csv(store.csv_lines(), stats, args)
    else:
        report = SweepReport(frame=store.to_frame(), cache_stats=stats)
        _print_sweep_report(report, args)


def _grid_from_args(args: argparse.Namespace) -> SweepGrid:
    """The sweep grid the seven axis flags describe."""
    return SweepGrid(**{axis: getattr(args, axis) for axis in _GRID_AXES})


def _grid_spec_from_args(args: argparse.Namespace) -> dict:
    """The parsed grid axes as CLI tokens, for a queue manifest.

    Every worker rebuilds *exactly* the grid the queue was initialised
    for; the fingerprint check in the worker is the belt to these
    braces.
    """
    return {
        axis: write(getattr(args, axis))
        for axis, (_, write, _) in _GRID_AXES.items()
    }


def _grid_from_spec(spec, source: str) -> SweepGrid:
    """Rebuild the sweep grid from a manifest's ``grid_spec`` tokens."""
    if not isinstance(spec, dict):
        raise SpecificationError(
            f"{source} carries no grid_spec, so the worker cannot "
            f"rebuild the grid; re-run --queue-init (or drive the "
            f"queue through the API with an explicit grid)"
        )
    try:
        return SweepGrid(
            **{
                axis: parse(str(spec[axis]))
                for axis, (parse, _, _) in _GRID_AXES.items()
            }
        )
    except KeyError as exc:
        raise SpecificationError(
            f"{source}: grid_spec is missing axis {exc.args[0]!r}"
        ) from None
    except argparse.ArgumentTypeError as exc:
        raise SpecificationError(
            f"{source}: bad grid_spec ({exc})"
        ) from None


# -- sweep modes: each runs after the flag table accepted its flags ----


def _run_merge(args: argparse.Namespace) -> int:
    """--merge: reassemble shard artifacts into one report."""
    from .core.framestore import merge_artifacts_to_store
    from .core.sharding import (
        covered_grid,
        find_shard_artifacts,
        merge_shard_artifacts,
    )

    max_rows = _row_budget(args)
    paths = find_shard_artifacts(args.merge)
    if not paths:
        raise SpecificationError(
            f"no shard artifacts (shard-*.json) in {args.merge}"
        )
    if max_rows is None:
        _print_sweep_report(merge_shard_artifacts(paths), args)
        return 0
    # Out-of-core merge: spill to a chunked frame store and stream it
    # out — byte-identical stdout, bounded memory.
    return _render_spilled(
        args,
        lambda directory: merge_artifacts_to_store(
            paths, directory, max_rows
        ),
        lambda: covered_grid(paths),
    )


def _run_queue_init(args: argparse.Namespace) -> int:
    """--queue-init: write the work-queue manifest."""
    from .core.queue import manifest_for_grid, write_manifest

    grid = _grid_from_args(args)
    manifest = manifest_for_grid(
        grid,
        shards=args.shards,
        lease_ttl=args.lease_ttl if args.lease_ttl is not None else 300.0,
        max_attempts=(
            args.max_attempts if args.max_attempts is not None else 3
        ),
        grid_spec=_grid_spec_from_args(args),
    )
    _create_directory(Path(args.queue_init).parent)
    path = write_manifest(args.queue_init, manifest)
    print(
        f"Queue manifest: {len(grid)} points in {args.shards} shards "
        f"({manifest.fingerprint}) -> {path}"
    )
    print(
        f"  lease TTL {manifest.lease_ttl:g}s, max attempts "
        f"{manifest.max_attempts}; start workers with "
        f"`repro-gps sweep --queue {path}`"
    )
    return 0


def _run_queue(args: argparse.Namespace) -> int:
    """--queue: run one worker until nothing is claimable."""
    from .core.queue import read_manifest

    manifest = read_manifest(args.queue)
    grid = _grid_from_spec(
        manifest.grid_spec, source=f"queue manifest {args.queue}"
    )

    def on_event(kind: str, shard_index: int, detail: str) -> None:
        print(f"shard {shard_index}/{manifest.shards} {kind}: {detail}")

    report = run_gps_queue_worker(args.queue, grid, on_event=on_event)
    print(
        f"Queue worker done: {len(report.evaluated)} evaluated, "
        f"{len(report.skipped)} skipped, "
        f"{len(report.failures)} failed attempts"
    )
    if report.exhausted:
        exhausted = ", ".join(str(index) for index in report.exhausted)
        print(
            f"repro-gps sweep: shards exhausted after "
            f"{manifest.max_attempts} attempts: {exhausted}",
            file=sys.stderr,
        )
        return 1
    if report.outstanding:
        outstanding = ", ".join(
            str(index) for index in report.outstanding
        )
        print(
            f"  outstanding shards (leased or retrying elsewhere): "
            f"{outstanding}"
        )
    else:
        print("  queue drained: every shard artifact is in place")
    return 0


def _run_shard(args: argparse.Namespace) -> int:
    """--shard-index: evaluate one shard and write its artifact."""
    from .core.sharding import (
        GridIdentity,
        matching_artifact,
        shard_filename,
        write_shard_artifact,
    )

    grid = _grid_from_args(args)
    shards, index = args.shards, args.shard_index
    shard_dir = args.shard_dir if args.shard_dir is not None else "."
    artifact_path = Path(shard_dir) / shard_filename(shards, index)
    if args.resume:
        # An artifact counts as evaluated only when it is this shard of
        # this partition of the same resolved grid in the same order.
        done = matching_artifact(
            artifact_path, GridIdentity.of(grid.points()), shards, index
        )
        if done is not None:
            print(
                f"Shard {index}/{shards}: valid artifact for this grid "
                f"({done.grid.fingerprint}) already at {artifact_path}, "
                f"skipping re-evaluation"
            )
            return 0
    _create_directory(shard_dir)
    # Shard geometry (positive count, index in range) is validated by
    # the sharding layer itself.
    artifact = run_gps_shard(grid, shards=shards, shard_index=index)
    path = write_shard_artifact(artifact_path, artifact)
    print(
        f"Shard {index}/{shards}: {len(artifact.dframe.indices)} of "
        f"{artifact.grid.total_points} points ({artifact.grid.fingerprint}) "
        f"-> {path}"
    )
    if args.cache_stats:
        print(_cache_line(artifact.cache_state))
    return 0


def _print_adaptive_summary(report, args) -> None:
    """Render the per-pass adaptive counters.

    Chatter in CSV mode (stdout stays pure rows), part of the report in
    table mode — the counters are what make the evaluation-savings
    claim observable, so they always print somewhere.
    """
    out = sys.stderr if args.csv else sys.stdout
    status = ["stable front" if report.stable else "front not converged"]
    if report.budget_exhausted:
        status.append("budget exhausted")
    print(
        f"Adaptive sweep: {report.total_evaluations} of "
        f"{report.grid_points} grid points evaluated "
        f"({report.savings:.1f}x fewer), " + ", ".join(status),
        file=out,
    )
    for record in report.passes:
        print(
            f"  pass {record.index}: {record.evaluated}/"
            f"{record.proposed} proposed points evaluated "
            f"({record.cumulative_evaluations} cumulative), "
            f"front {record.front_size} (+{record.front_added}/"
            f"-{record.front_removed}), cache {record.cache_hits}h/"
            f"{record.cache_misses}m",
            file=out,
        )


def _run_adaptive(args: argparse.Namespace) -> int:
    """--adaptive: the coarse → zoom refinement driver.

    The merged canonical frame renders through the same table/CSV/
    store renderers as an exhaustive sweep — its rows are
    byte-identical to the exhaustive rows of the evaluated points.
    """
    grid = _grid_from_args(args)
    tuning = {
        "passes": args.passes,
        "budget": args.budget,
        "refine_margin": (
            args.refine_margin if args.refine_margin is not None else 0.0
        ),
        "coarse": args.coarse if args.coarse is not None else 4,
    }
    max_rows = _row_budget(args)
    if max_rows is None:
        report = run_adaptive_gps_sweep(grid, **tuning)
        _print_adaptive_summary(report, args)
        _print_sweep_report(report.report, args)
        return 0
    from .core.framestore import MANIFEST_NAME

    if args.spill_dir is not None and (
        Path(args.spill_dir) / MANIFEST_NAME
    ).exists():
        # The exhaustive spill can verify reuse against the grid
        # identity; an adaptive run cannot — which points were
        # evaluated depends on the refinement itself.
        raise SpecificationError(
            f"spill directory {args.spill_dir} already holds a frame "
            f"store; an adaptive run cannot verify reuse (the "
            f"evaluated subgrid depends on the refinement) — remove "
            f"it or pick another --spill-dir"
        )

    def build(directory):
        store, report = spill_adaptive_gps_sweep(
            grid, directory, max_rows, **tuning
        )
        _print_adaptive_summary(report, args)
        return store

    return _render_spilled(args, build)


def _run_sweep(args: argparse.Namespace) -> int:
    """The plain sweep: every grid point, in RAM or spilled."""
    grid = _grid_from_args(args)
    max_rows = _row_budget(args)
    if max_rows is None:
        _print_sweep_report(run_gps_sweep(grid), args)
        return 0

    # Out-of-core mode: spill completed rows to a chunked frame store
    # as the sweep streams, then render from the store.
    from .core.sharding import GridIdentity

    return _render_spilled(
        args,
        lambda directory: spill_gps_sweep(grid, directory, max_rows),
        lambda: GridIdentity.of(grid.points()),
    )


def _run_gather(args: argparse.Namespace) -> int:
    """Merge a shard directory — one-shot, or watching workers live.

    Exit codes separate *asking wrong* from *not done yet*: an
    unreadable manifest or a broken spill store (wrong grid, corrupt
    chunk) exits 2, while an incomplete directory, a timeout or a
    rejected artifact exit 1 with a one-line reason — the right signal
    for a supervisor restarting the watch.
    """
    from .core.gather import (
        GatherError,
        gather_directory,
        gather_directory_to_store,
        gather_grid,
        watch_directory,
    )
    from .core.queue import read_manifest
    from .core.sharding import ShardMergeError

    max_rows = None if args.watch else _row_budget(args)
    expected = None
    if args.manifest is not None:
        expected = read_manifest(args.manifest)
    last_progress: list = [None]

    def on_snapshot(snapshot) -> None:
        state = (
            snapshot.covered_points,
            snapshot.shards_seen,
            snapshot.pending,
            snapshot.rejected,
        )
        if state == last_progress[0]:
            return
        last_progress[0] = state
        total_points = (
            snapshot.total_points if snapshot.total_points else "?"
        )
        total_shards = (
            snapshot.total_shards if snapshot.total_shards else "?"
        )
        line = (
            f"gather: {snapshot.covered_points}/{total_points} points, "
            f"shards {len(snapshot.shards_seen)}/{total_shards}"
        )
        if snapshot.pending:
            line += f", {len(snapshot.pending)} in flight"
        for name, reason in snapshot.rejected:
            line += f"; rejected {name}: {reason}"
        # Progress is chatter, not output: stdout stays pure for the
        # final table/CSV.
        print(line, file=sys.stderr)

    try:
        if max_rows is not None:
            return _render_spilled(
                args,
                lambda directory: gather_directory_to_store(
                    args.directory, directory, max_rows, expected=expected
                ),
                lambda: gather_grid(args.directory, expected=expected),
            )
        if args.watch:
            report = watch_directory(
                args.directory,
                expected=expected,
                poll=args.poll if args.poll is not None else 0.5,
                timeout=args.timeout,
                on_snapshot=on_snapshot,
            )
        else:
            report = gather_directory(args.directory, expected=expected)
    except (GatherError, ShardMergeError) as exc:
        # An incomplete directory, or one that cannot be listed or
        # read: not done yet, exit 1.
        print(f"repro-gps gather: {exc}", file=sys.stderr)
        return 1
    _print_sweep_report(report, args)
    return 0


def _run_warehouse_build(args: argparse.Namespace) -> int:
    """Materialise a sweep into frame files (fresh run or shard ingest)."""
    if args.from_shards is not None:
        from .core.warehouse import ingest_shard_directory

        _create_directory(args.directory)
        manifest, appended, skipped = ingest_shard_directory(
            args.directory, args.from_shards
        )
        for name in appended:
            print(f"appended {name}")
        for name in skipped:
            print(f"skipped {name} (already covered)")
    else:
        grid = _grid_from_args(args)
        _create_directory(args.directory)
        manifest = build_gps_warehouse(
            args.directory, grid, grid_spec=_grid_spec_from_args(args)
        )
    rows = sum(entry.rows for entry in manifest.frames)
    state = "complete" if manifest.complete else "partial"
    print(
        f"warehouse {args.directory}: fingerprint "
        f"{manifest.fingerprint}, revision {manifest.revision}, "
        f"{manifest.covered_points}/{manifest.total_points} points, "
        f"{rows} rows in {len(manifest.frames)} frame files ({state})"
    )
    return 0


# -- the flag table ----------------------------------------------------

#: A pseudo-flag for :attr:`_Rule.needs`: a row budget, from
#: --max-rows-in-memory or ``$REPRO_SWEEP_MAX_ROWS``.
_ROW_BUDGET = "row budget"


class _Rule(NamedTuple):
    """Refuse any of ``flags`` that is given unless one of ``needs`` is.

    With no ``needs`` the flags are refused outright.  ``message`` may
    name the given flags through ``{flags}``.
    """

    flags: tuple
    message: str
    needs: tuple = ()


class _Mode(NamedTuple):
    """One run mode of a command: the flag that selects it, the flags it
    uses, the refusals and requirements checked in order, its runner.

    ``accepts`` is the mode's documentation (the guide's mode x flag
    table); with the rules and the earlier modes' selectors it covers
    every flag of the command, which the tests check.
    """

    name: str
    selector: Optional[str]
    accepts: frozenset
    rules: tuple
    run: Callable[[argparse.Namespace], int]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_SPILL = ("max_rows_in_memory", "spill_dir")
_REPORT = frozenset({"csv", "cache_stats", *_SPILL})
_TUNING = ("passes", "budget", "refine_margin", "coarse")
_TUNING_NEEDS_ADAPTIVE = tuple(
    _Rule(
        (name,),
        f"{_flag(name)} tunes the adaptive driver; it needs --adaptive",
        ("adaptive",),
    )
    for name in _TUNING
)
_ADAPTIVE_REFUSED = _Rule(
    ("adaptive",),
    "--adaptive runs a fresh refinement sweep; it contradicts "
    "--merge/--queue-init/--queue, which replay or coordinate "
    "exhaustive-grid artifacts",
)
_POLICY_NEEDS_QUEUE_INIT = _Rule(
    ("lease_ttl", "max_attempts"),
    "--lease-ttl/--max-attempts set the queue policy; they need "
    "--queue-init",
    ("queue_init",),
)
_RESUME_NEEDS_SHARD_RUN = _Rule(
    ("resume",),
    "--resume needs a shard run to resume; give --shard-index "
    "(and --shards)",
    ("shard_index",),
)
_SHARDS_NEED_A_RUN = _Rule(
    ("shards",),
    "--shards partitions the grid for cross-host runs; give "
    "--shard-index (run one shard) or --queue-init (write a work queue)",
    ("shard_index", "queue_init"),
)
_SHARD_DIR_NEEDS_SHARD_RUN = _Rule(
    ("shard_dir",),
    "--shard-dir names where a shard run writes its artifact; it needs "
    "--shard-index",
    ("shard_index",),
)
_SPILL_DIR_NEEDS_BUDGET = _Rule(
    ("spill_dir",),
    f"--spill-dir needs a row budget; give --max-rows-in-memory "
    f"(or ${MAX_ROWS_ENV})",
    (_ROW_BUDGET,),
)
_FRESH_SWEEP_RULES = (
    *_TUNING_NEEDS_ADAPTIVE,
    _POLICY_NEEDS_QUEUE_INIT,
    _RESUME_NEEDS_SHARD_RUN,
    _SHARDS_NEED_A_RUN,
    _SHARD_DIR_NEEDS_SHARD_RUN,
    _SPILL_DIR_NEEDS_BUDGET,
)

#: The run modes of each multi-mode command, in precedence order: the
#: first mode whose selector flag is given runs (``None`` = fallback),
#: after its rules pass.  The rule order fixes which refusal an argv
#: with several faults gets.
MODE_TABLES = {
    "sweep": (
        _Mode(
            "--merge",
            "merge",
            frozenset({"merge", *_REPORT}),
            (
                *_TUNING_NEEDS_ADAPTIVE,
                _ADAPTIVE_REFUSED,
                _Rule(
                    ("queue_init", "queue"),
                    "--merge combines finished artifacts; drop "
                    "--queue-init/--queue",
                ),
                _POLICY_NEEDS_QUEUE_INIT,
                _Rule(
                    ("shards", "shard_index"),
                    "--merge combines existing shard artifacts; it cannot "
                    "be mixed with --shards/--shard-index",
                ),
                _Rule(
                    ("resume",),
                    "--resume skips an already-evaluated shard run; it "
                    "does not apply to --merge",
                ),
                _Rule(
                    tuple(_GRID_AXES),
                    "--merge reads the grid from the shard artifacts; "
                    "drop {flags}",
                ),
                _SHARD_DIR_NEEDS_SHARD_RUN,
                _SPILL_DIR_NEEDS_BUDGET,
            ),
            _run_merge,
        ),
        _Mode(
            "--queue-init",
            "queue_init",
            frozenset(
                {"queue_init", "shards", "lease_ttl", "max_attempts",
                 *_GRID_AXES}
            ),
            (
                *_TUNING_NEEDS_ADAPTIVE,
                _ADAPTIVE_REFUSED,
                _Rule(
                    ("queue",),
                    "--queue-init writes the manifest, --queue runs a "
                    "worker against it; one invocation does one or the "
                    "other",
                ),
                _Rule(
                    ("shard_index",),
                    "--queue-init partitions the whole grid; drop "
                    "--shard-index",
                ),
                _Rule(
                    ("resume",),
                    "the queue always skips shards with valid artifacts; "
                    "--resume does not apply to --queue-init",
                ),
                _Rule(
                    ("csv",),
                    "--queue-init evaluates nothing; --csv applies to "
                    "reports (gather the finished queue instead)",
                ),
                _Rule(
                    _SPILL,
                    "--queue-init evaluates nothing; --max-rows-in-memory/"
                    "--spill-dir apply where the report is produced "
                    "(sweep --merge or gather)",
                ),
                _Rule(
                    ("queue_init",),
                    "--queue-init needs the partition geometry; give "
                    "--shards",
                    ("shards",),
                ),
                _SHARD_DIR_NEEDS_SHARD_RUN,
                _Rule(
                    ("cache_stats",),
                    "--queue-init evaluates nothing; --cache-stats "
                    "applies where shards are evaluated",
                ),
            ),
            _run_queue_init,
        ),
        _Mode(
            "--queue",
            "queue",
            frozenset({"queue"}),
            (
                *_TUNING_NEEDS_ADAPTIVE,
                _ADAPTIVE_REFUSED,
                _Rule(
                    tuple(_GRID_AXES),
                    "--queue rebuilds the grid from the manifest; drop "
                    "{flags}",
                ),
                _Rule(
                    ("shards", "shard_index"),
                    "--queue takes the partition geometry from the "
                    "manifest; drop --shards/--shard-index",
                ),
                _Rule(
                    ("resume",),
                    "the queue always skips shards with valid artifacts; "
                    "--resume is implied by --queue",
                ),
                _Rule(
                    ("csv",),
                    "a queue worker writes shard artifacts, not a report; "
                    "gather the shard directory for --csv",
                ),
                _Rule(
                    ("lease_ttl", "max_attempts"),
                    "--lease-ttl/--max-attempts are set at --queue-init "
                    "time; the manifest already records the queue policy",
                ),
                _Rule(
                    _SPILL,
                    "a queue worker writes shard artifacts, not a report; "
                    "--max-rows-in-memory/--spill-dir apply where the "
                    "report is produced (sweep --merge or gather)",
                ),
                _Rule(
                    ("shard_dir",),
                    "a queue worker publishes into its manifest's "
                    "directory; drop --shard-dir",
                ),
                _Rule(
                    ("cache_stats",),
                    "a queue worker writes shard artifacts, not a report; "
                    "gather the shard directory for --cache-stats",
                ),
            ),
            _run_queue,
        ),
        _Mode(
            "--shard-index",
            "shard_index",
            frozenset(
                {"shard_index", "shards", "shard_dir", "resume",
                 "cache_stats", *_GRID_AXES}
            ),
            (
                *_TUNING_NEEDS_ADAPTIVE,
                _POLICY_NEEDS_QUEUE_INIT,
                _Rule(
                    ("adaptive",),
                    "--adaptive proposes its own subgrids; cross-host "
                    "shard artifacts (--shard-index) cover the exhaustive "
                    "grid",
                ),
                _Rule(
                    _SPILL,
                    "a shard run writes its artifact, not a report; "
                    "--max-rows-in-memory/--spill-dir apply where the "
                    "report is produced (sweep --merge or gather)",
                ),
                _Rule(
                    ("shard_index",),
                    "--shard-index requires --shards",
                    ("shards",),
                ),
                _Rule(
                    ("csv",),
                    "--csv applies to full reports; a shard run only "
                    "writes its artifact (merge the shards, then --csv)",
                ),
            ),
            _run_shard,
        ),
        _Mode(
            "--adaptive",
            "adaptive",
            frozenset({"adaptive", *_TUNING, *_REPORT, *_GRID_AXES}),
            _FRESH_SWEEP_RULES,
            _run_adaptive,
        ),
        _Mode(
            "plain",
            None,
            frozenset({*_REPORT, *_GRID_AXES}),
            _FRESH_SWEEP_RULES,
            _run_sweep,
        ),
    ),
    "gather": (
        _Mode(
            "--watch",
            "watch",
            frozenset({"watch", "poll", "timeout", "manifest", "csv",
                       "cache_stats"}),
            (
                _Rule(
                    _SPILL,
                    "--watch merges incrementally in memory; "
                    "--max-rows-in-memory/--spill-dir need the one-shot "
                    "gather",
                ),
            ),
            _run_gather,
        ),
        _Mode(
            "one-shot",
            None,
            frozenset({"manifest", *_REPORT}),
            (
                _Rule(
                    ("poll",),
                    "--poll paces the watch loop; it needs --watch",
                    ("watch",),
                ),
                _Rule(
                    ("timeout",),
                    "--timeout bounds the watch loop; it needs --watch",
                    ("watch",),
                ),
                _SPILL_DIR_NEEDS_BUDGET,
            ),
            _run_gather,
        ),
    ),
    "warehouse build": (
        _Mode(
            "--from-shards",
            "from_shards",
            frozenset({"from_shards"}),
            (
                _Rule(
                    tuple(_GRID_AXES),
                    "--from-shards reads the grid from the shard "
                    "artifacts; drop {flags}",
                ),
            ),
            _run_warehouse_build,
        ),
        _Mode(
            "fresh",
            None,
            frozenset(_GRID_AXES),
            (),
            _run_warehouse_build,
        ),
    ),
}


def _multi_mode(parser: argparse.ArgumentParser, modes: tuple):
    """The ``func`` of a multi-mode command: pick the mode, walk its
    rules, run it.  A flag is given when its value differs from its
    ``parser`` default."""

    def given(args: argparse.Namespace, name: str) -> bool:
        if name == _ROW_BUDGET:
            return _row_budget(args) is not None
        return getattr(args, name) != parser.get_default(name)

    def run(args: argparse.Namespace) -> int:
        mode = next(
            mode
            for mode in modes
            if mode.selector is None or given(args, mode.selector)
        )
        for rule in mode.rules:
            named = [name for name in rule.flags if given(args, name)]
            if named and not any(given(args, need) for need in rule.needs):
                flags = ", ".join(_flag(name) for name in named)
                raise _usage_error(
                    args.command, rule.message.format(flags=flags)
                )
        return mode.run(args)

    return run


def _check_warehouse_fingerprint(directory, pin: Optional[str]):
    """The warehouse manifest, with an optional ``--fingerprint`` pin."""
    from .core.warehouse import read_warehouse_manifest

    manifest = read_warehouse_manifest(directory)
    if pin is not None and manifest.fingerprint != pin:
        raise SpecificationError(
            f"warehouse {directory} holds grid fingerprint "
            f"{manifest.fingerprint}, not {pin}; point at the right "
            f"warehouse or drop --fingerprint"
        )
    return manifest


def _cmd_warehouse_serve(args: argparse.Namespace) -> int:
    """Put a warehouse behind ``POST /query`` until interrupted."""
    from .core.queryservice import serve_warehouse

    _check_warehouse_fingerprint(args.directory, args.fingerprint)
    try:
        server = serve_warehouse(
            args.directory, host=args.host, port=args.port
        )
    except OSError as exc:
        raise SpecificationError(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from None
    host, port = server.server_address[:2]
    print(
        f"serving warehouse {args.directory} at http://{host}:{port} "
        f"(POST /query, GET /manifest, GET /health; Ctrl-C stops)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_warehouse_query(args: argparse.Namespace) -> int:
    """Answer one decision query and print the canonical JSON response.

    The same bytes the HTTP server would send for the equivalent
    ``POST /query`` — scripts can mix both surfaces and diff freely.
    """
    from .core.queryservice import QueryService, response_bytes

    _check_warehouse_fingerprint(args.directory, args.fingerprint)
    request: dict = {"kind": args.kind}
    where: dict = {}
    for flag, axis in (
        ("volume", "volume"),
        ("substrate", "substrate"),
        ("process", "process"),
        ("tolerance", "tolerance"),
        ("q_model", "q_model"),
        ("nre", "nre"),
        ("weights_label", "weights"),
        ("candidate", "candidate"),
    ):
        value = getattr(args, flag)
        if value is not None:
            where[axis] = value
    if where:
        request["where"] = where
    if args.query_fom_weights is not None:
        request["fom_weights"] = args.query_fom_weights
    if args.axis is not None:
        request["axis"] = args.axis
    payload = QueryService(args.directory).execute(request)
    sys.stdout.write(response_bytes(payload).decode("utf-8"))
    return 0


def _add_grid_axis_arguments(parser: argparse.ArgumentParser) -> None:
    """The seven sweep-grid axis flags, shared verbatim by ``sweep``
    and ``warehouse build`` (same tokens, same defaults, same grid)."""
    for axis, (parse, _, help_text) in _GRID_AXES.items():
        parser.add_argument(
            _flag(axis),
            type=parse,
            default=(10_000.0,) if axis == "volumes" else (None,),
            help=help_text,
        )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-gps`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-gps",
        description=(
            "Reproduction of 'Assessing the Cost Effectiveness of "
            "Integrated Passives' (DATE 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    study = sub.add_parser("study", help="run the full trade-off study")
    study.add_argument(
        "--volume",
        type=_volume,
        default=10_000.0,
        help="production volume for NRE amortisation",
    )
    study.set_defaults(func=_cmd_study)

    flow = sub.add_parser("flow", help="render a build-up's MOE flow")
    flow.add_argument(
        "implementation", type=int, choices=(1, 2, 3, 4)
    )
    flow.set_defaults(func=_cmd_flow)

    compare = sub.add_parser(
        "compare", help="paper-vs-measured for all published numbers"
    )
    compare.set_defaults(func=_cmd_compare)

    calibrate = sub.add_parser(
        "calibrate", help="re-run the chip-cost calibration"
    )
    calibrate.add_argument(
        "--bare-discount",
        type=_bare_discount,
        default=0.95,
        help="bare-die cost as a fraction of the packaged part",
    )
    calibrate.set_defaults(func=_cmd_calibrate)

    sweep = sub.add_parser(
        "sweep",
        help="design-space sweep (volume x substrate x process x tolerance)",
    )
    _add_grid_axis_arguments(sweep)
    sweep.add_argument(
        "--csv",
        action="store_true",
        help="emit the Pareto-ready rows as CSV instead of a table",
    )
    sweep.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help=(
            "partition the grid into K content-addressed shards for "
            "cross-host runs; needs --shard-index (run one shard) or "
            "--queue-init (write a work queue)"
        ),
    )
    sweep.add_argument(
        "--shard-index",
        type=_nonnegative_int,
        default=None,
        help=(
            "cross-host mode: evaluate only shard I of --shards and "
            "write a portable artifact to --shard-dir"
        ),
    )
    sweep.add_argument(
        "--shard-dir",
        default=None,
        help=(
            "directory shard artifacts are written to "
            "(default: current directory)"
        ),
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --shard-index: if --shard-dir already holds a valid "
            "artifact for this exact grid and shard (fingerprint "
            "match), skip re-evaluation and exit 0"
        ),
    )
    sweep.add_argument(
        "--merge",
        default=None,
        metavar="DIR",
        help=(
            "merge every shard-*.json artifact in DIR back into the "
            "canonical sweep report (rows byte-identical to a serial "
            "in-process sweep)"
        ),
    )
    sweep.add_argument(
        "--queue-init",
        default=None,
        metavar="MANIFEST",
        help=(
            "write a work-queue manifest for this grid cut into "
            "--shards shards; workers then run `sweep --queue "
            "MANIFEST` and coordinate through the manifest's directory"
        ),
    )
    sweep.add_argument(
        "--queue",
        default=None,
        metavar="MANIFEST",
        help=(
            "run a queue worker: claim, evaluate and atomically "
            "publish shards (skipping valid artifacts, retrying "
            "failures, stealing expired leases) until nothing is "
            "claimable; exits 1 if any shard exhausted its attempts"
        ),
    )
    sweep.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --queue-init: seconds before a worker's shard lease "
            "expires and may be stolen (default 300)"
        ),
    )
    sweep.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help=(
            "with --queue-init: failed evaluations of one shard "
            "before the queue declares it exhausted (default 3)"
        ),
    )
    sweep.add_argument(
        "--cache-stats",
        action="store_true",
        help=(
            "print per-table EvaluationCache hits/misses, merged "
            "across workers"
        ),
    )
    sweep.add_argument(
        "--max-rows-in-memory",
        type=_positive_row_budget,
        default=None,
        metavar="N",
        help=(
            "out-of-core mode: spill result rows to a chunked frame "
            "store, never holding more than N of them in memory "
            "(output byte-identical to the in-RAM path; default: "
            "$REPRO_SWEEP_MAX_ROWS)"
        ),
    )
    sweep.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory the out-of-core chunk store lives in (default: "
            "a temporary directory); a complete store already spilled "
            "there for this exact grid is re-read instead of "
            "re-evaluated — needs --max-rows-in-memory or "
            "$REPRO_SWEEP_MAX_ROWS"
        ),
    )
    sweep.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "adaptive refinement: evaluate a coarse subsample of the "
            "grid, then zoom the continuous axes (volume, tan=<x> Q "
            "models, FoM weight triples) around Pareto-front members "
            "only — typically >=10x fewer cell evaluations with the "
            "front byte-identical over the evaluated points"
        ),
    )
    sweep.add_argument(
        "--passes",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "with --adaptive: maximum refinement passes, the coarse "
            "pass included (default: run until the front is stable)"
        ),
    )
    sweep.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="K",
        help=(
            "with --adaptive: hard cap on total cell evaluations "
            "across all passes (a pass that would overrun is "
            "truncated in canonical order)"
        ),
    )
    sweep.add_argument(
        "--refine-margin",
        type=_nonnegative_float,
        default=None,
        metavar="X",
        help=(
            "with --adaptive: also refine around cells within this "
            "relative dominance margin of the front (0 = exact front "
            "members only, the default)"
        ),
    )
    sweep.add_argument(
        "--coarse",
        type=_coarse_rank_count,
        default=None,
        metavar="C",
        help=(
            "with --adaptive: values the coarse pass keeps per "
            "refinable axis, endpoints always included (default 4)"
        ),
    )
    sweep.set_defaults(func=_multi_mode(sweep, MODE_TABLES["sweep"]))

    gather = sub.add_parser(
        "gather",
        help="merge shard artifacts into the canonical sweep report",
    )
    gather.add_argument(
        "directory",
        metavar="DIR",
        help="shard directory (where the queue workers publish)",
    )
    gather.add_argument(
        "--watch",
        action="store_true",
        help=(
            "poll DIR while workers are still filling it, merging "
            "each artifact as it lands (progress on stderr), until "
            "the sweep is fully gathered"
        ),
    )
    gather.add_argument(
        "--poll",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="with --watch: seconds between directory scans (default 0.5)",
    )
    gather.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --watch: give up (exit 1, naming the missing "
            "points) after this many seconds"
        ),
    )
    gather.add_argument(
        "--manifest",
        default=None,
        metavar="MANIFEST",
        help=(
            "pin the expected grid and partition to a queue manifest "
            "(default: the first artifact seen becomes the reference)"
        ),
    )
    gather.add_argument(
        "--csv",
        action="store_true",
        help="emit the merged rows as CSV instead of a table",
    )
    gather.add_argument(
        "--cache-stats",
        action="store_true",
        help=(
            "print per-table EvaluationCache hits/misses, merged "
            "across workers"
        ),
    )
    gather.add_argument(
        "--max-rows-in-memory",
        type=_positive_row_budget,
        default=None,
        metavar="N",
        help=(
            "out-of-core mode: merge the artifacts through a chunked "
            "frame store, never holding more than one artifact plus N "
            "buffered rows (output byte-identical; default: "
            "$REPRO_SWEEP_MAX_ROWS; one-shot gather only)"
        ),
    )
    gather.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory the out-of-core chunk store lives in (default: "
            "a temporary directory); a complete store already spilled "
            "there for this exact grid is re-read instead of "
            "re-merged — needs --max-rows-in-memory or "
            "$REPRO_SWEEP_MAX_ROWS"
        ),
    )
    gather.set_defaults(func=_multi_mode(gather, MODE_TABLES["gather"]))

    warehouse = sub.add_parser(
        "warehouse",
        help=(
            "materialise sweeps into a frame warehouse and answer "
            "decision queries in O(ms)"
        ),
    )
    warehouse_sub = warehouse.add_subparsers(
        dest="warehouse_command", required=True
    )

    build = warehouse_sub.add_parser(
        "build",
        help=(
            "run the sweep (or ingest shard artifacts) and publish "
            "content-addressed frame files plus a manifest"
        ),
    )
    build.add_argument(
        "directory",
        metavar="DIR",
        help="warehouse directory (created if missing)",
    )
    _add_grid_axis_arguments(build)
    build.add_argument(
        "--from-shards",
        default=None,
        metavar="SHARD_DIR",
        help=(
            "append every shard-*.json artifact in SHARD_DIR instead "
            "of evaluating; resumable — already-covered shards are "
            "skipped, new ones appended atomically"
        ),
    )
    build.set_defaults(
        func=_multi_mode(build, MODE_TABLES["warehouse build"])
    )

    serve = warehouse_sub.add_parser(
        "serve",
        help="serve a warehouse over HTTP (POST /query, stdlib only)",
    )
    serve.add_argument(
        "directory", metavar="DIR", help="warehouse directory"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=_port,
        default=8527,
        help="bind port; 0 picks an ephemeral port (default 8527)",
    )
    serve.add_argument(
        "--fingerprint",
        default=None,
        help=(
            "refuse to serve unless the warehouse holds exactly this "
            "grid fingerprint"
        ),
    )
    serve.set_defaults(func=_cmd_warehouse_serve)

    query = warehouse_sub.add_parser(
        "query",
        help=(
            "answer one decision query and print the canonical JSON "
            "response (the HTTP server's exact bytes)"
        ),
    )
    query.add_argument(
        "directory", metavar="DIR", help="warehouse directory"
    )
    query.add_argument(
        "--kind",
        choices=QUERY_KINDS,
        required=True,
        help="what to ask the warehouse",
    )
    query.add_argument(
        "--fom-weights",
        dest="query_fom_weights",
        default=None,
        metavar="P:S:C",
        help=(
            "user FoM weight vector perf:size:cost (required for "
            "--kind rerank; optional re-rank for winners/best/"
            "sensitivity)"
        ),
    )
    query.add_argument(
        "--axis",
        choices=SENSITIVITY_AXES,
        default=None,
        help="with --kind sensitivity: the axis to slice along",
    )
    query.add_argument(
        "--volume",
        type=float,
        default=None,
        help="pin the volume axis (exact value, e.g. 1e4)",
    )
    query.add_argument(
        "--substrate", default=None, help="pin the substrate label"
    )
    query.add_argument(
        "--process", default=None, help="pin the process label"
    )
    query.add_argument(
        "--tolerance", default=None, help="pin the tolerance label"
    )
    query.add_argument(
        "--q-model", default=None, help="pin the Q-model label"
    )
    query.add_argument(
        "--nre", default=None, help="pin the NRE-scenario label"
    )
    query.add_argument(
        "--weights-label",
        default=None,
        help="pin the per-point FoM-weights label (e.g. paper)",
    )
    query.add_argument(
        "--candidate", default=None, help="pin the candidate name"
    )
    query.add_argument(
        "--fingerprint",
        default=None,
        help=(
            "refuse to answer unless the warehouse holds exactly this "
            "grid fingerprint"
        ),
    )
    query.set_defaults(func=_cmd_warehouse_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        args = parser.parse_args(["study"])
    try:
        return args.func(args)
    except (SpecificationError, FlowError) as exc:
        # A bad ask found while running (an unreadable file, a foreign
        # grid, an overflowing weight, a volume too small to ship a
        # unit) is a usage error, not a crash.
        raise _usage_error(args.command, str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())

"""The paper's primary contribution: the trade-off methodology."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "decision": [
            "fig3_table",
            "fig5_table",
            "fig6_table",
            "full_report",
            "recommendation",
        ],
        "figure_of_merit": ["FomEntry", "FomWeights"],
        "methodology": [
            "BuildUpAssessment",
            "CandidateBuildUp",
            "StudyResult",
            "StudyRow",
            "run_study",
            "study_from_assessments",
        ],
        "pareto": [
            "ParetoAnalysis",
            "ParetoPoint",
            "analyze_study",
            "nondominated_mask",
        ],
        "resultframe": ["ResultFrame"],
        "optimizer": [
            "SelectionDecision",
            "SelectionReport",
            "optimize_passives",
            "select_technology",
        ],
        "executors": ["AsyncExecutor", "SerialExecutor"],
        "grid": [
            "DesignPoint",
            "SweepGrid",
            "SweepReport",
            "grid_fingerprint",
        ],
        "sweep": [
            "EvaluationCache",
            "StreamedCell",
            "SweepRow",
            "assess_candidate_family_cached",
            "assess_family",
            "candidate_area_keys",
            "frame_for_cells",
            "run_design_sweep",
            "stream_design_sweep",
        ],
        "ranking": ["DecisionFrame"],
        "blobstore": ["ArtifactState", "artifact_state"],
        "sharding": [
            "ShardArtifact",
            "ShardMergeError",
            "merge_shard_artifacts",
            "read_shard_artifact",
            "run_shard",
            "write_shard_artifact",
        ],
        "queue": [
            "QueueError",
            "QueueManifest",
            "QueueWorkerReport",
            "ShardQueue",
            "manifest_for_grid",
            "read_manifest",
            "run_queue_worker",
            "write_manifest",
        ],
        "gather": [
            "GatherError",
            "GatherSnapshot",
            "IncrementalGather",
            "gather_directory",
            "watch_directory",
        ],
        # Reachable as ``repro.core.<module>``; they re-export nothing.
        "adaptive": [],
        "framestore": [],
        "queryservice": [],
        "warehouse": [],
    },
)

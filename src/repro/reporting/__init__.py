"""Text and markdown rendering helpers for reports and benchmarks."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "markdown": [
            "MarkdownError",
            "markdown_table",
            "paper_vs_measured_table",
            "study_report_markdown",
            "sweep_frame_markdown",
        ],
        "tables": ["Table", "TableError", "format_percent_map", "frame_table"],
    },
)

"""Statistics, reporting and figure-export helpers."""

from .figures import export_all, export_fig8, export_fig9, export_fig10
from .report import format_table, paper_vs_measured, print_table
from .stats import Summary, bucketize, mean, percentile, std, summarize

__all__ = [
    "Summary",
    "bucketize",
    "export_all",
    "export_fig8",
    "export_fig9",
    "export_fig10",
    "format_table",
    "mean",
    "paper_vs_measured",
    "percentile",
    "print_table",
    "std",
    "summarize",
]

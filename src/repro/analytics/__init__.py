"""Graph analytics: the paper's four (PageRank, SSSP, WCC, ALS), their
approximate variants and normalized error, and k-core decomposition, an
analytic the paper never evaluated (``examples/provenance_toolbox.py``
monitors it with template-generated queries)."""

from typing import Dict

from repro.analytics.als import ALS, ALSProgram, rmse_of_run
from repro.analytics.base import Analytic
from repro.analytics.kcore import KCore, KCoreProgram, h_index
from repro.analytics.error import lp_norm, median, normalized_error, trimmed_mean
from repro.analytics.pagerank import (
    ApproximatePageRankProgram,
    PageRank,
    PageRankProgram,
)
from repro.analytics.sssp import SSSP, SSSPProgram
from repro.analytics.wcc import WCC, WCCProgram

#: The epsilon the paper found transferable across datasets (Section 6.2.2).
PAPER_EPSILONS: Dict[str, float] = {
    "pagerank": 0.01,
    "sssp": 0.1,
    "wcc": 1.0,
}


__all__ = [
    "ALS",
    "ALSProgram",
    "KCore",
    "KCoreProgram",
    "h_index",
    "rmse_of_run",
    "Analytic",
    "lp_norm",
    "median",
    "normalized_error",
    "trimmed_mean",
    "ApproximatePageRankProgram",
    "PageRank",
    "PageRankProgram",
    "SSSP",
    "SSSPProgram",
    "WCC",
    "WCCProgram",
    "PAPER_EPSILONS",
]

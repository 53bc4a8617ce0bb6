"""Structure learning for discrete Bayesian networks observed in groups.

The package learns a single network from data collected in several related
groups. Classic scores pool the groups; the hierarchical score keeps them
separate and shares statistical strength through a fitted latent centre.
"""

from .data import (DataError, FamilyCounts, GroupedDataset, VariableMeta, family_count_tables,
                   family_counts, load_csv)
from .graph import Cpdag, CycleError, Dag, arc_confusion, is_acyclic, shd, to_cpdag
from .hier import (HierPrior, VariationalFit, bhd_local_log_score, fit_variational,
                   fit_variational_stack, hier_posterior_means)
from .metrics import RunRecord, evaluate, paired_difference
from .scores import (LocalScoreCache, ScoreConfig, bd_local_log_score,
                     bd_local_log_scores, bdeu_local_log_score, bic_local_log_score,
                     bic_local_log_scores, classic_posterior_mean, fold_total, local_log_score,
                     local_log_scores, total_log_score)
from .search import SearchConfig, SearchResult, neighbourhood, run_hill_climb
from .simgen import (GenConfig, GroundTruth, generate, perturb_structures,
                     random_dag, sample_data, sample_params)

__version__ = "0.1.0"

__all__ = [
    "DataError", "FamilyCounts", "GroupedDataset", "VariableMeta",
    "family_count_tables", "family_counts", "load_csv",
    "Cpdag", "CycleError", "Dag", "arc_confusion", "is_acyclic", "shd", "to_cpdag",
    "HierPrior", "VariationalFit", "bhd_local_log_score", "fit_variational",
    "fit_variational_stack", "hier_posterior_means",
    "RunRecord", "evaluate", "paired_difference",
    "LocalScoreCache", "ScoreConfig", "bd_local_log_score", "bd_local_log_scores",
    "bdeu_local_log_score", "bic_local_log_score", "bic_local_log_scores",
    "classic_posterior_mean",
    "fold_total", "local_log_score", "local_log_scores", "total_log_score",
    "SearchConfig", "SearchResult", "neighbourhood", "run_hill_climb",
    "GenConfig", "GroundTruth", "generate", "perturb_structures",
    "random_dag", "sample_data", "sample_params",
    "__version__",
]

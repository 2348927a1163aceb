"""Distributed Bayesian matrix factorization with staged, limited-communication
MCMC over a grid-partitioned sparse matrix."""

from .aggregate import ep_aggregate, staged_aggregate
from .approx import Clustering, PosteriorSet, lambda_means
from .data import (GroundTruth, PartitionPlan, SparseMatrix, load_triplets,
                   order_matrix, partition, save_triplets, simulate,
                   split_random, split_structured)
from .errors import (ArtifactError, DbmfError, NumericalError, PipelineError,
                     TripletParseError, ValidationError)
from .evaluate import (MetricReport, align_latent_dimensions, rmse,
                       rmse_by_frequency, subset_mean_correlations, wts)
from .pipeline import (CostModel, FactorizationResult, RunConfig, build_plan,
                       cost_model_eval, run_ep, run_full, run_pp)
from .sampler import (GibbsConfig, NormalWishartPrior, SampleChain, gibbs_run,
                      log_likelihood, predict, sample_hyper_normal_wishart)

__version__ = "0.1.0"

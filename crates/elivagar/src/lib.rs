//! Elivagar: efficient quantum circuit search for classification.
//!
//! A from-scratch reproduction of the ASPLOS 2024 paper. The search runs in
//! five steps (Fig. 4):
//!
//! 1. [`generate`] — device- and noise-aware candidate generation on
//!    topology subgraphs, with data-embedding co-search (Algorithm 1);
//! 2. [`mod@cnr`] — Clifford Noise Resilience, a cheap fidelity predictor built
//!    on stabilizer-simulable Clifford replicas (Section 5);
//! 3. early rejection of low-fidelity candidates (CNR < 0.7 or outside the
//!    top 50%);
//! 4. [`mod@repcap`] — Representational Capacity, a training-free performance
//!    predictor from randomized-measurement state similarities (Section 6);
//! 5. composite scoring `CNR^alpha * RepCap` and final selection.
//!
//! # Examples
//!
//! ```
//! use elivagar::{search, SearchConfig};
//! use elivagar_datasets::moons;
//! use elivagar_device::devices::ibm_lagos;
//!
//! let device = ibm_lagos();
//! let data = moons(40, 10, 0).normalized(std::f64::consts::PI);
//! let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
//! config.num_candidates = 4;
//! let result = search(&device, &data, &config);
//! assert_eq!(result.best.circuit.num_trainable_params(), 8);
//! ```

pub mod checkpoint;
pub mod cnr;
pub mod config;
pub mod generate;
pub mod metrics;
pub mod repcap;
pub mod search;
pub mod strategy;
pub mod vqe;

pub use checkpoint::{CheckpointError, Fingerprint, Journal, StageRecord};
pub use cnr::{clifford_replica, cnr, cnr_with_shots, reject_low_fidelity, CnrResult};
pub use config::{
    EmbeddingPolicy, GateSet, GenerationStrategy, Nsga2Config, SearchConfig, SelectionStrategy,
    StrategyChoice,
};
pub use generate::{
    candidate_edges, crossover_candidates, generate_candidate, mutate_candidate, Candidate,
};
pub use metrics::{entangling_capability, expressibility, meyer_wallach};
pub use elivagar_cache::{durable, Cache, CacheError, CacheHandle, CacheKey, KeyBuilder};
pub use elivagar_sim::CancelToken;
pub use repcap::{repcap, RepCapResult};
pub use search::{
    composite_score, run_search, run_search_with, score_order, search, ExecutionBreakdown,
    QuarantineEntry, RunOptions, ScoredCandidate, SearchError, SearchResult, SearchStage,
    TrainedCandidate,
};
pub use strategy::{
    Decision, ElivagarStrategy, EvalPlan, Evaluation, FrontMember, Nsga2Strategy, Objectives,
    ParetoFront, SearchStrategy, Selection, StrategyCtx,
};
pub use vqe::{optimize_ansatz, search_vqe_ansatz, TransverseFieldIsing, VqeOutcome, VqeSearchResult};

//! The simtune benchmark: named workloads that time whole autotuning
//! sessions end to end and, in a separate traced run, split that time
//! by layer.
//!
//! Every workload runs `n_parallel = 2`, one client, the `decoded`
//! replay engine and the accurate tier. Not covered, so no gain may be
//! claimed there from these figures: the fast-count, sampled and
//! pipelined tiers; the `threaded` and `batch` engines; and the
//! `predictor_tables` protocol.

pub mod cold;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod warm;

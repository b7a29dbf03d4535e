//! TBNet: a neural-architectural defense framework for protecting DNN models
//! with Trusted Execution Environments — Rust reproduction of the DAC 2024
//! paper.
//!
//! TBNet rewrites a well-trained *victim* model into a **two-branch
//! substitution model**:
//!
//! * the **unsecured branch `M_R`** runs in the rich world (REE) and is fully
//!   attacker-visible;
//! * the **secure branch `M_T`** runs inside the TEE and produces the final
//!   prediction;
//! * after every unit, `M_R`'s feature map crosses a one-way REE→TEE channel
//!   and is element-wise added into `M_T`'s feature map.
//!
//! The pipeline (paper Fig. 1) is implemented end to end:
//!
//! 1. [`TwoBranchModel::from_victim`] — two-branch initialization (step ①);
//! 2. [`transfer::train_two_branch_with_workers`] — knowledge transfer
//!    minimizing Eq. 1 (cross-entropy + λ·L1 on BatchNorm scales) (step ②);
//! 3. [`pruning`] — iterative two-branch pruning driven by composite BN
//!    weights, with fine-tuning and an accuracy-drop budget (steps ③–⑤,
//!    Alg. 1);
//! 4. [`TwoBranchModel::finalize_with_rollback`] — rollback finalization that
//!    makes `M_R`'s architecture diverge from `M_T`'s (step ⑥);
//! 5. [`attack`] — the evaluation's attacker suite: direct transplantation of
//!    `M_R`, fine-tuning with partial data, and the `M_T`-only ablation;
//! 6. [`deploy`] — deployment planning against the simulated TEE substrate
//!    (latency and secure-memory reports, plus a *functional* split
//!    inference over the type-enforced one-way channel);
//! 7. [`serve`] — the fault-tolerant concurrent serving runtime around that
//!    split: deadlines, dynamic batching, backpressure, nemesis-driven TEE
//!    fault injection and graceful int8 degradation.
//!
//! [`pipeline::run_pipeline`] chains all six steps and is what the benchmark
//! harness calls to regenerate every table and figure of the paper.
//!
//! Every training phase — victim training, knowledge transfer, the pruning
//! fine-tune and the attacker's fine-tune — has exactly one entry point,
//! and all of them run one epoch loop on the model-generic data-parallel
//! engine in [`dp_train`]: [`dp_train::DpTrainable`] is implemented by both
//! [`tbnet_models::ChainNet`] and [`TwoBranchModel`], and
//! [`dp_train::DataParallelTrainer`] at one worker is the sequential
//! whole-batch loop bit for bit; at more workers it reproduces it to f32
//! rounding (pinned at 1e-5 by the parity suites).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod error;
mod two_branch;

pub mod analysis;
pub mod attack;
pub mod baselines;
pub mod deploy;
pub mod dp_train;
pub mod persist;
pub mod pipeline;
pub mod pruning;
pub mod serve;
pub mod train;
pub mod transfer;

pub use channels::{gather_channels, scatter_add_channels, ChannelBook};
pub use dp_train::{DataParallelTrainer, DpTrainable, WorkerPolicy};
pub use error::CoreError;
pub use two_branch::{TwoBranchModel, TwoBranchScratch};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

//! Model-generic data-parallel training with synchronized BatchNorm
//! statistics.
//!
//! [`DataParallelTrainer`] reproduces a sequential SGD loop across `W`
//! replicas of any [`DpTrainable`] model: every minibatch is split into `W`
//! contiguous shards, each replica runs forward/backward on its shard, and
//! the two places where shards couple are synchronized between lockstep
//! phases:
//!
//! * **BatchNorm batch statistics** — per-shard `(mean, var, count)` are
//!   merged with the weighted parallel-variance formula
//!   ([`tbnet_nn::merge_batch_stats`]) and every replica normalizes (and
//!   updates its running statistics) with the *global* batch statistics,
//!   exactly like the sequential whole-batch step;
//! * **BatchNorm backward reductions** — per-shard `(Σ dy, Σ dy·x̂)` are
//!   summed left-to-right across shards and fed back into each shard's
//!   input-gradient computation over the global element count.
//!
//! A model describes its BatchNorm coupling as an ordered list of **sync
//! points** (one per BN layer in execution order); the trainer drives the
//! same schedule for every model: `forward_sync → stats merge →
//! forward_resume` per point, the head/loss phase, then `backward_reduce →
//! reduction fold → backward_resume` per point in reverse.
//!
//! Everything else in backward is linear in the loss gradient, so scaling
//! each shard's loss gradient by the *global* minibatch size
//! ([`tbnet_nn::loss::softmax_cross_entropy_scaled`]) makes the sum of
//! per-shard parameter gradients equal the sequential whole-batch gradient.
//! Gradients are merged with a fixed left-to-right fold over contiguous
//! shards, the merged gradient is broadcast to every replica, each replica
//! applies any loss penalty subgradient (the transfer phase's L1 sparsity
//! term) to the *merged* gradient, and all replicas take the *same*
//! optimizer step — replicas therefore stay numerically identical, replica
//! 0 is canonical, and a `W`-worker step matches the sequential step to f32
//! rounding (the parity suites pin 1e-5, and `W = 1` bit for bit).
//!
//! Four trainings ride this engine, each through one public entry point
//! that is a thin call into the crate-private epoch loop `fit`: victim
//! training ([`crate::train::train_victim_with_workers`]), knowledge
//! transfer ([`crate::transfer::train_two_branch_with_workers`]), the
//! pruning fine-tune ([`crate::pruning::iterative_prune_with_workers`]) and
//! the attacker's fine-tune
//! ([`crate::attack::fine_tune_attack_with_workers`], a `ChainNet`
//! classifier training through the victim entry point) — transfer and
//! fine-tune via the [`crate::TwoBranchModel`] implementation of
//! [`DpTrainable`] in `two_branch.rs`, the other two via the [`ChainNet`]
//! implementation below. `fit` owns the one epoch loop (step-decayed
//! learning rate, seeded minibatch shuffling, one
//! [`DataParallelTrainer::step_with_penalty`] per minibatch, per-epoch
//! means). There is no separate sequential loop: `W = 1` is the engine at
//! one whole-batch shard, and the sequential reference it is pinned
//! against lives in the test tree (`tests/common`).
//!
//! Worker counts are chosen per phase through a [`WorkerPolicy`]:
//! [`WorkerPolicy::Fixed`] pins an explicit count (what the parity suites
//! use), while [`WorkerPolicy::Auto`] autotunes from the live layer widths
//! plus a short, memoized step-timing probe — see the type's docs for the
//! exact contract.
//!
//! All lockstep phases and the final optimizer fan-out run on the
//! persistent worker pool in [`tbnet_tensor::par`] — the training hot path
//! spawns no threads.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use tbnet_data::{Batch, ImageDataset};
use tbnet_models::{accumulate_grad, ChainNet};
use tbnet_nn::loss::softmax_cross_entropy_scaled;
use tbnet_nn::merge_batch_stats;
use tbnet_nn::metrics::{accuracy, RunningMean};
use tbnet_nn::optim::{Sgd, StepLr};
use tbnet_nn::{Layer, Mode, Param};
use tbnet_tensor::{ops, par, BackendKind, Tensor};

use crate::train::TrainConfig;
use crate::transfer::apply_branch_sparsity;
use crate::{CoreError, Result};

/// Per-shard state threaded through the lockstep phases of one
/// data-parallel step: the shard's slice of the minibatch, its loss and
/// accuracy contributions, and the model-specific activation/gradient
/// scratch.
#[derive(Debug)]
pub struct DpShard<S> {
    /// This shard's contiguous slice of the global minibatch.
    pub batch: Batch,
    /// Loss contribution of this shard, scaled so the per-shard values sum
    /// to the global-batch mean loss.
    pub loss: f32,
    /// Mean accuracy over this shard's samples.
    pub acc: f32,
    /// Model-specific per-shard scratch.
    pub scratch: S,
}

/// What one model replica must expose for the lockstep schedule of
/// [`DataParallelTrainer`]. Implementations exist for [`ChainNet`] (victim
/// training) and [`crate::TwoBranchModel`] (knowledge transfer and the
/// pruning fine-tune loop).
///
/// The contract (specified in full in `ARCHITECTURE.md` at the repo root):
///
/// * a `W = 1` trainer step must be arithmetically identical to one
///   whole-batch step of the model's monolithic `forward(Mode::Train)` /
///   `backward` — the sequential reference in `tests/common`, which the
///   parity suites pin bit for bit;
/// * for `W > 1` the only cross-shard coupling may be the BatchNorm
///   statistics/reductions the trainer synchronizes at the declared sync
///   points, visited in forward order `0..sync_points()` and revisited in
///   exact reverse order by the backward pass;
/// * [`visit_params`](DpTrainable::visit_params) must enumerate parameters
///   in one deterministic order — it defines the layout of the merged
///   gradient — and [`penalty`](DpTrainable::penalty) must be a pure
///   function of the current parameters and gradients, because the trainer
///   calls it once per replica on the *merged* gradient;
/// * [`optimizer_step`](DpTrainable::optimizer_step) must be a
///   deterministic function of parameters + gradients so every replica
///   stays bit-identical after the step.
///
/// # Examples
///
/// Any implementation can be driven batch by batch:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use tbnet_core::dp_train::{DataParallelTrainer, DpTrainable};
/// use tbnet_models::{vgg, ChainNet};
///
/// let spec = vgg::vgg_from_stages("doc", &[(4, 1)], 2, 3, (8, 8));
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = ChainNet::from_spec(&spec, &mut rng)?;
/// // One BN sync point per unit, and one live width per sync point.
/// assert_eq!(net.sync_points(), 1);
/// assert_eq!(net.sync_widths(), vec![4]);
/// let trainer = DataParallelTrainer::new(&net, 2)?;
/// assert_eq!(trainer.workers(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait DpTrainable: Clone + Send {
    /// Per-shard scratch (activations and pending gradients) carried across
    /// the lockstep phases of one step.
    type Scratch: Send;

    /// Fresh scratch for one shard, created at the start of every step.
    fn make_scratch(&self) -> Self::Scratch;

    /// Number of BatchNorm synchronization points in one forward pass; the
    /// backward pass revisits them in reverse order.
    fn sync_points(&self) -> usize;

    /// Live channel width at every sync point, in forward order (length
    /// must equal [`sync_points`](DpTrainable::sync_points)). The
    /// [`WorkerPolicy::Auto`] autotuner reads these to bound the useful
    /// worker count — per-step synchronization cost grows with the number
    /// of barriers and their channel widths, so narrow (late-pruning)
    /// models resolve to fewer workers.
    fn sync_widths(&self) -> Vec<usize>;

    /// Backend the trainer's gradient folds should run on (kept identical
    /// to the model's own accumulation arithmetic).
    fn backend_kind(&self) -> BackendKind;

    /// Clears all parameter gradients.
    fn zero_grad(&mut self);

    /// Local forward compute up to (and including) sync point `point`'s
    /// BatchNorm input; returns this shard's per-channel
    /// `(mean, var, element count)` for the statistics merge.
    fn forward_sync(
        &mut self,
        point: usize,
        shard: &mut DpShard<Self::Scratch>,
    ) -> Result<(Tensor, Tensor, usize)>;

    /// Resumes the forward pass at `point` with the globally merged batch
    /// statistics.
    fn forward_resume(
        &mut self,
        point: usize,
        shard: &mut DpShard<Self::Scratch>,
        mean: &Tensor,
        var: &Tensor,
    ) -> Result<()>;

    /// Head forward, loss scaled to `global_batch` samples, and head
    /// backward. Must fill `shard.loss` / `shard.acc` and seed the output
    /// gradients in the scratch.
    fn loss_phase(&mut self, shard: &mut DpShard<Self::Scratch>, global_batch: usize)
        -> Result<()>;

    /// Local backward compute down to sync point `point`'s BatchNorm;
    /// returns this shard's `(Σ dy, Σ dy·x̂, element count)` for the
    /// reduction fold.
    fn backward_reduce(
        &mut self,
        point: usize,
        shard: &mut DpShard<Self::Scratch>,
    ) -> Result<(Tensor, Tensor, usize)>;

    /// Resumes the backward pass at `point` with the globally summed
    /// reductions over `total` elements per channel.
    fn backward_resume(
        &mut self,
        point: usize,
        shard: &mut DpShard<Self::Scratch>,
        sum_dy: &Tensor,
        sum_dy_xhat: &Tensor,
        total: usize,
    ) -> Result<()>;

    /// Visits every trainable parameter in a deterministic order — the
    /// order the trainer folds and broadcasts gradients in.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Adds the model's loss-penalty subgradient (scaled by `lambda`) to
    /// the parameter gradients and returns the penalty value. Called once
    /// per replica *after* the merged-gradient broadcast, immediately
    /// before the optimizer step, so the penalty is applied exactly once to
    /// the global gradient — matching a sequential loop that penalizes
    /// after its whole-batch backward.
    fn penalty(&mut self, lambda: f32) -> f32;

    /// One optimizer step (must be identical on every replica).
    fn optimizer_step(&mut self, sgd: &Sgd);
}

/// Loss/accuracy/penalty of one data-parallel step, matching the values the
/// sequential loop would report for the same minibatch to f32 rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean loss over the global minibatch (penalty excluded).
    pub loss: f32,
    /// Mean accuracy over the global minibatch.
    pub acc: f32,
    /// Penalty value (λ·Σ|γ| for the transfer phase; 0 when `lambda` is 0).
    pub penalty: f32,
}

/// How a training phase chooses its data-parallel worker count.
///
/// Every training entry point (`train_victim_with_workers`,
/// `train_two_branch_with_workers`, `iterative_prune_with_workers`,
/// [`crate::attack::fine_tune_attack_with_workers`] and
/// [`crate::pipeline::run_pipeline`] via `PipelineConfig::workers`) accepts
/// `impl Into<WorkerPolicy>`, and a plain `usize` converts to
/// [`WorkerPolicy::Fixed`] — existing call sites that pass a count keep
/// their exact behavior.
///
/// # Resolution contract
///
/// [`WorkerPolicy::resolve`] turns a policy into a concrete worker count:
///
/// * `Fixed(w)` resolves to `w` unchanged (the parity suites rely on this
///   to pin exact shard layouts);
/// * `Auto` resolves per phase, in two stages:
///   1. a **width prefilter** derived from the model's live
///      [`sync_widths`](DpTrainable::sync_widths) and the minibatch size
///      caps the candidate set — each shard must own enough channel×sample
///      work to amortize its barrier crossings, so small late-pruning
///      models resolve to few (often one) workers without any timing;
///   2. when more than one candidate survives, a short **step-timing
///      probe** runs a few data-parallel steps per candidate on *cloned*
///      replicas (the caller's model state is never advanced) and commits
///      to the fastest, ties broken toward fewer workers.
///
/// The resolved count never exceeds [`par::max_threads`], and the probe
/// result is memoized per (model type, live widths, batch size, thread
/// cap), so repeated resolutions inside one process are deterministic and
/// the probe cost is amortized across epochs and pruning iterations. Under
/// `TBNET_THREADS=1` the candidate set collapses to `{1}` and `Auto` is
/// fully deterministic with zero probe overhead.
///
/// # Examples
///
/// ```
/// use tbnet_core::dp_train::WorkerPolicy;
///
/// // usize → Fixed, for drop-in compatibility at explicit call sites.
/// assert_eq!(WorkerPolicy::from(4), WorkerPolicy::Fixed(4));
/// assert_eq!(WorkerPolicy::default(), WorkerPolicy::Auto);
/// ```
///
/// Resolving against a live model:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use tbnet_core::dp_train::WorkerPolicy;
/// use tbnet_data::{DatasetKind, SyntheticCifar};
/// use tbnet_models::{vgg, ChainNet};
/// use tbnet_nn::optim::Sgd;
/// use tbnet_tensor::par;
///
/// let data = SyntheticCifar::generate(
///     DatasetKind::Cifar10Like
///         .config()
///         .with_classes(2)
///         .with_train_per_class(4)
///         .with_test_per_class(2)
///         .with_size(8, 8),
/// );
/// let spec = vgg::vgg_from_stages("doc", &[(4, 1)], 2, 3, (8, 8));
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = ChainNet::from_spec(&spec, &mut rng)?;
/// let sgd = Sgd::new(0.05, 0.9, 1e-4)?;
/// let w = WorkerPolicy::Auto.resolve(&net, data.train(), 8, &sgd, 0.0)?;
/// assert!(w >= 1 && w <= par::max_threads());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerPolicy {
    /// Exactly this many replicas, no tuning. `Fixed(0)` is rejected at
    /// trainer construction, like an explicit zero count always was.
    Fixed(usize),
    /// Autotune per phase from live layer widths plus a memoized
    /// step-timing probe, capped at [`par::max_threads`].
    #[default]
    Auto,
}

impl From<usize> for WorkerPolicy {
    fn from(workers: usize) -> Self {
        WorkerPolicy::Fixed(workers)
    }
}

// The serde shim derives only unit-variant enums, so the JSON mapping is
// hand-written: `Auto` ⇄ `"auto"`, `Fixed(w)` ⇄ `w`.
impl Serialize for WorkerPolicy {
    fn to_value(&self) -> serde::Value {
        match self {
            WorkerPolicy::Fixed(w) => serde::Value::Num(*w as f64),
            WorkerPolicy::Auto => serde::Value::Str("auto".to_string()),
        }
    }
}

impl<'de> Deserialize<'de> for WorkerPolicy {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        match v {
            // Absent field (older configs predate the policy): autotune.
            serde::Value::Null => Ok(WorkerPolicy::Auto),
            // `as usize` truncates and saturates: 2.5 → 2, -1 → 0 and
            // 1e20 → usize::MAX, which no trainer can hold.
            serde::Value::Num(n)
                if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 && *n < usize::MAX as f64 =>
            {
                Ok(WorkerPolicy::Fixed(*n as usize))
            }
            serde::Value::Num(n) => Err(serde::DeError(format!(
                "worker count must be a non-negative whole number that fits usize, got {n}"
            ))),
            serde::Value::Str(s) if s == "auto" => Ok(WorkerPolicy::Auto),
            other => Err(serde::DeError(format!(
                "expected a worker count or \"auto\", got {other:?}"
            ))),
        }
    }
}

impl WorkerPolicy {
    /// Resolves the policy into a concrete worker count for one training
    /// phase over `data` with minibatches of `batch_size` samples; see the
    /// type-level docs for the full contract. `sgd` and `lambda` are what
    /// the phase will train with — the probe steps use them so the timed
    /// work matches the real steps.
    ///
    /// # Errors
    ///
    /// Propagates shape/configuration errors from the probe steps.
    pub fn resolve<M: DpTrainable>(
        self,
        model: &M,
        data: &ImageDataset,
        batch_size: usize,
        sgd: &Sgd,
        lambda: f32,
    ) -> Result<usize> {
        match self {
            WorkerPolicy::Fixed(w) => Ok(w),
            WorkerPolicy::Auto => {
                autotune_workers(model, data, batch_size, sgd, lambda, par::max_threads())
            }
        }
    }
}

/// Channel×sample work one shard must own per step for another worker to
/// pay for its barrier crossings; calibrated against the training bench's
/// sync-overhead rows (`BENCH_train.json`, W > 1 at one thread).
const MIN_SHARD_CHANNEL_SAMPLES: usize = 128;

/// Timed data-parallel steps per probe candidate (after one warm-up step
/// that absorbs pool spin-up and arena growth).
const PROBE_STEPS: usize = 2;

/// Width prefilter of the autotuner: the largest worker count for which
/// every shard still owns at least [`MIN_SHARD_CHANNEL_SAMPLES`] of
/// channel×sample work per step, additionally capped by the batch size
/// (emptier shards than samples are pure overhead) and `cap`.
fn width_worker_cap(widths: &[usize], batch_size: usize, cap: usize) -> usize {
    let per_sample: usize = widths.iter().sum::<usize>().max(1);
    let total = per_sample.saturating_mul(batch_size.max(1));
    (total / MIN_SHARD_CHANNEL_SAMPLES).clamp(1, cap.max(1).min(batch_size.max(1)))
}

/// Candidate worker counts: powers of two up to `cap`, plus `cap` itself.
fn worker_candidates(cap: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut w = 1;
    while w <= cap {
        out.push(w);
        w *= 2;
    }
    if out.last() != Some(&cap) {
        out.push(cap);
    }
    out
}

fn autotune_cache() -> &'static Mutex<HashMap<String, usize>> {
    static CACHE: OnceLock<Mutex<HashMap<String, usize>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops every memoized [`WorkerPolicy::Auto`] probe result, forcing the
/// next resolution to re-probe. Benches use this between reports; ordinary
/// training never needs it.
pub fn clear_autotune_cache() {
    autotune_cache().lock().unwrap().clear();
}

/// [`WorkerPolicy::Auto`]'s resolver with an explicit thread `cap` (the
/// public path passes [`par::max_threads`]); split out so the cap logic is
/// testable without mutating the process-wide thread setting.
fn autotune_workers<M: DpTrainable>(
    model: &M,
    data: &ImageDataset,
    batch_size: usize,
    sgd: &Sgd,
    lambda: f32,
    cap: usize,
) -> Result<usize> {
    if data.is_empty() || batch_size == 0 || cap <= 1 {
        return Ok(1);
    }
    let widths = model.sync_widths();
    let probe_batch_len = batch_size.min(data.len());
    let candidates = worker_candidates(width_worker_cap(&widths, probe_batch_len, cap));
    if candidates.len() == 1 {
        return Ok(candidates[0]);
    }

    let key = format!(
        "{}|{:?}|b{}|c{}",
        std::any::type_name::<M>(),
        widths,
        probe_batch_len,
        cap
    );
    if let Some(&w) = autotune_cache().lock().unwrap().get(&key) {
        return Ok(w);
    }

    // Probe on a real leading minibatch so shard shapes match training.
    let indices: Vec<usize> = (0..probe_batch_len).collect();
    let batch = data.gather(&indices);
    let mut best = (candidates[0], f64::INFINITY);
    for &w in &candidates {
        let mut trainer = DataParallelTrainer::new(model, w)?;
        trainer.step_with_penalty(&batch, sgd, lambda)?; // warm-up
        let t0 = Instant::now();
        for _ in 0..PROBE_STEPS {
            trainer.step_with_penalty(&batch, sgd, lambda)?;
        }
        let secs = t0.elapsed().as_secs_f64();
        // Strict `<`: ties commit to the smaller worker count.
        if secs < best.1 {
            best = (w, secs);
        }
    }
    // First writer wins: concurrent first resolutions of the same key probe
    // under each other's load and can disagree, so every caller — the
    // losing prober included — returns whatever landed in the cache first,
    // keeping in-process resolutions deterministic.
    Ok(*autotune_cache()
        .lock()
        .unwrap()
        .entry(key)
        .or_insert(best.0))
}

/// Data-parallel SGD driver: `W` replicas of one [`DpTrainable`] model that
/// stay numerically identical across steps (see the module docs for the
/// synchronization contract). Every training phase drives it through the
/// crate's one epoch loop; it is public so benches and future phases can
/// step it batch by batch.
///
/// # Examples
///
/// Stepping a [`ChainNet`] replica set directly:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use tbnet_core::dp_train::DataParallelTrainer;
/// use tbnet_data::{DatasetKind, SyntheticCifar};
/// use tbnet_models::{vgg, ChainNet};
/// use tbnet_nn::optim::Sgd;
///
/// let data = SyntheticCifar::generate(
///     DatasetKind::Cifar10Like
///         .config()
///         .with_classes(2)
///         .with_train_per_class(4)
///         .with_test_per_class(2)
///         .with_size(8, 8),
/// );
/// let spec = vgg::vgg_from_stages("doc", &[(4, 1)], 2, 3, (8, 8));
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = ChainNet::from_spec(&spec, &mut rng)?;
/// let sgd = Sgd::new(0.05, 0.9, 1e-4)?;
///
/// let mut trainer = DataParallelTrainer::new(&net, 2)?;
/// let stats = trainer.step(&data.train().as_batch(), &sgd)?;
/// assert!(stats.loss.is_finite());
/// let trained: ChainNet = trainer.into_model(); // replica 0 is canonical
/// # let _ = trained;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DataParallelTrainer<M: DpTrainable> {
    replicas: Vec<M>,
}

/// Copies the samples of `range` out of `batch` (contiguous rows, so shard
/// boundaries match the sequential sample order exactly).
fn shard_batch(batch: &Batch, range: &std::ops::Range<usize>) -> Batch {
    let dims = batch.images.dims();
    let sample = dims[1] * dims[2] * dims[3];
    let images = Tensor::from_vec(
        batch.images.as_slice()[range.start * sample..range.end * sample].to_vec(),
        &[range.len(), dims[1], dims[2], dims[3]],
    )
    .expect("shard slicing preserves the sample geometry");
    Batch {
        images,
        labels: batch.labels[range.clone()].to_vec(),
    }
}

/// Runs `f` on every (replica, shard) pair via the persistent pool,
/// propagating the first error in shard order.
fn phase<M, R, F>(replicas: &mut [M], shards: &mut [DpShard<M::Scratch>], f: F) -> Result<Vec<R>>
where
    M: DpTrainable,
    R: Send,
    F: Fn(usize, &mut M, &mut DpShard<M::Scratch>) -> Result<R> + Sync,
{
    let items: Vec<(&mut M, &mut DpShard<M::Scratch>)> =
        replicas.iter_mut().zip(shards.iter_mut()).collect();
    par::run(items, |i, (model, shard)| f(i, model, shard))
        .into_iter()
        .collect()
}

/// Left-to-right fold of per-shard BatchNorm reductions into global sums
/// plus the global per-channel element count.
fn fold_bn_sums(parts: Vec<(Tensor, Tensor, usize)>) -> Result<(Tensor, Tensor, usize)> {
    let mut iter = parts.into_iter();
    let (mut sum_dy, mut sum_dy_xhat, mut total) = iter
        .next()
        .expect("dp_step always has at least one active shard");
    for (sd, sdx, count) in iter {
        ops::add_assign(&mut sum_dy, &sd)?;
        ops::add_assign(&mut sum_dy_xhat, &sdx)?;
        total += count;
    }
    Ok((sum_dy, sum_dy_xhat, total))
}

impl<M: DpTrainable> DataParallelTrainer<M> {
    /// Clones `model` into `workers` replicas.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero workers, or for a count
    /// whose replica table cannot be allocated.
    pub fn new(model: &M, workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig {
                field: "workers",
                reason: "data-parallel training needs at least one worker".into(),
            });
        }
        let mut replicas = Vec::new();
        replicas
            .try_reserve_exact(workers)
            .map_err(|e| CoreError::InvalidConfig {
                field: "workers",
                reason: format!("cannot hold {workers} model replicas: {e}"),
            })?;
        replicas.resize(workers, model.clone());
        Ok(DataParallelTrainer { replicas })
    }

    /// Number of replicas.
    pub fn workers(&self) -> usize {
        self.replicas.len()
    }

    /// The canonical model state (replica 0).
    pub fn into_model(mut self) -> M {
        self.replicas.swap_remove(0)
    }

    /// One data-parallel SGD step over `batch` without a loss penalty.
    ///
    /// # Errors
    ///
    /// See [`DataParallelTrainer::step_with_penalty`].
    pub fn step(&mut self, batch: &Batch, sgd: &Sgd) -> Result<StepStats> {
        self.step_with_penalty(batch, sgd, 0.0)
    }

    /// One data-parallel SGD step over `batch`, applying the model's loss
    /// penalty (e.g. the transfer phase's L1 sparsity term) at weight
    /// `lambda`. The returned statistics match the sequential step's values
    /// to f32 rounding.
    ///
    /// When the batch is smaller than the worker count, the surplus
    /// replicas skip the forward/backward but still receive the merged
    /// gradient, the penalty and the identical optimizer step, so all
    /// replicas keep the same parameters and momentum buffers. (Their
    /// BatchNorm *running* statistics may lag — those never feed training
    /// math, and replica 0 always owns a shard, so the canonical state
    /// stays sequential-exact.)
    ///
    /// # Invariants
    ///
    /// * The penalty subgradient is applied to the **merged** gradient,
    ///   once per step per replica, after the broadcast — matching a
    ///   sequential loop that penalizes after its whole-batch backward.
    /// * Shard gradients fold left-to-right over contiguous shards, so the
    ///   result is deterministic for a fixed worker count regardless of
    ///   pool scheduling.
    ///
    /// # Examples
    ///
    /// ```
    /// # use rand::rngs::StdRng;
    /// # use rand::SeedableRng;
    /// # use tbnet_core::dp_train::DataParallelTrainer;
    /// # use tbnet_data::{DatasetKind, SyntheticCifar};
    /// # use tbnet_models::{vgg, ChainNet};
    /// # use tbnet_nn::optim::Sgd;
    /// # let data = SyntheticCifar::generate(
    /// #     DatasetKind::Cifar10Like.config().with_classes(2)
    /// #         .with_train_per_class(4).with_test_per_class(2).with_size(8, 8),
    /// # );
    /// # let spec = vgg::vgg_from_stages("doc", &[(4, 1)], 2, 3, (8, 8));
    /// # let mut rng = StdRng::seed_from_u64(0);
    /// # let net = ChainNet::from_spec(&spec, &mut rng)?;
    /// # let sgd = Sgd::new(0.05, 0.9, 1e-4)?;
    /// let mut trainer = DataParallelTrainer::new(&net, 2)?;
    /// // λ = 0 ⇒ the reported penalty is exactly zero.
    /// let stats = trainer.step_with_penalty(&data.train().as_batch(), &sgd, 0.0)?;
    /// assert_eq!(stats.penalty, 0.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates shape/configuration errors from the shard phases.
    pub fn step_with_penalty(
        &mut self,
        batch: &Batch,
        sgd: &Sgd,
        lambda: f32,
    ) -> Result<StepStats> {
        let n_total = batch.len();
        if n_total == 0 {
            return Err(CoreError::InvalidConfig {
                field: "batch",
                reason: "cannot step on an empty batch".into(),
            });
        }
        let ranges = par::partition(n_total, self.replicas.len());
        let active = ranges.len();
        let mut shards: Vec<DpShard<M::Scratch>> = ranges
            .iter()
            .map(|r| DpShard {
                batch: shard_batch(batch, r),
                loss: 0.0,
                acc: 0.0,
                scratch: self.replicas[0].make_scratch(),
            })
            .collect();
        let (act, _idle) = self.replicas.split_at_mut(active);

        phase(act, &mut shards, |_, model, _| {
            model.zero_grad();
            Ok(())
        })?;

        // Forward, with a BN statistics barrier per sync point.
        let points = act[0].sync_points();
        for p in 0..points {
            let stats = phase(act, &mut shards, |_, model, shard| {
                model.forward_sync(p, shard)
            })?;
            let (mean, var) = merge_batch_stats(&stats)?;
            phase(act, &mut shards, |_, model, shard| {
                model.forward_resume(p, shard, &mean, &var)
            })?;
        }

        // Head forward, loss (scaled by the global batch size), head
        // backward.
        phase(act, &mut shards, |_, model, shard| {
            model.loss_phase(shard, n_total)
        })?;

        // Backward, with a BN reduction barrier per sync point.
        for p in (0..points).rev() {
            let sums = phase(act, &mut shards, |_, model, shard| {
                model.backward_reduce(p, shard)
            })?;
            let (sum_dy, sum_dy_xhat, total) = fold_bn_sums(sums)?;
            phase(act, &mut shards, |_, model, shard| {
                model.backward_resume(p, shard, &sum_dy, &sum_dy_xhat, total)
            })?;
        }

        // Deterministic gradient merge: fixed left-to-right fold over the
        // contiguous shards.
        let mut merged: Vec<Tensor> = Vec::new();
        {
            let (first, rest) = self
                .replicas
                .split_first_mut()
                .expect("trainer holds at least one replica");
            first.visit_params(&mut |p| merged.push(p.grad.clone()));
            for model in rest[..active - 1].iter_mut() {
                let mut idx = 0;
                model.visit_params(&mut |p| {
                    ops::add_assign(&mut merged[idx], &p.grad)
                        .expect("replica gradients share shapes");
                    idx += 1;
                });
            }
        }

        // Broadcast the merged gradient, apply the penalty subgradient to
        // it, and take the identical optimizer step on every replica
        // (active or not) so all replicas stay in sync.
        let merged_ref = &merged;
        let items: Vec<&mut M> = self.replicas.iter_mut().collect();
        let penalties = par::run(items, |_, model| {
            let mut idx = 0;
            model.visit_params(&mut |p| {
                p.grad
                    .as_mut_slice()
                    .copy_from_slice(merged_ref[idx].as_slice());
                idx += 1;
            });
            let penalty = if lambda != 0.0 {
                model.penalty(lambda)
            } else {
                0.0
            };
            model.optimizer_step(sgd);
            penalty
        });

        let loss: f32 = shards.iter().map(|s| s.loss).sum();
        let mut acc = RunningMean::new();
        for s in &shards {
            acc.add(s.acc, s.batch.len());
        }
        Ok(StepStats {
            loss,
            acc: acc.mean(),
            penalty: penalties[0],
        })
    }
}

/// [`ChainNet`]'s per-shard scratch: the activation chain of the split
/// forward and the pending per-unit gradients of the split backward
/// (mirrors the sequential passes exactly).
#[derive(Debug, Default)]
pub struct ChainScratch {
    /// Conv output of the unit currently in flight (forward).
    conv_out: Option<Tensor>,
    /// Unit outputs, for skip connections.
    outs: Vec<Tensor>,
    /// Pre-activation gradient of the unit currently in flight (backward).
    grad_pre: Option<Tensor>,
    /// Pending skip gradient of the unit currently in flight.
    grad_skip: Option<Tensor>,
    /// Per-unit output gradients.
    gouts: Vec<Option<Tensor>>,
}

impl DpTrainable for ChainNet {
    type Scratch = ChainScratch;

    fn make_scratch(&self) -> ChainScratch {
        let n = self.units().len();
        ChainScratch {
            conv_out: None,
            outs: Vec::with_capacity(n),
            grad_pre: None,
            grad_skip: None,
            gouts: vec![None; n],
        }
    }

    fn sync_points(&self) -> usize {
        self.units().len()
    }

    fn sync_widths(&self) -> Vec<usize> {
        self.units().iter().map(|u| u.out_channels()).collect()
    }

    fn backend_kind(&self) -> BackendKind {
        ChainNet::backend_kind(self)
    }

    fn zero_grad(&mut self) {
        Layer::zero_grad(self);
    }

    fn forward_sync(
        &mut self,
        u: usize,
        shard: &mut DpShard<ChainScratch>,
    ) -> Result<(Tensor, Tensor, usize)> {
        let DpShard { batch, scratch, .. } = shard;
        let input = if u == 0 {
            &batch.images
        } else {
            &scratch.outs[u - 1]
        };
        let conv_out = self.units_mut()[u].forward_conv(input, Mode::Train)?;
        let (mean, var) = ops::channel_mean_var(&conv_out)?;
        let count = conv_out.dim(0) * conv_out.dim(2) * conv_out.dim(3);
        scratch.conv_out = Some(conv_out);
        Ok((mean, var, count))
    }

    fn forward_resume(
        &mut self,
        u: usize,
        shard: &mut DpShard<ChainScratch>,
        mean: &Tensor,
        var: &Tensor,
    ) -> Result<()> {
        let scratch = &mut shard.scratch;
        let conv_out = scratch.conv_out.take().expect("set by the conv phase");
        let skip = self.units()[u]
            .spec()
            .skip_from
            .map(|j| scratch.outs[j].clone());
        let y = self.units_mut()[u].forward_from_conv(
            &conv_out,
            skip.as_ref(),
            Mode::Train,
            Some((mean, var)),
        )?;
        scratch.outs.push(y);
        Ok(())
    }

    fn loss_phase(&mut self, shard: &mut DpShard<ChainScratch>, global_batch: usize) -> Result<()> {
        let n = self.units().len();
        let logits = self
            .head_mut()
            .forward(&shard.scratch.outs[n - 1], Mode::Train)?;
        let out = softmax_cross_entropy_scaled(&logits, &shard.batch.labels, global_batch)?;
        shard.acc = accuracy(&logits, &shard.batch.labels)?;
        shard.loss = out.loss;
        let g = self.head_mut().backward(&out.grad)?;
        shard.scratch.gouts[n - 1] = Some(g);
        Ok(())
    }

    fn backward_reduce(
        &mut self,
        u: usize,
        shard: &mut DpShard<ChainScratch>,
    ) -> Result<(Tensor, Tensor, usize)> {
        let scratch = &mut shard.scratch;
        let g = scratch.gouts[u]
            .take()
            .expect("every unit output feeds the chain, so a gradient must exist");
        let halfway = self.units_mut()[u].backward_to_bn(&g)?;
        let count = halfway.grad_pre.dim(0) * halfway.grad_pre.dim(2) * halfway.grad_pre.dim(3);
        scratch.grad_pre = Some(halfway.grad_pre);
        scratch.grad_skip = halfway.grad_skip;
        Ok((halfway.sum_dy, halfway.sum_dy_xhat, count))
    }

    fn backward_resume(
        &mut self,
        u: usize,
        shard: &mut DpShard<ChainScratch>,
        sum_dy: &Tensor,
        sum_dy_xhat: &Tensor,
        total: usize,
    ) -> Result<()> {
        let scratch = &mut shard.scratch;
        let grad_pre = scratch.grad_pre.take().expect("set by the reduce phase");
        let grad_input =
            self.units_mut()[u].backward_from_bn(&grad_pre, sum_dy, sum_dy_xhat, total)?;
        let kind = ChainNet::backend_kind(self);
        if let (Some(j), Some(gs)) = (self.units()[u].spec().skip_from, scratch.grad_skip.take()) {
            accumulate_grad(&mut scratch.gouts[j], gs, kind)?;
        }
        if u > 0 {
            accumulate_grad(&mut scratch.gouts[u - 1], grad_input, kind)?;
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        Layer::visit_params(self, f);
    }

    fn penalty(&mut self, lambda: f32) -> f32 {
        apply_branch_sparsity(self, lambda)
    }

    fn optimizer_step(&mut self, sgd: &Sgd) {
        sgd.step(self);
    }
}

/// The one epoch loop behind every training phase: validates the schedule,
/// resolves `workers` once against the starting model, then for each epoch
/// sets the step-decayed learning rate and takes one
/// [`DataParallelTrainer::step_with_penalty`] at weight `lambda` per
/// shuffled minibatch. Returns the sample-weighted per-epoch means of the
/// step statistics and writes the canonical replica back into `model`.
pub(crate) fn fit<M: DpTrainable>(
    model: &mut M,
    data: &ImageDataset,
    cfg: &TrainConfig,
    lambda: f32,
    workers: impl Into<WorkerPolicy>,
) -> Result<Vec<StepStats>> {
    cfg.validate()?;
    if lambda < 0.0 {
        return Err(CoreError::InvalidConfig {
            field: "lambda",
            reason: "must be non-negative".into(),
        });
    }
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay)?;
    let workers = workers
        .into()
        .resolve(model, data, cfg.batch_size, &sgd, lambda)?;
    let mut trainer = DataParallelTrainer::new(model, workers)?;
    let sched = StepLr::new(cfg.lr, cfg.lr_gamma, cfg.lr_step)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        sgd.set_lr(sched.lr_at(epoch));
        let (mut loss, mut acc, mut penalty) =
            (RunningMean::new(), RunningMean::new(), RunningMean::new());
        for batch in data.minibatches(cfg.batch_size, &mut rng) {
            let stats = trainer.step_with_penalty(&batch, &sgd, lambda)?;
            loss.add(stats.loss, batch.len());
            acc.add(stats.acc, batch.len());
            penalty.add(stats.penalty, batch.len());
        }
        history.push(StepStats {
            loss: loss.mean(),
            acc: acc.mean(),
            penalty: penalty.mean(),
        });
    }
    *model = trainer.into_model();
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_data::{DatasetKind, SyntheticCifar};
    use tbnet_models::vgg;

    use crate::persist::load_json;
    use crate::pipeline::PipelineConfig;

    fn tiny_data() -> SyntheticCifar {
        SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(4)
                .with_train_per_class(8)
                .with_test_per_class(4)
                .with_size(8, 8)
                .with_noise_std(0.2),
        )
    }

    #[test]
    fn zero_workers_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 4, 3, (8, 8));
        let mut net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let data = tiny_data();
        let cfg = TrainConfig::paper_scaled(1);
        assert!(fit(&mut net, data.train(), &cfg, 0.0, 0).is_err());
        assert!(fit(&mut net, data.train(), &cfg, -1.0, 1).is_err());
    }

    #[test]
    fn more_workers_than_samples_still_trains() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 4, 3, (8, 8));
        let mut one = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let mut dp = one.clone();
        let data = tiny_data();
        let mut cfg = TrainConfig::paper_scaled(1);
        cfg.batch_size = 3; // smaller than the worker count below
        let h1 = fit(&mut one, data.train(), &cfg, 0.0, 1).unwrap();
        let hd = fit(&mut dp, data.train(), &cfg, 0.0, 5).unwrap();
        assert_eq!(h1.len(), hd.len());
        assert!((h1[0].loss - hd[0].loss).abs() < 1e-5);
    }

    #[test]
    fn unrepresentable_worker_counts_are_rejected() {
        // `as usize` used to load 2.5 as Fixed(2), -1 as Fixed(0) and 1e20
        // as Fixed(usize::MAX), which then panicked `run_pipeline` with
        // "capacity overflow" while cloning the replicas.
        let mut cfg = PipelineConfig::smoke();
        cfg.workers = WorkerPolicy::Fixed(3);
        let good = serde_json::to_string(&cfg).unwrap();
        assert!(
            good.contains("\"workers\":3"),
            "unexpected encoding: {good}"
        );
        let dir = std::env::temp_dir().join("tbnet_worker_policy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.json");
        for bad in ["2.5", "-1", "1e20"] {
            let json = good.replace("\"workers\":3", &format!("\"workers\":{bad}"));
            std::fs::write(&path, json).unwrap();
            let loaded = load_json::<PipelineConfig, _>(&path);
            assert!(
                matches!(loaded, Err(CoreError::PersistError { .. })),
                "workers = {bad} loaded as {:?}",
                loaded.map(|c| c.workers)
            );
        }
        std::fs::write(&path, &good).unwrap();
        let loaded = load_json::<PipelineConfig, _>(&path).unwrap();
        assert_eq!(loaded.workers, WorkerPolicy::Fixed(3));
        std::fs::remove_file(&path).ok();

        // A count that does load but cannot be held is an error, not a panic.
        let mut rng = StdRng::seed_from_u64(4);
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 4, 3, (8, 8));
        let net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        assert!(matches!(
            DataParallelTrainer::new(&net, usize::MAX),
            Err(CoreError::InvalidConfig {
                field: "workers",
                ..
            })
        ));
    }

    #[test]
    fn trainer_accessors() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 4, 3, (8, 8));
        let net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let trainer = DataParallelTrainer::new(&net, 3).unwrap();
        assert_eq!(trainer.workers(), 3);
        let back = trainer.into_model();
        assert_eq!(back.units().len(), net.units().len());
    }

    #[test]
    fn width_cap_bounds_and_candidates() {
        // Narrow model + small batch: sync-dominated, capped to one worker.
        assert_eq!(width_worker_cap(&[4, 4], 8, 8), 1);
        // Wide model: capped only by the explicit cap / batch size.
        assert_eq!(width_worker_cap(&[256, 256], 32, 8), 8);
        assert_eq!(width_worker_cap(&[256, 256], 4, 8), 4);
        // Degenerate inputs stay sane.
        assert_eq!(width_worker_cap(&[], 0, 0), 1);
        assert_eq!(worker_candidates(1), vec![1]);
        assert_eq!(worker_candidates(4), vec![1, 2, 4]);
        assert_eq!(worker_candidates(6), vec![1, 2, 4, 6]);
    }

    #[test]
    fn autotune_respects_explicit_cap_and_memoizes() {
        let mut rng = StdRng::seed_from_u64(5);
        // Wide enough that the width prefilter leaves several candidates.
        let spec = vgg::vgg_from_stages("v", &[(16, 1), (16, 1)], 4, 3, (8, 8));
        let net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let data = tiny_data();
        let sgd = Sgd::new(0.05, 0.9, 1e-4).unwrap();
        for cap in [1usize, 2, 3] {
            let w = autotune_workers(&net, data.train(), 16, &sgd, 0.0, cap).unwrap();
            assert!(w >= 1 && w <= cap, "cap {cap} resolved to {w}");
            // Memoized: the second resolution must repeat the first even
            // though step timings are noisy.
            let again = autotune_workers(&net, data.train(), 16, &sgd, 0.0, cap).unwrap();
            assert_eq!(w, again);
        }
        clear_autotune_cache();
    }

    #[test]
    fn empty_data_or_single_thread_resolve_to_one_worker() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = vgg::vgg_from_stages("v", &[(16, 1)], 4, 3, (8, 8));
        let net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let data = tiny_data();
        let sgd = Sgd::new(0.05, 0.9, 1e-4).unwrap();
        assert_eq!(
            autotune_workers(&net, data.train(), 16, &sgd, 0.0, 1).unwrap(),
            1
        );
        assert_eq!(
            autotune_workers(&net, data.train(), 0, &sgd, 0.0, 4).unwrap(),
            1
        );
        assert_eq!(
            WorkerPolicy::from(3)
                .resolve(&net, data.train(), 16, &sgd, 0.0)
                .unwrap(),
            3
        );
    }

    #[test]
    fn zero_lambda_step_reports_zero_penalty() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = vgg::vgg_from_stages("v", &[(4, 1)], 4, 3, (8, 8));
        let net = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let data = tiny_data();
        let sgd = Sgd::new(0.05, 0.9, 1e-4).unwrap();
        let mut trainer = DataParallelTrainer::new(&net, 2).unwrap();
        let batch = data.train().as_batch();
        let stats = trainer.step(&batch, &sgd).unwrap();
        assert_eq!(stats.penalty, 0.0);
        assert!(stats.loss.is_finite());
    }
}

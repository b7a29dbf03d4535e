//! End-to-end orchestration of TBNet's six steps (paper Fig. 1).
//!
//! [`run_pipeline`] is the single entry point the examples and the benchmark
//! harness use: it trains the victim, builds and trains the two-branch
//! substitution model, prunes it iteratively, applies rollback finalization
//! and returns everything the evaluation needs.
//!
//! Each of the three training phases — victim training, knowledge transfer
//! and the per-iteration pruning fine-tune — is one call to that phase's
//! single entry point ([`train_victim_with_workers`],
//! [`train_two_branch_with_workers`], [`iterative_prune_with_workers`]),
//! and all three share the one epoch loop on the generic data-parallel
//! engine in [`crate::dp_train`]. They run under the [`WorkerPolicy`] in
//! [`PipelineConfig::workers`] (default: [`WorkerPolicy::Auto`], which
//! tunes a worker count per phase — and per pruning iteration — from the
//! live layer widths plus a memoized step-timing probe, capped at
//! `tbnet_tensor::par::max_threads()`), so the whole pipeline scales with
//! the available cores. At `WorkerPolicy::Fixed(1)` every phase is the
//! sequential whole-batch loop bit for bit; more workers agree with it to
//! f32 rounding.
//!
//! A run is fully deterministic for a fixed worker count, and `Auto` probe
//! results are memoized per phase shape, so repeated runs in one process
//! repeat their worker choices exactly. Across *different* worker counts
//! results agree only to f32 rounding (the shard fold changes the summation
//! order), so hosts with different core counts — or separate processes
//! whose `Auto` probes commit differently — can diverge at the ~1e-6 level:
//! enough, in principle, to flip a pruning keep/rollback decision that sits
//! exactly on the drop budget. For bit-reproducible runs across machines,
//! pin both the thread count (`TBNET_THREADS=N` or
//! `tbnet_tensor::par::set_max_threads`) and the policy
//! (`cfg.workers = WorkerPolicy::Fixed(W)`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use tbnet_data::SyntheticCifar;
use tbnet_models::{ChainNet, ModelSpec};

use crate::dp_train::WorkerPolicy;
use crate::pruning::{iterative_prune_with_workers, PruneConfig, PruneIteration};
use crate::train::{train_victim_with_workers, TrainConfig};
use crate::transfer::{
    evaluate_two_branch, train_two_branch_with_workers, TransferConfig, TransferEpoch,
};
use crate::{Result, TwoBranchModel};

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Victim training settings (step ⓪ — the vendor's model).
    pub victim: TrainConfig,
    /// Knowledge-transfer settings (step ②).
    pub transfer: TransferConfig,
    /// Iterative-pruning settings (steps ③–⑤).
    pub prune: PruneConfig,
    /// Worker policy shared by every training phase. [`WorkerPolicy::Auto`]
    /// (the default) autotunes per phase — and per pruning iteration, on
    /// the live post-prune widths; [`WorkerPolicy::Fixed`] pins the shard
    /// layout for bit-reproducibility across hosts.
    pub workers: WorkerPolicy,
    /// Seed for model initialization.
    pub seed: u64,
}

impl PipelineConfig {
    /// Experiment-scale defaults mirroring the paper's hyper-parameters.
    pub fn paper_scaled(
        victim_epochs: usize,
        transfer_epochs: usize,
        finetune_epochs: usize,
    ) -> Self {
        PipelineConfig {
            victim: TrainConfig::paper_scaled(victim_epochs),
            transfer: TransferConfig::paper_scaled(transfer_epochs),
            prune: PruneConfig::paper_scaled(finetune_epochs),
            workers: WorkerPolicy::Auto,
            seed: 2024,
        }
    }

    /// A fast configuration for smoke tests and examples.
    pub fn smoke() -> Self {
        let mut cfg = PipelineConfig::paper_scaled(4, 4, 2);
        cfg.prune.max_iterations = 2;
        cfg.prune.ratio = 0.15;
        cfg
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct TbnetArtifacts {
    /// The trained victim model (the vendor's IP).
    pub victim: ChainNet,
    /// Victim test accuracy.
    pub victim_acc: f32,
    /// The finalized two-branch substitution model.
    pub model: TwoBranchModel,
    /// TBNet test accuracy (from `M_T`'s output).
    pub tbnet_acc: f32,
    /// Knowledge-transfer training history.
    pub transfer_history: Vec<TransferEpoch>,
    /// Pruning-iteration history.
    pub prune_history: Vec<PruneIteration>,
}

impl TbnetArtifacts {
    /// The deployed `M_T` architecture (pruned).
    pub fn mt_spec(&self) -> ModelSpec {
        self.model.mt().spec()
    }

    /// The deployed `M_R` architecture (rolled back, one iteration wider).
    pub fn mr_spec(&self) -> ModelSpec {
        self.model.mr().spec()
    }
}

/// Runs steps ⓪–⑥: victim training, two-branch initialization, knowledge
/// transfer, iterative pruning and rollback finalization.
///
/// # Errors
///
/// Propagates configuration, training and shape errors from the stages.
pub fn run_pipeline(
    spec: &ModelSpec,
    data: &SyntheticCifar,
    cfg: &PipelineConfig,
) -> Result<TbnetArtifacts> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Step ⓪ — the vendor's well-trained victim (data-parallel under the
    // configured worker policy).
    let mut victim = ChainNet::from_spec(spec, &mut rng)?;
    train_victim_with_workers(&mut victim, data.train(), &cfg.victim, cfg.workers)?;
    let victim_acc = crate::train::evaluate(&mut victim, data.test())?;

    // Step ① — two-branch initialization.
    let mut model = TwoBranchModel::from_victim(&victim, &mut rng)?;

    // Step ② — knowledge transfer (Eq. 1), re-resolving the policy on the
    // two-branch model's widths.
    let transfer_history =
        train_two_branch_with_workers(&mut model, data.train(), &cfg.transfer, cfg.workers)?;

    // Steps ③–⑤ — iterative two-branch pruning (Alg. 1); the fine-tune
    // policy re-resolves per iteration on the post-prune widths.
    let outcome = iterative_prune_with_workers(
        &mut model,
        data.train(),
        data.test(),
        victim_acc,
        &cfg.prune,
        cfg.workers,
    )?;

    // Step ⑥ — rollback finalization: M_R reverts one iteration.
    model.finalize_with_rollback(outcome.rollback_mr, outcome.rollback_mr_book)?;
    let tbnet_acc = evaluate_two_branch(&mut model, data.test())?;

    Ok(TbnetArtifacts {
        victim,
        victim_acc,
        model,
        tbnet_acc,
        transfer_history,
        prune_history: outcome.history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_data::DatasetKind;
    use tbnet_models::vgg;

    fn tiny_data() -> SyntheticCifar {
        SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(3)
                .with_train_per_class(12)
                .with_test_per_class(6)
                .with_size(8, 8)
                .with_noise_std(0.25),
        )
    }

    #[test]
    fn full_pipeline_produces_finalized_model() {
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 3, 3, (8, 8));
        let data = tiny_data();
        let cfg = PipelineConfig::smoke();
        let artifacts = run_pipeline(&spec, &data, &cfg).unwrap();
        assert!(artifacts.model.is_finalized());
        assert!((0.0..=1.0).contains(&artifacts.victim_acc));
        assert!((0.0..=1.0).contains(&artifacts.tbnet_acc));
        assert!(!artifacts.transfer_history.is_empty());
        // M_R (rolled back) is at least as wide as M_T everywhere.
        for (ru, tu) in artifacts
            .model
            .mr()
            .units()
            .iter()
            .zip(artifacts.model.mt().units())
        {
            assert!(ru.out_channels() >= tu.out_channels());
        }
    }

    #[test]
    fn finalized_model_still_infers() {
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 3, 3, (8, 8));
        let data = tiny_data();
        let mut artifacts = run_pipeline(&spec, &data, &PipelineConfig::smoke()).unwrap();
        let batch = data.test().gather(&[0, 1, 2]);
        let logits = artifacts.model.predict(&batch.images).unwrap();
        assert_eq!(logits.dims(), &[3, 3]);
        assert!(logits.all_finite());
    }

    #[test]
    fn specs_reflect_divergence() {
        let spec = vgg::vgg_from_stages("v", &[(12, 1), (12, 1)], 3, 3, (8, 8));
        let data = tiny_data();
        let mut cfg = PipelineConfig::smoke();
        cfg.prune.drop_budget = 1.0; // guarantee at least one kept iteration
        cfg.prune.ratio = 0.25;
        let artifacts = run_pipeline(&spec, &data, &cfg).unwrap();
        let mr = artifacts.mr_spec();
        let mt = artifacts.mt_spec();
        if !artifacts.prune_history.iter().any(|h| h.kept) {
            // Nothing pruned — divergence impossible; accept but note.
            return;
        }
        let mr_total: usize = mr.units.iter().map(|u| u.out_channels).sum();
        let mt_total: usize = mt.units.iter().map(|u| u.out_channels).sum();
        assert!(
            mr_total > mt_total,
            "rollback should leave M_R ({mr_total}) wider than M_T ({mt_total})"
        );
    }
}

//! The attacker suite of the paper's evaluation.
//!
//! Threat model (paper §2.2): the attacker reads *everything* in REE memory —
//! `M_R`'s architecture, weights and the victim-inherited classifier — but
//! the TEE contents are a black box. Three attacks are evaluated:
//!
//! * [`direct_use_attack`] — transplant `M_R` and use it as-is (Table 1's
//!   "Attack Acc.");
//! * [`fine_tune_attack_with_workers`] — retrain the stolen `M_R` with a
//!   fraction of the training data (Fig. 2);
//! * [`retrain_secure_branch_alone`] — the defender-side ablation of §5.1 /
//!   Table 2: how good can `M_T` get without `M_R`?
//!
//! The attacker's fine-tune is a plain [`ChainNet`] classifier training, so
//! it goes through the victim entry point
//! ([`crate::train::train_victim_with_workers`]) on the same data-parallel
//! engine as the defender's three pipeline phases. The parity suite
//! (`tests/attack_parity.rs`) pins it against the sequential reference:
//! W ∈ {1, 2, 4} loss curves, final weights and BatchNorm running
//! statistics agree within 1e-5, W = 1 bit-identically.
//!
//! [`ChainNet`]: tbnet_models::ChainNet

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use tbnet_data::ImageDataset;
use tbnet_nn::optim::Sgd;

use crate::dp_train::WorkerPolicy;
use crate::train::{evaluate, train_victim_with_workers, TrainConfig};
use crate::{Result, TwoBranchModel};

/// Outcome of a fine-tuning attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FineTuneOutcome {
    /// Fraction of the training data the attacker had.
    pub data_fraction: f64,
    /// Number of training samples that fraction amounted to.
    pub samples_used: usize,
    /// Test accuracy of the fine-tuned stolen model.
    pub accuracy: f32,
    /// Data-parallel worker count the fine-tune resolved to (1 when the
    /// attacker had no data to train on).
    pub workers: usize,
}

/// Table 1's "Attack Acc.": the attacker extracts `M_R` from REE memory and
/// uses it directly, with its victim-inherited classifier head.
///
/// For residual victims this branch lacks the skip connections, and after
/// knowledge transfer its weights serve the *merged* computation — both
/// effects degrade standalone accuracy, which is exactly the defense.
///
/// # Errors
///
/// Returns shape errors when the dataset disagrees with the model geometry.
pub fn direct_use_attack(model: &TwoBranchModel, test: &ImageDataset) -> Result<f32> {
    let mut stolen = model.extract_unsecured_branch();
    evaluate(&mut stolen, test)
}

/// Fig. 2's attacker: extract `M_R`, then fine-tune all of it (classifier
/// included) on `data_fraction` of the training set. The stolen branch
/// trains through [`train_victim_with_workers`] under `workers` (a plain
/// `usize` converts to [`WorkerPolicy::Fixed`]; [`WorkerPolicy::Auto`]
/// autotunes from the stolen branch's live widths), and the resolved worker
/// count is recorded in [`FineTuneOutcome::workers`].
///
/// # Examples
///
/// ```no_run
/// use tbnet_core::attack::fine_tune_attack_with_workers;
/// use tbnet_core::dp_train::WorkerPolicy;
/// use tbnet_core::train::TrainConfig;
/// # fn demo(
/// #     model: &tbnet_core::TwoBranchModel,
/// #     data: &tbnet_data::SyntheticCifar,
/// # ) -> tbnet_core::Result<()> {
/// let outcome = fine_tune_attack_with_workers(
///     model,
///     data.train(),
///     data.test(),
///     0.5,
///     &TrainConfig::paper_scaled(4),
///     WorkerPolicy::Auto,
/// )?;
/// assert!(outcome.workers >= 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns configuration or shape errors.
pub fn fine_tune_attack_with_workers(
    model: &TwoBranchModel,
    train: &ImageDataset,
    test: &ImageDataset,
    data_fraction: f64,
    cfg: &TrainConfig,
    workers: impl Into<WorkerPolicy>,
) -> Result<FineTuneOutcome> {
    let mut stolen = model.extract_unsecured_branch();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_a77a);
    let subset = train.stratified_fraction(data_fraction, &mut rng);
    let samples_used = subset.len();
    let mut resolved = 1;
    if !subset.is_empty() {
        let sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay)?;
        resolved = workers
            .into()
            .resolve(&stolen, &subset, cfg.batch_size, &sgd, 0.0)?;
        train_victim_with_workers(&mut stolen, &subset, cfg, resolved)?;
    }
    let accuracy = evaluate(&mut stolen, test)?;
    Ok(FineTuneOutcome {
        data_fraction,
        samples_used,
        accuracy,
        workers: resolved,
    })
}

/// §5.1 / Table 2: strip `M_R` entirely and retrain the remaining `M_T` as a
/// standalone network on the full training set — the best possible
/// `M_T`-only model. The paper finds it a few points *below* TBNet, showing
/// the unsecured branch genuinely contributes. Like the fine-tune attack,
/// the retraining rides the data-parallel engine at an autotuned worker
/// count.
///
/// # Errors
///
/// Returns configuration or shape errors.
pub fn retrain_secure_branch_alone(
    model: &TwoBranchModel,
    train: &ImageDataset,
    test: &ImageDataset,
    cfg: &TrainConfig,
) -> Result<f32> {
    let mut alone = model.mt().clone();
    train_victim_with_workers(&mut alone, train, cfg, WorkerPolicy::Auto)?;
    evaluate(&mut alone, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_data::{DatasetKind, SyntheticCifar};
    use tbnet_models::vgg;
    use tbnet_models::ChainNet as Net;
    use tbnet_tensor::par;

    use crate::transfer::{evaluate_two_branch, train_two_branch_with_workers, TransferConfig};

    fn auto_attack(
        tb: &TwoBranchModel,
        data: &SyntheticCifar,
        data_fraction: f64,
        cfg: &TrainConfig,
    ) -> FineTuneOutcome {
        fine_tune_attack_with_workers(
            tb,
            data.train(),
            data.test(),
            data_fraction,
            cfg,
            WorkerPolicy::Auto,
        )
        .unwrap()
    }

    fn setup() -> (TwoBranchModel, SyntheticCifar) {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(4)
                .with_train_per_class(16)
                .with_test_per_class(8)
                .with_size(8, 8)
                .with_noise_std(0.25),
        );
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 4, 3, (8, 8));
        let victim = Net::from_spec(&spec, &mut rng).unwrap();
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        train_two_branch_with_workers(
            &mut tb,
            data.train(),
            &TransferConfig::paper_scaled(6),
            par::max_threads(),
        )
        .unwrap();
        (tb, data)
    }

    #[test]
    fn direct_use_is_worse_than_tbnet() {
        let (mut tb, data) = setup();
        let tbnet_acc = evaluate_two_branch(&mut tb, data.test()).unwrap();
        let attack_acc = direct_use_attack(&tb, data.test()).unwrap();
        assert!(
            attack_acc < tbnet_acc,
            "direct use ({attack_acc}) should be below TBNet ({tbnet_acc})"
        );
    }

    #[test]
    fn fine_tune_improves_with_more_data() {
        let (tb, data) = setup();
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::paper_scaled(4)
        };
        let small = auto_attack(&tb, &data, 0.1, &cfg);
        let large = auto_attack(&tb, &data, 1.0, &cfg);
        assert!(small.samples_used < large.samples_used);
        assert_eq!(large.samples_used, data.train().len());
        // More data should not hurt (tolerate small-sample noise).
        assert!(large.accuracy + 0.15 >= small.accuracy);
    }

    #[test]
    fn zero_fraction_means_direct_use() {
        let (tb, data) = setup();
        let cfg = TrainConfig::paper_scaled(2);
        let out = auto_attack(&tb, &data, 0.0, &cfg);
        assert_eq!(out.samples_used, 0);
        let direct = direct_use_attack(&tb, data.test()).unwrap();
        assert!((out.accuracy - direct).abs() < 1e-6);
    }

    #[test]
    fn attack_does_not_mutate_deployed_model() {
        let (tb, data) = setup();
        let before = tb.mr().units()[0].conv().weight().value.clone();
        let cfg = TrainConfig::paper_scaled(2);
        auto_attack(&tb, &data, 0.5, &cfg);
        assert_eq!(
            tb.mr().units()[0].conv().weight().value.as_slice(),
            before.as_slice()
        );
    }

    #[test]
    fn mt_alone_retrains_to_sensible_accuracy() {
        let (tb, data) = setup();
        let cfg = TrainConfig {
            epochs: 6,
            ..TrainConfig::paper_scaled(6)
        };
        let acc = retrain_secure_branch_alone(&tb, data.train(), data.test(), &cfg).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(acc > 0.3, "retrained M_T should beat chance, got {acc}");
    }
}

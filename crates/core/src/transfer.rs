//! Step ② — knowledge transfer into the two-branch model.
//!
//! Minimizes Eq. 1 of the paper:
//!
//! ```text
//! L = Σ l(f(x, W_R, W_T), y)  +  λ · Σ g(γ_R + γ_T)
//! ```
//!
//! where `l` is softmax cross-entropy on `M_T`'s output, `g` is the L1
//! sparsity penalty and the γ are BatchNorm scales of both branches. The
//! penalty distributes the victim's knowledge across the branches *and*
//! drives unimportant channels toward zero, preparing the composite-weight
//! pruning of steps ③–⑤.
//!
//! [`train_two_branch_with_workers`] runs the optimization through the
//! generic data-parallel engine in [`crate::dp_train`], sharding every
//! minibatch across model replicas with synchronized BatchNorm statistics.

use serde::{Deserialize, Serialize};

use tbnet_data::ImageDataset;
use tbnet_models::ChainNet;
use tbnet_nn::loss::apply_bn_sparsity_penalty;

use crate::dp_train::{fit, WorkerPolicy};
use crate::train::{batched_accuracy, TrainConfig};
use crate::{Result, TwoBranchModel};

/// Hyper-parameters of the knowledge-transfer optimization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay on conv/linear weights.
    pub weight_decay: f32,
    /// λ — the sparsity-penalty weight of Eq. 1 (paper: 1e-4).
    pub lambda: f32,
    /// Epochs between learning-rate decays.
    pub lr_step: usize,
    /// Learning-rate decay factor.
    pub lr_gamma: f32,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl TransferConfig {
    /// The paper's settings (λ = 1e-4, SGD 0.1/0.9/1e-4, ×0.1 decay) at an
    /// experiment-scale epoch count and learning rate.
    pub fn paper_scaled(epochs: usize) -> Self {
        TransferConfig {
            epochs,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lambda: 1e-4,
            lr_step: (epochs / 3).max(1),
            lr_gamma: 0.1,
            seed: 11,
        }
    }

    /// Overrides λ (used by the ablation benches).
    pub fn with_lambda(mut self, lambda: f32) -> Self {
        self.lambda = lambda;
        self
    }

    /// The optimizer schedule without λ, which the shared epoch loop takes
    /// separately.
    fn schedule(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            lr_step: self.lr_step,
            lr_gamma: self.lr_gamma,
            seed: self.seed,
        }
    }
}

/// Per-epoch transfer record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferEpoch {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean cross-entropy component of the loss.
    pub ce_loss: f32,
    /// Mean sparsity-penalty component (λ·Σ|γ|).
    pub sparsity_loss: f32,
    /// Training accuracy of the two-branch output.
    pub train_acc: f32,
}

/// Applies the L1 sparsity subgradient to every BatchNorm γ in a branch and
/// returns the penalty value λ·Σ|γ|.
pub fn apply_branch_sparsity(net: &mut ChainNet, lambda: f32) -> f32 {
    let mut total = 0.0;
    for u in net.units_mut() {
        total += apply_bn_sparsity_penalty(u.bn_mut(), lambda);
    }
    total
}

/// Runs the knowledge-transfer optimization (Eq. 1) over the two-branch
/// model, updating both branches concurrently, under a [`WorkerPolicy`] (a
/// plain `usize` converts to [`WorkerPolicy::Fixed`]): every minibatch is
/// sharded across the resolved number of model replicas with synchronized
/// BatchNorm statistics, gradients merge with a deterministic left-to-right
/// fold, the sparsity subgradient is applied to the merged gradient, and
/// every replica takes the identical SGD step. [`WorkerPolicy::Auto`]
/// resolves against the model's *live* branch widths, so repeated
/// fine-tunes of a shrinking model (the pruning loop) re-tune per
/// iteration.
///
/// # Errors
///
/// Returns configuration or shape errors.
pub fn train_two_branch_with_workers(
    model: &mut TwoBranchModel,
    data: &ImageDataset,
    cfg: &TransferConfig,
    workers: impl Into<WorkerPolicy>,
) -> Result<Vec<TransferEpoch>> {
    let history = fit(model, data, &cfg.schedule(), cfg.lambda, workers)?;
    Ok(history
        .into_iter()
        .enumerate()
        .map(|(epoch, s)| TransferEpoch {
            epoch,
            ce_loss: s.loss,
            sparsity_loss: s.penalty,
            train_acc: s.acc,
        })
        .collect())
}

/// Evaluates the two-branch model on a dataset through the deployed
/// inference path ([`TwoBranchModel::predict_fused`]). Returns top-1
/// accuracy in `[0, 1]`.
///
/// # Errors
///
/// Returns shape errors when the dataset disagrees with the model geometry.
pub fn evaluate_two_branch(model: &mut TwoBranchModel, data: &ImageDataset) -> Result<f32> {
    batched_accuracy(data, |images| model.predict_fused(images))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbnet_data::{DatasetKind, ImageDataset, SyntheticCifar};
    use tbnet_models::vgg;
    use tbnet_tensor::{init, par, Tensor};

    use crate::train::evaluate;

    fn setup() -> (TwoBranchModel, SyntheticCifar) {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(4)
                .with_train_per_class(12)
                .with_test_per_class(6)
                .with_size(8, 8)
                .with_noise_std(0.2),
        );
        let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 4, 3, (8, 8));
        let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
        let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
        (tb, data)
    }

    #[test]
    fn config_validation() {
        let (mut tb, data) = setup();
        let mut cfg = TransferConfig::paper_scaled(1);
        cfg.epochs = 0;
        assert!(
            train_two_branch_with_workers(&mut tb, data.train(), &cfg, par::max_threads()).is_err()
        );
        let cfg = TransferConfig::paper_scaled(1).with_lambda(-1.0);
        assert!(
            train_two_branch_with_workers(&mut tb, data.train(), &cfg, par::max_threads()).is_err()
        );
    }

    #[test]
    fn transfer_learns_above_chance() {
        let (mut tb, data) = setup();
        let cfg = TransferConfig::paper_scaled(8);
        let history =
            train_two_branch_with_workers(&mut tb, data.train(), &cfg, par::max_threads()).unwrap();
        assert_eq!(history.len(), 8);
        assert!(history.last().unwrap().ce_loss < history[0].ce_loss);
        let acc = evaluate_two_branch(&mut tb, data.test()).unwrap();
        assert!(acc > 0.4, "two-branch accuracy {acc} not above chance");
    }

    #[test]
    fn sparsity_penalty_shrinks_gammas() {
        let (tb0, data) = setup();
        // Strong λ run vs zero-λ run: the strong-λ model must end with a
        // smaller total |γ|.
        let total_gamma = |tb: &TwoBranchModel| {
            let mut s = 0.0f32;
            for u in tb.mr().units().iter().chain(tb.mt().units()) {
                s += u.bn().gamma().value.l1_norm();
            }
            s
        };
        let mut strong = tb0.clone();
        let mut free = tb0;
        train_two_branch_with_workers(
            &mut strong,
            data.train(),
            &TransferConfig::paper_scaled(5).with_lambda(5e-3),
            par::max_threads(),
        )
        .unwrap();
        train_two_branch_with_workers(
            &mut free,
            data.train(),
            &TransferConfig::paper_scaled(5).with_lambda(0.0),
            par::max_threads(),
        )
        .unwrap();
        assert!(
            total_gamma(&strong) < total_gamma(&free),
            "λ did not shrink γ: {} vs {}",
            total_gamma(&strong),
            total_gamma(&free)
        );
    }

    #[test]
    fn transfer_reports_sparsity_component() {
        let (mut tb, data) = setup();
        let cfg = TransferConfig::paper_scaled(2).with_lambda(1e-3);
        let history =
            train_two_branch_with_workers(&mut tb, data.train(), &cfg, par::max_threads()).unwrap();
        assert!(history.iter().all(|e| e.sparsity_loss > 0.0));
    }

    #[test]
    fn victim_head_in_mr_stays_frozen() {
        let (mut tb, data) = setup();
        let before = tb.mr().head().linear().weight().value.clone();
        train_two_branch_with_workers(
            &mut tb,
            data.train(),
            &TransferConfig::paper_scaled(2),
            par::max_threads(),
        )
        .unwrap();
        // Weight decay is the only force on the unused head; with wd=1e-4
        // and a handful of steps the drift is tiny but non-random. Check the
        // head did not receive task gradient (relative change ≪ conv drift).
        let after = tb.mr().head().linear().weight().value.clone();
        let head_drift: f32 = before
            .as_slice()
            .iter()
            .zip(after.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / before.numel() as f32;
        assert!(head_drift < 1e-3, "unexpected head drift {head_drift}");
    }

    /// 70 random images labelled against `predict`'s own top-1 over the
    /// evaluators' chunks — a full 64-sample batch, then a 6-sample tail:
    /// every odd sample of the full batch is mislabelled and the tail is
    /// all right (accuracies 0.5 and 1.0). Returns the dataset and its
    /// number of correct labels.
    fn ragged_case(mut predict: impl FnMut(&Tensor) -> Tensor) -> (ImageDataset, usize) {
        let (classes, row) = (4, 3 * 8 * 8);
        let images = init::randn(&[70, 3, 8, 8], 1.0, &mut StdRng::seed_from_u64(70));
        let (mut labels, mut correct) = (Vec::new(), 0);
        for (lo, hi) in [(0, 64), (64, 70)] {
            let chunk = images.as_slice()[lo * row..hi * row].to_vec();
            let logits = predict(&Tensor::from_vec(chunk, &[hi - lo, 3, 8, 8]).unwrap());
            for (k, scores) in logits.as_slice().chunks(classes).enumerate() {
                let top = (0..classes).fold(0, |b, j| if scores[j] > scores[b] { j } else { b });
                let label = if lo == 0 && k % 2 == 1 {
                    (top + 1) % classes
                } else {
                    top
                };
                correct += usize::from(label == top);
                labels.push(label);
            }
        }
        (ImageDataset::new(images, labels, classes).unwrap(), correct)
    }

    #[test]
    fn evaluation_weights_ragged_batches_by_sample() {
        let (mut tb, _) = setup();
        let mut net = tb.mr().clone();
        // A mean of the two batch accuracies would give (0.5 + 1.0) / 2.
        let (data, correct) = ragged_case(|x| tb.predict_fused(x).unwrap());
        assert_eq!(correct, 38);
        let acc = evaluate_two_branch(&mut tb, &data).unwrap();
        assert!(
            (acc - correct as f32 / 70.0).abs() < 1e-6,
            "two-branch {acc}"
        );
        let (data, correct) = ragged_case(|x| net.predict_inference(x).unwrap());
        assert_eq!(correct, 38);
        let acc = evaluate(&mut net, &data).unwrap();
        assert!((acc - correct as f32 / 70.0).abs() < 1e-6, "chain {acc}");
    }
}

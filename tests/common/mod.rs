//! Shared helpers for the training parity suites: the sequential reference
//! loops every training phase is pinned against, plus parameter and
//! BatchNorm-statistics comparison helpers.
//!
//! The library keeps no sequential training loop of its own — every phase
//! runs the data-parallel engine, and one worker is its sequential case.
//! The loops below are the independent reference for that claim: plain
//! whole-batch SGD over the monolithic `forward(Mode::Train)` / `backward`
//! of `ChainNet` and `TwoBranchModel`, with the same shuffling, learning-rate
//! schedule and per-epoch means as the engine's epoch loop.

#![allow(dead_code)] // each test binary uses a subset of the helpers

use rand::rngs::StdRng;
use rand::SeedableRng;

use tbnet_core::dp_train::DpTrainable;
use tbnet_core::train::{EpochStats, TrainConfig};
use tbnet_core::transfer::{apply_branch_sparsity, TransferConfig, TransferEpoch};
use tbnet_core::TwoBranchModel;
use tbnet_data::ImageDataset;
use tbnet_models::ChainNet;
use tbnet_nn::loss::softmax_cross_entropy;
use tbnet_nn::metrics::{accuracy, RunningMean};
use tbnet_nn::optim::{Sgd, StepLr};
use tbnet_nn::{Layer, Mode};
use tbnet_tensor::{par, Tensor};

/// Forces multi-shard pool paths on few-core dev hosts, but respects an
/// explicit `TBNET_THREADS` (the CI thread matrix runs these suites at both
/// 1 and 4 threads — overriding it here would collapse the legs).
pub fn pin_threads() {
    if std::env::var("TBNET_THREADS").is_err() {
        par::set_max_threads(4);
    }
}

/// Sequential reference for victim (and attacker) training: one
/// whole-batch forward/backward and SGD step per shuffled minibatch.
pub fn train_victim_seq(
    net: &mut ChainNet,
    data: &ImageDataset,
    cfg: &TrainConfig,
) -> Vec<EpochStats> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay).unwrap();
    let sched = StepLr::new(cfg.lr, cfg.lr_gamma, cfg.lr_step).unwrap();
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        sgd.set_lr(sched.lr_at(epoch));
        let mut loss_acc = RunningMean::new();
        let mut acc_acc = RunningMean::new();
        for batch in data.minibatches(cfg.batch_size, &mut rng) {
            Layer::zero_grad(net);
            let logits = net.forward(&batch.images, Mode::Train).unwrap();
            let out = softmax_cross_entropy(&logits, &batch.labels).unwrap();
            net.backward(&out.grad).unwrap();
            sgd.step(net);
            loss_acc.add(out.loss, batch.len());
            acc_acc.add(accuracy(&logits, &batch.labels).unwrap(), batch.len());
        }
        history.push(EpochStats {
            epoch,
            train_loss: loss_acc.mean(),
            train_acc: acc_acc.mean(),
        });
    }
    history
}

/// Sequential reference for knowledge transfer and the pruning fine-tune
/// (Eq. 1): whole-batch forward/backward through both branches, the L1
/// sparsity subgradient on every BatchNorm γ, then one SGD step per branch.
pub fn train_two_branch_seq(
    model: &mut TwoBranchModel,
    data: &ImageDataset,
    cfg: &TransferConfig,
) -> Vec<TransferEpoch> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay).unwrap();
    let sched = StepLr::new(cfg.lr, cfg.lr_gamma, cfg.lr_step).unwrap();
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        sgd.set_lr(sched.lr_at(epoch));
        let mut ce = RunningMean::new();
        let mut sparsity = RunningMean::new();
        let mut acc = RunningMean::new();
        for batch in data.minibatches(cfg.batch_size, &mut rng) {
            model.zero_grad();
            let logits = model.forward(&batch.images, Mode::Train).unwrap();
            let out = softmax_cross_entropy(&logits, &batch.labels).unwrap();
            model.backward(&out.grad).unwrap();
            // The g(γ_R + γ_T) term of Eq. 1 separates across branches.
            let mut pen = apply_branch_sparsity(model.mr_mut(), cfg.lambda);
            pen += apply_branch_sparsity(model.mt_mut(), cfg.lambda);
            sgd.step(model.mr_mut() as &mut dyn Layer);
            sgd.step(model.mt_mut() as &mut dyn Layer);
            ce.add(out.loss, batch.len());
            sparsity.add(pen, batch.len());
            acc.add(accuracy(&logits, &batch.labels).unwrap(), batch.len());
        }
        history.push(TransferEpoch {
            epoch,
            ce_loss: ce.mean(),
            sparsity_loss: sparsity.mean(),
            train_acc: acc.mean(),
        });
    }
    history
}

/// Every trainable parameter's value, in the engine's gradient-fold order.
pub fn collect_params<M: DpTrainable>(model: &mut M) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.value.clone()));
    out
}

/// BatchNorm running statistics of every unit of `nets`, flattened as
/// `[mean₀, var₀, mean₁, var₁, …]` (pass `[tb.mr(), tb.mt()]` for a
/// two-branch model).
pub fn collect_bn_stats<'a>(nets: impl IntoIterator<Item = &'a ChainNet>) -> Vec<Tensor> {
    nets.into_iter()
        .flat_map(|net| net.units())
        .flat_map(|u| [u.bn().running_mean().clone(), u.bn().running_var().clone()])
        .collect()
}

/// Largest elementwise |a − b|; the shapes must agree.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.dims(), b.dims(), "shape drift between trainers");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Asserts two tensor lists agree elementwise within `tol` (`0.0` demands
/// bit-identical values).
pub fn assert_all_close(what: &str, a: &[Tensor], b: &[Tensor], tol: f32) {
    assert_eq!(a.len(), b.len(), "{what}: tensor counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let diff = max_abs_diff(x, y);
        assert!(
            diff <= tol,
            "{what} {i}: max |Δ| = {diff} (tolerance {tol})"
        );
    }
}

/// The parity tolerance at `workers` shards: one worker must reproduce the
/// sequential reference bit for bit; more workers reassociate the f32
/// gradient and statistics sums, which the suites bound by 1e-5.
pub fn parity_tol(workers: usize) -> f32 {
    if workers == 1 {
        0.0
    } else {
        1e-5
    }
}

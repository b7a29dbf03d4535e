//! Sequential-parity suite for knowledge transfer (paper step ②): for
//! W ∈ {1, 2, 4} workers, the per-epoch cross-entropy, sparsity-penalty and
//! accuracy curves, the final weights of *both* branches and their
//! BatchNorm running statistics must match the sequential transfer
//! reference — bit for bit at W = 1, within 1e-5 above — and the work must
//! flow through the persistent pool in `tbnet_tensor::par`.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{
    assert_all_close, collect_bn_stats, collect_params, max_abs_diff, parity_tol, pin_threads,
    train_two_branch_seq,
};
use tbnet_core::transfer::{train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{resnet, vgg, ChainNet, ModelSpec};
use tbnet_tensor::par;

fn data() -> SyntheticCifar {
    SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(4)
            .with_train_per_class(12)
            .with_test_per_class(6)
            .with_size(8, 8)
            .with_noise_std(0.3),
    )
}

fn cfg(epochs: usize) -> TransferConfig {
    TransferConfig {
        epochs,
        batch_size: 16,
        ..TransferConfig::paper_scaled(epochs)
    }
}

fn tb_from_spec(spec: &ModelSpec, seed: u64) -> TwoBranchModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let victim = ChainNet::from_spec(spec, &mut rng).unwrap();
    TwoBranchModel::from_victim(&victim, &mut rng).unwrap()
}

/// Runs the sequential reference and the engine at `workers` shards from
/// identical initial state and asserts epoch-by-epoch loss-component parity
/// plus final weight and BN running-stat parity for both branches.
fn assert_transfer_parity(spec: &ModelSpec, workers: usize, seed: u64, lambda: f32) {
    let tol = parity_tol(workers);
    let d = data();
    let tb0 = tb_from_spec(spec, seed);
    let mut seq = tb0.clone();
    let mut dp = tb0;
    let cfg = cfg(3).with_lambda(lambda);

    let seq_hist = train_two_branch_seq(&mut seq, d.train(), &cfg);
    let dp_hist = train_two_branch_with_workers(&mut dp, d.train(), &cfg, workers).unwrap();

    assert_eq!(seq_hist.len(), dp_hist.len());
    for (s, p) in seq_hist.iter().zip(&dp_hist) {
        assert!(
            (s.ce_loss - p.ce_loss).abs() <= tol,
            "W={workers} epoch {}: sequential ce {} vs data-parallel {}",
            s.epoch,
            s.ce_loss,
            p.ce_loss
        );
        assert!(
            (s.sparsity_loss - p.sparsity_loss).abs() <= tol,
            "W={workers} epoch {}: sparsity penalty diverged ({} vs {})",
            s.epoch,
            s.sparsity_loss,
            p.sparsity_loss
        );
        assert!(
            (s.train_acc - p.train_acc).abs() <= tol,
            "W={workers} epoch {}: accuracy diverged",
            s.epoch
        );
    }
    assert_all_close(
        &format!("W={workers} param"),
        &collect_params(&mut seq),
        &collect_params(&mut dp),
        tol,
    );
    assert_all_close(
        &format!("W={workers} BN stat"),
        &collect_bn_stats([seq.mr(), seq.mt()]),
        &collect_bn_stats([dp.mr(), dp.mt()]),
        tol,
    );

    // Both models predict identically after training.
    let batch = d.test().as_batch();
    let ys = seq.predict(&batch.images).unwrap();
    let yp = dp.predict(&batch.images).unwrap();
    assert!(
        max_abs_diff(&ys, &yp) <= tol.max(1e-4),
        "W={workers} logits diverged"
    );
}

fn vgg_spec() -> ModelSpec {
    vgg::vgg_from_stages("parity-tb-vgg", &[(8, 1), (8, 1)], 4, 3, (8, 8))
}

#[test]
fn one_worker_matches_sequential() {
    pin_threads();
    assert_transfer_parity(&vgg_spec(), 1, 50, 1e-4);
}

#[test]
fn two_workers_match_sequential() {
    pin_threads();
    assert_transfer_parity(&vgg_spec(), 2, 51, 1e-4);
}

#[test]
fn four_workers_match_sequential() {
    pin_threads();
    assert_transfer_parity(&vgg_spec(), 4, 52, 1e-4);
}

#[test]
fn strong_sparsity_penalty_matches_sequential() {
    // A large λ makes the penalty subgradient a first-order part of the
    // update, so this pins the merged-gradient penalty application (once
    // per step, after the shard fold) against the sequential ordering.
    pin_threads();
    assert_transfer_parity(&vgg_spec(), 2, 53, 5e-3);
}

#[test]
fn residual_victim_matches_sequential_across_workers() {
    // A residual victim gives M_T skip connections (M_R's are stripped at
    // step ①), exercising the merged-stream skip-gradient accumulation of
    // the two-branch DpTrainable schedule.
    pin_threads();
    let spec = resnet::resnet_from_stages("parity-tb-res", &[6], 2, 4, 3, (8, 8));
    assert_transfer_parity(&spec, 2, 54, 1e-4);
    assert_transfer_parity(&spec, 4, 54, 1e-4);
}

#[test]
fn transfer_runs_on_the_persistent_pool() {
    pin_threads();
    if par::max_threads() < 2 {
        // TBNET_THREADS=1 runs fully serial by design — no pool workers to
        // observe (the thread-matrix 1-thread leg covers the inline path).
        return;
    }
    let d = data();
    let tb = tb_from_spec(&vgg_spec(), 55);
    let cfg = cfg(1);

    // Warm-up: pool workers come up lazily on first demand.
    let mut warm = tb.clone();
    train_two_branch_with_workers(&mut warm, d.train(), &cfg, 4).unwrap();
    let workers_after_warmup = par::pool_workers();
    assert!(
        workers_after_warmup >= 1,
        "data-parallel transfer must engage the pool"
    );

    // Steady state: shard phases run as pool jobs, no thread spawns.
    let jobs_before = par::pool_jobs_completed();
    let mut dp = tb.clone();
    train_two_branch_with_workers(&mut dp, d.train(), &cfg, 4).unwrap();
    assert!(
        par::pool_jobs_completed() > jobs_before,
        "transfer steps must submit pool jobs"
    );
    assert_eq!(
        par::pool_workers(),
        workers_after_warmup,
        "steady-state transfer must not spawn threads"
    );
}

//! Sequential-parity suite for victim training: for W ∈ {1, 2, 4} workers,
//! `train_victim_with_workers` must reproduce the sequential reference's
//! loss curve, final weights and BatchNorm running statistics — bit for bit
//! at W = 1, within 1e-5 above — and the work must flow through the
//! persistent pool in `tbnet_tensor::par` (no per-call thread spawns on the
//! training hot path).

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{
    assert_all_close, collect_bn_stats, collect_params, max_abs_diff, parity_tol, pin_threads,
    train_victim_seq,
};
use tbnet_core::train::{train_victim_with_workers, TrainConfig};
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{resnet, vgg, ChainNet, ModelSpec};
use tbnet_nn::{Layer, Mode};
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

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        ..TrainConfig::paper_scaled(epochs)
    }
}

/// Runs the sequential reference and the engine at `workers` shards from
/// identical initial state and asserts epoch-by-epoch loss parity plus final
/// weight and BN running-stat parity.
fn assert_parity(spec: &ModelSpec, workers: usize, seed: u64) {
    let tol = parity_tol(workers);
    let d = data();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq_net = ChainNet::from_spec(spec, &mut rng).unwrap();
    let mut dp_net = seq_net.clone();
    let cfg = cfg(3);

    let seq_hist = train_victim_seq(&mut seq_net, d.train(), &cfg);
    let dp_hist = train_victim_with_workers(&mut dp_net, d.train(), &cfg, workers).unwrap();

    assert_eq!(seq_hist.len(), dp_hist.len());
    for (s, p) in seq_hist.iter().zip(&dp_hist) {
        assert!(
            (s.train_loss - p.train_loss).abs() <= tol,
            "W={workers} epoch {}: sequential loss {} vs data-parallel {}",
            s.epoch,
            s.train_loss,
            p.train_loss
        );
        assert!(
            (s.train_acc - p.train_acc).abs() <= tol,
            "W={workers} epoch {}: accuracy diverged",
            s.epoch
        );
    }
    assert_all_close(
        &format!("W={workers} param"),
        &collect_params(&mut seq_net),
        &collect_params(&mut dp_net),
        tol,
    );
    assert_all_close(
        &format!("W={workers} BN stat"),
        &collect_bn_stats([&seq_net]),
        &collect_bn_stats([&dp_net]),
        tol,
    );

    // Both nets predict identically after training.
    let batch = d.test().as_batch();
    let ys = seq_net.forward(&batch.images, Mode::Eval).unwrap();
    let yp = dp_net.forward(&batch.images, Mode::Eval).unwrap();
    assert!(
        max_abs_diff(&ys, &yp) <= tol.max(1e-4),
        "W={workers} logits diverged"
    );
}

fn vgg_spec() -> ModelSpec {
    vgg::vgg_from_stages("parity-vgg", &[(8, 1), (8, 1)], 4, 3, (8, 8))
}

#[test]
fn one_worker_matches_sequential() {
    pin_threads();
    assert_parity(&vgg_spec(), 1, 40);
}

#[test]
fn two_workers_match_sequential() {
    pin_threads();
    assert_parity(&vgg_spec(), 2, 41);
}

#[test]
fn four_workers_match_sequential() {
    pin_threads();
    assert_parity(&vgg_spec(), 4, 42);
}

#[test]
fn residual_model_matches_sequential_across_workers() {
    // Skip connections exercise the cross-unit gradient accumulation and
    // the shard-local skip-gradient path of the engine.
    pin_threads();
    let spec = resnet::resnet_from_stages("parity-res", &[6, 8], 2, 4, 3, (8, 8));
    assert_parity(&spec, 2, 43);
    assert_parity(&spec, 4, 43);
}

#[test]
fn training_runs_on_the_persistent_pool() {
    // Force multi-chunk paths even on a single-core host so the
    // multi-shard machinery actually executes.
    pin_threads();
    if par::max_threads() < 2 {
        // TBNET_THREADS=1 runs fully serial by design — no pool workers to
        // observe (the thread-matrix 1-thread leg covers the inline path).
        return;
    }
    let d = data();
    let mut rng = StdRng::seed_from_u64(44);
    let net = ChainNet::from_spec(&vgg_spec(), &mut rng).unwrap();
    let cfg = cfg(1);

    // Warm-up: pool workers come up lazily on first demand.
    let mut warm = net.clone();
    train_victim_with_workers(&mut warm, d.train(), &cfg, 4).unwrap();
    let workers_after_warmup = par::pool_workers();
    assert!(
        workers_after_warmup >= 1,
        "data-parallel training must engage the pool"
    );

    // Steady state: the job counter advances (shard phases run as pool
    // tasks) while the worker count stays flat — the hot path spawns no
    // threads.
    let jobs_before = par::pool_jobs_completed();
    let mut dp_net = net.clone();
    train_victim_with_workers(&mut dp_net, d.train(), &cfg, 4).unwrap();
    assert!(
        par::pool_jobs_completed() > jobs_before,
        "training steps must submit pool jobs"
    );
    assert_eq!(
        par::pool_workers(),
        workers_after_warmup,
        "steady-state training must not spawn threads"
    );

    // The Parallel backend's kernels ride the same pool: a plain sequential
    // training run (Parallel backend kernels inside) also advances the
    // shared job counter without growing the worker set.
    let jobs_before = par::pool_jobs_completed();
    let mut seq_net = net.clone();
    train_victim_seq(&mut seq_net, d.train(), &cfg);
    assert!(
        par::pool_jobs_completed() >= jobs_before,
        "kernel chunking shares the same pool"
    );
    assert_eq!(par::pool_workers(), workers_after_warmup);
}

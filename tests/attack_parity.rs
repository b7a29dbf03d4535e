//! Sequential-parity suite for the attacker's fine-tune, which trains the
//! stolen `M_R` through `train_victim_with_workers`: for W ∈ {1, 2, 4}
//! workers it must reproduce the sequential reference's loss curve, final
//! weights and BatchNorm running statistics within 1e-5 (W = 1
//! bit-identically), the end-to-end `fine_tune_attack_with_workers`
//! outcome must match a sequential attacker on the same stolen subset, and
//! `WorkerPolicy::Auto` must stay within the thread cap and resolve
//! deterministically.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{
    assert_all_close, collect_bn_stats, collect_params, max_abs_diff, parity_tol, pin_threads,
    train_victim_seq,
};
use tbnet_core::attack::fine_tune_attack_with_workers;
use tbnet_core::dp_train::WorkerPolicy;
use tbnet_core::train::{evaluate, train_victim_with_workers, TrainConfig};
use tbnet_core::transfer::{train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{vgg, ChainNet};
use tbnet_nn::optim::Sgd;
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
            .with_noise_std(0.25),
    )
}

/// A knowledge-transferred two-branch model — the deployment the attacker
/// steals `M_R` from.
fn deployed_model(d: &SyntheticCifar, seed: u64) -> TwoBranchModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = vgg::vgg_from_stages("attack-parity", &[(8, 1), (8, 1)], 4, 3, (8, 8));
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
    train_two_branch_with_workers(
        &mut tb,
        d.train(),
        &TransferConfig::paper_scaled(3),
        par::max_threads(),
    )
    .unwrap();
    tb
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        ..TrainConfig::paper_scaled(epochs)
    }
}

/// Fine-tunes the stolen branch with the sequential reference and the
/// engine at `workers` shards from identical initial state, asserting
/// epoch-by-epoch loss parity plus final weight and BN running-stat parity.
fn assert_attack_parity(workers: usize, seed: u64) {
    let tol = parity_tol(workers);
    let d = data();
    let stolen0 = deployed_model(&d, seed).extract_unsecured_branch();
    let cfg = cfg(3);

    let mut seq_net = stolen0.clone();
    let seq_hist = train_victim_seq(&mut seq_net, d.train(), &cfg);
    let mut dp_net = stolen0;
    let dp_hist = train_victim_with_workers(&mut dp_net, d.train(), &cfg, workers).unwrap();

    assert_eq!(seq_hist.len(), dp_hist.len());
    for (s, p) in seq_hist.iter().zip(&dp_hist) {
        assert!(
            (s.train_loss - p.train_loss).abs() <= tol,
            "W={workers} epoch {}: sequential loss {} vs engine {}",
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

    // Both stolen models predict identically after fine-tuning.
    let batch = d.test().as_batch();
    let ys = seq_net.forward(&batch.images, Mode::Eval).unwrap();
    let yp = dp_net.forward(&batch.images, Mode::Eval).unwrap();
    assert!(
        max_abs_diff(&ys, &yp) <= tol.max(1e-4),
        "W={workers} logits diverged"
    );
}

#[test]
fn one_worker_is_bit_identical_to_sequential() {
    pin_threads();
    // W = 1: one whole-batch shard, identity stat merge, single-shard
    // gradient fold — the engine must reproduce the sequential loop bit
    // for bit, not just within tolerance.
    assert_attack_parity(1, 50);
}

#[test]
fn two_workers_match_sequential() {
    pin_threads();
    assert_attack_parity(2, 51);
}

#[test]
fn four_workers_match_sequential() {
    pin_threads();
    assert_attack_parity(4, 52);
}

#[test]
fn end_to_end_outcome_matches_sequential_reference() {
    pin_threads();
    let d = data();
    let tb = deployed_model(&d, 53);
    let cfg = cfg(2);

    // The sequential attacker: the same stolen branch trained by the
    // reference loop on the same stratified subset, which
    // `fine_tune_attack_with_workers` draws from `cfg.seed ^ 0x5eed_a77a`.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_a77a);
    let subset = d.train().stratified_fraction(0.5, &mut rng);
    let mut seq_net = tb.extract_unsecured_branch();
    train_victim_seq(&mut seq_net, &subset, &cfg);
    let seq_accuracy = evaluate(&mut seq_net, d.test()).unwrap();

    for w in [1usize, 2, 4] {
        let dp = fine_tune_attack_with_workers(&tb, d.train(), d.test(), 0.5, &cfg, w).unwrap();
        assert_eq!(dp.workers, w);
        assert_eq!(dp.samples_used, subset.len());
        assert!(
            (dp.accuracy - seq_accuracy).abs() <= parity_tol(w),
            "W={w}: attack accuracy {} vs sequential {seq_accuracy}",
            dp.accuracy
        );
    }
}

#[test]
fn auto_policy_respects_thread_cap_and_is_deterministic() {
    pin_threads();
    let d = data();
    let stolen = deployed_model(&d, 54).extract_unsecured_branch();
    let sgd = Sgd::new(0.05, 0.9, 1e-4).unwrap();

    let w1 = WorkerPolicy::Auto
        .resolve(&stolen, d.train(), 16, &sgd, 0.0)
        .unwrap();
    assert!(
        (1..=par::max_threads()).contains(&w1),
        "Auto resolved to {w1}, cap {}",
        par::max_threads()
    );

    // The probe result is memoized per (model widths, batch, cap), so
    // repeated resolutions are deterministic even though timings are noisy.
    let w2 = WorkerPolicy::Auto
        .resolve(&stolen, d.train(), 16, &sgd, 0.0)
        .unwrap();
    assert_eq!(w1, w2, "Auto must resolve deterministically in-process");

    // Under TBNET_THREADS=1 (the CI matrix' single-thread leg) the
    // candidate set collapses to {1}: no probe, fully deterministic.
    if std::env::var("TBNET_THREADS").as_deref() == Ok("1") {
        assert_eq!(w1, 1, "a single-thread cap must resolve to one worker");
    }
}

#[test]
fn auto_policy_trains_identically_to_its_resolved_fixed_count() {
    pin_threads();
    let d = data();
    let stolen0 = deployed_model(&d, 55).extract_unsecured_branch();
    let cfg = cfg(2);
    let sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay).unwrap();
    let resolved = WorkerPolicy::Auto
        .resolve(&stolen0, d.train(), cfg.batch_size, &sgd, 0.0)
        .unwrap();

    // Auto is a worker-count chooser, not a different algorithm: training
    // under Auto must equal training under Fixed(resolved) bit for bit.
    let mut auto_net = stolen0.clone();
    let auto_hist =
        train_victim_with_workers(&mut auto_net, d.train(), &cfg, WorkerPolicy::Auto).unwrap();
    let mut fixed_net = stolen0;
    let fixed_hist = train_victim_with_workers(&mut fixed_net, d.train(), &cfg, resolved).unwrap();

    for (a, f) in auto_hist.iter().zip(&fixed_hist) {
        assert_eq!(a.train_loss, f.train_loss);
    }
    for (a, f) in collect_params(&mut auto_net)
        .iter()
        .zip(&collect_params(&mut fixed_net))
    {
        assert_eq!(max_abs_diff(a, f), 0.0);
    }
}

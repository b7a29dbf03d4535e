//! Training-engine report: times each training phase's single entry point
//! — victim training, knowledge transfer, the pruning fine-tune and the
//! attacker's fine-tune — at W ∈ {1, 2, 4} workers on a paper-shaped
//! workload, and writes `BENCH_train.json` at the repo root (or the path
//! given as the first argument). Besides throughput and the speedup over
//! W = 1, the report records the maximum per-epoch loss deviation from the
//! W = 1 run — one worker is the sequential loop bit for bit, and the
//! parity suites pin the deviation at 1e-5 — and the worker count
//! `WorkerPolicy::Auto` resolves to for each phase on this host.
//!
//! Run with `cargo run --release -p tbnet-bench --bin train`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use tbnet_core::dp_train::{clear_autotune_cache, DpTrainable, WorkerPolicy};
use tbnet_core::pruning::{build_masks, composite_scores, prune_two_branch_once};
use tbnet_core::train::{train_victim_with_workers, TrainConfig};
use tbnet_core::transfer::{train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, ImageDataset, SyntheticCifar};
use tbnet_models::{vgg, ChainNet};
use tbnet_nn::optim::Sgd;
use tbnet_tensor::par;

#[derive(Debug, Clone, Serialize)]
struct TrainResult {
    phase: String,
    engine: String,
    workers: usize,
    seconds: f64,
    samples_per_sec: f64,
    speedup_vs_w1: f64,
    max_epoch_loss_delta: f32,
    final_loss: f32,
}

/// Worker count `WorkerPolicy::Auto` committed to for one phase.
#[derive(Debug, Clone, Serialize)]
struct AutoWorkers {
    phase: String,
    workers: usize,
}

#[derive(Debug, Serialize)]
struct TrainReport {
    report: String,
    threads: usize,
    pool_workers: usize,
    epochs: usize,
    batch_size: usize,
    train_samples: usize,
    note: String,
    auto_workers: Vec<AutoWorkers>,
    results: Vec<TrainResult>,
}

/// Resolves `WorkerPolicy::Auto` for one phase and records the commitment.
fn auto_choice<M: DpTrainable>(
    phase: &str,
    model: &M,
    data: &ImageDataset,
    batch_size: usize,
    lambda: f32,
) -> AutoWorkers {
    let sgd = Sgd::new(0.05, 0.9, 1e-4).expect("probe optimizer");
    let workers = WorkerPolicy::Auto
        .resolve(model, data, batch_size, &sgd, lambda)
        .expect("auto worker resolution");
    println!("{phase:9} WorkerPolicy::Auto → W={workers}");
    AutoWorkers {
        phase: phase.to_string(),
        workers,
    }
}

/// Times one phase's entry point at W ∈ {1, 2, 4} from identical initial
/// state, appending one row per run. `train` runs the phase at the given
/// worker count and returns its per-epoch losses. Returns the W = 1 model,
/// which later phases start from.
fn bench_phase<M: Clone>(
    phase: &str,
    model0: &M,
    samples: usize,
    train: impl Fn(&mut M, usize) -> Vec<f32>,
    results: &mut Vec<TrainResult>,
) -> M {
    // Untimed warm-up run: absorbs pool spin-up and scratch-arena growth
    // for this phase's shapes, so the first timed row is not the cold one.
    train(&mut model0.clone(), 1);
    let mut w1: Option<(f64, Vec<f32>, M)> = None;
    for workers in [1usize, 2, 4] {
        let t0 = Instant::now();
        let mut model = model0.clone();
        let losses = train(&mut model, workers);
        let secs = t0.elapsed().as_secs_f64();
        let (w1_secs, w1_losses, _) =
            w1.get_or_insert_with(|| (secs, losses.clone(), model.clone()));
        let delta = w1_losses
            .iter()
            .zip(&losses)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let final_loss = *losses.last().expect("at least one epoch");
        println!(
            "{phase:9} W={workers} {secs:7.2} s | {:8.1} samples/s | {:.2}x vs W=1 | final loss {final_loss:.4} | max loss Δ {delta:.2e}",
            samples as f64 / secs,
            *w1_secs / secs
        );
        results.push(TrainResult {
            phase: phase.to_string(),
            engine: "data-parallel".into(),
            workers,
            seconds: secs,
            samples_per_sec: samples as f64 / secs,
            speedup_vs_w1: *w1_secs / secs,
            max_epoch_loss_delta: delta,
            final_loss,
        });
    }
    w1.expect("the W = 1 run comes first").2
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_train.json".to_string());

    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(4)
            .with_train_per_class(64)
            .with_test_per_class(8)
            .with_size(16, 16)
            .with_noise_std(0.3),
    );
    let spec = vgg::vgg_from_stages("bench-train", &[(16, 1), (32, 1)], 4, 3, (16, 16));
    let mut rng = StdRng::seed_from_u64(0);
    let net0 = ChainNet::from_spec(&spec, &mut rng).expect("bench spec is valid");
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 32,
        ..TrainConfig::paper_scaled(2)
    };
    let mut results = Vec::new();
    let mut auto = Vec::new();

    let samples = data.train().len() * cfg.epochs;
    let victim_losses = |net: &mut ChainNet, w: usize| {
        train_victim_with_workers(net, data.train(), &cfg, w)
            .expect("victim training")
            .iter()
            .map(|e| e.train_loss)
            .collect::<Vec<f32>>()
    };

    // Phase ⓪ — victim training.
    auto.push(auto_choice(
        "victim",
        &net0,
        data.train(),
        cfg.batch_size,
        0.0,
    ));
    let victim = bench_phase("victim", &net0, samples, victim_losses, &mut results);

    // Phase ② — knowledge transfer over the two-branch model (roughly 2×
    // the victim's work per sample: both branches train).
    let tb0 = TwoBranchModel::from_victim(&victim, &mut rng).expect("two-branch init");
    let tcfg = TransferConfig {
        epochs: 2,
        batch_size: 32,
        ..TransferConfig::paper_scaled(2)
    };
    let transfer_losses = |model: &mut TwoBranchModel, w: usize| {
        train_two_branch_with_workers(model, data.train(), &tcfg, w)
            .expect("two-branch training")
            .iter()
            .map(|e| e.ce_loss)
            .collect::<Vec<f32>>()
    };
    auto.push(auto_choice(
        "transfer",
        &tb0,
        data.train(),
        tcfg.batch_size,
        tcfg.lambda,
    ));
    let transferred = bench_phase("transfer", &tb0, samples, transfer_losses, &mut results);

    // The attacker's fine-tune — a ChainNet training of the stolen M_R
    // through the victim entry point — timed below on the full training
    // set.
    let stolen0 = transferred.extract_unsecured_branch();

    // Phases ③–⑤ — the pruning fine-tune: one composite-weight pruning
    // iteration, then the transfer entry point on the narrowed model
    // (mask-preserving steps).
    let scores = composite_scores(&transferred).expect("composite scores");
    let masks = build_masks(&transferred, &scores, 0.25, 2).expect("masks");
    let mut pruned = transferred;
    prune_two_branch_once(&mut pruned, &masks).expect("prune");
    auto.push(auto_choice(
        "finetune",
        &pruned,
        data.train(),
        tcfg.batch_size,
        tcfg.lambda,
    ));
    bench_phase("finetune", &pruned, samples, transfer_losses, &mut results);

    // Attack phase (paper Fig. 2's attacker at 100% data availability).
    auto.push(auto_choice(
        "attack",
        &stolen0,
        data.train(),
        cfg.batch_size,
        0.0,
    ));
    bench_phase("attack", &stolen0, samples, victim_losses, &mut results);

    // The phase probes above warmed the autotune cache; drop it so a rerun
    // of the binary in the same process (tests) re-measures.
    clear_autotune_cache();

    let report = TrainReport {
        report: "training-engine".to_string(),
        threads: par::max_threads(),
        pool_workers: par::pool_workers(),
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        train_samples: data.train().len(),
        note: "wall clock per full training run, for all four phases \
               (victim / transfer / fine-tune on a pruned model / attacker \
               fine-tune of the stolen branch), each through its single \
               entry point on the generic data-parallel engine, which \
               shards each minibatch across model replicas with \
               synchronized BatchNorm statistics. W = 1 is the sequential \
               loop bit for bit, so speedup_vs_w1 and \
               max_epoch_loss_delta are measured against it; the delta \
               stays within f32 rounding. auto_workers records what \
               WorkerPolicy::Auto resolved to per phase on this host. \
               Speedups require multiple cores (threads=1 shows sync \
               overhead only)."
            .to_string(),
        auto_workers: auto,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_train.json");
    println!("wrote {out_path}");
}

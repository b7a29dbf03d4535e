//! Quality ablations for TBNet's design choices:
//!
//! 1. composite BN scoring (`|γ_R| + |γ_T|`) vs. single-branch scoring;
//! 2. rollback depth (0 = no divergence, 1 = paper, 2 = wider `M_R`);
//! 3. sparsity weight λ sweep (prunability vs accuracy);
//! 4. world-switch-cost sensitivity of the split execution.
//!
//! ```sh
//! TBNET_SCALE=quick cargo run --release -p tbnet-bench --bin ablations
//! ```

use rand::SeedableRng;

use tbnet_bench::experiments::{pct, ModelKind, Scale};
use tbnet_bench::table::TextTable;
use tbnet_core::attack::direct_use_attack;
use tbnet_core::pruning::{build_masks, composite_scores, prune_two_branch_once, total_channels};
use tbnet_core::train::{train_victim_with_workers, TrainConfig};
use tbnet_core::transfer::{evaluate_two_branch, train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{vgg, ChainNet};
use tbnet_tee::{simulate_baseline, simulate_two_branch, CostModel};
use tbnet_tensor::par;

fn fresh_model(scale: &Scale, data: &SyntheticCifar) -> TwoBranchModel {
    let spec = ModelKind::Vgg18.spec(data.train().classes());
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut victim = ChainNet::from_spec(&spec, &mut rng).expect("victim");
    train_victim_with_workers(
        &mut victim,
        data.train(),
        &TrainConfig::paper_scaled(scale.victim_epochs),
        1,
    )
    .expect("victim training");
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).expect("two-branch");
    train_two_branch_with_workers(
        &mut tb,
        data.train(),
        &TransferConfig::paper_scaled(scale.transfer_epochs),
        par::max_threads(),
    )
    .expect("transfer");
    tb
}

fn prune_once_with(
    tb: &mut TwoBranchModel,
    scores: Vec<Vec<f32>>,
    data: &SyntheticCifar,
    scale: &Scale,
) -> f32 {
    let masks = build_masks(tb, &scores, 0.2, 2).expect("masks");
    prune_two_branch_once(tb, &masks).expect("prune");
    train_two_branch_with_workers(
        tb,
        data.train(),
        &TransferConfig::paper_scaled(scale.finetune_epochs.max(1)),
        par::max_threads(),
    )
    .expect("fine-tune");
    evaluate_two_branch(tb, data.test()).expect("eval")
}

fn ablation_scoring(scale: &Scale, data: &SyntheticCifar) {
    println!("\n== Ablation 1: pruning criterion (20% single shot) ==");
    let base = fresh_model(scale, data);
    let mut t = TextTable::new(&["criterion", "acc after prune+finetune %", "channels"]);

    let mut composite = base.clone();
    let s = composite_scores(&composite).expect("scores");
    let acc = prune_once_with(&mut composite, s, data, scale);
    t.row(&[
        "composite |γ_R|+|γ_T| (paper)".into(),
        pct(acc),
        total_channels(&composite).to_string(),
    ]);

    let mut single = base.clone();
    let s: Vec<Vec<f32>> = single
        .mt()
        .units()
        .iter()
        .map(|u| {
            u.bn()
                .gamma()
                .value
                .as_slice()
                .iter()
                .map(|g| g.abs())
                .collect()
        })
        .collect();
    let acc = prune_once_with(&mut single, s, data, scale);
    t.row(&[
        "single branch |γ_T| only".into(),
        pct(acc),
        total_channels(&single).to_string(),
    ]);
    println!("{}", t.render());
}

fn ablation_rollback(scale: &Scale, data: &SyntheticCifar) {
    println!("\n== Ablation 2: rollback depth ==");
    // Run two manual pruning iterations, keeping the M_R snapshots.
    let mut tb = fresh_model(scale, data);
    let snap0 = (tb.mr().clone(), tb.mr_book().clone());
    let s = composite_scores(&tb).expect("scores");
    prune_once_with(&mut tb, s, data, scale);
    let snap1 = (tb.mr().clone(), tb.mr_book().clone());
    let s = composite_scores(&tb).expect("scores");
    prune_once_with(&mut tb, s, data, scale);
    let snap2 = (tb.mr().clone(), tb.mr_book().clone());

    let mut t = TextTable::new(&[
        "rollback depth",
        "TBNet %",
        "attack %",
        "M_R channels",
        "M_T channels",
    ]);
    for (depth, (mr, book)) in [(0usize, snap2), (1, snap1), (2, snap0)] {
        let mut variant = tb.clone();
        variant
            .finalize_with_rollback(mr, book)
            .expect("finalization");
        let acc = evaluate_two_branch(&mut variant, data.test()).expect("eval");
        let attack = direct_use_attack(&variant, data.test()).expect("attack");
        let mr_ch: usize = variant.mr().units().iter().map(|u| u.out_channels()).sum();
        t.row(&[
            format!("{depth} (paper = 1)"),
            pct(acc),
            pct(attack),
            mr_ch.to_string(),
            total_channels(&variant).to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn ablation_lambda(scale: &Scale, data: &SyntheticCifar) {
    println!("\n== Ablation 3: sparsity weight λ ==");
    let spec = ModelKind::Vgg18.spec(data.train().classes());
    let mut t = TextTable::new(&["lambda", "train acc %", "frac |γ| < 0.1 (prunable mass)"]);
    for lambda in [0.0f32, 1e-5, 1e-4, 1e-3] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut victim = ChainNet::from_spec(&spec, &mut rng).expect("victim");
        train_victim_with_workers(
            &mut victim,
            data.train(),
            &TrainConfig::paper_scaled(scale.victim_epochs),
            1,
        )
        .expect("victim training");
        let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).expect("two-branch");
        let history = train_two_branch_with_workers(
            &mut tb,
            data.train(),
            &TransferConfig::paper_scaled(scale.transfer_epochs).with_lambda(lambda),
            par::max_threads(),
        )
        .expect("transfer");
        let report = tbnet_core::analysis::bn_weight_report(&tb, 10);
        let frac = (report.mr.frac_small + report.mt.frac_small) / 2.0;
        t.row(&[
            format!("{lambda:.0e}"),
            pct(history.last().expect("history").train_acc),
            format!("{frac:.3}"),
        ]);
    }
    println!("{}", t.render());
}

fn ablation_switch_cost() {
    println!("\n== Ablation 4: world-switch cost sensitivity ==");
    let spec = vgg::vgg_tiny(10, 3, (16, 16));
    let mut t = TextTable::new(&["switch cost (µs)", "baseline (ms)", "TBNet (ms)", "speedup"]);
    for us in [10.0f64, 60.0, 200.0, 1000.0, 5000.0] {
        let mut cost = CostModel::raspberry_pi3();
        cost.world_switch_s = us * 1e-6;
        let base = simulate_baseline(&spec, &cost).expect("baseline");
        let tb = simulate_two_branch(&spec, &spec, &cost).expect("two-branch");
        t.row(&[
            format!("{us:.0}"),
            format!("{:.3}", base.total_s * 1e3),
            format!("{:.3}", tb.total_s * 1e3),
            format!("{:.2}x", base.total_s / tb.total_s),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("scale: {}", scale.name);
    // Ablations use a reduced dataset: the comparisons are relative.
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_train_per_class(60)
            .with_test_per_class(20),
    );
    ablation_scoring(&scale, &data);
    ablation_rollback(&scale, &data);
    ablation_lambda(&scale, &data);
    ablation_switch_cost();
}

//! Step-by-step TBNet protection of a residual victim (ResNet-20 family),
//! driving each pipeline stage manually instead of using
//! [`tbnet_core::pipeline::run_pipeline`].
//!
//! ```sh
//! cargo run --release --example protect_resnet
//! ```
//!
//! Residual victims are the interesting case: the unsecured branch `M_R` is
//! initialized from the *main branch only* (skips stripped), so the stolen
//! model is architecturally crippled — the paper's Table 1 shows a 10%
//! (random-chance) direct-use accuracy for ResNet-20 on CIFAR-10.

use rand::SeedableRng;

use tbnet_core::attack::direct_use_attack;
use tbnet_core::pruning::{iterative_prune_with_workers, PruneConfig};
use tbnet_core::train::{evaluate, train_victim_with_workers, TrainConfig};
use tbnet_core::transfer::{evaluate_two_branch, train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{resnet, ChainNet};
use tbnet_tensor::par;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_train_per_class(40)
            .with_test_per_class(15),
    );
    let spec = resnet::resnet20_tiny(data.train().classes(), 3, (16, 16));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Step 0 — the vendor's victim model.
    println!("[0] training the ResNet-20 victim…");
    let mut victim = ChainNet::from_spec(&spec, &mut rng)?;
    train_victim_with_workers(&mut victim, data.train(), &TrainConfig::paper_scaled(5), 1)?;
    let victim_acc = evaluate(&mut victim, data.test())?;
    println!("    victim accuracy: {:.1}%", victim_acc * 100.0);

    // Step 1 — two-branch initialization.
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng)?;
    let mr_skips = tb
        .mr()
        .units()
        .iter()
        .filter(|u| u.spec().skip_from.is_some())
        .count();
    let mt_skips = tb
        .mt()
        .units()
        .iter()
        .filter(|u| u.spec().skip_from.is_some())
        .count();
    println!("[1] two-branch init: M_R skips = {mr_skips}, M_T skips = {mt_skips}");

    // Step 2 — knowledge transfer (Eq. 1).
    println!("[2] knowledge transfer…");
    let history = train_two_branch_with_workers(
        &mut tb,
        data.train(),
        &TransferConfig::paper_scaled(6),
        par::max_threads(),
    )?;
    println!(
        "    CE loss {:.3} → {:.3}",
        history.first().unwrap().ce_loss,
        history.last().unwrap().ce_loss
    );

    // Steps 3–5 — iterative two-branch pruning.
    println!("[3-5] iterative pruning…");
    let mut prune = PruneConfig::paper_scaled(1);
    prune.max_iterations = 3;
    prune.ratio = 0.12;
    prune.drop_budget = 0.08;
    let outcome = iterative_prune_with_workers(
        &mut tb,
        data.train(),
        data.test(),
        victim_acc,
        &prune,
        par::max_threads(),
    )?;
    for it in &outcome.history {
        println!(
            "    iter {}: {} channels, acc {:.1}% ({})",
            it.iteration,
            it.channels_after,
            it.accuracy * 100.0,
            if it.kept { "kept" } else { "reverted" }
        );
    }

    // Step 6 — rollback finalization.
    tb.finalize_with_rollback(outcome.rollback_mr, outcome.rollback_mr_book)?;
    println!("[6] rollback finalization done (M_R is one iteration wider than M_T)");

    let tbnet_acc = evaluate_two_branch(&mut tb, data.test())?;
    let attack_acc = direct_use_attack(&tb, data.test())?;
    println!("TBNet accuracy   : {:.1}%", tbnet_acc * 100.0);
    println!(
        "direct-use attack: {:.1}%  (chance = 10%)",
        attack_acc * 100.0
    );
    Ok(())
}

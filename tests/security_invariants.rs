//! Security-property integration tests: the design requirements of the paper
//! (§3.1) hold in the implementation, not just in the prose.

use rand::SeedableRng;

use tbnet_core::transfer::{train_two_branch_with_workers, TransferConfig};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{resnet, vgg, ChainNet};
use tbnet_tee::channel::one_way_bounded;
use tbnet_tee::{Deployment, SecureWorld};
use tbnet_tensor::par;

fn data() -> SyntheticCifar {
    SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(4)
            .with_train_per_class(12)
            .with_test_per_class(6)
            .with_size(12, 12)
            .with_noise_std(1.0),
    )
}

/// Requirement: one-way context switch. The channel types make TEE→REE
/// traffic unwritable; this test documents the API surface.
#[test]
fn channel_is_one_way_by_construction() {
    let (ree, tee) = one_way_bounded::<Vec<f32>>(1);
    ree.send(vec![1.0], 4);
    assert_eq!(tee.recv(), Some(vec![1.0]));
    // `tee` has no send method and `ree` has no recv method. The following
    // lines do not compile (kept as documentation):
    // tee.send(vec![2.0], 4);
    // ree.recv();
}

/// Requirement: TEE contents are a black box. The secure world exposes only
/// opaque handles and byte counts — no weight accessors exist.
#[test]
fn secure_world_does_not_leak_contents() {
    let mut world = SecureWorld::new(64 << 20);
    let spec = vgg::vgg_tiny(10, 3, (16, 16));
    let handle = world.load_model(&spec, Deployment::SecureBranch).unwrap();
    // All an observer gets is sizes.
    let fp = world.footprint(handle).unwrap();
    assert!(fp.total() > 0);
}

/// Requirement: reduced confidentiality exposure. After knowledge transfer,
/// the weights visible in REE (`M_R`) are no longer the victim's weights.
#[test]
fn transfer_moves_mr_away_from_victim_weights() {
    let d = data();
    let spec = vgg::vgg_from_stages("v", &[(8, 1), (8, 1)], 4, 3, (12, 12));
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();

    let victim_w = victim.units()[0].conv().weight().value.clone();
    // Before transfer M_R *is* the victim.
    assert_eq!(
        tb.mr().units()[0].conv().weight().value.as_slice(),
        victim_w.as_slice()
    );
    train_two_branch_with_workers(
        &mut tb,
        d.train(),
        &TransferConfig::paper_scaled(3),
        par::max_threads(),
    )
    .unwrap();
    let drift: f32 = tb.mr().units()[0]
        .conv()
        .weight()
        .value
        .as_slice()
        .iter()
        .zip(victim_w.as_slice())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(drift > 0.0, "M_R weights did not move off the victim's");
}

/// Requirement: architectural confidentiality. A finalized deployment never
/// has `M_R` and `M_T` with identical channel widths when pruning succeeded,
/// and `M_R` carries no skip metadata for residual victims.
#[test]
fn resnet_mr_exposes_no_residual_architecture() {
    let d = data();
    let spec = resnet::resnet_from_stages("r", &[8, 10], 2, 4, 3, (12, 12));
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
    let stolen = tb.extract_unsecured_branch();
    assert!(stolen.spec().units.iter().all(|u| u.skip_from.is_none()));
    let _ = d;
}

/// Requirement: the TBNet output comes from the TEE. The REE-side classifier
/// (victim leftover inside `M_R`) receives no gradient during transfer, so
/// an attacker cannot read a trained classifier out of REE memory.
#[test]
fn ree_classifier_receives_no_training_signal() {
    let d = data();
    let spec = vgg::vgg_from_stages("v", &[(8, 1)], 4, 3, (12, 12));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let mut tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
    train_two_branch_with_workers(
        &mut tb,
        d.train(),
        &TransferConfig::paper_scaled(2),
        par::max_threads(),
    )
    .unwrap();
    assert_eq!(tb.mr().head().linear().weight().grad.l1_norm(), 0.0);
}

/// The secure world enforces its budget: an oversized secure branch is
/// rejected rather than silently spilling to normal memory.
#[test]
fn oversized_secure_branch_rejected() {
    let mut world = SecureWorld::new(1024); // 1 KiB
    let spec = vgg::vgg_tiny(10, 3, (16, 16));
    assert!(world.load_model(&spec, Deployment::SecureBranch).is_err());
    assert_eq!(world.used(), 0);
}

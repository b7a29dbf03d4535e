//! Ablation benchmarks for the design choices `bin/ablations` evaluates:
//! mask-construction cost under composite vs single-branch scoring, and
//! executor sensitivity to the world-switch cost (ablation 4).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use tbnet_core::pruning::{build_masks, composite_scores};
use tbnet_core::TwoBranchModel;
use tbnet_models::{vgg, ChainNet};
use tbnet_tee::{simulate_two_branch, CostModel};

fn bench_ablations(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let spec = vgg::vgg18(10, 3, (32, 32));
    let victim = ChainNet::from_spec(&spec, &mut rng).unwrap();
    let tb = TwoBranchModel::from_victim(&victim, &mut rng).unwrap();
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    // Ablation 1: composite (γ_R + γ_T) vs single-branch scoring cost.
    g.bench_function("composite scoring + masks (vgg18)", |b| {
        b.iter(|| {
            let scores = composite_scores(&tb).unwrap();
            build_masks(&tb, &scores, 0.1, 2).unwrap()
        })
    });
    g.bench_function("single-branch scoring + masks (vgg18)", |b| {
        b.iter(|| {
            let scores: Vec<Vec<f32>> = tb
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
            build_masks(&tb, &scores, 0.1, 2).unwrap()
        })
    });

    // Ablation 4: world-switch cost sensitivity of the split execution.
    let tiny = vgg::vgg_tiny(10, 3, (16, 16));
    for switch_us in [10u64, 60, 200, 1000] {
        g.bench_with_input(
            BenchmarkId::new("two-branch latency sim, switch µs", switch_us),
            &switch_us,
            |b, &us| {
                let mut cost = CostModel::raspberry_pi3();
                cost.world_switch_s = us as f64 * 1e-6;
                b.iter(|| simulate_two_branch(&tiny, &tiny, &cost).unwrap())
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);

//! Planner invariants: the deployment auto-optimizer must never emit a plan
//! the SLO or the physics contradicts.
//!
//! * the SLO search never returns a violating plan, across model families;
//! * the calibrated simulator brackets a live `ServeEngine` run's
//!   throughput within the stated tolerance.

use std::time::Duration;

use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_core::planner::{optimize_deployment, validate_against_live, SearchSpace, Slo};
use tbnet_core::serve::{ServeConfig, ServeEngine};
use tbnet_core::CoreError;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{resnet, vgg, ModelSpec};
use tbnet_tee::CostModel;

fn zoo() -> Vec<ModelSpec> {
    vec![
        vgg::vgg_tiny(10, 3, (16, 16)),
        resnet::resnet20_tiny(10, 3, (16, 16)),
    ]
}

fn space() -> SearchSpace {
    SearchSpace {
        ratio: 0.2,
        min_channels: 2,
        max_prune_iters: 4,
        batches: vec![1, 2, 4, 8, 16],
    }
}

#[test]
fn search_never_returns_slo_violating_plan() {
    let cost = CostModel::raspberry_pi3();
    let slos = [
        Slo::new("generous", 10.0, 64 << 20, 0.0),
        Slo::new("latency-bound", 0.05, 64 << 20, 0.55),
        Slo::new("memory-bound", 10.0, 1 << 20, 0.45),
        Slo::new("balanced", 0.2, 4 << 20, 0.6),
    ];
    for victim in zoo() {
        for slo in &slos {
            match optimize_deployment(&victim, &space(), slo, &cost) {
                Ok(plan) => {
                    assert!(
                        plan.latency_s() <= slo.max_latency_s,
                        "{} / {}: latency {} over {}",
                        victim.name,
                        slo.name,
                        plan.latency_s(),
                        slo.max_latency_s
                    );
                    assert!(plan.secure_bytes() <= slo.secure_memory_bytes);
                    assert!(plan.capacity_retention >= slo.min_capacity_retention);
                    assert!(plan.rollback <= plan.prune_iters);
                    // The winning architectures stay simulatable and loadable.
                    plan.mt_spec.trace().unwrap();
                    plan.mr_spec.trace().unwrap();
                }
                Err(CoreError::NoFeasiblePlan { explored, .. }) => {
                    // Infeasibility must come with evidence of a real search.
                    assert!(explored > 0, "{}: empty search", slo.name);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
}

#[test]
fn calibrated_simulator_brackets_live_serving_throughput() {
    // A short live ServeEngine run on a trained smoke deployment; the
    // planner's validation hook must bracket its measured throughput.
    // Sized like `bin/plan`'s live section so per-batch compute dominates
    // the fixed per-batch costs the stage timers cannot see (linger,
    // condvar wakeups, hand-offs). A smaller model makes release-mode
    // compute so short that those costs set the wall clock instead.
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(3)
            .with_train_per_class(10)
            .with_test_per_class(8)
            .with_size(16, 16)
            .with_noise_std(0.25),
    );
    let spec = vgg::vgg_from_stages("planner-live", &[(16, 1), (16, 1)], 3, 3, (16, 16));
    let mut cfg = PipelineConfig::smoke();
    cfg.prune.drop_budget = 1.0;
    let artifacts = run_pipeline(&spec, &data, &cfg).expect("smoke pipeline trains");
    let model = artifacts.model;

    // Large batches with no linger: the burst below fills them without
    // waiting, which amortizes the fixed costs over 16 samples.
    let serve_cfg = ServeConfig {
        ree_workers: 1,
        max_batch: 16,
        batch_linger: Duration::ZERO,
        queue_high_water: 1024, // saturation load must not shed
        default_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let engine =
        ServeEngine::start(&model, serve_cfg, tbnet_tee::FaultPlan::none()).expect("engine starts");
    // Enough requests that the one-off costs (engine start, drain) stop
    // dominating the wall clock the stage timers cannot see.
    let requests = 320usize;
    let started = std::time::Instant::now();
    for i in 0..requests {
        let image = data.test().gather(&[i % data.test().len()]).images;
        engine.submit(&image).expect("admission accepts");
    }
    let report = engine.shutdown();
    let elapsed = started.elapsed().as_secs_f64();
    let completed = (report.counts.answered + report.counts.degraded) as f64;
    assert!(completed > 0.0, "live run completed nothing");
    assert!(
        report.mean_batch > 1.0,
        "a burst must fill batches without a linger, got mean batch {:.2}",
        report.mean_batch
    );
    let measured_qps = completed / elapsed.max(1e-9);

    let mt = model.mt().spec();
    let mr = model.mr().spec();
    let tolerance = 4.0; // debug or release build on an arbitrary host: a wide, stated bracket
    let validation = validate_against_live(&report, &mt, &mr, measured_qps, tolerance).unwrap();
    assert!(
        validation.predicted_serial_qps <= validation.predicted_pipelined_qps,
        "bracket inverted: serial {} > pipelined {}",
        validation.predicted_serial_qps,
        validation.predicted_pipelined_qps
    );
    assert!(
        validation.within_tolerance,
        "measured {:.1} qps outside [{:.1}, {:.1}] × tolerance {}",
        validation.measured_qps,
        validation.predicted_serial_qps,
        validation.predicted_pipelined_qps,
        tolerance
    );
}

//! Capacity-planning report: runs the deployment auto-optimizer under two
//! distinct SLOs and validates the calibrated simulator's throughput
//! bracket against a short live `ServeEngine` run. Writes `BENCH_plan.json`
//! at the repo root (or the path given as the first argument).
//!
//! The `plan|*` regression rows are **analytic**: they price architectures
//! against the fixed Raspberry-Pi-3 cost profile, so their values are exact
//! across machines and the CI gate can hold them tightly. The live section
//! is measured on the host and asserted in-process (bracket + tolerance),
//! not ratio-gated.
//!
//! Run with `cargo run --release -p tbnet-bench --bin plan`.

use std::time::{Duration, Instant};

use serde::Serialize;
use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_core::planner::{
    optimize_deployment, validate_against_live, CandidatePlan, LiveValidation, SearchSpace, Slo,
};
use tbnet_core::serve::{ServeConfig, ServeEngine};
use tbnet_core::TwoBranchModel;
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::vgg;
use tbnet_tee::{CostModel, FaultPlan};
use tbnet_tensor::{par, Tensor};

#[derive(Debug, Clone, Serialize)]
struct PlanRow {
    /// Section identifier (regression key: `plan|{plan}|{metric}`).
    plan: String,
    metric: String,
    value: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ChosenPlan {
    slo: String,
    max_latency_ms: f64,
    secure_memory_kib: usize,
    min_capacity_retention: f64,
    prune_iters: usize,
    rollback: usize,
    batch: usize,
    occupancy_per_request_us: f64,
    latency_ms: f64,
    secure_kib: f64,
    capacity_retention: f64,
    max_qps: f64,
}

#[derive(Debug, Serialize)]
struct PlanBenchReport {
    report: String,
    threads: usize,
    plans: Vec<ChosenPlan>,
    live_measured_qps: f64,
    live_predicted_serial_qps: f64,
    live_predicted_pipelined_qps: f64,
    live_tolerance: f64,
    live_within_tolerance: bool,
    results: Vec<PlanRow>,
    note: String,
}

fn row(plan: &str, metric: &str, value: f64) -> PlanRow {
    PlanRow {
        plan: plan.to_string(),
        metric: metric.to_string(),
        value,
    }
}

fn chosen(slo: &Slo, plan: &CandidatePlan) -> ChosenPlan {
    ChosenPlan {
        slo: slo.name.clone(),
        max_latency_ms: slo.max_latency_s * 1e3,
        secure_memory_kib: slo.secure_memory_bytes >> 10,
        min_capacity_retention: slo.min_capacity_retention,
        prune_iters: plan.prune_iters,
        rollback: plan.rollback,
        batch: plan.batch,
        occupancy_per_request_us: plan.occupancy_per_request_s() * 1e6,
        latency_ms: plan.latency_s() * 1e3,
        secure_kib: plan.secure_bytes() as f64 / 1024.0,
        capacity_retention: plan.capacity_retention,
        max_qps: plan.max_qps(),
    }
}

/// A trained deployment for the live-validation section (same recipe as the
/// serve bench, sized so per-batch compute dominates scheduling overhead).
fn trained_deployment() -> (TwoBranchModel, Vec<Tensor>) {
    let data = SyntheticCifar::generate(
        DatasetKind::Cifar10Like
            .config()
            .with_classes(3)
            .with_train_per_class(10)
            .with_test_per_class(8)
            .with_size(16, 16)
            .with_noise_std(0.25),
    );
    let spec = vgg::vgg_from_stages("plan-live", &[(16, 1), (16, 1)], 3, 3, (16, 16));
    let mut cfg = PipelineConfig::smoke();
    cfg.prune.drop_budget = 1.0;
    let artifacts = run_pipeline(&spec, &data, &cfg).expect("smoke pipeline trains");
    let images = (0..data.test().len())
        .map(|i| data.test().gather(&[i]).images)
        .collect();
    (artifacts.model, images)
}

/// Saturated live run: burst-submit everything, let the engine drain, and
/// validate the measured throughput against the calibrated bracket.
fn live_validation(tolerance: f64) -> LiveValidation {
    let (model, images) = trained_deployment();
    // Release-mode compute is µs-scale, so per-batch fixed costs the stage
    // timers cannot see (linger, condvar wakeups, handoffs) would dominate a
    // small-batch run: amortize them with a large max_batch and no linger
    // (burst submission fills batches without waiting).
    let cfg = ServeConfig {
        ree_workers: 1,
        max_batch: 16,
        batch_linger: Duration::ZERO,
        queue_high_water: 2048,
        default_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&model, cfg, FaultPlan::none()).expect("engine starts");
    let requests = 320usize;
    let started = Instant::now();
    for i in 0..requests {
        engine
            .submit(&images[i % images.len()])
            .expect("admission accepts while open");
    }
    let report = engine.shutdown();
    let elapsed = started.elapsed().as_secs_f64();
    let completed = (report.counts.answered + report.counts.degraded) as f64;
    assert!(completed as u64 == report.counts.admitted, "lost requests");
    let measured_qps = completed / elapsed.max(1e-9);
    validate_against_live(
        &report,
        &model.mt().spec(),
        &model.mr().spec(),
        measured_qps,
        tolerance,
    )
    .expect("live run calibrates")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_plan.json".to_string());
    let cost = CostModel::raspberry_pi3();
    let victim = vgg::vgg_tiny(10, 3, (16, 16));
    let space = SearchSpace {
        ratio: 0.2,
        min_channels: 2,
        max_prune_iters: 4,
        batches: vec![1, 2, 4, 8, 16],
    };

    // ---- Deployment auto-optimizer under two distinct SLOs. ----
    let slos = [
        Slo::new("interactive", 0.012, 32 << 20, 0.55),
        Slo::new("constrained", 0.5, 1 << 20, 0.45),
    ];
    let mut plans = Vec::new();
    let mut results = Vec::new();
    let mut tuples = Vec::new();
    for slo in &slos {
        let plan = optimize_deployment(&victim, &space, slo, &cost).expect("SLO is satisfiable");
        assert!(plan.latency_s() <= slo.max_latency_s);
        assert!(plan.secure_bytes() <= slo.secure_memory_bytes);
        println!(
            "{:<12} -> prune {} rollback {} batch {:>2} | occ {:.1} us/req | \
             latency {:.2} ms | {:.0} KiB | retention {:.2} | {:.0} qps/world",
            slo.name,
            plan.prune_iters,
            plan.rollback,
            plan.batch,
            plan.occupancy_per_request_s() * 1e6,
            plan.latency_s() * 1e3,
            plan.secure_bytes() as f64 / 1024.0,
            plan.capacity_retention,
            plan.max_qps(),
        );
        results.push(row(
            &slo.name,
            "occupancy_us",
            plan.occupancy_per_request_s() * 1e6,
        ));
        results.push(row(&slo.name, "latency_ms", plan.latency_s() * 1e3));
        results.push(row(
            &slo.name,
            "secure_kib",
            plan.secure_bytes() as f64 / 1024.0,
        ));
        tuples.push((plan.prune_iters, plan.rollback, plan.batch));
        plans.push((slo.clone(), plan));
    }
    assert_ne!(
        tuples[0], tuples[1],
        "the two SLOs must choose different (pruning, rollback, batch) plans"
    );

    // ---- Live validation of the simulator's throughput bracket. ----
    let tolerance = 2.0;
    let live = live_validation(tolerance);
    println!(
        "live: measured {:.0} qps vs calibrated bracket [{:.0}, {:.0}] x tolerance {} -> {}",
        live.measured_qps,
        live.predicted_serial_qps,
        live.predicted_pipelined_qps,
        live.tolerance,
        if live.within_tolerance {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(
        live.within_tolerance,
        "measured {:.1} qps escaped the calibrated bracket [{:.1}, {:.1}] x {}",
        live.measured_qps, live.predicted_serial_qps, live.predicted_pipelined_qps, live.tolerance
    );

    let report = PlanBenchReport {
        report: "plan".to_string(),
        threads: par::max_threads(),
        plans: plans.iter().map(|(s, p)| chosen(s, p)).collect(),
        live_measured_qps: live.measured_qps,
        live_predicted_serial_qps: live.predicted_serial_qps,
        live_predicted_pipelined_qps: live.predicted_pipelined_qps,
        live_tolerance: live.tolerance,
        live_within_tolerance: live.within_tolerance,
        results,
        note: "plan|* rows are analytic: the optimizer prices (pruning x \
               rollback x batch) candidates against the fixed Raspberry-Pi-3 \
               cost profile, so values are machine-exact and tightly gated. \
               The cost-like rows (occupancy, latency, footprint) are \
               ratio-gated. The two SLOs must pick different plan tuples \
               (asserted). The live section drives a saturated ServeEngine run \
               on a trained smoke deployment, calibrates the simulator from \
               its measured stage times, and asserts the measured throughput \
               inside the [serial floor, pipelined ceiling] bracket widened by \
               the stated tolerance; it is asserted in-process, not ratio-gated"
            .to_string(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_plan.json");
    println!("wrote {out_path}");
}

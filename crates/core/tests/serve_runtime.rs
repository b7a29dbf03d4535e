//! Healthy-path integration tests for the serving runtime: answer parity
//! with the single-threaded fused inference path, terminal-outcome
//! accounting, and calibration of the latency simulator from measured
//! stage times.

mod common;

use std::time::{Duration, Instant};

use tbnet_core::serve::{Outcome, ServeConfig, ServeEngine};
use tbnet_tee::FaultPlan;

#[test]
fn healthy_path_answers_match_fused_inference() {
    let (artifacts, _) = common::fixture();
    let mut reference = artifacts.model.clone();
    let engine = ServeEngine::start(
        &artifacts.model,
        ServeConfig::fast_test(),
        FaultPlan::none(),
    )
    .unwrap();
    assert!(engine.is_healthy());
    let n = 12usize;
    let ids: Vec<u64> = (0..n)
        .map(|i| engine.submit(&common::test_image(i)).unwrap())
        .collect();
    let report = engine.shutdown();

    assert_eq!(report.counts.admitted, n as u64);
    assert_eq!(
        report.counts.answered, n as u64,
        "a healthy run answers everything: {:?}",
        report.counts
    );
    assert_eq!(report.faults.total_injected(), 0);
    assert!(report.metrics.batches >= 1);
    assert_eq!(report.metrics.batch_samples, n as u64);
    assert!(report.metrics.channel_high_water >= 1);
    assert_eq!(report.metrics.channel_dropped, 0);
    assert_eq!(report.metrics.degraded_ns, 0, "nothing ran the fallback");
    assert!(report.latency_percentile(0.99) >= report.latency_percentile(0.5));

    for (i, id) in ids.iter().enumerate() {
        let c = report
            .completions
            .iter()
            .find(|c| c.id == *id)
            .expect("every admitted id completes");
        let Outcome::Answered {
            logits, latency_ms, ..
        } = &c.outcome
        else {
            panic!("request {i}: expected Answered, got {:?}", c.outcome);
        };
        assert!(*latency_ms > 0.0);
        let expect = reference.predict_fused(&common::test_image(i)).unwrap();
        let diff = logits
            .iter()
            .zip(expect.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff < 1e-4,
            "request {i}: served logits diverge from predict_fused by {diff}"
        );
    }
}

#[test]
fn zero_deadline_requests_expire_and_burst_overload_sheds() {
    let (artifacts, _) = common::fixture();
    let cfg = ServeConfig {
        queue_high_water: 4,
        ..ServeConfig::fast_test()
    };
    let engine = ServeEngine::start(&artifacts.model, cfg, FaultPlan::none()).unwrap();
    // Two requests that are already past their deadline when a worker
    // reaches them (submitted first, so both clear the high-water mark).
    for i in 0..2 {
        engine
            .submit_with_deadline(&common::test_image(i), Duration::ZERO)
            .unwrap();
    }
    // A burst far past the high-water mark: the queue cannot drain 60
    // requests within the submit loop, so some must be shed.
    for i in 0..60 {
        engine.submit(&common::test_image(i)).unwrap();
    }
    let report = engine.shutdown();
    assert_eq!(report.counts.admitted, 62);
    assert_eq!(report.completions.len(), 62, "no request may be lost");
    assert!(report.counts.expired >= 2, "{:?}", report.counts);
    assert!(report.counts.shed >= 1, "{:?}", report.counts);
    assert!(report.shed_rate() > 0.0);
    let sum = report.counts.answered
        + report.counts.degraded
        + report.counts.shed
        + report.counts.expired;
    assert_eq!(sum, report.counts.admitted);
}

#[test]
fn submit_rejects_non_single_sample_shapes() {
    let (artifacts, _) = common::fixture();
    let drain_timeout = Duration::from_secs(3);
    let cfg = ServeConfig {
        drain_timeout,
        ..ServeConfig::fast_test()
    };
    let engine = ServeEngine::start(&artifacts.model, cfg, FaultPlan::none()).unwrap();
    let bad = tbnet_tensor::Tensor::zeros(&[2, 3, 8, 8]);
    assert!(engine.submit(&bad).is_err(), "batched submits are rejected");
    let bad = tbnet_tensor::Tensor::zeros(&[3, 8]);
    assert!(engine.submit(&bad).is_err(), "rank-2 submits are rejected");
    // The deployed geometry is 3 × 8 × 8. A larger image passes every conv
    // unit and would panic the TEE consumer at the head; a wrong channel
    // count would panic the REE worker. Both are rejected at the boundary.
    for dims in [[1, 3, 16, 16], [1, 4, 8, 8]] {
        let bad = tbnet_tensor::Tensor::zeros(&dims);
        assert!(engine.submit(&bad).is_err(), "{dims:?} is rejected");
    }
    // The runtime is intact: a valid request is answered by the TEE and
    // shutdown drains without waiting for the hang guard.
    let id = engine.submit(&common::test_image(0)).unwrap();
    let t = Instant::now();
    let report = engine.shutdown();
    assert!(
        t.elapsed() < drain_timeout / 2,
        "shutdown took {:?}",
        t.elapsed()
    );
    assert_eq!(report.counts.admitted, 1);
    assert_eq!(report.completions.len(), 1);
    assert_eq!(report.completions[0].id, id);
    assert!(
        matches!(report.completions[0].outcome, Outcome::Answered { .. }),
        "{:?}",
        report.completions[0].outcome
    );
}

#[test]
fn submit_rejects_non_finite_pixels() {
    let (artifacts, _) = common::fixture();
    let engine = ServeEngine::start(
        &artifacts.model,
        ServeConfig::fast_test(),
        FaultPlan::none(),
    )
    .unwrap();
    for (k, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        let mut image = common::test_image(k);
        image.as_mut_slice()[7 * k + 1] = bad;
        assert!(
            engine.submit(&image).is_err(),
            "a {bad} pixel is rejected at the boundary"
        );
    }
    assert_eq!(
        engine.in_flight(),
        0,
        "rejected requests are not registered"
    );
    let id = engine.submit(&common::test_image(0)).unwrap();
    let report = engine.shutdown();
    assert_eq!(
        report.counts.admitted, 1,
        "rejected requests are not admitted"
    );
    assert_eq!(report.completions.len(), 1);
    assert_eq!(report.completions[0].id, id);
    assert!(
        matches!(report.completions[0].outcome, Outcome::Answered { .. }),
        "{:?}",
        report.completions[0].outcome
    );
    assert_eq!(
        report.metrics.degraded_ns, 0,
        "a healthy run never degrades"
    );
}

#[test]
fn lone_request_does_not_wait_out_the_linger() {
    // With no arrivals before it, a request is sparse traffic: its batch
    // dispatches at once instead of waiting for stragglers.
    let (artifacts, _) = common::fixture();
    let cfg = ServeConfig {
        batch_linger: Duration::from_millis(400),
        ..ServeConfig::fast_test()
    };
    let engine = ServeEngine::start(&artifacts.model, cfg, FaultPlan::none()).unwrap();
    engine.submit(&common::test_image(0)).unwrap();
    let report = engine.shutdown();
    assert_eq!(report.completions.len(), 1);
    let Outcome::Answered { latency_ms, .. } = report.completions[0].outcome else {
        panic!("expected Answered, got {:?}", report.completions[0].outcome);
    };
    assert!(
        latency_ms < 200.0,
        "a lone request waited {latency_ms:.1} ms against a 400 ms linger"
    );
}

#[test]
fn healthy_run_calibrates_the_simulator_from_measured_stages() {
    let (artifacts, _) = common::fixture();
    let engine = ServeEngine::start(
        &artifacts.model,
        ServeConfig::fast_test(),
        FaultPlan::none(),
    )
    .unwrap();
    for i in 0..16 {
        engine.submit(&common::test_image(i)).unwrap();
    }
    let report = engine.shutdown();
    assert_eq!(report.counts.answered, 16);
    assert!(report.mean_batch >= 1.0);
    assert!(report.measured_overlap > 0.0 && report.measured_overlap.is_finite());

    let mt_spec = artifacts.model.mt().spec();
    let mr_spec = artifacts.model.mr().spec();
    let v = report.validate_pipeline(&mt_spec, &mr_spec).unwrap();
    assert!(
        v.simulated_overlap >= 1.0,
        "the simulated two-branch schedule overlaps stages: {v:?}"
    );
    assert!(v.measured_overlap > 0.0);
    assert!(v.ratio.is_finite() && v.ratio > 0.0, "{v:?}");
    assert!(v.simulated.total_s > 0.0);
}

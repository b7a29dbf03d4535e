//! Deterministic seeded fault-injection tests for the serving runtime:
//! bounded monotone-backoff retries, exactly-once terminal outcomes under
//! a mixed fault schedule with a mid-run consumer crash, bitwise answers
//! under random payload corruption, and bitwise equivalence of the
//! graceful-degradation path with `predict_int8`.

mod common;

use std::collections::HashSet;
use std::time::Duration;

use tbnet_core::serve::{Outcome, ServeConfig, ServeEngine};
use tbnet_tee::FaultPlan;

#[test]
fn transient_switch_faults_retry_with_monotone_bounded_backoff() {
    let (artifacts, _) = common::fixture();
    // Keep the TEE trusted throughout so faults surface as send retries
    // rather than degraded routing.
    let cfg = ServeConfig {
        unhealthy_after: 1000,
        ..ServeConfig::fast_test()
    };
    let max_retries = cfg.max_send_retries;
    let plan = FaultPlan::seeded(11).with_world_switch_failure_rate(0.3);
    let engine = ServeEngine::start(&artifacts.model, cfg, plan).unwrap();
    for i in 0..16 {
        engine.submit(&common::test_image(i)).unwrap();
    }
    let report = engine.shutdown();

    assert_eq!(report.counts.admitted, 16);
    assert_eq!(
        report.counts.shed + report.counts.expired,
        0,
        "{:?}",
        report.counts
    );
    assert_eq!(
        report.counts.answered + report.counts.degraded,
        16,
        "{:?}",
        report.counts
    );
    assert!(report.faults.world_switch_failures >= 1);
    assert!(
        !report.metrics.retry_traces.is_empty(),
        "a 30% switch-failure rate must force at least one retry"
    );
    let mut total_backoffs = 0u64;
    for trace in &report.metrics.retry_traces {
        assert!(
            trace.len() <= max_retries as usize,
            "retry budget exceeded: {trace:?}"
        );
        assert!(
            trace.windows(2).all(|w| w[0] <= w[1]),
            "backoffs must be monotone non-decreasing: {trace:?}"
        );
        total_backoffs += trace.len() as u64;
    }
    assert_eq!(report.metrics.send_retries, total_backoffs);
}

#[test]
fn mixed_fault_schedule_with_consumer_crash_loses_no_request() {
    let (artifacts, _) = common::fixture();
    let cfg = ServeConfig {
        unhealthy_after: 50,
        ..ServeConfig::fast_test()
    };
    let plan = FaultPlan::seeded(5)
        .with_world_switch_failure_rate(0.15)
        .with_corrupt_payload_at(4)
        .with_consumer_stall_every(7, Duration::from_millis(3))
        .with_consumer_crash_at(10);
    let engine = ServeEngine::start(&artifacts.model, cfg, plan).unwrap();
    let mut submitted = HashSet::new();
    for i in 0..24 {
        submitted.insert(engine.submit(&common::test_image(i)).unwrap());
    }
    for i in 0..2 {
        submitted.insert(
            engine
                .submit_with_deadline(&common::test_image(i), Duration::ZERO)
                .unwrap(),
        );
    }
    let report = engine.shutdown();

    // Exactly-once accounting: every admitted request has one terminal
    // outcome, no duplicates, no strays, nothing lost.
    assert_eq!(report.counts.admitted, 26);
    assert_eq!(report.completions.len(), 26, "zero lost requests");
    let completed: HashSet<u64> = report.completions.iter().map(|c| c.id).collect();
    assert_eq!(completed.len(), 26, "no duplicate completions");
    assert_eq!(completed, submitted);
    let sum = report.counts.answered
        + report.counts.degraded
        + report.counts.shed
        + report.counts.expired;
    assert_eq!(sum, report.counts.admitted);
    assert!(report.counts.expired >= 2, "{:?}", report.counts);
    assert_eq!(
        report.metrics.forced_expired, 0,
        "drain must finish cleanly"
    );

    // The scripted faults actually fired and were recovered from.
    assert!(report.faults.crashes >= 1, "{:?}", report.faults);
    assert!(report.metrics.consumer_restarts >= 1);
    assert!(report.faults.corrupted_payloads >= 1);
    assert!(report.metrics.corruption_detected >= 1);
    assert!(report.faults.stalls >= 1);
    assert!(report.metrics.requeues >= 1);
}

/// Asserts `logits` equals `expect` bit for bit.
fn assert_bitwise(logits: &[f32], expect: &[f32], what: &str) {
    assert_eq!(logits.len(), expect.len(), "{what}");
    for (k, (a, b)) in logits.iter().zip(expect).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} logit {k}: {a} vs {b}");
    }
}

#[test]
fn random_payload_corruption_is_caught_and_answers_stay_bitwise() {
    let (artifacts, _) = common::fixture();
    let mut reference = artifacts.model.clone();
    for seed in 1..=3 {
        // Keep the TEE trusted throughout: a request leaves the healthy
        // path only when its requeue budget runs out.
        let cfg = ServeConfig {
            unhealthy_after: 1000,
            ..ServeConfig::fast_test()
        };
        let plan = FaultPlan::seeded(seed).with_corruption_rate(0.25);
        let engine = ServeEngine::start(&artifacts.model, cfg, plan).unwrap();
        let ids: Vec<u64> = (0..24)
            .map(|i| engine.submit(&common::test_image(i)).unwrap())
            .collect();
        let report = engine.shutdown();

        assert_eq!(report.counts.admitted, 24, "seed {seed}");
        assert_eq!(report.completions.len(), 24, "seed {seed}");
        let completed: HashSet<u64> = report.completions.iter().map(|c| c.id).collect();
        assert_eq!(completed, ids.iter().copied().collect(), "seed {seed}");
        // A corrupted payload queued behind an earlier failure in its batch
        // is dropped unchecked, so detections can fall short of injections.
        let (injected, detected) = (
            report.faults.corrupted_payloads,
            report.metrics.corruption_detected,
        );
        assert!(
            1 <= detected && detected <= injected,
            "seed {seed}: {detected} detected of {injected} corrupted"
        );

        // A single flipped mantissa bit would hide inside a tolerance, so
        // every answer is compared bit for bit with its reference path.
        for (i, id) in ids.iter().enumerate() {
            let c = report.completions.iter().find(|c| c.id == *id).unwrap();
            let image = common::test_image(i);
            let what = format!("seed {seed} request {i}");
            match &c.outcome {
                Outcome::Answered { logits, .. } => {
                    let expect = reference.predict_fused(&image).unwrap();
                    assert_bitwise(logits, expect.as_slice(), &what);
                }
                Outcome::Degraded { logits, .. } => {
                    let expect = reference.predict_int8(&image).unwrap();
                    assert_bitwise(logits, expect.as_slice(), &what);
                }
                other => panic!("{what}: expected an answer, got {other:?}"),
            }
        }
    }
}

#[test]
fn isolated_switch_failures_do_not_trip_the_breaker() {
    // `unhealthy_after` counts consecutive failures. Switch 0 is the
    // startup probe; the outages at switches 2 and 4 land on sends, and the
    // retry at switch 3 succeeds in between. The next probe is 300 ms away,
    // so only that successful send can end the first streak.
    let (artifacts, _) = common::fixture();
    let cfg = ServeConfig {
        unhealthy_after: 2,
        probe_interval: Duration::from_millis(300),
        ..ServeConfig::fast_test()
    };
    let plan = FaultPlan::seeded(1)
        .with_world_switch_outage(2, 1)
        .with_world_switch_outage(4, 1);
    let engine = ServeEngine::start(&artifacts.model, cfg, plan).unwrap();
    for i in 0..6 {
        engine.submit(&common::test_image(i)).unwrap();
    }
    let report = engine.shutdown();

    assert_eq!(
        report.faults.world_switch_failures, 2,
        "{:?}",
        report.faults
    );
    assert_eq!(
        report.metrics.unhealthy_transitions, 0,
        "two failures with a successful send between them tripped the breaker"
    );
    assert_eq!(report.counts.answered, 6, "{:?}", report.counts);
}

#[test]
fn unhealthy_tee_degrades_bitwise_to_predict_int8() {
    let (artifacts, _) = common::fixture();
    let mut reference = artifacts.model.clone();
    // Every world switch fails: the startup probe marks the TEE unhealthy
    // (fast_test has `unhealthy_after == 1`) before any request is seen.
    let plan = FaultPlan::seeded(3).with_world_switch_failure_rate(1.0);
    let engine = ServeEngine::start(&artifacts.model, ServeConfig::fast_test(), plan).unwrap();
    assert!(!engine.is_healthy(), "startup probe must trip the breaker");
    let n = 10usize;
    let ids: Vec<u64> = (0..n)
        .map(|i| engine.submit(&common::test_image(i)).unwrap())
        .collect();
    let report = engine.shutdown();

    assert_eq!(report.counts.admitted, n as u64);
    assert_eq!(
        report.counts.degraded, n as u64,
        "an unhealthy TEE degrades everything: {:?}",
        report.counts
    );
    assert!(report.faults.world_switch_failures >= 1);
    // The fallback is timed as its own stage; no healthy batch ran.
    assert_eq!(report.metrics.batches, 0);
    assert!(
        report.metrics.degraded_ns > 0,
        "the degraded fallback's compute is timed"
    );

    let mut agree = 0usize;
    for (i, id) in ids.iter().enumerate() {
        let c = report.completions.iter().find(|c| c.id == *id).unwrap();
        let Outcome::Degraded { logits, .. } = &c.outcome else {
            panic!("request {i}: expected Degraded, got {:?}", c.outcome);
        };
        let expect = reference.predict_int8(&common::test_image(i)).unwrap();
        // Bitwise: the fallback is the same per-sample int8 path, batch of
        // one, same weights — not merely approximately equal.
        assert_bitwise(logits, expect.as_slice(), &format!("request {i}"));
        let top_served = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k);
        let top_ref = expect
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k);
        if top_served == top_ref {
            agree += 1;
        }
    }
    assert_eq!(agree, n, "top-1 agreement with predict_int8 must be 100%");
}

//! Capacity planning: inverting the cost model into a deployment decision.
//!
//! The paper prices one fixed TBNet deployment (Table 3, Fig. 3). This
//! module runs the pricing machinery *backwards*, answering the question an
//! operator actually asks: **which deployment should I build?**
//! [`optimize_deployment`] searches the (pruning iterations × rollback point
//! × batch size) space for the cheapest candidate meeting a
//! latency/secure-memory/capacity SLO. Each candidate is priced analytically
//! — [`DeploymentPlan::from_specs`] + the event-driven simulator — so the
//! search spends no training time; only the winner needs to go through
//! [`run_pipeline`](crate::pipeline::run_pipeline) (see
//! [`PipelineConfig::for_plan`](crate::pipeline::PipelineConfig::for_plan)).
//!
//! The cost model the planner prices against is fitted to the target host
//! by a short live run: [`ServeReport::calibrated_cost_model`] turns
//! measured stage times into a [`CostModel`], and [`validate_against_live`]
//! closes the loop by checking a live run's throughput against the
//! calibrated prediction bracket. `docs/CAPACITY.md` is the operator-facing
//! walkthrough of this workflow.
//!
//! # The objective
//!
//! Candidates are ranked by **secure-world occupancy per request** —
//! [`LatencyReport::secure_occupancy_s`] divided by the batch size. Unlike
//! end-to-end latency (most of which the REE hides via pipelining), TEE
//! compute, merges and world switches serialize across every request that
//! shares a secure world, so occupancy is exactly the denominator of the
//! world's sustained throughput. Ties break on secure bytes, then latency.
//!
//! # The accuracy proxy
//!
//! Pruning iterations trade accuracy for TEE cheapness, and the rollback
//! point buys accuracy back by widening `M_R` at zero secure-memory cost
//! (paper step ⑥). A training-free search needs a stand-in for fine-tuned
//! accuracy, so the SLO carries a **capacity-retention floor**: the merged
//! model's total channel count relative to the victim's
//! ([`capacity_retention`]). The floor is what makes the rollback dimension
//! real — under a tight floor the optimizer must keep `M_R` wide while it
//! prunes `M_T` hard.

use serde::{Deserialize, Serialize};

use tbnet_models::ModelSpec;
use tbnet_tee::{
    simulate_two_branch_batched, CostModel, LatencyReport, MeasuredStages, MemoryReport,
};

use crate::deploy::DeploymentPlan;
use crate::pruning::PruneConfig;
use crate::serve::ServeReport;
use crate::{CoreError, Result};

/// A service-level objective for one deployed model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Human-readable label, carried into reports.
    pub name: String,
    /// Upper bound on the latency of one (batched) inference, seconds. A
    /// request admitted into a batch waits for the whole batch, so the
    /// bound is checked against the batch's end-to-end time.
    pub max_latency_s: f64,
    /// Upper bound on the deployment's secure-memory footprint, bytes.
    pub secure_memory_bytes: usize,
    /// Lower bound on [`capacity_retention`] — the training-free accuracy
    /// proxy. `0.0` disables the floor.
    pub min_capacity_retention: f64,
}

impl Slo {
    /// Builds an SLO.
    pub fn new(
        name: &str,
        max_latency_s: f64,
        secure_memory_bytes: usize,
        min_capacity_retention: f64,
    ) -> Self {
        Slo {
            name: name.to_string(),
            max_latency_s,
            secure_memory_bytes,
            min_capacity_retention,
        }
    }
}

/// The (pruning × rollback × batch) space [`optimize_deployment`] explores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Fraction of channels removed per pruning iteration (paper: 0.10).
    pub ratio: f32,
    /// Minimum channels every pruning group keeps.
    pub min_channels: usize,
    /// Largest pruning-iteration count considered for `M_T`.
    pub max_prune_iters: usize,
    /// Batch sizes considered.
    pub batches: Vec<usize>,
}

impl SearchSpace {
    /// Derives the search space from the pruning configuration that would
    /// realize it, so the planner explores exactly what
    /// [`run_pipeline`](crate::pipeline::run_pipeline) can build.
    pub fn from_prune_config(cfg: &PruneConfig, batches: Vec<usize>) -> Self {
        SearchSpace {
            ratio: cfg.ratio,
            min_channels: cfg.min_channels,
            max_prune_iters: cfg.max_iterations,
            batches,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.ratio) {
            return Err(CoreError::InvalidConfig {
                field: "ratio",
                reason: format!("must be in [0, 1), got {}", self.ratio),
            });
        }
        if self.min_channels == 0 {
            return Err(CoreError::InvalidConfig {
                field: "min_channels",
                reason: "must be at least 1".into(),
            });
        }
        if self.batches.is_empty() || self.batches.contains(&0) {
            return Err(CoreError::InvalidConfig {
                field: "batches",
                reason: "need at least one non-zero batch size".into(),
            });
        }
        Ok(())
    }
}

/// One priced point of the search space.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// Pruning iterations applied to the secure branch `M_T`.
    pub prune_iters: usize,
    /// Pruning iterations applied to the unsecured branch `M_R`
    /// (`rollback ≤ prune_iters`; smaller = wider `M_R` = more accuracy
    /// headroom at zero secure-memory cost).
    pub rollback: usize,
    /// Samples per REE→TEE crossing.
    pub batch: usize,
    /// Per-iteration pruning ratio the architectures assume.
    pub ratio: f32,
    /// The candidate `M_T` architecture.
    pub mt_spec: ModelSpec,
    /// The candidate `M_R` architecture.
    pub mr_spec: ModelSpec,
    /// Simulated schedule of one whole batch.
    pub latency: LatencyReport,
    /// Secure-memory footprint at this batch size.
    pub memory: MemoryReport,
    /// Capacity-retention proxy of the candidate (see [`capacity_retention`]).
    pub capacity_retention: f64,
}

impl CandidatePlan {
    /// Seconds the secure world is busy per *request* — the planner's
    /// objective and the denominator of [`CandidatePlan::max_qps`].
    pub fn occupancy_per_request_s(&self) -> f64 {
        self.latency.secure_occupancy_s() / self.batch as f64
    }

    /// Sustained single-world throughput bound implied by the occupancy.
    pub fn max_qps(&self) -> f64 {
        1.0 / self.occupancy_per_request_s()
    }

    /// End-to-end latency of one batch (what an admitted request can wait).
    pub fn latency_s(&self) -> f64 {
        self.latency.total_s
    }

    /// Secure-memory footprint in bytes.
    pub fn secure_bytes(&self) -> usize {
        self.memory.total()
    }
}

/// The analytic pruning schedule: every pruning group's width decays
/// geometrically, `w_k = max(min_channels, round(w_0 · (1-ratio)^k))`,
/// clamped to the victim's width. Widths are decided per *group* (from the
/// group's first unit) and applied to every unit in the group, mirroring
/// the shared keep-masks of [`crate::pruning`] — which is what keeps
/// residual skip additions shape-consistent in the pruned spec.
///
/// # Errors
///
/// Propagates spec validation errors from the victim.
pub fn pruned_spec(
    victim: &ModelSpec,
    ratio: f32,
    min_channels: usize,
    iters: usize,
) -> Result<ModelSpec> {
    victim.trace().map_err(CoreError::Model)?;
    let keep = (1.0 - ratio as f64).powi(iters as i32);
    let mut spec = victim.clone();
    let mut group_width: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for u in &mut spec.units {
        let target = *group_width.entry(u.group).or_insert_with(|| {
            let scaled = (u.out_channels as f64 * keep).round() as usize;
            scaled.max(min_channels).min(u.out_channels)
        });
        u.out_channels = target;
    }
    spec.name = format!("{}-k{iters}", victim.name);
    Ok(spec)
}

/// Training-free accuracy proxy: the merged model's channel capacity
/// relative to the victim's, `(ΣC(M_T) + ΣC(M_R)) / (2·ΣC(victim))`. Both
/// branches feed every merged feature map, so joint width is what the
/// composite-weight pruning of [`crate::pruning`] preserves; the rollback
/// point buys this back on the `M_R` side without touching secure memory.
pub fn capacity_retention(victim: &ModelSpec, mt: &ModelSpec, mr: &ModelSpec) -> f64 {
    let total = |s: &ModelSpec| s.units.iter().map(|u| u.out_channels).sum::<usize>() as f64;
    let denom = 2.0 * total(victim);
    if denom > 0.0 {
        (total(mt) + total(mr)) / denom
    } else {
        0.0
    }
}

/// Searches the (pruning × rollback × batch) space for the feasible
/// candidate with the lowest secure-world occupancy per request. Ties
/// break on secure bytes, then batch latency.
///
/// Feasibility requires all three SLO clauses: batch latency within
/// `max_latency_s`, batched footprint within `secure_memory_bytes`, and
/// [`capacity_retention`] at or above `min_capacity_retention`.
///
/// # Errors
///
/// [`CoreError::NoFeasiblePlan`] when the space contains no candidate
/// meeting the SLO (the reason names the tightest misses), plus config,
/// spec and cost-model validation errors.
///
/// # Examples
///
/// ```
/// use tbnet_core::planner::{optimize_deployment, SearchSpace, Slo};
/// use tbnet_models::vgg;
/// use tbnet_tee::CostModel;
///
/// let victim = vgg::vgg_tiny(10, 3, (16, 16));
/// let space = SearchSpace {
///     ratio: 0.2,
///     min_channels: 2,
///     max_prune_iters: 2,
///     batches: vec![1, 4],
/// };
/// let slo = Slo::new("generous", 1.0, 64 << 20, 0.0);
/// let plan = optimize_deployment(&victim, &space, &slo, &CostModel::raspberry_pi3()).unwrap();
/// assert!(plan.latency_s() <= slo.max_latency_s);
/// assert!(plan.secure_bytes() <= slo.secure_memory_bytes);
/// ```
pub fn optimize_deployment(
    victim: &ModelSpec,
    space: &SearchSpace,
    slo: &Slo,
    cost: &CostModel,
) -> Result<CandidatePlan> {
    space.validate()?;
    cost.validate().map_err(CoreError::Tee)?;
    let mut best: Option<CandidatePlan> = None;
    let mut explored = 0usize;
    let (mut best_latency, mut best_bytes, mut best_retention) = (f64::INFINITY, usize::MAX, 0.0);

    for prune_iters in 0..=space.max_prune_iters {
        let mt = pruned_spec(victim, space.ratio, space.min_channels, prune_iters)?;
        for rollback in 0..=prune_iters {
            let mr = pruned_spec(victim, space.ratio, space.min_channels, rollback)?;
            let retention = capacity_retention(victim, &mt, &mr);
            // Congruence check once per architecture pair.
            let deploy = DeploymentPlan::from_specs(victim.clone(), mt.clone(), mr.clone())?;
            for &batch in &space.batches {
                explored += 1;
                let latency =
                    simulate_two_branch_batched(&deploy.mt_spec, &deploy.mr_spec, cost, batch)?;
                let memory = MemoryReport::for_secure_branch_batched(&deploy.mt_spec, batch)?;
                best_latency = best_latency.min(latency.total_s);
                best_bytes = best_bytes.min(memory.total());
                best_retention = f64::max(best_retention, retention);
                if latency.total_s > slo.max_latency_s
                    || memory.total() > slo.secure_memory_bytes
                    || retention < slo.min_capacity_retention
                {
                    continue;
                }
                let candidate = CandidatePlan {
                    prune_iters,
                    rollback,
                    batch,
                    ratio: space.ratio,
                    mt_spec: deploy.mt_spec.clone(),
                    mr_spec: deploy.mr_spec.clone(),
                    latency,
                    memory,
                    capacity_retention: retention,
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let (co, cb, cl) = (
                            candidate.occupancy_per_request_s(),
                            candidate.secure_bytes(),
                            candidate.latency_s(),
                        );
                        let (bo, bb, bl) =
                            (b.occupancy_per_request_s(), b.secure_bytes(), b.latency_s());
                        co < bo || (co == bo && (cb < bb || (cb == bb && cl < bl)))
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
    }

    best.ok_or_else(|| CoreError::NoFeasiblePlan {
        explored,
        reason: format!(
            "tightest candidates reached latency {:.3e}s (SLO {:.3e}s), \
             {} secure bytes (SLO {}), retention {:.3} (floor {:.3})",
            best_latency,
            slo.max_latency_s,
            best_bytes,
            slo.secure_memory_bytes,
            best_retention,
            slo.min_capacity_retention
        ),
    })
}

// ---------------------------------------------------------------------------
// Live validation.
// ---------------------------------------------------------------------------

/// Result of checking predicted capacity against a live serving run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LiveValidation {
    /// Throughput the live run achieved, requests per second.
    pub measured_qps: f64,
    /// Calibrated lower bracket: throughput with zero pipelining
    /// (`batch / stage_sum`).
    pub predicted_serial_qps: f64,
    /// Calibrated upper bracket: steady-state two-stage pipeline throughput
    /// (`batch / bottleneck stage`).
    pub predicted_pipelined_qps: f64,
    /// Multiplicative tolerance applied to the bracket.
    pub tolerance: f64,
    /// `measured ∈ [serial/tolerance, pipelined·tolerance]`.
    pub within_tolerance: bool,
}

/// Checks a measured throughput against the prediction bracket implied by
/// measured stage times: the calibrated simulator gives a serial floor
/// (stage sum) and a pipelined ceiling (bottleneck stage), and the live
/// number must land inside that bracket widened by `tolerance` on both
/// sides. This is the planner's ground-truth hook — its predictions are
/// only trustworthy when live runs keep landing inside the bracket.
///
/// # Errors
///
/// Propagates calibration/spec/cost validation errors.
pub fn validate_qps(
    stages: &MeasuredStages,
    batch: usize,
    mt_spec: &ModelSpec,
    mr_spec: &ModelSpec,
    measured_qps: f64,
    tolerance: f64,
) -> Result<LiveValidation> {
    let batch = batch.max(1);
    // Calibration fits per-sample rates; replaying them at the measured
    // batch makes the simulated stage totals per-batch times.
    let cost = tbnet_tee::calibrate_cost_model(mt_spec, mr_spec, stages, batch)?;
    let sim = simulate_two_branch_batched(mt_spec, mr_spec, &cost, batch)?;
    let serial_s = sim.stage_sum_s();
    let ree_stage_s = sim.ree_compute_s + sim.transfer_s + sim.switch_s;
    let tee_stage_s = sim.tee_compute_s + sim.merge_s;
    let bottleneck_s = ree_stage_s.max(tee_stage_s).max(1e-12);
    let predicted_serial_qps = batch as f64 / serial_s.max(1e-12);
    let predicted_pipelined_qps = batch as f64 / bottleneck_s;
    let tolerance = tolerance.max(1.0);
    let within_tolerance = measured_qps >= predicted_serial_qps / tolerance
        && measured_qps <= predicted_pipelined_qps * tolerance;
    Ok(LiveValidation {
        measured_qps,
        predicted_serial_qps,
        predicted_pipelined_qps,
        tolerance,
        within_tolerance,
    })
}

/// [`validate_qps`] fed from a live [`ServeReport`]: the report supplies
/// the measured stage times and mean batch, the caller supplies the
/// wall-clock throughput it observed.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when the run completed no healthy batch,
/// plus calibration errors.
pub fn validate_against_live(
    report: &ServeReport,
    mt_spec: &ModelSpec,
    mr_spec: &ModelSpec,
    measured_qps: f64,
    tolerance: f64,
) -> Result<LiveValidation> {
    // Reuse the report's own calibration gate for the no-batches case.
    report.calibrated_cost_model(mt_spec, mr_spec)?;
    let batch = (report.mean_batch.round() as usize).max(1);
    validate_qps(
        &report.stages,
        batch,
        mt_spec,
        mr_spec,
        measured_qps,
        tolerance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_models::{resnet, vgg};

    fn victim() -> ModelSpec {
        vgg::vgg_tiny(10, 3, (16, 16))
    }

    fn space() -> SearchSpace {
        SearchSpace {
            ratio: 0.2,
            min_channels: 2,
            max_prune_iters: 4,
            batches: vec![1, 2, 4, 8],
        }
    }

    #[test]
    fn pruned_spec_decays_and_respects_floor() {
        let v = victim();
        let mut prev: usize = v.units.iter().map(|u| u.out_channels).sum();
        for k in 1..=6 {
            let p = pruned_spec(&v, 0.3, 2, k).unwrap();
            p.trace().unwrap();
            let total: usize = p.units.iter().map(|u| u.out_channels).sum();
            assert!(total <= prev, "iteration {k} widened the spec");
            assert!(p.units.iter().all(|u| u.out_channels >= 2));
            prev = total;
        }
        // k=0 is the victim (clamped).
        assert_eq!(pruned_spec(&v, 0.3, 2, 0).unwrap().units, v.units);
    }

    #[test]
    fn pruned_spec_keeps_residual_groups_valid() {
        let v = resnet::resnet20_tiny(10, 3, (16, 16));
        for k in 0..5 {
            let p = pruned_spec(&v, 0.25, 2, k).unwrap();
            // Skip-connected units kept shape-consistent via shared groups.
            p.trace().unwrap();
        }
    }

    #[test]
    fn capacity_retention_rewards_rollback() {
        let v = victim();
        let mt = pruned_spec(&v, 0.3, 2, 4).unwrap();
        let narrow = capacity_retention(&v, &mt, &mt);
        let wide = capacity_retention(&v, &mt, &pruned_spec(&v, 0.3, 2, 1).unwrap());
        let full = capacity_retention(&v, &v, &v);
        assert!(narrow < wide && wide < full);
        assert!((full - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimizer_never_returns_slo_violating_plan() {
        let v = victim();
        let cost = CostModel::raspberry_pi3();
        let slos = [
            Slo::new("generous", 1.0, 64 << 20, 0.0),
            Slo::new("tight-latency", 0.01, 64 << 20, 0.6),
            Slo::new("tight-memory", 1.0, 1 << 20, 0.5),
        ];
        for slo in &slos {
            let plan = optimize_deployment(&v, &space(), slo, &cost).unwrap();
            assert!(
                plan.latency_s() <= slo.max_latency_s,
                "{}: latency {} over SLO {}",
                slo.name,
                plan.latency_s(),
                slo.max_latency_s
            );
            assert!(plan.secure_bytes() <= slo.secure_memory_bytes);
            assert!(plan.capacity_retention >= slo.min_capacity_retention);
            assert!(plan.rollback <= plan.prune_iters);
            assert!(plan.max_qps() > 0.0);
        }
    }

    #[test]
    fn optimizer_minimizes_occupancy_among_feasible() {
        let v = victim();
        let cost = CostModel::raspberry_pi3();
        let slo = Slo::new("check", 0.5, 8 << 20, 0.55);
        let sp = space();
        let plan = optimize_deployment(&v, &sp, &slo, &cost).unwrap();
        // Brute-force the same space and confirm nothing feasible beats it.
        for k in 0..=sp.max_prune_iters {
            let mt = pruned_spec(&v, sp.ratio, sp.min_channels, k).unwrap();
            for r in 0..=k {
                let mr = pruned_spec(&v, sp.ratio, sp.min_channels, r).unwrap();
                if capacity_retention(&v, &mt, &mr) < slo.min_capacity_retention {
                    continue;
                }
                for &b in &sp.batches {
                    let lat = simulate_two_branch_batched(&mt, &mr, &cost, b).unwrap();
                    let mem = MemoryReport::for_secure_branch_batched(&mt, b).unwrap();
                    if lat.total_s > slo.max_latency_s || mem.total() > slo.secure_memory_bytes {
                        continue;
                    }
                    let occ = lat.secure_occupancy_s() / b as f64;
                    assert!(
                        plan.occupancy_per_request_s() <= occ + 1e-15,
                        "({k},{r},{b}) occ {occ} beats chosen {}",
                        plan.occupancy_per_request_s()
                    );
                }
            }
        }
    }

    #[test]
    fn impossible_slo_reports_no_feasible_plan() {
        let v = victim();
        let cost = CostModel::raspberry_pi3();
        let slo = Slo::new("impossible", 1e-9, 1, 0.0);
        match optimize_deployment(&v, &space(), &slo, &cost) {
            Err(CoreError::NoFeasiblePlan { explored, reason }) => {
                assert!(explored > 0);
                assert!(reason.contains("latency"));
            }
            other => panic!("expected NoFeasiblePlan, got {other:?}"),
        }
    }

    #[test]
    fn distinct_slos_choose_distinct_plans() {
        let v = victim();
        let cost = CostModel::raspberry_pi3();
        let interactive = Slo::new("interactive", 0.012, 32 << 20, 0.55);
        let constrained = Slo::new("constrained", 0.5, 1 << 20, 0.45);
        let a = optimize_deployment(&v, &space(), &interactive, &cost).unwrap();
        let b = optimize_deployment(&v, &space(), &constrained, &cost).unwrap();
        assert_ne!(
            (a.prune_iters, a.rollback, a.batch),
            (b.prune_iters, b.rollback, b.batch),
            "both SLOs chose ({}, {}, {})",
            a.prune_iters,
            a.rollback,
            a.batch
        );
    }

    #[test]
    fn live_validation_brackets_measured_qps() {
        let v = victim();
        let mt = pruned_spec(&v, 0.2, 2, 2).unwrap();
        let stages = MeasuredStages {
            ree_s: 0.030,
            tee_s: 0.050,
            transfer_s: 0.004,
            merge_s: 0.002,
            switch_s: 0.001,
        };
        let batch = 8;
        // A throughput between the serial floor and pipelined ceiling passes.
        let serial = validate_qps(&stages, batch, &mt, &v, 0.0, 1.0).unwrap();
        assert!(serial.predicted_pipelined_qps >= serial.predicted_serial_qps);
        // The stages are per-batch times, so the serial floor is `batch`
        // samples per stage sum.
        let stage_sum =
            stages.ree_s + stages.tee_s + stages.transfer_s + stages.merge_s + stages.switch_s;
        let expect = batch as f64 / stage_sum;
        assert!(
            (serial.predicted_serial_qps / expect - 1.0).abs() < 1e-9,
            "serial floor {} qps, expected {expect}",
            serial.predicted_serial_qps
        );
        let mid = 0.5 * (serial.predicted_serial_qps + serial.predicted_pipelined_qps);
        assert!(
            validate_qps(&stages, batch, &mt, &v, mid, 1.0)
                .unwrap()
                .within_tolerance
        );
        // Far outside the bracket fails even with slack...
        let absurd = 100.0 * serial.predicted_pipelined_qps;
        assert!(
            !validate_qps(&stages, batch, &mt, &v, absurd, 2.0)
                .unwrap()
                .within_tolerance
        );
        // ...and tolerance widens the bracket symmetrically.
        let low = serial.predicted_serial_qps * 0.6;
        assert!(
            !validate_qps(&stages, batch, &mt, &v, low, 1.0)
                .unwrap()
                .within_tolerance
        );
        assert!(
            validate_qps(&stages, batch, &mt, &v, low, 2.0)
                .unwrap()
                .within_tolerance
        );
    }
}

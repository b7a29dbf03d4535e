//! Event-driven latency simulation of the two deployments the paper compares
//! in Table 3:
//!
//! * **baseline** — the entire victim model executes inside the TEE;
//! * **TBNet** — `M_R` executes in the REE while `M_T` executes in the TEE,
//!   with a one-way feature-map transfer and an elementwise merge after every
//!   unit.
//!
//! The TBNet timeline is a two-stage pipeline: the REE streams feature maps
//! ahead while the TEE consumes them, so the critical path interleaves
//! compute, world switches and channel transfers. The simulator tracks each
//! unit's ready time explicitly instead of summing totals, which is what lets
//! crossover effects (e.g. switch-cost domination for tiny layers) show up.

use serde::{Deserialize, Serialize};

use tbnet_models::ModelSpec;

use crate::memory::BYTES_PER_ELEM;
use crate::{CostModel, Result};

/// Latency breakdown of one simulated inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// End-to-end latency in seconds.
    pub total_s: f64,
    /// Rich-world compute time (busy, not necessarily on the critical path).
    pub ree_compute_s: f64,
    /// Secure-world compute time.
    pub tee_compute_s: f64,
    /// Channel transfer time.
    pub transfer_s: f64,
    /// World-switch time.
    pub switch_s: f64,
    /// Elementwise merge time inside the TEE.
    pub merge_s: f64,
    /// Number of REE→TEE world switches.
    pub switches: u64,
}

impl LatencyReport {
    /// Sum of per-stage busy times (what the stages would cost end to end
    /// with zero pipelining).
    pub fn stage_sum_s(&self) -> f64 {
        self.ree_compute_s + self.tee_compute_s + self.transfer_s + self.switch_s + self.merge_s
    }

    /// Pipeline-overlap factor: stage busy time over critical-path time.
    /// 1.0 means fully serial; values above 1.0 measure how much stage work
    /// the pipeline hides (e.g. 1.4 = 40% of a serial schedule's time ran
    /// under the critical path). The serving runtime's validation compares
    /// its measured factor against this prediction.
    pub fn pipeline_overlap(&self) -> f64 {
        if self.total_s > 0.0 {
            self.stage_sum_s() / self.total_s
        } else {
            1.0
        }
    }
}

/// Per-stage wall-clock totals measured by the *real* concurrent pipeline
/// (the serving runtime), for one batch or averaged per batch. Stage timers
/// run while other stages execute concurrently, so on a contended host each
/// stage's wall time includes its share of interference — exactly what the
/// event simulator's per-stage costs model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredStages {
    /// REE-side `M_R` compute per batch, seconds.
    pub ree_s: f64,
    /// TEE-side `M_T` compute (head included) per batch, seconds.
    pub tee_s: f64,
    /// Send-side channel transfer per batch, seconds. The serving runtime
    /// times the payload checksum, enqueue and backpressure waits.
    pub transfer_s: f64,
    /// TEE-side channel extraction / merge staging per batch.
    pub merge_s: f64,
    /// World-switch overhead per batch (per-send bookkeeping); may be ~0
    /// in-process.
    pub switch_s: f64,
}

/// Fits a [`CostModel`] to stage times measured by the concurrent serving
/// runtime, so that [`simulate_two_branch`] replays the measured run: each
/// simulated stage's total equals the measured stage total, and the
/// simulator's event structure predicts how much of it the pipeline hides.
/// Comparing the predicted [`LatencyReport::pipeline_overlap`] against the
/// runtime's measured overlap validates the simulator as a model of the
/// real pipeline (and the runtime against the simulator's Table 3 story).
///
/// `batch` is the number of samples the measured stages processed per
/// channel crossing; the per-sample MAC/byte/element counts of the specs
/// are scaled by it before fitting rates.
///
/// Stages measured at (near) zero get a very fast rate rather than a
/// division by zero — they contribute nothing to either schedule.
///
/// # Errors
///
/// Returns spec validation errors, or an invalid-spec error when the unit
/// counts disagree.
pub fn calibrate_cost_model(
    mt_spec: &ModelSpec,
    mr_spec: &ModelSpec,
    measured: &MeasuredStages,
    batch: usize,
) -> Result<CostModel> {
    if mt_spec.units.len() != mr_spec.units.len() {
        return Err(crate::TeeError::Model(
            tbnet_models::ModelError::InvalidSpec {
                reason: format!(
                    "branch unit counts disagree: M_T has {}, M_R has {}",
                    mt_spec.units.len(),
                    mr_spec.units.len()
                ),
            },
        ));
    }
    let (mt_macs, mt_out_elems, mt_head_macs) = unit_costs(mt_spec)?;
    let (mr_macs, mr_out_elems, _) = unit_costs(mr_spec)?;
    let batch = batch.max(1) as f64;

    let mr_total_macs = batch * mr_macs.iter().sum::<u64>() as f64;
    let mt_total_macs = batch * (mt_macs.iter().sum::<u64>() + mt_head_macs) as f64;
    let input_bytes =
        mt_spec.in_channels * mt_spec.input_hw.0 * mt_spec.input_hw.1 * BYTES_PER_ELEM;
    let total_bytes =
        batch * (input_bytes + mr_out_elems.iter().sum::<usize>() * BYTES_PER_ELEM) as f64;
    let merge_elems = batch * mt_out_elems.iter().sum::<usize>() as f64;
    let switches = (mr_macs.len() + 1) as f64;

    // rate = work / measured_time; unmeasurable stages get an effectively
    // free rate so they vanish from both schedules identically.
    let rate = |work: f64, seconds: f64| -> f64 {
        if work <= 0.0 {
            1e18
        } else {
            work / seconds.max(1e-9)
        }
    };
    let cost = CostModel {
        ree_macs_per_s: rate(mr_total_macs, measured.ree_s),
        tee_macs_per_s: rate(mt_total_macs, measured.tee_s),
        channel_bytes_per_s: rate(total_bytes, measured.transfer_s),
        tee_elementwise_per_s: rate(merge_elems, measured.merge_s),
        world_switch_s: (measured.switch_s / switches).max(1e-12),
        secure_memory_budget: CostModel::raspberry_pi3().secure_memory_budget,
    };
    cost.validate()?;
    Ok(cost)
}

/// Per-unit pricing of a spec: MACs and output feature-map elements.
fn unit_costs(spec: &ModelSpec) -> Result<(Vec<u64>, Vec<usize>, u64)> {
    let traces = spec.trace().map_err(crate::TeeError::Model)?;
    let mut macs = Vec::with_capacity(spec.units.len());
    let mut out_elems = Vec::with_capacity(spec.units.len());
    for (u, t) in spec.units.iter().zip(&traces) {
        let m = (t.in_channels * u.kernel * u.kernel) as u64
            * u.out_channels as u64
            * (t.conv_hw.0 * t.conv_hw.1) as u64;
        macs.push(m);
        out_elems.push(t.out_channels * t.out_hw.0 * t.out_hw.1);
    }
    let head_macs =
        (spec.head_in_features().map_err(crate::TeeError::Model)? * spec.classes) as u64;
    Ok((macs, out_elems, head_macs))
}

/// Simulates the baseline deployment: one world switch, one input transfer,
/// then the whole model inside the TEE.
///
/// # Errors
///
/// Returns cost-model or spec validation errors.
pub fn simulate_baseline(spec: &ModelSpec, cost: &CostModel) -> Result<LatencyReport> {
    cost.validate()?;
    let (macs, _, head_macs) = unit_costs(spec)?;
    let input_bytes = spec.in_channels * spec.input_hw.0 * spec.input_hw.1 * BYTES_PER_ELEM;
    let transfer_s = cost.transfer_s(input_bytes);
    let tee_compute_s = cost.tee_compute_s(macs.iter().sum::<u64>() + head_macs);
    let switch_s = cost.world_switch_s;
    Ok(LatencyReport {
        total_s: switch_s + transfer_s + tee_compute_s,
        ree_compute_s: 0.0,
        tee_compute_s,
        transfer_s,
        switch_s,
        merge_s: 0.0,
        switches: 1,
    })
}

/// Simulates the TBNet deployment: `M_R` in the REE, `M_T` in the TEE, a
/// one-way transfer + merge after every unit.
///
/// The two specs must have the same number of units (they are branch-wise
/// aligned by construction); channel counts may differ (rollback makes `M_R`
/// wider), in which case only `M_T`'s channels are merged.
///
/// # Errors
///
/// Returns cost-model or spec validation errors, or an invalid-spec error
/// when the unit counts disagree.
pub fn simulate_two_branch(
    mt_spec: &ModelSpec,
    mr_spec: &ModelSpec,
    cost: &CostModel,
) -> Result<LatencyReport> {
    cost.validate()?;
    if mt_spec.units.len() != mr_spec.units.len() {
        return Err(crate::TeeError::Model(
            tbnet_models::ModelError::InvalidSpec {
                reason: format!(
                    "branch unit counts disagree: M_T has {}, M_R has {}",
                    mt_spec.units.len(),
                    mr_spec.units.len()
                ),
            },
        ));
    }
    let (mt_macs, mt_out_elems, mt_head_macs) = unit_costs(mt_spec)?;
    let (mr_macs, mr_out_elems, _) = unit_costs(mr_spec)?;

    let input_bytes =
        mt_spec.in_channels * mt_spec.input_hw.0 * mt_spec.input_hw.1 * BYTES_PER_ELEM;

    let mut ree_compute_s = 0.0;
    let mut tee_compute_s = 0.0;
    let mut transfer_s = 0.0;
    let mut merge_s = 0.0;
    let mut switches = 1u64; // the initial input delivery

    // Event times.
    let input_arrive = cost.world_switch_s + cost.transfer_s(input_bytes);
    transfer_s += cost.transfer_s(input_bytes);
    let mut ree_done = 0.0f64; // the REE already owns the input
    let mut merged_ready = input_arrive;

    for i in 0..mt_macs.len() {
        // REE computes its unit and ships the feature map.
        let r_time = cost.ree_compute_s(mr_macs[i]);
        ree_compute_s += r_time;
        ree_done += r_time;
        let bytes = mr_out_elems[i] * BYTES_PER_ELEM;
        let t_xfer = cost.transfer_s(bytes);
        transfer_s += t_xfer;
        switches += 1;
        let arrive = ree_done + cost.world_switch_s + t_xfer;

        // TEE computes its unit from the previous merged feature map.
        let t_time = cost.tee_compute_s(mt_macs[i]);
        tee_compute_s += t_time;
        let tee_done = merged_ready + t_time;

        // Merge waits for both, then adds M_T's channel set.
        let m_time = cost.merge_s(mt_out_elems[i]);
        merge_s += m_time;
        merged_ready = tee_done.max(arrive) + m_time;
    }

    // Classifier head inside the TEE.
    let head_time = cost.tee_compute_s(mt_head_macs);
    tee_compute_s += head_time;
    let total_s = merged_ready + head_time;
    let switch_s = switches as f64 * cost.world_switch_s;

    Ok(LatencyReport {
        total_s,
        ree_compute_s,
        tee_compute_s,
        transfer_s,
        switch_s,
        merge_s,
        switches,
    })
}

/// Simulates a DarkneTZ-style layer partition: units `..split` run in the
/// REE in plaintext, units `split..` plus the head run in the TEE. One
/// boundary feature map crosses into the TEE and the prediction crosses back
/// out (two world switches) — the bidirectional traffic the paper's §2.3
/// criticizes.
///
/// # Errors
///
/// Returns cost-model or spec validation errors, or an invalid-spec error
/// for an out-of-range split.
pub fn simulate_partition(
    spec: &ModelSpec,
    split: usize,
    cost: &CostModel,
) -> Result<LatencyReport> {
    cost.validate()?;
    let (macs, out_elems, head_macs) = unit_costs(spec)?;
    if split > macs.len() {
        return Err(crate::TeeError::Model(
            tbnet_models::ModelError::InvalidSpec {
                reason: format!("partition split {split} exceeds {} units", macs.len()),
            },
        ));
    }
    let ree_macs: u64 = macs[..split].iter().sum();
    let tee_macs: u64 = macs[split..].iter().sum::<u64>() + head_macs;
    let boundary_elems = if split == 0 {
        spec.in_channels * spec.input_hw.0 * spec.input_hw.1
    } else {
        out_elems[split - 1]
    };
    let in_xfer = cost.transfer_s(boundary_elems * BYTES_PER_ELEM);
    let out_xfer = cost.transfer_s(spec.classes * BYTES_PER_ELEM);
    let ree_compute_s = cost.ree_compute_s(ree_macs);
    let tee_compute_s = cost.tee_compute_s(tee_macs);
    let switches = 2u64; // into the TEE and back out with the result
    let switch_s = switches as f64 * cost.world_switch_s;
    Ok(LatencyReport {
        total_s: ree_compute_s + in_xfer + tee_compute_s + out_xfer + switch_s,
        ree_compute_s,
        tee_compute_s,
        transfer_s: in_xfer + out_xfer,
        switch_s,
        merge_s: 0.0,
        switches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_models::{resnet, vgg};

    fn halved(spec: &ModelSpec) -> ModelSpec {
        let mut s = spec.clone();
        for u in &mut s.units {
            u.out_channels = (u.out_channels / 2).max(1);
        }
        s
    }

    #[test]
    fn baseline_is_positive_and_decomposes() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let cost = CostModel::raspberry_pi3();
        let r = simulate_baseline(&spec, &cost).unwrap();
        assert!(r.total_s > 0.0);
        assert!((r.total_s - (r.switch_s + r.transfer_s + r.tee_compute_s)).abs() < 1e-12);
        assert_eq!(r.switches, 1);
        assert_eq!(r.ree_compute_s, 0.0);
    }

    #[test]
    fn tbnet_with_pruned_mt_beats_baseline() {
        // The paper's Table 3 shape: TBNet (pruned M_T in the TEE, M_R in the
        // REE) must be faster than the whole victim inside the TEE.
        let victim = vgg::vgg_tiny(10, 3, (16, 16));
        let mt = halved(&victim);
        let mr = halved(&victim);
        let cost = CostModel::raspberry_pi3();
        let base = simulate_baseline(&victim, &cost).unwrap();
        let tb = simulate_two_branch(&mt, &mr, &cost).unwrap();
        assert!(
            tb.total_s < base.total_s,
            "tbnet {} vs baseline {}",
            tb.total_s,
            base.total_s
        );
    }

    #[test]
    fn two_branch_counts_switches_per_unit() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let cost = CostModel::raspberry_pi3();
        let r = simulate_two_branch(&spec, &spec, &cost).unwrap();
        assert_eq!(r.switches, spec.units.len() as u64 + 1);
        assert!(r.merge_s > 0.0);
        assert!(r.ree_compute_s > 0.0);
    }

    #[test]
    fn unit_count_mismatch_rejected() {
        let a = vgg::vgg_tiny(10, 3, (16, 16));
        let mut b = a.clone();
        b.units.pop();
        let cost = CostModel::raspberry_pi3();
        assert!(simulate_two_branch(&a, &b, &cost).is_err());
    }

    #[test]
    fn resnet_specs_simulate() {
        let spec = resnet::resnet20_tiny(10, 3, (16, 16));
        let cost = CostModel::raspberry_pi3();
        let base = simulate_baseline(&spec, &cost).unwrap();
        let tb = simulate_two_branch(&halved(&spec), &halved(&spec), &cost).unwrap();
        assert!(base.total_s > 0.0 && tb.total_s > 0.0);
    }

    #[test]
    fn wider_mr_costs_only_ree_time() {
        // Rollback widens M_R; the REE absorbs the extra compute, so total
        // latency should grow far less than REE busy time.
        let victim = vgg::vgg_tiny(10, 3, (16, 16));
        let mt = halved(&victim);
        let cost = CostModel::raspberry_pi3();
        let slim = simulate_two_branch(&mt, &mt, &cost).unwrap();
        let wide = simulate_two_branch(&mt, &victim, &cost).unwrap();
        assert!(wide.ree_compute_s > slim.ree_compute_s);
    }

    #[test]
    fn slow_channel_hurts_tbnet() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let mut cost = CostModel::raspberry_pi3();
        let fast = simulate_two_branch(&spec, &spec, &cost).unwrap();
        cost.channel_bytes_per_s = 1e6;
        let slow = simulate_two_branch(&spec, &spec, &cost).unwrap();
        assert!(slow.total_s > fast.total_s);
    }

    #[test]
    fn partition_interpolates_between_extremes() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let cost = CostModel::raspberry_pi3();
        let all_tee = simulate_partition(&spec, 0, &cost).unwrap();
        let all_ree = simulate_partition(&spec, spec.units.len(), &cost).unwrap();
        let mid = simulate_partition(&spec, 3, &cost).unwrap();
        // More REE layers → faster (REE is faster per MAC).
        assert!(all_ree.total_s < mid.total_s);
        assert!(mid.total_s < all_tee.total_s);
        assert_eq!(mid.switches, 2);
        assert!(simulate_partition(&spec, 99, &cost).is_err());
    }

    #[test]
    fn partition_all_tee_close_to_baseline() {
        // split 0 is the whole model in the TEE — same compute as the
        // baseline, plus the extra return switch/transfer.
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let cost = CostModel::raspberry_pi3();
        let part = simulate_partition(&spec, 0, &cost).unwrap();
        let base = simulate_baseline(&spec, &cost).unwrap();
        assert!((part.tee_compute_s - base.tee_compute_s).abs() < 1e-12);
        assert!(part.total_s > base.total_s);
    }

    #[test]
    fn calibrated_model_reproduces_measured_stage_totals() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let mt = halved(&spec);
        let measured = MeasuredStages {
            ree_s: 0.030,
            tee_s: 0.050,
            transfer_s: 0.004,
            merge_s: 0.002,
            switch_s: 0.001,
        };
        let cost = calibrate_cost_model(&mt, &spec, &measured, 1).unwrap();
        // The fitted rates are batch-invariant: total work and total time
        // both scale linearly in the batch, so a batch-8 measurement of the
        // same per-sample times yields the same cost model.
        let scaled = MeasuredStages {
            ree_s: 8.0 * measured.ree_s,
            tee_s: 8.0 * measured.tee_s,
            transfer_s: 8.0 * measured.transfer_s,
            merge_s: 8.0 * measured.merge_s,
            switch_s: measured.switch_s, // switches are per batch, not per sample
        };
        let cost8 = calibrate_cost_model(&mt, &spec, &scaled, 8).unwrap();
        assert!((cost.ree_macs_per_s - cost8.ree_macs_per_s).abs() / cost.ree_macs_per_s < 1e-9);
        assert!((cost.tee_macs_per_s - cost8.tee_macs_per_s).abs() / cost.tee_macs_per_s < 1e-9);
        assert!((cost.world_switch_s - cost8.world_switch_s).abs() / cost.world_switch_s < 1e-9);
        let r = simulate_two_branch(&mt, &spec, &cost).unwrap();
        // At batch 1 the fit is exact: simulated stage totals equal the
        // measured ones (the simulator spends each stage's whole budget).
        assert!((r.ree_compute_s - measured.ree_s).abs() / measured.ree_s < 1e-9);
        assert!((r.tee_compute_s - measured.tee_s).abs() / measured.tee_s < 1e-9);
        assert!((r.transfer_s - measured.transfer_s).abs() / measured.transfer_s < 1e-9);
        assert!((r.merge_s - measured.merge_s).abs() / measured.merge_s < 1e-9);
        assert!((r.switch_s - measured.switch_s).abs() / measured.switch_s < 1e-9);
        // What the simulator adds: the pipeline schedule. Total is shorter
        // than the serial stage sum (overlap) but at least the longest path.
        assert!(r.total_s < r.stage_sum_s());
        assert!(r.pipeline_overlap() > 1.0);
    }

    #[test]
    fn calibration_handles_zero_stages_and_mismatch() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let measured = MeasuredStages {
            ree_s: 0.010,
            tee_s: 0.020,
            transfer_s: 0.0,
            merge_s: 0.0,
            switch_s: 0.0,
        };
        let cost = calibrate_cost_model(&spec, &spec, &measured, 1).unwrap();
        cost.validate().unwrap();
        let r = simulate_two_branch(&spec, &spec, &cost).unwrap();
        assert!(r.total_s > 0.0 && r.total_s.is_finite());
        let mut short = spec.clone();
        short.units.pop();
        assert!(calibrate_cost_model(&short, &spec, &measured, 1).is_err());
    }

    #[test]
    fn overlap_factor_is_serial_for_baseline() {
        // The baseline deployment has no pipelining: switch + transfer +
        // compute happen strictly in sequence, so overlap is exactly 1.
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let cost = CostModel::raspberry_pi3();
        let r = simulate_baseline(&spec, &cost).unwrap();
        assert!((r.pipeline_overlap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_cost_model_rejected() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let mut cost = CostModel::raspberry_pi3();
        cost.ree_macs_per_s = -1.0;
        assert!(simulate_baseline(&spec, &cost).is_err());
        assert!(simulate_two_branch(&spec, &spec, &cost).is_err());
    }
}

use serde::{Deserialize, Serialize};

use tbnet_models::ModelSpec;

use crate::{Result, TeeError};

/// Performance constants of a TEE-capable edge device.
///
/// The defaults ([`CostModel::raspberry_pi3`]) model a Raspberry Pi 3B with
/// OP-TEE, the paper's testbed: the secure world is slower per MAC than the
/// rich world (no NEON-optimized BLAS inside the TA, a smaller cache
/// partition and secure-memory access overheads), world switches cost tens of
/// microseconds, and REE↔TEE data moves through shared memory at a bounded
/// rate. Absolute numbers are estimates; the experiments only rely on the
/// *ratios*, which is also all the paper claims (its reference values are
/// in `crates/bench/src/reports.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Rich-world throughput in multiply-accumulates per second.
    pub ree_macs_per_s: f64,
    /// Secure-world throughput in multiply-accumulates per second.
    pub tee_macs_per_s: f64,
    /// Latency of one REE→TEE world switch (SMC + context save/restore).
    pub world_switch_s: f64,
    /// Shared-memory channel bandwidth in bytes per second.
    pub channel_bytes_per_s: f64,
    /// Secure-world throughput for cheap elementwise ops (the feature-map
    /// merge), in elements per second.
    pub tee_elementwise_per_s: f64,
    /// Secure memory available for TA data (code excluded), in bytes.
    pub secure_memory_budget: usize,
}

impl CostModel {
    /// A Raspberry-Pi-3-class profile (BCM2837, Cortex-A53 @ 1.2 GHz,
    /// OP-TEE with a 16 MiB TA memory pool).
    pub fn raspberry_pi3() -> Self {
        CostModel {
            ree_macs_per_s: 1.2e9,
            tee_macs_per_s: 0.45e9,
            world_switch_s: 60e-6,
            channel_bytes_per_s: 400e6,
            tee_elementwise_per_s: 2.0e9,
            secure_memory_budget: 16 * 1024 * 1024,
        }
    }

    /// The same device with REE-side acceleration (NEON-optimized BLAS or a
    /// small GPU delegate): the rich world gets ~8× the scalar throughput
    /// while the secure world is unchanged — TrustZone TAs cannot use the
    /// accelerator. This models the paper's §5.3 observation that TBNet
    /// composes with any REE acceleration.
    pub fn raspberry_pi3_accelerated() -> Self {
        CostModel {
            ree_macs_per_s: 9.6e9,
            ..CostModel::raspberry_pi3()
        }
    }

    /// Validates that every rate is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::InvalidCostModel`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let checks: [(&'static str, f64); 5] = [
            ("ree_macs_per_s", self.ree_macs_per_s),
            ("tee_macs_per_s", self.tee_macs_per_s),
            ("world_switch_s", self.world_switch_s),
            ("channel_bytes_per_s", self.channel_bytes_per_s),
            ("tee_elementwise_per_s", self.tee_elementwise_per_s),
        ];
        for (field, v) in checks {
            if !(v > 0.0 && v.is_finite()) {
                return Err(TeeError::InvalidCostModel { field });
            }
        }
        Ok(())
    }

    /// Seconds for the rich world to execute `macs` multiply-accumulates.
    pub fn ree_compute_s(&self, macs: u64) -> f64 {
        macs as f64 / self.ree_macs_per_s
    }

    /// Seconds for the secure world to execute `macs` multiply-accumulates.
    pub fn tee_compute_s(&self, macs: u64) -> f64 {
        macs as f64 / self.tee_macs_per_s
    }

    /// Seconds to move `bytes` through the REE→TEE shared-memory channel
    /// (excluding the world switch itself).
    pub fn transfer_s(&self, bytes: usize) -> f64 {
        bytes as f64 / self.channel_bytes_per_s
    }

    /// Seconds for the secure world to merge (elementwise-add) `elems`
    /// feature-map elements.
    pub fn merge_s(&self, elems: usize) -> f64 {
        elems as f64 / self.tee_elementwise_per_s
    }

    /// Seconds for the secure world to run an entire model once.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn tee_model_s(&self, spec: &ModelSpec) -> Result<f64> {
        Ok(self.tee_compute_s(spec.forward_macs()?))
    }

    /// Seconds for the rich world to run an entire model once.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn ree_model_s(&self, spec: &ModelSpec) -> Result<f64> {
        Ok(self.ree_compute_s(spec.forward_macs()?))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::raspberry_pi3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_models::vgg;

    #[test]
    fn pi3_profile_is_valid_and_tee_is_slower() {
        let c = CostModel::raspberry_pi3();
        c.validate().unwrap();
        assert!(c.tee_macs_per_s < c.ree_macs_per_s);
        assert!(c.secure_memory_budget > 0);
    }

    #[test]
    fn compute_times_scale_linearly() {
        let c = CostModel::raspberry_pi3();
        assert!((c.ree_compute_s(2_000_000) - 2.0 * c.ree_compute_s(1_000_000)).abs() < 1e-12);
        assert!(c.tee_compute_s(1_000_000) > c.ree_compute_s(1_000_000));
    }

    #[test]
    fn invalid_models_rejected() {
        let mut c = CostModel::raspberry_pi3();
        c.tee_macs_per_s = 0.0;
        assert!(matches!(
            c.validate(),
            Err(TeeError::InvalidCostModel {
                field: "tee_macs_per_s"
            })
        ));
        let mut c = CostModel::raspberry_pi3();
        c.channel_bytes_per_s = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn whole_model_pricing() {
        let c = CostModel::raspberry_pi3();
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let tee = c.tee_model_s(&spec).unwrap();
        let ree = c.ree_model_s(&spec).unwrap();
        assert!(tee > ree);
        assert!(tee > 0.0 && tee.is_finite());
    }

    #[test]
    fn accelerated_profile_speeds_up_ree_only() {
        let base = CostModel::raspberry_pi3();
        let accel = CostModel::raspberry_pi3_accelerated();
        accel.validate().unwrap();
        assert!(accel.ree_macs_per_s > base.ree_macs_per_s);
        assert_eq!(accel.tee_macs_per_s, base.tee_macs_per_s);
    }

    #[test]
    fn default_is_pi3() {
        assert_eq!(CostModel::default(), CostModel::raspberry_pi3());
    }
}

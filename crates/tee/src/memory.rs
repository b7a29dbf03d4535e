//! Secure-memory accounting.
//!
//! Fig. 3 of the paper compares the TEE memory footprint of the baseline
//! (entire victim inside the TEE) against TBNet (only the pruned `M_T`
//! inside). [`MemoryLedger`] implements the budgeted allocator the
//! [`SecureWorld`](crate::SecureWorld) uses, and [`MemoryReport`] prices a
//! model spec the way a TA author would: weights + working activations +
//! the pre-merge feature-map buffer.

use serde::{Deserialize, Serialize};

use tbnet_models::ModelSpec;

use crate::{Result, TeeError};

/// Bytes per model scalar (f32).
pub const BYTES_PER_ELEM: usize = 4;

/// A budgeted byte ledger for the secure world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLedger {
    budget: usize,
    used: usize,
    peak: usize,
}

impl MemoryLedger {
    /// Creates a ledger with the given budget in bytes.
    pub fn new(budget: usize) -> Self {
        MemoryLedger {
            budget,
            used: 0,
            peak: 0,
        }
    }

    /// Records an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SecureMemoryExhausted`] when the allocation would
    /// exceed the budget; the ledger is unchanged in that case.
    pub fn allocate(&mut self, bytes: usize) -> Result<()> {
        let new_used = self.used.saturating_add(bytes);
        if new_used > self.budget {
            return Err(TeeError::SecureMemoryExhausted {
                requested: bytes,
                available: self.budget - self.used,
            });
        }
        self.used = new_used;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Records a release. Releasing more than is allocated clamps to zero
    /// (the simulator never does this, but a destructor must not fail).
    pub fn release(&mut self, bytes: usize) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.budget - self.used
    }
}

/// The TEE memory footprint of deploying a model, broken into the components
/// a TA author budgets for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Bytes of model weights resident in secure memory.
    pub weight_bytes: usize,
    /// Bytes of the largest live activation tensor (double-buffered:
    /// input + output of the running layer).
    pub activation_bytes: usize,
    /// Bytes of the staging buffer holding the incoming REE feature map
    /// awaiting the merge (zero for the baseline deployment).
    pub merge_buffer_bytes: usize,
}

impl MemoryReport {
    /// Total secure-memory requirement.
    pub fn total(&self) -> usize {
        self.weight_bytes + self.activation_bytes + self.merge_buffer_bytes
    }

    /// Footprint of the baseline deployment: the whole model inside the TEE.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn for_baseline(spec: &ModelSpec) -> Result<Self> {
        let weight_bytes = spec.param_count()? * BYTES_PER_ELEM;
        let peak = spec.peak_activation_elems()?;
        Ok(MemoryReport {
            weight_bytes,
            // Input + output of the widest layer live simultaneously.
            activation_bytes: 2 * peak * BYTES_PER_ELEM,
            merge_buffer_bytes: 0,
        })
    }

    /// Footprint of the TBNet deployment: only the secure branch `M_T` lives
    /// in the TEE, plus one staging buffer for the incoming REE feature map.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn for_secure_branch(mt_spec: &ModelSpec) -> Result<Self> {
        let weight_bytes = mt_spec.param_count()? * BYTES_PER_ELEM;
        let peak = mt_spec.peak_activation_elems()?;
        Ok(MemoryReport {
            weight_bytes,
            activation_bytes: 2 * peak * BYTES_PER_ELEM,
            // The merge staging buffer holds one feature map of the widest
            // merge point, which is bounded by the peak activation.
            merge_buffer_bytes: peak * BYTES_PER_ELEM,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_models::{resnet, vgg};

    #[test]
    fn ledger_tracks_and_enforces() {
        let mut l = MemoryLedger::new(100);
        l.allocate(60).unwrap();
        assert_eq!(l.used(), 60);
        assert_eq!(l.available(), 40);
        assert!(matches!(
            l.allocate(50),
            Err(TeeError::SecureMemoryExhausted {
                requested: 50,
                available: 40
            })
        ));
        // Failed allocation leaves state unchanged.
        assert_eq!(l.used(), 60);
        l.release(20);
        assert_eq!(l.used(), 40);
        l.allocate(50).unwrap();
        assert_eq!(l.peak(), 90);
        assert_eq!(l.budget(), 100);
    }

    #[test]
    fn release_never_underflows() {
        let mut l = MemoryLedger::new(10);
        l.release(5);
        assert_eq!(l.used(), 0);
    }

    #[test]
    fn baseline_report_scales_with_model() {
        let small = vgg::vgg_tiny(10, 3, (16, 16));
        let large = vgg::vgg18(10, 3, (32, 32));
        let rs = MemoryReport::for_baseline(&small).unwrap();
        let rl = MemoryReport::for_baseline(&large).unwrap();
        assert!(rl.total() > rs.total());
        assert!(rs.merge_buffer_bytes == 0);
        assert_eq!(
            rs.weight_bytes,
            small.param_count().unwrap() * BYTES_PER_ELEM
        );
    }

    #[test]
    fn secure_branch_report_has_merge_buffer() {
        let spec = resnet::resnet20_tiny(10, 3, (16, 16));
        let r = MemoryReport::for_secure_branch(&spec).unwrap();
        assert!(r.merge_buffer_bytes > 0);
        assert_eq!(
            r.total(),
            r.weight_bytes + r.activation_bytes + r.merge_buffer_bytes
        );
    }

    #[test]
    fn pruned_branch_uses_less_memory() {
        let full = vgg::vgg_tiny(10, 3, (16, 16));
        let mut pruned = full.clone();
        for u in &mut pruned.units {
            u.out_channels = (u.out_channels / 2).max(1);
        }
        let rf = MemoryReport::for_secure_branch(&full).unwrap();
        let rp = MemoryReport::for_secure_branch(&pruned).unwrap();
        assert!(rp.total() < rf.total());
    }
}

//! The secure world: a budgeted container for deployed models.
//!
//! Anything *not* inside a [`SecureWorld`] is attacker-visible under the
//! paper's threat model (the attacker reads all of REE memory). The
//! simulated secure world therefore only exposes opaque [`ModelHandle`]s;
//! the weights themselves are owned by the world and there is no accessor
//! returning them.

use std::collections::HashMap;

use tbnet_models::ModelSpec;

use crate::memory::{MemoryLedger, MemoryReport};
use crate::{CostModel, Result, TeeError};

/// Opaque handle to a model loaded in the secure world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelHandle(u64);

/// How a model is deployed in the TEE, which determines its footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// The entire model runs inside the TEE (the paper's baseline).
    Baseline,
    /// Only the TBNet secure branch runs inside the TEE; a merge staging
    /// buffer is added for the incoming REE feature maps.
    SecureBranch,
}

#[derive(Debug)]
struct Loaded {
    report: MemoryReport,
}

/// A simulated TrustZone secure world with a hard memory budget.
#[derive(Debug)]
pub struct SecureWorld {
    ledger: MemoryLedger,
    models: HashMap<u64, Loaded>,
    next_id: u64,
}

impl SecureWorld {
    /// Creates a secure world with an explicit byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        SecureWorld {
            ledger: MemoryLedger::new(budget_bytes),
            models: HashMap::new(),
            next_id: 0,
        }
    }

    /// Creates a secure world sized from a [`CostModel`]'s budget.
    pub fn from_cost_model(cost: &CostModel) -> Self {
        SecureWorld::new(cost.secure_memory_budget)
    }

    /// Loads a model, charging its full footprint against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SecureMemoryExhausted`] when the model does not
    /// fit, or spec validation errors.
    pub fn load_model(&mut self, spec: &ModelSpec, deployment: Deployment) -> Result<ModelHandle> {
        let report = match deployment {
            Deployment::Baseline => MemoryReport::for_baseline(spec)?,
            Deployment::SecureBranch => MemoryReport::for_secure_branch(spec)?,
        };
        self.ledger.allocate(report.total())?;
        let id = self.next_id;
        self.next_id += 1;
        self.models.insert(id, Loaded { report });
        Ok(ModelHandle(id))
    }

    /// Unloads a model, releasing its footprint.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnknownHandle`] for a stale handle.
    pub fn unload(&mut self, handle: ModelHandle) -> Result<()> {
        let loaded = self
            .models
            .remove(&handle.0)
            .ok_or(TeeError::UnknownHandle { id: handle.0 })?;
        self.ledger.release(loaded.report.total());
        Ok(())
    }

    /// Memory footprint of a loaded model.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnknownHandle`] for a stale handle.
    pub fn footprint(&self, handle: ModelHandle) -> Result<MemoryReport> {
        self.models
            .get(&handle.0)
            .map(|l| l.report)
            .ok_or(TeeError::UnknownHandle { id: handle.0 })
    }

    /// Unloads every model, releasing the whole budget. The serving
    /// runtime's supervisor calls this before reloading the secure branch
    /// into a restarted trusted application — a crashed TA's pool is
    /// reclaimed by the secure OS, so stale footprints must not keep
    /// charging the budget.
    pub fn unload_all(&mut self) {
        for (_, loaded) in self.models.drain() {
            self.ledger.release(loaded.report.total());
        }
    }

    /// Bytes currently allocated in secure memory.
    pub fn used(&self) -> usize {
        self.ledger.used()
    }

    /// High-water mark of secure-memory use.
    pub fn peak(&self) -> usize {
        self.ledger.peak()
    }

    /// Remaining secure-memory budget.
    pub fn available(&self) -> usize {
        self.ledger.available()
    }

    /// Configured secure-memory budget in bytes.
    pub fn budget(&self) -> usize {
        self.ledger.budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_models::vgg;

    #[test]
    fn load_and_unload_roundtrip() {
        let mut world = SecureWorld::new(64 * 1024 * 1024);
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let h = world.load_model(&spec, Deployment::Baseline).unwrap();
        assert!(world.used() > 0);
        let fp = world.footprint(h).unwrap();
        assert_eq!(fp.total(), world.used());
        world.unload(h).unwrap();
        assert_eq!(world.used(), 0);
        assert!(world.peak() > 0);
        assert!(world.unload(h).is_err());
        assert!(world.footprint(h).is_err());
    }

    #[test]
    fn budget_enforced() {
        // A 1 KiB secure world cannot hold the model.
        let mut world = SecureWorld::new(1024);
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        assert!(matches!(
            world.load_model(&spec, Deployment::Baseline),
            Err(TeeError::SecureMemoryExhausted { .. })
        ));
        assert_eq!(world.used(), 0);
    }

    #[test]
    fn secure_branch_charges_merge_buffer() {
        let mut world = SecureWorld::new(64 * 1024 * 1024);
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let hb = world.load_model(&spec, Deployment::Baseline).unwrap();
        let base = world.footprint(hb).unwrap();
        let hs = world.load_model(&spec, Deployment::SecureBranch).unwrap();
        let branch = world.footprint(hs).unwrap();
        assert_eq!(base.merge_buffer_bytes, 0);
        assert!(branch.merge_buffer_bytes > 0);
    }

    #[test]
    fn from_cost_model_budget() {
        let cost = CostModel::raspberry_pi3();
        let world = SecureWorld::from_cost_model(&cost);
        assert_eq!(world.available(), cost.secure_memory_budget);
    }

    #[test]
    fn unload_all_reclaims_everything() {
        let mut world = SecureWorld::new(64 * 1024 * 1024);
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let h1 = world.load_model(&spec, Deployment::Baseline).unwrap();
        let _h2 = world.load_model(&spec, Deployment::SecureBranch).unwrap();
        assert!(world.used() > 0);
        world.unload_all();
        assert_eq!(world.used(), 0);
        assert!(world.unload(h1).is_err(), "handles are stale after reset");
        // The freed budget is usable again (the restart path).
        world.load_model(&spec, Deployment::SecureBranch).unwrap();
        assert!(world.used() > 0);
    }

    #[test]
    fn multiple_models_accumulate() {
        let mut world = SecureWorld::new(64 * 1024 * 1024);
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let h1 = world.load_model(&spec, Deployment::Baseline).unwrap();
        let one = world.used();
        let _h2 = world.load_model(&spec, Deployment::Baseline).unwrap();
        assert_eq!(world.used(), 2 * one);
        world.unload(h1).unwrap();
        assert_eq!(world.used(), one);
    }
}

//! Deterministic secure-world fault injection (the nemesis layer).
//!
//! A real TrustZone deployment fails in ways the happy-path simulator never
//! shows: SMC world switches abort under interrupt pressure, the shared-
//! memory channel stalls or returns scribbled pages, the TA pool runs out of
//! secure memory, and the trusted application itself can crash and be
//! restarted by the supervisor. A [`FaultPlan`] scripts those failures —
//! seeded and counter-based, so a given schedule replays identically — and
//! the serving runtime in `tbnet-core` consults it at every decision point:
//!
//! * [`FaultPlan::on_world_switch`] before each channel send (every send
//!   models one world switch) and for health probes;
//! * [`FaultPlan::on_payload_send`] when a feature map enters the channel
//!   (payload corruption, caught by the receiver's checksum);
//! * [`FaultPlan::on_consumer_payload`] when the TEE consumer picks a
//!   payload up (secure-world stalls and crashes);
//! * [`FaultPlan::load_model`] instead of [`SecureWorld::load_model`]
//!   (secure-memory exhaustion at TA start or restart).
//!
//! The plan records everything it injected ([`FaultPlan::counts`]), so tests
//! can assert both that faults actually fired and that the runtime answered
//! each one with its typed recovery.
//!
//! Checksums: feature maps crossing the channel carry [`checksum_f32`] over
//! their bit patterns; [`corrupt_f32`] is the canonical bit-flip the plan's
//! corruption fault applies. The serving runtime re-hashes what the TEE
//! consumer received; on a mismatch it counts the payload as corrupted and
//! requeues the batch.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tbnet_models::ModelSpec;

use crate::world::{Deployment, ModelHandle, SecureWorld};
use crate::{Result, TeeError};

/// The secure-world failure modes the nemesis can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An SMC world switch aborts; the send never happens. Transient — the
    /// correct response is bounded retry with backoff.
    WorldSwitchFailure,
    /// The secure world stops draining the channel for a while; senders see
    /// backpressure and then timeouts.
    ChannelStall,
    /// A payload crosses the channel with flipped bits; the receiver's
    /// checksum catches it.
    PayloadCorruption,
    /// `SecureWorld::load_model` fails with memory exhaustion.
    SecureMemoryExhaustion,
    /// The TEE consumer (the trusted application) dies mid-run and must be
    /// restarted by the supervisor.
    ConsumerCrash,
}

/// What the TEE consumer should suffer before processing a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerFault {
    /// Proceed normally.
    None,
    /// Sleep this long first (secure-world stall; builds channel
    /// backpressure).
    Stall(Duration),
    /// Die now. The supervisor is expected to restart the consumer.
    Crash,
}

/// How many faults of each kind the plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// World switches the plan aborted.
    pub world_switch_failures: u64,
    /// Payloads the plan corrupted on send.
    pub corrupted_payloads: u64,
    /// Consumer stalls injected.
    pub stalls: u64,
    /// Consumer crashes injected.
    pub crashes: u64,
    /// Model loads failed with memory exhaustion.
    pub exhausted_loads: u64,
    /// Total world-switch attempts observed (failed or not).
    pub world_switches: u64,
    /// Total payload sends observed.
    pub payload_sends: u64,
    /// Total consumer payloads observed.
    pub consumer_payloads: u64,
    /// Total model loads observed.
    pub model_loads: u64,
}

impl FaultCounts {
    /// Total faults injected across every kind.
    pub fn total_injected(&self) -> u64 {
        self.world_switch_failures
            + self.corrupted_payloads
            + self.stalls
            + self.crashes
            + self.exhausted_loads
    }
}

/// One deterministic fault window over a per-kind operation counter:
/// operations with index in `start..start + len` (0-based) are hit.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: u64,
    len: u64,
}

impl Window {
    fn hits(&self, idx: u64) -> bool {
        idx >= self.start && idx < self.start + self.len
    }
}

#[derive(Debug, Default)]
struct Inner {
    rng: u64,
    // Probabilistic faults (seeded Bernoulli per call).
    world_switch_rate: f64,
    corruption_rate: f64,
    // Deterministic windows over the per-kind counters.
    switch_outages: Vec<Window>,
    corrupt_at: Vec<u64>,
    stall_every: Option<(u64, Duration)>,
    crash_at: Vec<u64>,
    exhaust_loads_at: Vec<u64>,
    // Per-kind operation counters.
    world_switches: u64,
    payload_sends: u64,
    consumer_payloads: u64,
    model_loads: u64,
    counts: FaultCounts,
}

impl Inner {
    /// xorshift64*: deterministic, seed-stable across platforms.
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }
}

/// A scripted, replayable schedule of secure-world faults. Cloning yields a
/// handle to the *same* schedule (counters included) so every runtime thread
/// consults one shared nemesis.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// A plan that never injects anything (the healthy baseline).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan with a seed for its probabilistic faults. The same
    /// seed and call sequence replays the same fault decisions.
    pub fn seeded(seed: u64) -> Self {
        let plan = FaultPlan::default();
        // 0 is xorshift's absorbing state; displace it like SplitMix does.
        plan.lock().rng = seed.wrapping_mul(2).wrapping_add(0x9E37_79B9_7F4A_7C15) | 1;
        plan
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every world switch fails independently with probability `p`.
    #[must_use]
    pub fn with_world_switch_failure_rate(self, p: f64) -> Self {
        self.lock().world_switch_rate = p.clamp(0.0, 1.0);
        self
    }

    /// World switches `start..start + len` (0-based attempt index) fail
    /// deterministically — an outage burst. Multiple windows may overlap.
    #[must_use]
    pub fn with_world_switch_outage(self, start: u64, len: u64) -> Self {
        self.lock().switch_outages.push(Window { start, len });
        self
    }

    /// Every payload send is corrupted independently with probability `p`.
    #[must_use]
    pub fn with_corruption_rate(self, p: f64) -> Self {
        self.lock().corruption_rate = p.clamp(0.0, 1.0);
        self
    }

    /// Payload send number `n` (0-based) is corrupted deterministically.
    #[must_use]
    pub fn with_corrupt_payload_at(self, n: u64) -> Self {
        self.lock().corrupt_at.push(n);
        self
    }

    /// The consumer stalls for `d` before every `n`-th payload it picks up.
    #[must_use]
    pub fn with_consumer_stall_every(self, n: u64, d: Duration) -> Self {
        self.lock().stall_every = Some((n.max(1), d));
        self
    }

    /// The consumer crashes when it picks up payload number `n` (0-based,
    /// counted across restarts). One-shot per scheduled index.
    #[must_use]
    pub fn with_consumer_crash_at(self, n: u64) -> Self {
        self.lock().crash_at.push(n);
        self
    }

    /// Model load number `n` (0-based) fails with secure-memory exhaustion
    /// — a TA start or restart that cannot get its pool.
    #[must_use]
    pub fn with_exhausted_load_at(self, n: u64) -> Self {
        self.lock().exhaust_loads_at.push(n);
        self
    }

    /// Consulted before each world switch (channel send or health probe).
    /// Returns `true` when this switch fails; the caller should back off
    /// and retry a bounded number of times.
    pub fn on_world_switch(&self) -> bool {
        let mut inner = self.lock();
        let idx = inner.world_switches;
        inner.world_switches += 1;
        inner.counts.world_switches += 1;
        let outage = inner.switch_outages.iter().any(|w| w.hits(idx));
        let random = inner.world_switch_rate > 0.0 && {
            let p = inner.world_switch_rate;
            inner.next_unit() < p
        };
        if outage || random {
            inner.counts.world_switch_failures += 1;
            true
        } else {
            false
        }
    }

    /// Consulted when a payload enters the channel. Returns `true` when its
    /// bits should be flipped (the sender-side nemesis scribbling shared
    /// memory); the receiver's checksum is expected to catch it.
    pub fn on_payload_send(&self) -> bool {
        let mut inner = self.lock();
        let idx = inner.payload_sends;
        inner.payload_sends += 1;
        inner.counts.payload_sends += 1;
        let scheduled = inner.corrupt_at.contains(&idx);
        let random = inner.corruption_rate > 0.0 && {
            let p = inner.corruption_rate;
            inner.next_unit() < p
        };
        if scheduled || random {
            inner.counts.corrupted_payloads += 1;
            true
        } else {
            false
        }
    }

    /// Consulted by the TEE consumer before processing each payload.
    pub fn on_consumer_payload(&self) -> ConsumerFault {
        let mut inner = self.lock();
        let idx = inner.consumer_payloads;
        inner.consumer_payloads += 1;
        inner.counts.consumer_payloads += 1;
        if let Some(pos) = inner.crash_at.iter().position(|&n| n == idx) {
            inner.crash_at.swap_remove(pos);
            inner.counts.crashes += 1;
            return ConsumerFault::Crash;
        }
        if let Some((every, d)) = inner.stall_every {
            if idx % every == every - 1 {
                inner.counts.stalls += 1;
                return ConsumerFault::Stall(d);
            }
        }
        ConsumerFault::None
    }

    /// Loads `spec` into `world`, injecting secure-memory exhaustion when
    /// the schedule says this load fails.
    ///
    /// # Errors
    ///
    /// [`TeeError::SecureMemoryExhausted`] when injected (or genuinely out
    /// of budget), plus spec validation errors from the real load.
    pub fn load_model(
        &self,
        world: &mut SecureWorld,
        spec: &ModelSpec,
        deployment: Deployment,
    ) -> Result<ModelHandle> {
        {
            let mut inner = self.lock();
            let idx = inner.model_loads;
            inner.model_loads += 1;
            inner.counts.model_loads += 1;
            if inner.exhaust_loads_at.contains(&idx) {
                inner.counts.exhausted_loads += 1;
                return Err(TeeError::SecureMemoryExhausted {
                    requested: world.available() + 1,
                    available: world.available(),
                });
            }
        }
        world.load_model(spec, deployment)
    }

    /// Everything injected (and observed) so far.
    pub fn counts(&self) -> FaultCounts {
        self.lock().counts
    }
}

/// Independent hash lanes of [`checksum_f32`]: enough to keep a 64-bit
/// multiplier busy every cycle instead of waiting on one dependent chain.
const CHECKSUM_LANES: usize = 8;
/// Odd multiplier of the lane step (2^64 / φ), so the multiply is a
/// bijection.
const CHECKSUM_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;
/// FNV-1a's offset basis, the starting state of lanes and fold.
const CHECKSUM_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// One lane step `rotl((h ⊕ w)·P, 29)`: a bijection in `h` for fixed `w`
/// and in `w` for fixed `h`. The rotation brings the product's high bits
/// back down; without it a flip of bit 63 passes through every odd multiply
/// unchanged, and two such flips (two sign bits) would cancel.
#[inline(always)]
fn checksum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(CHECKSUM_PRIME).rotate_left(29)
}

/// A word-wise, multi-lane hash of the bit patterns of `data` — the
/// integrity check payloads carry across the one-way channel.
///
/// Layout: each run of `2 · 8` elements feeds 8 lanes, lane `k` taking
/// elements `2k` and `2k + 1` packed into one `u64` word; the `len % 16`
/// tail elements go one per step to lane `i % 8` by their tail index. The
/// digest then folds the lanes in lane order with the same step, starting
/// from a basis mixed with `data.len()`. It folds `f32::to_bits` values,
/// never raw memory, so it is deterministic and identical on every
/// platform.
///
/// **Guarantee:** changing any single element changes the digest, so
/// [`corrupt_f32`] is always caught. The changed element alters exactly one
/// word of one lane; the step is a bijection in the word, so that lane's
/// state changes, and a bijection in the state, so the change survives the
/// lane's later steps and every step of the fold. Slices of different
/// lengths also start the fold from different states.
///
/// This is fault detection, not authentication: the REE computes both the
/// payload and its digest, so it detects accidental scribbles in shared
/// memory, not a rich world that forges both.
pub fn checksum_f32(data: &[f32]) -> u64 {
    let mut lanes = [0u64; CHECKSUM_LANES];
    for (k, lane) in lanes.iter_mut().enumerate() {
        *lane = CHECKSUM_BASIS ^ (k as u64).wrapping_mul(CHECKSUM_PRIME);
    }
    let mut chunks = data.chunks_exact(2 * CHECKSUM_LANES);
    for chunk in &mut chunks {
        for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
            let w = u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32;
            *lane = checksum_step(*lane, w);
        }
    }
    for (i, v) in chunks.remainder().iter().enumerate() {
        let lane = &mut lanes[i % CHECKSUM_LANES];
        *lane = checksum_step(*lane, u64::from(v.to_bits()));
    }
    lanes.iter().fold(
        checksum_step(CHECKSUM_BASIS, data.len() as u64),
        |h, &lane| checksum_step(h, lane),
    )
}

/// The canonical corruption: flips one mantissa bit of one element, chosen
/// by `salt` — a single-event upset in shared memory. Guaranteed to change
/// [`checksum_f32`] for non-empty data.
pub fn corrupt_f32(data: &mut [f32], salt: u64) {
    if data.is_empty() {
        return;
    }
    let idx = (salt as usize) % data.len();
    let bit = 1u32 << (salt % 23) as u32; // stay inside the mantissa
    data[idx] = f32::from_bits(data[idx].to_bits() ^ bit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbnet_models::vgg;

    #[test]
    fn none_plan_injects_nothing() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(!plan.on_world_switch());
            assert!(!plan.on_payload_send());
            assert_eq!(plan.on_consumer_payload(), ConsumerFault::None);
        }
        assert_eq!(plan.counts().total_injected(), 0);
        assert_eq!(plan.counts().world_switches, 100);
    }

    #[test]
    fn outage_window_is_deterministic() {
        let plan = FaultPlan::seeded(1).with_world_switch_outage(3, 2);
        let hits: Vec<bool> = (0..8).map(|_| plan.on_world_switch()).collect();
        assert_eq!(
            hits,
            vec![false, false, false, true, true, false, false, false]
        );
        assert_eq!(plan.counts().world_switch_failures, 2);
    }

    #[test]
    fn seeded_rate_replays_identically() {
        let trace = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_world_switch_failure_rate(0.3);
            (0..64).map(|_| plan.on_world_switch()).collect()
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43), "different seeds diverge");
        let fired = trace(42).iter().filter(|&&b| b).count();
        assert!(fired > 0 && fired < 64, "rate 0.3 fired {fired}/64");
    }

    #[test]
    fn crash_is_one_shot_and_counted() {
        let plan = FaultPlan::seeded(7).with_consumer_crash_at(2);
        assert_eq!(plan.on_consumer_payload(), ConsumerFault::None);
        assert_eq!(plan.on_consumer_payload(), ConsumerFault::None);
        assert_eq!(plan.on_consumer_payload(), ConsumerFault::Crash);
        // Consumed: the restarted consumer does not crash again.
        for _ in 0..10 {
            assert_eq!(plan.on_consumer_payload(), ConsumerFault::None);
        }
        assert_eq!(plan.counts().crashes, 1);
    }

    #[test]
    fn stall_fires_periodically() {
        let d = Duration::from_millis(5);
        let plan = FaultPlan::seeded(7).with_consumer_stall_every(3, d);
        let faults: Vec<ConsumerFault> = (0..6).map(|_| plan.on_consumer_payload()).collect();
        assert_eq!(
            faults,
            vec![
                ConsumerFault::None,
                ConsumerFault::None,
                ConsumerFault::Stall(d),
                ConsumerFault::None,
                ConsumerFault::None,
                ConsumerFault::Stall(d),
            ]
        );
        assert_eq!(plan.counts().stalls, 2);
    }

    #[test]
    fn load_exhaustion_injected_then_clears() {
        let spec = vgg::vgg_tiny(10, 3, (16, 16));
        let mut world = SecureWorld::new(64 * 1024 * 1024);
        let plan = FaultPlan::seeded(3).with_exhausted_load_at(0);
        assert!(matches!(
            plan.load_model(&mut world, &spec, Deployment::SecureBranch),
            Err(TeeError::SecureMemoryExhausted { .. })
        ));
        assert_eq!(world.used(), 0, "injected failure must not leak budget");
        let h = plan
            .load_model(&mut world, &spec, Deployment::SecureBranch)
            .expect("second load is clean");
        assert!(world.used() > 0);
        world.unload(h).unwrap();
        assert_eq!(plan.counts().exhausted_loads, 1);
        assert_eq!(plan.counts().model_loads, 2);
    }

    #[test]
    fn clones_share_one_schedule() {
        let plan = FaultPlan::seeded(5).with_world_switch_outage(1, 1);
        let other = plan.clone();
        assert!(!plan.on_world_switch());
        // The clone observes the shared counter: its first call is switch #1.
        assert!(other.on_world_switch());
        assert_eq!(plan.counts(), other.counts());
    }

    #[test]
    fn checksum_detects_canonical_corruption() {
        let mut data: Vec<f32> = (0..257).map(|i| i as f32 * 0.37 - 40.0).collect();
        let clean = checksum_f32(&data);
        assert_eq!(clean, checksum_f32(&data), "checksum is deterministic");
        for salt in 0..32 {
            let mut corrupted = data.clone();
            corrupt_f32(&mut corrupted, salt);
            assert_ne!(
                clean,
                checksum_f32(&corrupted),
                "flip with salt {salt} must change the checksum"
            );
        }
        corrupt_f32(&mut data, 9);
        assert_ne!(clean, checksum_f32(&data));

        // Every single-bit flip of every element, at every length up to
        // 40: all tail lengths, both word halves, lanes that step twice.
        for len in 1..=40usize {
            let data: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 4.0).collect();
            let clean = checksum_f32(&data);
            for idx in 0..len {
                for bit in 0..32 {
                    let mut flipped = data.clone();
                    flipped[idx] = f32::from_bits(flipped[idx].to_bits() ^ (1 << bit));
                    assert_ne!(
                        clean,
                        checksum_f32(&flipped),
                        "len {len}: flipping bit {bit} of element {idx} went unseen"
                    );
                }
            }
        }
        for x in [0.0f32, 1.0, -2.5] {
            assert_ne!(checksum_f32(&[x]), checksum_f32(&[x, 0.0]), "x = {x}");
        }
    }

    #[test]
    fn checksum_sees_paired_sign_flips() {
        // A difference in bit 63 survives an odd multiply unchanged, so
        // without the lane rotation two sign flips would cancel.
        let data: Vec<f32> = (0..48).map(|i| i as f32 * 0.5 + 1.0).collect();
        let clean = checksum_f32(&data);
        for a in 0..data.len() {
            for b in a + 1..data.len() {
                let mut flipped = data.clone();
                flipped[a] = -flipped[a];
                flipped[b] = -flipped[b];
                assert_ne!(clean, checksum_f32(&flipped), "signs of {a} and {b}");
            }
        }
    }

    #[test]
    fn checksum_is_value_sensitive_not_length_only() {
        let a = checksum_f32(&[1.0, 2.0, 3.0]);
        let b = checksum_f32(&[1.0, 2.0, 4.0]);
        let c = checksum_f32(&[2.0, 1.0, 3.0]);
        assert_ne!(a, b);
        assert_ne!(a, c, "order matters");
    }
}

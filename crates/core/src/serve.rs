//! Fault-tolerant split-inference serving runtime.
//!
//! [`crate::deploy::run_split_inference`] executes one split inference on one
//! thread — correct, but nothing like a deployment, where requests arrive
//! concurrently, the secure world is a shared bottleneck, and TrustZone
//! fails in ways the happy path never shows. This module is the runtime the
//! paper's deployment section implies but does not build:
//!
//! * an **admission queue** with per-request deadlines and a high-water mark
//!   (past it, requests are shed immediately instead of queued to die);
//! * a **dynamic batcher**: REE workers merge single-sample requests into
//!   batches up to [`ServeConfig::max_batch`]. Requests already queued join
//!   without waiting; the batch waits up to [`ServeConfig::batch_linger`]
//!   for stragglers only while the running mean gap between admitted
//!   submissions is shorter than that linger, so a request at light load
//!   costs one split inference plus a hand-off;
//! * a **pipelined split execution**: the REE worker streams `M_R` feature
//!   maps through a *bounded* one-way channel while a dedicated TEE consumer
//!   thread merges and classifies — REE compute, transfer and TEE compute
//!   genuinely overlap, which [`ServeReport::validate_pipeline`] checks
//!   against the event-driven simulator's prediction. Every payload carries
//!   a [`checksum_f32`] digest taken before it enters the channel, and the
//!   consumer re-hashes what it received;
//! * a **nemesis-driven fault model** ([`tbnet_tee::FaultPlan`]) answered
//!   with *typed* recovery: transient world-switch failures get bounded
//!   retry with exponential backoff, channel stalls and checksum-detected
//!   corruption get the batch requeued, a crashed TEE consumer is reclaimed
//!   and restarted by the supervisor (secure memory released and the model
//!   reloaded), and a TEE declared unhealthy by the supervisor's probes
//!   routes requests to a **graceful degradation** path: an REE-resident
//!   int8 answer ([`TwoBranchModel::predict_int8`]), flagged
//!   [`Outcome::Degraded`] so the caller knows the TEE guarantee was not
//!   met.
//!
//! Every admitted request reaches **exactly one** terminal [`Outcome`]
//! (answered, degraded, shed, or expired) — the in-flight registry makes
//! completion a compare-and-remove, so worker/consumer/supervisor races
//! cannot double-complete or lose a request. The integration suites
//! (`crates/core/tests/serve_runtime.rs`,
//! `crates/core/tests/serve_faults.rs`) assert this under seeded fault
//! schedules, including a mid-run consumer crash.
//!
//! Data still only flows REE→TEE: requeues and job announcements are
//! control-plane supervisor traffic, never `M_T` activations.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use tbnet_models::{ChainNet, ModelSpec};
use tbnet_tee::channel::{one_way_bounded, RecvError, ReeSender, SendError, TeeReceiver};
use tbnet_tee::{
    calibrate_cost_model, checksum_f32, corrupt_f32, simulate_two_branch, ConsumerFault, CostModel,
    Deployment, FaultCounts, FaultPlan, LatencyReport, MeasuredStages, SecureWorld,
};
use tbnet_tensor::Tensor;

use crate::two_branch::SecureForward;
use crate::{CoreError, Result, TwoBranchModel};

/// Tuning knobs of the serving runtime. [`ServeConfig::default`] is sized
/// for a real deployment; [`ServeConfig::fast_test`] shrinks every timeout
/// so deterministic fault tests finish in milliseconds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// REE worker threads forming and executing batches.
    pub ree_workers: usize,
    /// Largest batch the dynamic batcher will form.
    pub max_batch: usize,
    /// Longest a batch waits for stragglers. It waits only while recent
    /// arrivals are denser than this (their running mean gap is shorter);
    /// queued requests join without waiting.
    pub batch_linger: Duration,
    /// Admission-queue depth past which new requests are shed immediately.
    pub queue_high_water: usize,
    /// Deadline attached by [`ServeEngine::submit`] (see
    /// [`ServeEngine::submit_with_deadline`] for per-request control).
    pub default_deadline: Duration,
    /// Capacity of each batch's bounded REE→TEE channel, in payloads.
    pub channel_cap: usize,
    /// Longest a worker blocks on a full channel before declaring the
    /// secure world stalled and requeueing the batch.
    pub send_timeout: Duration,
    /// Longest the TEE consumer waits for the next feature map before
    /// declaring the rich world stalled and abandoning the batch.
    pub recv_timeout: Duration,
    /// Bounded retry budget for transient world-switch failures, per send.
    pub max_send_retries: u32,
    /// How many times a request may be requeued (stall, corruption, crash
    /// reclaim) before it is answered by the degraded path instead.
    pub max_requeues: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on a single retry backoff.
    pub backoff_cap: Duration,
    /// Consecutive health failures before the TEE is declared unhealthy.
    /// A world switch that succeeds on the send path, or a successful probe,
    /// ends the streak.
    pub unhealthy_after: u32,
    /// Consecutive probe successes before an unhealthy TEE is trusted
    /// again.
    pub healthy_after: u32,
    /// Supervisor tick: health probes and consumer crash detection.
    pub probe_interval: Duration,
    /// Hang guard for [`ServeEngine::shutdown`]'s drain: in-flight requests
    /// still unresolved past it are force-expired so shutdown always
    /// terminates with every request accounted for.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ree_workers: 1,
            max_batch: 8,
            batch_linger: Duration::from_millis(2),
            queue_high_water: 64,
            default_deadline: Duration::from_secs(2),
            channel_cap: 4,
            send_timeout: Duration::from_millis(500),
            recv_timeout: Duration::from_millis(500),
            max_send_retries: 4,
            max_requeues: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            unhealthy_after: 3,
            healthy_after: 2,
            probe_interval: Duration::from_millis(10),
            drain_timeout: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    /// A configuration with millisecond-scale timeouts for deterministic
    /// fault tests on slow CI hosts.
    pub fn fast_test() -> Self {
        ServeConfig {
            ree_workers: 1,
            max_batch: 4,
            batch_linger: Duration::from_millis(1),
            queue_high_water: 256,
            default_deadline: Duration::from_secs(10),
            channel_cap: 2,
            send_timeout: Duration::from_millis(200),
            recv_timeout: Duration::from_millis(200),
            max_send_retries: 3,
            max_requeues: 2,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(5),
            unhealthy_after: 1,
            healthy_after: 1,
            probe_interval: Duration::from_millis(2),
            drain_timeout: Duration::from_secs(20),
        }
    }

    fn validate(&self) -> Result<()> {
        let check = |ok: bool, field: &'static str, reason: &str| {
            if ok {
                Ok(())
            } else {
                Err(CoreError::InvalidConfig {
                    field,
                    reason: reason.to_string(),
                })
            }
        };
        check(self.ree_workers >= 1, "ree_workers", "need >= 1 worker")?;
        check(self.max_batch >= 1, "max_batch", "need >= 1")?;
        check(self.queue_high_water >= 1, "queue_high_water", "need >= 1")?;
        check(self.channel_cap >= 1, "channel_cap", "need >= 1")?;
        check(self.unhealthy_after >= 1, "unhealthy_after", "need >= 1")?;
        check(self.healthy_after >= 1, "healthy_after", "need >= 1")?;
        check(!self.probe_interval.is_zero(), "probe_interval", "need > 0")?;
        check(!self.drain_timeout.is_zero(), "drain_timeout", "need > 0")
    }
}

/// Exponential backoff for retry `attempt` (0-based): `base << attempt`,
/// saturating at `cap`. Monotone non-decreasing in `attempt`.
fn backoff_for(cfg: &ServeConfig, attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt.min(24)).unwrap_or(u32::MAX);
    cfg.backoff_base.saturating_mul(factor).min(cfg.backoff_cap)
}

/// The terminal state of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The full two-branch split answered inside the TEE.
    Answered {
        /// The logits row produced by `M_T`'s head.
        logits: Vec<f32>,
        /// Submit-to-completion wall clock.
        latency_ms: f64,
        /// How many times this request was requeued before it completed.
        requeues: u32,
    },
    /// The TEE was unavailable; the REE worker produced the answer with
    /// [`TwoBranchModel::predict_int8`] (int8 `M_R`, f32 `M_T`) on a batch
    /// of one, so it is bit-identical to calling that method directly on
    /// the same sample.
    Degraded {
        /// The logits row of the fallback int8 path.
        logits: Vec<f32>,
        /// Submit-to-completion wall clock.
        latency_ms: f64,
    },
    /// Load-shedding refused the request at admission (queue past its
    /// high-water mark).
    Shed,
    /// The request's deadline passed before a worker reached it.
    Expired,
}

/// One request's identity and terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The id returned by [`ServeEngine::submit`].
    pub id: u64,
    /// What happened to it.
    pub outcome: Outcome,
}

/// Outcome tally of a serving session. Always satisfies
/// `admitted == answered + degraded + shed + expired`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Requests accepted by [`ServeEngine::submit`].
    pub admitted: u64,
    /// Full TEE answers.
    pub answered: u64,
    /// Fallback answers computed on the REE worker
    /// ([`TwoBranchModel::predict_int8`]).
    pub degraded: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Requests whose deadline passed (including force-expired at drain).
    pub expired: u64,
}

/// Counters and stage-time accumulators of a serving session.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Healthy-path batches completed end to end.
    pub batches: u64,
    /// Samples across those batches.
    pub batch_samples: u64,
    /// REE `M_R` unit-forward nanoseconds, summed over healthy batches.
    pub ree_ns: u64,
    /// Channel send nanoseconds: the sender's payload checksum, world
    /// switches with their retry backoffs, enqueue and backpressure waits.
    pub transfer_ns: u64,
    /// TEE-side checksum verification of received payloads, summed over
    /// healthy batches. The simulator has no verify stage, so this stays
    /// out of [`ServeReport::stages`] and [`ServeReport::measured_overlap`].
    pub verify_ns: u64,
    /// TEE `M_T` unit-forward and head nanoseconds.
    pub tee_ns: u64,
    /// Degraded-fallback [`TwoBranchModel::predict_int8`] nanoseconds,
    /// summed over degraded requests. Like `verify_ns`, this is not a stage
    /// of the healthy pipeline, so it stays out of [`ServeReport::stages`]
    /// and [`ServeReport::measured_overlap`].
    pub degraded_ns: u64,
    /// TEE-side aligned-channel extraction before each merge.
    pub merge_ns: u64,
    /// Batch-formation-to-classification wall clock, summed per batch.
    pub makespan_ns: u64,
    /// World-switch retries performed by senders.
    pub send_retries: u64,
    /// Backoff sequences (milliseconds, in retry order) of every send that
    /// retried at least once — the monotone-backoff regression test reads
    /// this.
    pub retry_traces: Vec<Vec<f64>>,
    /// Batches pushed back into admission (stall, corruption, crash).
    pub requeues: u64,
    /// Sends abandoned after the retry budget or a channel stall/timeout.
    pub send_failures: u64,
    /// Payloads whose checksum did not survive the channel.
    pub corruption_detected: u64,
    /// TEE consumer restarts performed by the supervisor.
    pub consumer_restarts: u64,
    /// Healthy→unhealthy transitions.
    pub unhealthy_transitions: u64,
    /// Requests force-expired by the shutdown hang guard.
    pub forced_expired: u64,
    /// Deepest any batch channel ever got (max over batches).
    pub channel_high_water: u64,
    /// Payloads dropped across all batch channels.
    pub channel_dropped: u64,
}

/// Everything a finished serving session reports.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Terminal outcome of every admitted request, in completion order.
    pub completions: Vec<Completion>,
    /// Outcome tally (consistent with `completions`).
    pub counts: OutcomeCounts,
    /// Counters and accumulators.
    pub metrics: ServeMetrics,
    /// Mean per-batch stage times of the healthy path, in the shape the
    /// simulator calibration expects.
    pub stages: MeasuredStages,
    /// Mean samples per healthy batch.
    pub mean_batch: f64,
    /// Measured pipeline overlap: per-batch stage-time sum over per-batch
    /// makespan (1.0 = fully serial; above 1.0 = stages overlapped).
    pub measured_overlap: f64,
    /// Everything the nemesis injected and observed.
    pub faults: FaultCounts,
}

impl ServeReport {
    /// Latency percentile (`q` in `[0, 1]`) over answered and degraded
    /// requests. Returns 0.0 when nothing completed with an answer.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let mut lat: Vec<f64> = self
            .completions
            .iter()
            .filter_map(|c| match &c.outcome {
                Outcome::Answered { latency_ms, .. } | Outcome::Degraded { latency_ms, .. } => {
                    Some(*latency_ms)
                }
                _ => None,
            })
            .collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(f64::total_cmp);
        let idx = (q.clamp(0.0, 1.0) * (lat.len() - 1) as f64).round() as usize;
        lat[idx]
    }

    /// Fraction of admitted requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.counts.admitted == 0 {
            0.0
        } else {
            self.counts.shed as f64 / self.counts.admitted as f64
        }
    }

    /// Checks the healthy-path pipeline against the event-driven simulator:
    /// fits a [`CostModel`] to the measured per-batch stage times
    /// ([`calibrate_cost_model`]) and compares the measured stage overlap
    /// with [`LatencyReport::pipeline_overlap`] of the simulated schedule.
    /// A `ratio` near 1.0 means the concurrent runtime pipelines stages the
    /// way the simulator predicts.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when no healthy batch completed (there
    /// is nothing to calibrate from), plus spec/cost validation errors.
    pub fn validate_pipeline(
        &self,
        mt_spec: &ModelSpec,
        mr_spec: &ModelSpec,
    ) -> Result<PipelineValidation> {
        let cost = self.calibrated_cost_model(mt_spec, mr_spec)?;
        let simulated = simulate_two_branch(mt_spec, mr_spec, &cost)?;
        let simulated_overlap = simulated.pipeline_overlap();
        Ok(PipelineValidation {
            measured_overlap: self.measured_overlap,
            simulated_overlap,
            ratio: self.measured_overlap / simulated_overlap,
            simulated,
        })
    }

    /// Fits a [`CostModel`] to this run's measured per-batch stage times at
    /// its mean batch size.
    fn calibrated_cost_model(&self, mt_spec: &ModelSpec, mr_spec: &ModelSpec) -> Result<CostModel> {
        if self.metrics.batches == 0 {
            return Err(CoreError::InvalidConfig {
                field: "calibrated_cost_model",
                reason: "no healthy batches completed; nothing to calibrate from".into(),
            });
        }
        let batch = (self.mean_batch.round() as usize).max(1);
        Ok(calibrate_cost_model(mt_spec, mr_spec, &self.stages, batch)?)
    }
}

/// Result of [`ServeReport::validate_pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineValidation {
    /// Stage overlap the concurrent runtime actually achieved.
    pub measured_overlap: f64,
    /// Stage overlap the calibrated simulator predicts.
    pub simulated_overlap: f64,
    /// `measured_overlap / simulated_overlap`.
    pub ratio: f64,
    /// The full simulated schedule, for inspection.
    pub simulated: LatencyReport,
}

// ---------------------------------------------------------------------------
// Internal shared state.
// ---------------------------------------------------------------------------

/// A feature map (or the input batch) crossing the one-way channel, with
/// the integrity checksum the sender computed *before* the nemesis had a
/// chance to scribble the payload.
#[derive(Debug)]
struct Payload {
    data: Tensor,
    checksum: u64,
}

/// One admitted request waiting in (or requeued to) the admission queue.
#[derive(Debug)]
struct Job {
    id: u64,
    /// Normalized to `[1, C, H, W]`.
    image: Tensor,
}

/// Weight of the newest gap in [`ArrivalClock`]'s running mean. At a
/// Poisson rate the mean's spread is about `sqrt(w / (2 - w))` ≈ 0.18 of
/// the true gap, so steady traffic at a few times the linger rarely reads
/// as dense. A burst reads as dense from its first gap on a fresh engine,
/// and after about 30 arrivals following steady 12.5 ms gaps.
const ARRIVAL_GAP_WEIGHT: f64 = 1.0 / 16.0;

/// Exponentially weighted mean of the gaps between admitted submissions:
/// the batcher's evidence that lingering for stragglers can pay off.
/// Requeued jobs are not arrivals and never touch it.
#[derive(Debug, Default)]
struct ArrivalClock {
    last: Option<Instant>,
    /// `None` until the first gap is seen.
    mean_gap_s: Option<f64>,
}

impl ArrivalClock {
    fn record(&mut self, at: Instant) {
        if let Some(last) = self.last {
            let gap = at.saturating_duration_since(last).as_secs_f64();
            self.mean_gap_s = Some(match self.mean_gap_s {
                Some(mean) => mean + ARRIVAL_GAP_WEIGHT * (gap - mean),
                None => gap,
            });
        }
        self.last = Some(at);
    }

    /// Whether arrivals come closer together than `linger` on average, so
    /// a batch can expect stragglers within it. Sparse until a gap is seen.
    fn dense(&self, linger: Duration) -> bool {
        self.mean_gap_s
            .is_some_and(|mean| mean < linger.as_secs_f64())
    }
}

/// The admission queue and the arrival clock its submissions feed, under
/// one lock.
#[derive(Debug, Default)]
struct Admission {
    jobs: VecDeque<Job>,
    arrivals: ArrivalClock,
}

/// In-flight registry entry; removing it is the one and only way a request
/// completes, which makes every outcome exactly-once.
#[derive(Debug)]
struct Pending {
    submitted: Instant,
    deadline: Instant,
    requeues: u32,
}

/// A batch announced to the TEE consumer: who is in it (ids and original
/// images, so a crashed consumer's batch can be reclaimed and requeued) and
/// the receive end of its private bounded channel.
struct TeeJob {
    items: Vec<(u64, Tensor)>,
    rx: TeeReceiver<Payload>,
    batch_start: Instant,
}

#[derive(Debug)]
struct HealthState {
    consec_fail: u32,
    consec_ok: u32,
    healthy: bool,
}

/// Terminal outcome before latency stamping (the registry supplies the
/// submit time and requeue count at completion).
enum Terminal {
    Answered(Vec<f32>),
    Degraded(Vec<f32>),
    Shed,
    Expired,
}

/// Why a batch's REE side gave up.
enum SendFail {
    /// World-switch retry budget exhausted.
    RetriesExhausted,
    /// The channel stayed full past `send_timeout` (secure world stalled).
    Stalled,
    /// The consumer endpoint disappeared mid-batch (TA crash).
    Disconnected,
}

/// Why the consumer abandoned a batch.
enum ConsumeFail {
    /// Requeue the batch: stall timeout or detected corruption. The sender
    /// believes the batch was delivered, so the consumer owns recovery.
    Requeue,
    /// The sender already gave up (it requeues); just drop the job.
    Quiet,
    /// Injected TA crash: the thread dies, the supervisor reclaims.
    Crashed,
}

/// Locks a mutex, recovering from poisoning: an injected consumer crash (a
/// real panic in a worker) must never wedge the whole runtime.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    cfg: ServeConfig,
    fault: FaultPlan,
    queue: Mutex<Admission>,
    queue_cv: Condvar,
    jobs: Mutex<VecDeque<TeeJob>>,
    jobs_cv: Condvar,
    registry: Mutex<HashMap<u64, Pending>>,
    completions: Mutex<Vec<Completion>>,
    /// The batch the consumer is processing right now (ids + images), so
    /// the supervisor can reclaim it after a crash.
    current: Mutex<Option<Vec<(u64, Tensor)>>>,
    world: Mutex<SecureWorld>,
    mt_spec: ModelSpec,
    mt_template: ChainNet,
    align: Vec<Option<Vec<usize>>>,
    health: Mutex<HealthState>,
    healthy_flag: AtomicBool,
    consumer_alive: AtomicBool,
    closed: AtomicBool,
    stop: AtomicBool,
    next_id: AtomicU64,
    admitted: AtomicU64,
    metrics: Mutex<ServeMetrics>,
    consumer_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Completes `id` with `terminal` if (and only if) it is still
    /// in-flight. Returns whether this call won the completion.
    fn complete(&self, id: u64, terminal: Terminal) -> bool {
        let pending = lock(&self.registry).remove(&id);
        let Some(p) = pending else {
            return false;
        };
        let latency_ms = p.submitted.elapsed().as_secs_f64() * 1e3;
        let outcome = match terminal {
            Terminal::Answered(logits) => Outcome::Answered {
                logits,
                latency_ms,
                requeues: p.requeues,
            },
            Terminal::Degraded(logits) => Outcome::Degraded { logits, latency_ms },
            Terminal::Shed => Outcome::Shed,
            Terminal::Expired => Outcome::Expired,
        };
        lock(&self.completions).push(Completion { id, outcome });
        true
    }

    /// Pushes a failed batch back into admission, bumping each request's
    /// requeue count. Already-completed or already-queued requests are
    /// skipped, so racing recoveries (worker send failure vs supervisor
    /// crash reclaim) stay idempotent.
    fn requeue(&self, items: Vec<(u64, Tensor)>) {
        let mut registry = lock(&self.registry);
        let mut queue = lock(&self.queue);
        let mut pushed = false;
        for (id, image) in items {
            let Some(p) = registry.get_mut(&id) else {
                continue;
            };
            if queue.jobs.iter().any(|j| j.id == id) {
                continue;
            }
            p.requeues += 1;
            queue.jobs.push_back(Job { id, image });
            pushed = true;
        }
        drop(queue);
        drop(registry);
        if pushed {
            lock(&self.metrics).requeues += 1;
            self.queue_cv.notify_all();
        }
    }

    fn health_failure(&self) {
        let mut h = lock(&self.health);
        h.consec_ok = 0;
        h.consec_fail = h.consec_fail.saturating_add(1);
        if h.healthy && h.consec_fail >= self.cfg.unhealthy_after {
            h.healthy = false;
            self.healthy_flag.store(false, Ordering::Release);
            lock(&self.metrics).unhealthy_transitions += 1;
        }
    }

    /// A world switch that went through on the send path ends the failure
    /// streak, so isolated failures between successful sends never add up
    /// to `unhealthy_after`. Re-trusting an unhealthy TEE stays with the
    /// supervisor's probes.
    fn switch_succeeded(&self) {
        lock(&self.health).consec_fail = 0;
    }

    fn health_success(&self) {
        let mut h = lock(&self.health);
        h.consec_fail = 0;
        h.consec_ok = h.consec_ok.saturating_add(1);
        if !h.healthy && h.consec_ok >= self.cfg.healthy_after {
            h.healthy = true;
            self.healthy_flag.store(true, Ordering::Release);
        }
    }

    fn is_healthy(&self) -> bool {
        self.healthy_flag.load(Ordering::Acquire)
    }

    /// Pops the next admission job, waiting at most `wait` (not at all when
    /// `wait` is zero).
    fn pop_job(&self, wait: Duration) -> Option<Job> {
        let mut q = lock(&self.queue);
        if q.jobs.is_empty() && !wait.is_zero() {
            q = self
                .queue_cv
                .wait_timeout(q, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        q.jobs.pop_front()
    }

    /// One world-switch-guarded send with bounded exponential-backoff
    /// retries. On success returns the attempts used; the payload's
    /// checksum covers its pre-corruption bits, so a nemesis scribble is
    /// caught by the receiver.
    fn send_with_retry(
        &self,
        tx: &ReeSender<Payload>,
        data: Tensor,
        trace: &mut Vec<f64>,
    ) -> std::result::Result<u32, SendFail> {
        let bytes = data.numel() * 4;
        let checksum = checksum_f32(data.as_slice());
        let mut payload = Payload { data, checksum };
        if self.fault.on_payload_send() {
            corrupt_f32(payload.data.as_mut_slice(), checksum);
        }
        let mut attempt = 0u32;
        loop {
            if self.fault.on_world_switch() {
                self.health_failure();
                if attempt >= self.cfg.max_send_retries {
                    return Err(SendFail::RetriesExhausted);
                }
                let backoff = backoff_for(&self.cfg, attempt);
                trace.push(backoff.as_secs_f64() * 1e3);
                lock(&self.metrics).send_retries += 1;
                std::thread::sleep(backoff);
                attempt += 1;
                continue;
            }
            self.switch_succeeded();
            match tx.send_timeout(payload, bytes, self.cfg.send_timeout) {
                Ok(()) => return Ok(attempt),
                Err(SendError::TimedOut(_)) => {
                    self.health_failure();
                    return Err(SendFail::Stalled);
                }
                Err(SendError::Disconnected(_)) => return Err(SendFail::Disconnected),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker (REE side): triage, dynamic batching, split execution.
// ---------------------------------------------------------------------------

/// What triage decided about a popped job.
enum Triage {
    /// Run it through the healthy pipeline.
    Run(Job),
    /// Already handled (expired / degraded); nothing to batch.
    Handled,
}

fn triage(shared: &Shared, fallback: &mut TwoBranchModel, job: Job) -> Triage {
    let (deadline, requeues) = match lock(&shared.registry).get(&job.id) {
        Some(p) => (p.deadline, p.requeues),
        // Completed while queued (e.g. force-expired): drop silently.
        None => return Triage::Handled,
    };
    if Instant::now() > deadline {
        shared.complete(job.id, Terminal::Expired);
        return Triage::Handled;
    }
    if requeues > shared.cfg.max_requeues || !shared.is_healthy() {
        degrade(shared, fallback, &job);
        return Triage::Handled;
    }
    Triage::Run(job)
}

/// The graceful-degradation path: a batch-of-one
/// [`TwoBranchModel::predict_int8`] on the REE-resident fallback model —
/// bit-identical to calling that method directly on the same sample,
/// because the quantized first unit's activation range is batch-dependent.
fn degrade(shared: &Shared, fallback: &mut TwoBranchModel, job: &Job) {
    let t = Instant::now();
    let logits = fallback
        .predict_int8(&job.image)
        .expect("degraded int8 predict on validated geometry");
    lock(&shared.metrics).degraded_ns += t.elapsed().as_nanos() as u64;
    shared.complete(job.id, Terminal::Degraded(logits.as_slice().to_vec()));
}

/// Concatenates `[1, C, H, W]` request images into one `[B, C, H, W]`
/// batch.
fn concat_batch(jobs: &[Job]) -> Tensor {
    let dims = jobs[0].image.dims();
    let row = dims[1] * dims[2] * dims[3];
    let mut out = Tensor::zeros(&[jobs.len(), dims[1], dims[2], dims[3]]);
    for (k, job) in jobs.iter().enumerate() {
        out.as_mut_slice()[k * row..(k + 1) * row].copy_from_slice(job.image.as_slice());
    }
    out
}

fn worker_loop(shared: &Arc<Shared>, mut mr: ChainNet, mut fallback: TwoBranchModel) {
    while !shared.stopping() {
        let Some(first) = shared.pop_job(Duration::from_millis(5)) else {
            continue;
        };
        let first = match triage(shared, &mut fallback, first) {
            Triage::Run(job) => job,
            Triage::Handled => continue,
        };
        // Dynamic batching up to the batch cap: queued requests join at
        // once, and stragglers are worth waiting for only while arrivals
        // are dense.
        let mut batch = vec![first];
        let linger = shared.cfg.batch_linger;
        let dense = lock(&shared.queue).arrivals.dense(linger);
        let linger_until = Instant::now() + if dense { linger } else { Duration::ZERO };
        while batch.len() < shared.cfg.max_batch {
            let wait = linger_until.saturating_duration_since(Instant::now());
            let Some(job) = shared.pop_job(wait) else {
                break;
            };
            match triage(shared, &mut fallback, job) {
                Triage::Run(job) => batch.push(job),
                Triage::Handled => {}
            }
        }
        execute_batch(shared, &mut mr, batch);
    }
}

/// Runs one batch's REE side: announce the batch to the consumer, then
/// stream the input and every `M_R` feature map through the batch's private
/// bounded channel. Any send-side failure requeues the whole batch (the
/// consumer sees the sender vanish and drops the job quietly).
fn execute_batch(shared: &Arc<Shared>, mr: &mut ChainNet, batch: Vec<Job>) {
    let batch_start = Instant::now();
    let items: Vec<(u64, Tensor)> = batch.iter().map(|j| (j.id, j.image.clone())).collect();
    let input = concat_batch(&batch);
    let (tx, rx) = one_way_bounded::<Payload>(shared.cfg.channel_cap);
    {
        let mut jobs = lock(&shared.jobs);
        jobs.push_back(TeeJob {
            items: items.clone(),
            rx,
            batch_start,
        });
    }
    shared.jobs_cv.notify_all();

    // One backoff trace per *send*: each send's retry sequence starts over
    // at the base backoff, so traces must not be concatenated across the
    // batch's sends (the monotonicity contract is per retry sequence).
    let mut traces: Vec<Vec<f64>> = Vec::new();
    let mut ree_ns = 0u64;
    let mut transfer_ns = 0u64;
    let result = {
        let mut timed_send = |data: Tensor, transfer_ns: &mut u64| {
            let mut trace = Vec::new();
            let t = Instant::now();
            let res = shared.send_with_retry(&tx, data, &mut trace);
            *transfer_ns += t.elapsed().as_nanos() as u64;
            if !trace.is_empty() {
                traces.push(trace);
            }
            res.map(|_attempts| ())
        };
        (|| -> std::result::Result<(), SendFail> {
            timed_send(input.clone(), &mut transfer_ns)?;
            let mut r = input;
            for i in 0..mr.units().len() {
                let t = Instant::now();
                r = mr.units_mut()[i]
                    .forward_inference(&r, None, None)
                    .expect("M_R unit forward on validated geometry");
                ree_ns += t.elapsed().as_nanos() as u64;
                timed_send(r.clone(), &mut transfer_ns)?;
            }
            Ok(())
        })()
    };
    let channel = tx.stats();
    drop(tx); // the consumer sees end-of-batch (success) or abandonment

    let mut metrics = lock(&shared.metrics);
    metrics.channel_high_water = metrics.channel_high_water.max(channel.high_water);
    metrics.channel_dropped += channel.dropped;
    metrics.retry_traces.append(&mut traces);
    match result {
        Ok(()) => {
            metrics.ree_ns += ree_ns;
            metrics.transfer_ns += transfer_ns;
        }
        Err(_) => {
            metrics.send_failures += 1;
            drop(metrics);
            shared.requeue(items);
        }
    }
}

// ---------------------------------------------------------------------------
// Consumer (TEE side): merge, classify, complete.
// ---------------------------------------------------------------------------

/// Receives one payload and re-hashes what actually arrived, adding the
/// verify time to `verify_ns`.
fn recv_payload(
    shared: &Shared,
    rx: &TeeReceiver<Payload>,
    verify_ns: &mut u64,
) -> std::result::Result<Tensor, ConsumeFail> {
    let payload = match rx.recv_timeout(shared.cfg.recv_timeout) {
        Ok(p) => p,
        Err(RecvError::TimedOut) => return Err(ConsumeFail::Requeue),
        Err(RecvError::Disconnected) => return Err(ConsumeFail::Quiet),
    };
    match shared.fault.on_consumer_payload() {
        ConsumerFault::None => {}
        ConsumerFault::Stall(d) => std::thread::sleep(d),
        ConsumerFault::Crash => return Err(ConsumeFail::Crashed),
    }
    let t = Instant::now();
    let intact = checksum_f32(payload.data.as_slice()) == payload.checksum;
    *verify_ns += t.elapsed().as_nanos() as u64;
    if !intact {
        lock(&shared.metrics).corruption_detected += 1;
        return Err(ConsumeFail::Requeue);
    }
    Ok(payload.data)
}

/// One consumed batch: its logits and TEE-side stage nanoseconds.
struct Consumed {
    logits: Tensor,
    tee_ns: u64,
    merge_ns: u64,
    verify_ns: u64,
}

/// Receives one batch's payload stream and runs the merged `M_T` forward.
fn consume_batch(
    shared: &Shared,
    mt: &mut ChainNet,
    align: &[Option<Vec<usize>>],
    rx: &TeeReceiver<Payload>,
) -> std::result::Result<Consumed, ConsumeFail> {
    let n = mt.units().len();
    let mut verify_ns = 0u64;
    let mut step = SecureForward::new(mt, align, recv_payload(shared, rx, &mut verify_ns)?);
    for _ in 0..n {
        step.push(&recv_payload(shared, rx, &mut verify_ns)?)
            .expect("merge and M_T unit forward on validated geometry");
    }
    let (logits, tee, merge) = step
        .finish()
        .expect("M_T head forward on validated geometry");
    Ok(Consumed {
        logits,
        tee_ns: tee.as_nanos() as u64,
        merge_ns: merge.as_nanos() as u64,
        verify_ns,
    })
}

fn consumer_loop(shared: &Arc<Shared>, mut mt: ChainNet, align: Vec<Option<Vec<usize>>>) {
    loop {
        if shared.stopping() {
            return;
        }
        let job = {
            let mut jobs = lock(&shared.jobs);
            if jobs.is_empty() {
                jobs = shared
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(5))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            jobs.pop_front()
        };
        let Some(job) = job else {
            continue;
        };
        *lock(&shared.current) = Some(job.items.clone());
        match consume_batch(shared, &mut mt, &align, &job.rx) {
            Ok(done) => {
                let classes = done.logits.dim(1);
                for (k, (id, _)) in job.items.iter().enumerate() {
                    let row = done.logits.as_slice()[k * classes..(k + 1) * classes].to_vec();
                    shared.complete(*id, Terminal::Answered(row));
                }
                *lock(&shared.current) = None;
                let mut metrics = lock(&shared.metrics);
                metrics.batches += 1;
                metrics.batch_samples += job.items.len() as u64;
                metrics.tee_ns += done.tee_ns;
                metrics.merge_ns += done.merge_ns;
                metrics.verify_ns += done.verify_ns;
                metrics.makespan_ns += job.batch_start.elapsed().as_nanos() as u64;
            }
            Err(ConsumeFail::Requeue) => {
                let items = lock(&shared.current).take().unwrap_or_default();
                shared.requeue(items);
            }
            Err(ConsumeFail::Quiet) => {
                // The sender abandoned the batch and owns its requeue.
                *lock(&shared.current) = None;
            }
            Err(ConsumeFail::Crashed) => {
                // Die like a real TA: no cleanup. `current` stays set for
                // the supervisor to reclaim; dropping `job.rx` is what the
                // secure OS tearing down the session does to the channel.
                shared.consumer_alive.store(false, Ordering::Release);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Supervisor: health probes, crash detection, TA restart.
// ---------------------------------------------------------------------------

fn spawn_consumer(shared: &Arc<Shared>) {
    let s = Arc::clone(shared);
    let mt = shared.mt_template.clone();
    let align = shared.align.clone();
    shared.consumer_alive.store(true, Ordering::Release);
    let handle = std::thread::Builder::new()
        .name("tbnet-serve-tee".into())
        .spawn(move || consumer_loop(&s, mt, align))
        .expect("spawn TEE consumer thread");
    lock(&shared.consumer_handles).push(handle);
}

fn supervisor_loop(shared: &Arc<Shared>) {
    while !shared.stopping() {
        std::thread::sleep(shared.cfg.probe_interval);
        if shared.stopping() {
            return;
        }
        // Crash detection and TA restart.
        if !shared.consumer_alive.load(Ordering::Acquire) {
            if let Some(items) = lock(&shared.current).take() {
                shared.requeue(items);
            }
            let reloaded = {
                let mut world = lock(&shared.world);
                // The crashed TA's pool is reclaimed by the secure OS before
                // the restarted instance loads the branch again.
                world.unload_all();
                shared
                    .fault
                    .load_model(&mut world, &shared.mt_spec, Deployment::SecureBranch)
            };
            match reloaded {
                Ok(_) => {
                    spawn_consumer(shared);
                    lock(&shared.metrics).consumer_restarts += 1;
                }
                Err(_) => {
                    // Secure memory exhausted at restart: stay down, degrade
                    // traffic, retry next tick.
                    shared.health_failure();
                    continue;
                }
            }
        }
        // Health probe: a no-payload world switch into the secure world.
        if shared.fault.on_world_switch() {
            shared.health_failure();
        } else {
            shared.health_success();
        }
    }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// A running serving session. Submit requests with [`ServeEngine::submit`],
/// then call [`ServeEngine::shutdown`] to drain and collect the
/// [`ServeReport`].
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    mt_spec: ModelSpec,
    mr_spec: ModelSpec,
}

impl ServeEngine {
    /// Starts the runtime around a deployed two-branch model: loads `M_T`
    /// into the secure world (through the fault plan — a scripted
    /// exhaustion is retried with backoff), runs one synchronous health
    /// probe so a scripted dead TEE is degraded from the first request, and
    /// spawns the worker, consumer and supervisor threads.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for inconsistent configuration and
    /// [`CoreError::Tee`] when the secure branch cannot be loaded within
    /// the retry budget.
    pub fn start(model: &TwoBranchModel, cfg: ServeConfig, fault: FaultPlan) -> Result<Self> {
        cfg.validate()?;
        let mt_spec = model.mt().spec();
        let mr_spec = model.mr().spec();
        // The degraded path must bit-match `predict_int8`, so the fallback
        // clones carry a pre-built int8 snapshot of M_R.
        let mut fallback_template = model.clone();
        fallback_template.quantized_branch()?;

        let mut world = SecureWorld::from_cost_model(&CostModel::raspberry_pi3());
        let mut load_attempt = 0u32;
        loop {
            match fault.load_model(&mut world, &mt_spec, Deployment::SecureBranch) {
                Ok(_) => break,
                Err(e) if load_attempt < cfg.max_send_retries => {
                    std::thread::sleep(backoff_for(&cfg, load_attempt));
                    load_attempt += 1;
                    let _ = e;
                }
                Err(e) => return Err(CoreError::Tee(e)),
            }
        }

        let shared = Arc::new(Shared {
            mt_template: model.mt().clone(),
            align: model.align().to_vec(),
            mt_spec: mt_spec.clone(),
            world: Mutex::new(world),
            fault,
            queue: Mutex::new(Admission::default()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            registry: Mutex::new(HashMap::new()),
            completions: Mutex::new(Vec::new()),
            current: Mutex::new(None),
            health: Mutex::new(HealthState {
                consec_fail: 0,
                consec_ok: 0,
                healthy: true,
            }),
            healthy_flag: AtomicBool::new(true),
            consumer_alive: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            metrics: Mutex::new(ServeMetrics::default()),
            consumer_handles: Mutex::new(Vec::new()),
            cfg,
        });

        // Synchronous startup probe: with `unhealthy_after == 1` and a
        // total-outage plan, the engine starts in degraded mode instead of
        // burning the first batches on doomed retries.
        if shared.fault.on_world_switch() {
            shared.health_failure();
        } else {
            shared.health_success();
        }

        spawn_consumer(&shared);
        let mut workers = Vec::with_capacity(shared.cfg.ree_workers);
        for w in 0..shared.cfg.ree_workers {
            let s = Arc::clone(&shared);
            let mr = model.mr().clone();
            let fallback = fallback_template.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tbnet-serve-ree-{w}"))
                    .spawn(move || worker_loop(&s, mr, fallback))
                    .expect("spawn REE worker thread"),
            );
        }
        let s = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("tbnet-serve-supervisor".into())
            .spawn(move || supervisor_loop(&s))
            .expect("spawn supervisor thread");

        Ok(ServeEngine {
            shared,
            workers,
            supervisor: Some(supervisor),
            mt_spec,
            mr_spec,
        })
    }

    /// Submits a single-sample request with the configured default
    /// deadline. See [`ServeEngine::submit_with_deadline`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit_with_deadline`].
    pub fn submit(&self, image: &Tensor) -> Result<u64> {
        self.submit_with_deadline(image, self.shared.cfg.default_deadline)
    }

    /// Submits a single-sample request (`[C, H, W]` or `[1, C, H, W]`)
    /// that must complete within `deadline`. Returns the request id; the
    /// terminal [`Outcome`] arrives in the shutdown report. A queue past
    /// its high-water mark sheds the request immediately (it still counts
    /// as admitted and gets its [`Outcome::Shed`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] after shutdown began, for any shape
    /// other than one sample of the deployed input geometry, or for a NaN
    /// or infinite pixel. A rejected request is neither registered nor
    /// counted as admitted.
    pub fn submit_with_deadline(&self, image: &Tensor, deadline: Duration) -> Result<u64> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(CoreError::InvalidConfig {
                field: "submit",
                reason: "the engine is shutting down".into(),
            });
        }
        let spec = &self.shared.mt_spec;
        let (c, (h, w)) = (spec.in_channels, spec.input_hw);
        let dims = image.dims();
        if dims != [c, h, w] && dims != [1, c, h, w] {
            return Err(CoreError::InvalidConfig {
                field: "submit",
                reason: format!("expected [{c}, {h}, {w}] or [1, {c}, {h}, {w}], got {dims:?}"),
            });
        }
        if let Some(i) = image.as_slice().iter().position(|x| !x.is_finite()) {
            return Err(CoreError::InvalidConfig {
                field: "submit",
                reason: format!("pixel {i} is {}, not finite", image.as_slice()[i]),
            });
        }
        let image = image.reshape(&[1, c, h, w])?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        lock(&self.shared.registry).insert(
            id,
            Pending {
                submitted: now,
                deadline: now + deadline,
                requeues: 0,
            },
        );
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        let shed = {
            let mut queue = lock(&self.shared.queue);
            queue.arrivals.record(now);
            let shed = queue.jobs.len() >= self.shared.cfg.queue_high_water;
            if !shed {
                queue.jobs.push_back(Job { id, image });
            }
            shed
        };
        if shed {
            self.shared.complete(id, Terminal::Shed);
        } else {
            self.shared.queue_cv.notify_one();
        }
        Ok(id)
    }

    /// Whether the supervisor currently trusts the TEE.
    pub fn is_healthy(&self) -> bool {
        self.shared.is_healthy()
    }

    /// Requests still in flight (admitted, no terminal outcome yet).
    pub fn in_flight(&self) -> usize {
        lock(&self.shared.registry).len()
    }

    /// Closes admission, drains every in-flight request to a terminal
    /// outcome (force-expiring any survivor of the
    /// [`ServeConfig::drain_timeout`] hang guard), stops all threads and
    /// returns the session report.
    pub fn shutdown(mut self) -> ServeReport {
        let shared = &self.shared;
        shared.closed.store(true, Ordering::Release);
        let drain_deadline = Instant::now() + shared.cfg.drain_timeout;
        while !lock(&shared.registry).is_empty() {
            if Instant::now() > drain_deadline {
                let ids: Vec<u64> = lock(&shared.registry).keys().copied().collect();
                let forced = ids.len() as u64;
                for id in ids {
                    shared.complete(id, Terminal::Expired);
                }
                lock(&shared.metrics).forced_expired += forced;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        shared.stop.store(true, Ordering::Release);
        shared.queue_cv.notify_all();
        shared.jobs_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        let consumers: Vec<JoinHandle<()>> = lock(&shared.consumer_handles).drain(..).collect();
        for handle in consumers {
            let _ = handle.join();
        }

        let completions = lock(&shared.completions).clone();
        let metrics = lock(&shared.metrics).clone();
        let mut counts = OutcomeCounts {
            admitted: shared.admitted.load(Ordering::Relaxed),
            ..OutcomeCounts::default()
        };
        for c in &completions {
            match c.outcome {
                Outcome::Answered { .. } => counts.answered += 1,
                Outcome::Degraded { .. } => counts.degraded += 1,
                Outcome::Shed => counts.shed += 1,
                Outcome::Expired => counts.expired += 1,
            }
        }
        let batches = metrics.batches.max(1) as f64;
        let stages = MeasuredStages {
            ree_s: metrics.ree_ns as f64 / 1e9 / batches,
            tee_s: metrics.tee_ns as f64 / 1e9 / batches,
            transfer_s: metrics.transfer_ns as f64 / 1e9 / batches,
            merge_s: metrics.merge_ns as f64 / 1e9 / batches,
            switch_s: 0.0,
        };
        let stage_ns = metrics.ree_ns + metrics.tee_ns + metrics.transfer_ns + metrics.merge_ns;
        let measured_overlap = if metrics.makespan_ns == 0 {
            1.0
        } else {
            stage_ns as f64 / metrics.makespan_ns as f64
        };
        ServeReport {
            completions,
            counts,
            mean_batch: if metrics.batches == 0 {
                0.0
            } else {
                metrics.batch_samples as f64 / metrics.batches as f64
            },
            stages,
            measured_overlap,
            faults: shared.fault.counts(),
            metrics,
        }
    }

    /// The deployed secure-branch architecture (for simulator validation).
    pub fn mt_spec(&self) -> &ModelSpec {
        &self.mt_spec
    }

    /// The deployed rich-branch architecture (for simulator validation).
    pub fn mr_spec(&self) -> &ModelSpec {
        &self.mr_spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_zeroes() {
        let cfg = ServeConfig {
            ree_workers: 0,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ServeConfig {
            probe_interval: Duration::ZERO,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ServeConfig::fast_test().validate().is_ok());
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let cfg = ServeConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let seq: Vec<Duration> = (0..10).map(|a| backoff_for(&cfg, a)).collect();
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "monotone: {seq:?}");
        assert_eq!(seq[0], Duration::from_millis(1));
        assert_eq!(seq[1], Duration::from_millis(2));
        assert_eq!(seq[9], Duration::from_millis(20), "capped");
        // Huge attempt numbers must not overflow.
        assert_eq!(backoff_for(&cfg, 40), Duration::from_millis(20));
    }

    #[test]
    fn linger_waits_only_while_arrivals_are_dense() {
        let linger = Duration::from_millis(2);
        let t0 = Instant::now();
        let at = |ms: f64| t0 + Duration::from_secs_f64(ms / 1e3);
        let mut clock = ArrivalClock::default();
        assert!(!clock.dense(linger), "no arrivals yet: sparse");
        clock.record(at(0.0));
        assert!(!clock.dense(linger), "no gap seen yet: sparse");

        // A burst 250 µs apart is dense at once.
        let mut t = 0.0;
        for _ in 0..8 {
            t += 0.25;
            clock.record(at(t));
        }
        assert!(clock.dense(linger));
        assert!(!clock.dense(Duration::ZERO), "a zero linger never waits");

        // Steady 80 req/s traffic (12.5 ms gaps) turns it sparse on the
        // third arrival and keeps it there.
        let mut sparse_from = None;
        for k in 1..=32 {
            t += 12.5;
            clock.record(at(t));
            if !clock.dense(linger) {
                sparse_from.get_or_insert(k);
            } else {
                assert!(sparse_from.is_none(), "dense again at arrival {k}");
            }
        }
        assert_eq!(sparse_from, Some(3));

        // A fresh burst pulls the mean back under the linger.
        for _ in 0..48 {
            t += 0.25;
            clock.record(at(t));
        }
        assert!(clock.dense(linger));
        // One arrival after a long silence reads sparse.
        clock.record(at(t + 1000.0));
        assert!(!clock.dense(linger));
    }

    #[test]
    fn batch_concat_lays_rows_out_contiguously() {
        let mut a = Tensor::zeros(&[1, 2, 2, 2]);
        a.as_mut_slice()
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = i as f32);
        let mut b = Tensor::zeros(&[1, 2, 2, 2]);
        b.as_mut_slice()
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = 100.0 + i as f32);
        let jobs = vec![Job { id: 0, image: a }, Job { id: 1, image: b }];
        let batch = concat_batch(&jobs);
        assert_eq!(batch.dims(), &[2, 2, 2, 2]);
        assert_eq!(batch.as_slice()[0], 0.0);
        assert_eq!(batch.as_slice()[8], 100.0);
        assert_eq!(batch.as_slice()[15], 107.0);
    }
}

//! The batched async serving engine with replica lifecycle management.
//!
//! N detector replicas (stamped from one `Arc`-published
//! [`DetectorBlueprint`]) each own a bounded request queue and a thread.
//! Admission round-robins requests across the queues of **admitting**
//! replicas with spill-over; when every admitting queue is full the
//! engine **sheds load** instead of growing latency without bound,
//! handling the rejected request per the supervisor's [`DegradePolicy`]:
//! [`DegradePolicy::DropFrame`] answers `Shed`,
//! [`DegradePolicy::CoastLastGood`] answers with the stream's last good
//! detection (`Degraded`) — or `Shed` when the stream has no good
//! detection yet, the same first-frame rule the pipeline supervisor
//! specifies. Each replica drains its queue into the deterministic
//! [`Batcher`] and is **work-conserving**: a batch closes on size, on a
//! stamp past its coalescing window, or as soon as the queue runs empty,
//! so no replica sits idle on an open batch. Under load the requests
//! that queued during one forward form the next batch. Each closed batch
//! feeds the already batch-parallel detector forward once.
//!
//! **Replica lifecycle:** every replica scores its own batch outcomes
//! through the deterministic [`HealthTracker`]
//! (`Healthy → Degraded → Quarantined`); a quarantined replica receives
//! **zero admissions** (its round-robin share spills over to the
//! others) and is supervised-restarted from the active blueprint with
//! deterministic exponential backoff, until the restart budget runs out
//! and it is permanently **retired** — the engine then degrades
//! capacity gracefully, answering anything still routed at the retiree
//! via the degrade policy. A replica whose thread dies outside the
//! per-batch unwind guard is recorded as **lost** ([`ReplicaState::Lost`])
//! — a structured outcome in the report, never a panic in the drain
//! path — and its orphaned requests are answered at shutdown.
//!
//! **Hot weight swap:** [`ServeEngine::publish`] republishes a new
//! blueprint into the running engine between batches. One healthy
//! replica serves as **canary**: at its next batch boundary it runs a
//! validation probe over the [`CanarySpec`]'s pinned reference input
//! (expected `weight_hash`, detection IoU bounds) and either promotes
//! the new **generation** to every replica or **rolls back** to the
//! previous blueprint. Batches never span generations, and every
//! [`Response`] records the generation that served it.
//!
//! **Accounting invariant:** every submitted request receives exactly
//! one recorded outcome — `Served`, `Degraded` or `Shed` — delivered on
//! its reply channel and tallied in [`ServeCounters`]. Outcomes are
//! routed through a shared pending-reply registry whose entries are
//! *taken* exactly once, so even a replica lost mid-batch cannot lose or
//! double-answer a request. Shutdown drains the queues, bounded by
//! [`ServeConfig::drain_deadline`]: a replica stalled past the deadline
//! is detached and recorded lost, and its in-flight requests are
//! answered via the degrade policy — [`ServeCounters::lost`] is zero
//! after [`ServeEngine::shutdown`] even under injected kills and stalls.
//!
//! **Fault tolerance:** an optional [`FaultPlan`] (the same machinery
//! the pipeline supervisor is tested with) is applied per batch at the
//! `Infer` coordinate — panics are caught, errors retried up to
//! [`ServeConfig::max_retries`], and a batch whose retries are exhausted
//! degrades per-request under the policy. Replica-targeted windows
//! (`FaultPlan::inject_replica`) model wedged-until-restarted and
//! dead-hardware replicas plus outright thread kills; canary faults
//! (`FaultPlan::inject_canary`) force swap rollbacks. `Post`-coordinate
//! stalls delay reply delivery, modelling slow response consumers.
//!
//! **Isolation:** replicas share nothing mutable but the last-good map,
//! the pending registry and the counters. Scratch-arena reuse is
//! per-thread by construction (the arena is a `thread_local`), so one
//! replica's allocation pattern cannot perturb another's; per-replica
//! state gauges, restart/quarantine counters and queue-depth gauges keep
//! the telemetry separable.

use crate::batcher::{BatchPolicy, Batcher};
use crate::health::{HealthPolicy, HealthTracker, ReplicaState, RestartDecision};
use crate::swap::{CanaryFailure, CanarySpec, CanaryVerdict, SwapError, SwapOutcome};
use skynet_core::detector::Detector;
use skynet_core::head::Detection;
use skynet_core::replica::DetectorBlueprint;
use skynet_hw::fault::{FaultPlan, InjectedFault};
use skynet_hw::pipeline::{DegradePolicy, FrameCtx, StageId};
use skynet_nn::CheckpointError;
use skynet_tensor::{telemetry, Tensor};
use std::collections::HashMap;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Serving engine knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of detector replicas (threads), each with its own queue.
    pub replicas: usize,
    /// Bounded depth of each replica's request queue. Admission sheds
    /// when every admitting queue is full — this is the knob that
    /// converts overload into bounded latency plus explicit `Shed`
    /// outcomes.
    pub queue_capacity: usize,
    /// Dynamic-batching size and window (see [`BatchPolicy`]).
    pub batch: BatchPolicy,
    /// What to do with a request the engine cannot serve: shed it, or
    /// coast on the stream's last good detection (first-frame rule:
    /// coast with no prior good detection sheds).
    pub policy: DegradePolicy,
    /// Extra inference attempts per batch after the first.
    pub max_retries: u32,
    /// Health thresholds, restart budget and backoff driving the
    /// replica lifecycle (see [`HealthPolicy`]).
    pub health: HealthPolicy,
    /// Batching decisions use request *arrival* stamps, so the
    /// coalescing window bounds the arrival span of a batch and, with a
    /// prefilled queue, composition is a pure function of the submitted
    /// sequence (the determinism suite runs in this mode). Wall-clock
    /// mode stamps requests at dequeue time instead, so the window only
    /// caps the dequeue span of one drain. Both modes run the open batch
    /// as soon as the queue is empty; neither waits on a timer. Virtual
    /// time also skips restart-backoff sleeps (the backoff *decisions*
    /// are identical either way).
    pub virtual_time: bool,
    /// Start with the replicas gated: requests queue up (and shed) but
    /// nothing is processed until [`ServeEngine::resume`].
    pub paused: bool,
    /// Deterministic fault schedule applied at the `Infer` coordinate
    /// per batch (panic / error / stall), the `Post` coordinate
    /// (reply-path stall), replica-targeted windows and canary faults —
    /// all keyed by replica-local batch sequence / weight generation.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Bounded-time shutdown: how long [`ServeEngine::shutdown`] waits
    /// for the replicas to drain before answering anything still
    /// pending via the degrade policy and detaching stalled threads
    /// (recorded as [`ReplicaState::Lost`]). `None` waits forever.
    pub drain_deadline: Option<Duration>,
    /// How long [`ServeEngine::publish`] waits for the canary verdict.
    pub canary_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            replicas: 2,
            queue_capacity: 32,
            batch: BatchPolicy::default(),
            policy: DegradePolicy::CoastLastGood,
            max_retries: 2,
            health: HealthPolicy::default(),
            virtual_time: false,
            paused: false,
            fault_plan: None,
            drain_deadline: Some(Duration::from_secs(30)),
            canary_deadline: Duration::from_secs(30),
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every admitting replica queue was full at admission.
    QueueFull,
    /// Inference failed after every retry and the stream had no last
    /// good detection to coast on (or the policy was `DropFrame`).
    InferenceFailed,
    /// The request was routed at a replica that left rotation (retired),
    /// or was still unanswered at the shutdown drain deadline, and the
    /// stream had nothing to coast on.
    ReplicaUnavailable,
}

/// The single recorded outcome of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Inference ran on this request's batch; fresh detection.
    Served(Detection),
    /// Load-shedding answered with the stream's last good detection.
    Degraded(Detection),
    /// No answer could be produced; the request was shed.
    Shed(ShedReason),
}

/// Reply delivered on the request's response channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Request id assigned at submission (monotonic per engine).
    pub id: u64,
    /// Client stream the request belonged to.
    pub stream: u64,
    /// What happened — exactly one per request.
    pub outcome: Outcome,
    /// Replica that processed the batch (`None` for admission-time and
    /// shutdown-drain outcomes, which never reached a replica's
    /// detector).
    pub replica: Option<usize>,
    /// Replica-local batch sequence and size (`None` when no batch ran).
    pub batch: Option<(u64, usize)>,
    /// Weight generation in force when this outcome was produced — the
    /// audit stamp that answers "which weights served this request?".
    pub generation: u64,
    /// Engine-clock arrival stamp (µs).
    pub arrival_us: u64,
    /// Engine-clock stamp (µs) at which this request's batch forward
    /// began (`None` when no batch ran, as for `batch`). It splits the
    /// latency: `started − arrival` is queue wait plus coalescing,
    /// `done − started` is inference plus reply.
    pub started_us: Option<u64>,
    /// Engine-clock completion stamp (µs).
    pub done_us: u64,
}

/// One queued request. Replies are delivered through the shared pending
/// registry (keyed by id), never through the request itself — so a
/// request trapped in a dead replica can still be answered at drain.
struct Request {
    id: u64,
    stream: u64,
    image: Tensor,
    arrival_us: u64,
}

/// The reply route for one in-flight request. Lives in
/// [`Shared::pending`] from admission until the moment its single
/// outcome is recorded; *taking* the entry is what makes the outcome
/// exactly-one.
struct PendingReply {
    stream: u64,
    arrival_us: u64,
    reply: Sender<Response>,
}

/// Everything a replica thread can receive on its queue.
enum Msg {
    /// A client request to batch and serve.
    Req(Request),
    /// Serve as canary for a publish: barrier-flush, probe, answer.
    Canary(CanaryCmd),
    /// A canary-validated blueprint to adopt at the next batch boundary.
    Adopt {
        generation: u64,
        blueprint: DetectorBlueprint,
    },
}

/// The canary half of a hot swap (see [`ServeEngine::publish`]).
struct CanaryCmd {
    generation: u64,
    blueprint: DetectorBlueprint,
    spec: CanarySpec,
    verdict: Sender<CanaryVerdict>,
}

/// Whether a submission was queued or answered immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued on the given replica's queue; the outcome arrives later.
    Queued {
        /// Replica whose queue accepted the request.
        replica: usize,
    },
    /// Every admitting queue was full (or no replica admits); the
    /// request was answered immediately (`Degraded` or `Shed`) on its
    /// reply channel.
    Rejected,
}

/// Monotonic totals over the engine's lifetime. `submitted` must equal
/// `served + degraded + shed` once [`ServeEngine::shutdown`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Requests offered to [`ServeEngine::submit`].
    pub submitted: u64,
    /// Requests answered with a fresh detection.
    pub served: u64,
    /// Requests answered by coasting on a last good detection.
    pub degraded: u64,
    /// Requests shed (queue-full, unrecoverable inference, or replica
    /// unavailable with nothing to coast on).
    pub shed: u64,
    /// Shed subset: rejected at admission.
    pub shed_queue_full: u64,
    /// Inference retry attempts across all batches.
    pub retried: u64,
    /// Batches executed across all replicas.
    pub batches: u64,
    /// Times any replica entered quarantine.
    pub quarantines: u64,
    /// Supervised replica restarts performed.
    pub restarts: u64,
    /// Replicas permanently retired (restart budget exhausted).
    pub retired: u64,
    /// Replicas recorded lost (thread death, or stalled past the
    /// shutdown drain deadline).
    pub replica_lost: u64,
    /// Requests answered via the degrade policy by the shutdown drain
    /// deadline instead of by a replica.
    pub force_drained: u64,
    /// Hot swaps promoted to the whole engine.
    pub swaps_published: u64,
    /// Canary probes that rejected a published blueprint.
    pub swap_canary_fail: u64,
    /// Swaps rolled back to the previous blueprint.
    pub swap_rolled_back: u64,
}

impl ServeCounters {
    /// Requests with no recorded outcome. Zero after a clean shutdown —
    /// the invariant the serving tests assert.
    pub fn lost(&self) -> u64 {
        self.submitted
            .saturating_sub(self.served + self.degraded + self.shed)
    }
}

/// Final report returned by [`ServeEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Lifetime totals (see [`ServeCounters::lost`]).
    pub counters: ServeCounters,
    /// Per-replica batch log: `batch_log[r][k]` is the request-id
    /// composition of replica `r`'s `k`-th batch, in execution order —
    /// the witness the determinism suite compares across runs. Empty for
    /// replicas recorded lost (their log died with their thread).
    pub batch_log: Vec<Vec<Vec<u64>>>,
    /// Final lifecycle state of every replica.
    pub states: Vec<ReplicaState>,
    /// Weight generation active at shutdown.
    pub generation: u64,
    /// Digest of the active blueprint's weights at shutdown.
    pub weight_hash: u64,
}

#[derive(Default)]
struct AtomicCounters {
    submitted: AtomicU64,
    served: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    shed_queue_full: AtomicU64,
    retried: AtomicU64,
    batches: AtomicU64,
    quarantines: AtomicU64,
    restarts: AtomicU64,
    retired: AtomicU64,
    replica_lost: AtomicU64,
    force_drained: AtomicU64,
    swaps_published: AtomicU64,
    swap_canary_fail: AtomicU64,
    swap_rolled_back: AtomicU64,
}

impl AtomicCounters {
    fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            submitted: self.submitted.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            shed_queue_full: self.shed_queue_full.load(Ordering::SeqCst),
            retried: self.retried.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            quarantines: self.quarantines.load(Ordering::SeqCst),
            restarts: self.restarts.load(Ordering::SeqCst),
            retired: self.retired.load(Ordering::SeqCst),
            replica_lost: self.replica_lost.load(Ordering::SeqCst),
            force_drained: self.force_drained.load(Ordering::SeqCst),
            swaps_published: self.swaps_published.load(Ordering::SeqCst),
            swap_canary_fail: self.swap_canary_fail.load(Ordering::SeqCst),
            swap_rolled_back: self.swap_rolled_back.load(Ordering::SeqCst),
        }
    }
}

/// State shared between the admission side and every replica.
struct Shared {
    policy: DegradePolicy,
    max_retries: u32,
    virtual_time: bool,
    batch: BatchPolicy,
    health: HealthPolicy,
    plan: Option<Arc<FaultPlan>>,
    counters: AtomicCounters,
    last_good: Mutex<HashMap<u64, Detection>>,
    /// Reply routes of every in-flight request, keyed by id. An outcome
    /// is recorded by *taking* the entry — whoever takes it answers;
    /// everyone else backs off. This is the exactly-one-outcome lock.
    pending: Mutex<HashMap<u64, PendingReply>>,
    /// Lifecycle state per replica ([`ReplicaState::code`] values),
    /// readable lock-free by admission.
    states: Vec<AtomicU8>,
    /// The active (generation, blueprint) pair — what restarts respawn
    /// from and what `weight_hash` reports. Updated only on promotion.
    active: Mutex<(u64, DetectorBlueprint)>,
    /// Lock-free mirror of the active generation for outcome stamping.
    active_gen: AtomicU64,
    clock: Instant,
    /// Pause gate: workers wait until `true`.
    gate: (Mutex<bool>, Condvar),
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.clock.elapsed().as_micros() as u64
    }

    fn wait_until_running(&self) {
        let (lock, cv) = &self.gate;
        let mut running = lock.lock().expect("gate poisoned");
        while !*running {
            running = cv.wait(running).expect("gate poisoned");
        }
    }

    fn set_state(&self, replica: usize, state: ReplicaState) {
        self.states[replica].store(state.code(), Ordering::SeqCst);
        if telemetry::metrics_enabled() {
            telemetry::record_gauge(
                &format!("serve.replica{replica}.state"),
                f64::from(state.code()),
            );
        }
    }

    fn state_of(&self, replica: usize) -> ReplicaState {
        ReplicaState::from_code(self.states[replica].load(Ordering::SeqCst))
    }

    /// The degrade-policy answer for a request the engine cannot serve:
    /// coast on the stream's last good detection, or shed with `reason`
    /// (first-frame rule: nothing to coast on yet sheds).
    fn degrade_outcome(&self, stream: u64, reason: ShedReason) -> Outcome {
        match self.policy {
            DegradePolicy::CoastLastGood => {
                let good = self
                    .last_good
                    .lock()
                    .expect("last_good poisoned")
                    .get(&stream)
                    .copied();
                match good {
                    Some(d) => Outcome::Degraded(d),
                    None => Outcome::Shed(reason),
                }
            }
            DegradePolicy::DropFrame => Outcome::Shed(reason),
        }
    }

    /// Takes the pending entry for `id` and delivers its single
    /// outcome. Returns `false` when the request was already answered
    /// elsewhere (e.g. force-drained at the shutdown deadline) — the
    /// caller must then not record anything.
    fn answer(
        &self,
        id: u64,
        outcome: Outcome,
        replica: Option<usize>,
        batch: Option<(u64, usize)>,
        started_us: Option<u64>,
        generation: u64,
    ) -> bool {
        let taken = self.pending.lock().expect("pending poisoned").remove(&id);
        let Some(p) = taken else {
            return false;
        };
        record_outcome(self, &outcome);
        let _ = p.reply.send(Response {
            id,
            stream: p.stream,
            outcome,
            replica,
            batch,
            generation,
            arrival_us: p.arrival_us,
            started_us,
            done_us: self.now_us(),
        });
        true
    }
}

/// The running engine: submit requests, [`publish`](Self::publish) new
/// weights, then [`shutdown`](Self::shutdown) to drain and collect the
/// report.
pub struct ServeEngine {
    txs: Vec<SyncSender<Msg>>,
    workers: Vec<std::thread::JoinHandle<Vec<Vec<u64>>>>,
    shared: Arc<Shared>,
    depth_gauges: Vec<&'static telemetry::Gauge>,
    rr: AtomicUsize,
    next_id: AtomicU64,
    /// Serializes publishes: one canary in flight at a time.
    swap_lock: Mutex<()>,
    drain_deadline: Option<Duration>,
    canary_deadline: Duration,
}

impl ServeEngine {
    /// Spawns the replicas and starts serving (or parks them gated when
    /// [`ServeConfig::paused`] is set).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ModelMismatch`] when the blueprint's
    /// published weights do not fit its architecture config.
    pub fn start(
        blueprint: &DetectorBlueprint,
        cfg: &ServeConfig,
    ) -> Result<Self, CheckpointError> {
        let replicas = cfg.replicas.max(1);
        let shared = Arc::new(Shared {
            policy: cfg.policy,
            max_retries: cfg.max_retries,
            virtual_time: cfg.virtual_time,
            batch: cfg.batch,
            health: cfg.health,
            plan: cfg.fault_plan.clone(),
            counters: AtomicCounters::default(),
            last_good: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            states: (0..replicas).map(|_| AtomicU8::new(0)).collect(),
            active: Mutex::new((0, blueprint.clone())),
            active_gen: AtomicU64::new(0),
            clock: Instant::now(),
            gate: (Mutex::new(!cfg.paused), Condvar::new()),
        });
        if telemetry::metrics_enabled() {
            telemetry::record_gauge("serve.replicas", replicas as f64);
            telemetry::record_gauge("serve.generation", 0.0);
        }
        let mut txs = Vec::with_capacity(replicas);
        let mut workers = Vec::with_capacity(replicas);
        let mut depth_gauges = Vec::with_capacity(replicas);
        // Validate the blueprint on the caller's thread so a bad weight
        // set is a structured error, not a worker panic. Detectors are
        // not Send (Box<dyn Layer>), so each replica builds its own from
        // the (Send) blueprint once inside its thread.
        drop(blueprint.spawn()?);
        for idx in 0..replicas {
            let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.queue_capacity.max(1));
            let depth = telemetry::gauge(&format!("serve.replica{idx}.queue.depth"));
            shared.set_state(idx, ReplicaState::Healthy);
            let sh = shared.clone();
            let bp = blueprint.clone();
            workers.push(std::thread::spawn(move || {
                let det = bp.spawn().expect("blueprint validated at start");
                Replica::new(idx, det, sh).run(rx)
            }));
            txs.push(tx);
            depth_gauges.push(depth);
        }
        Ok(ServeEngine {
            txs,
            workers,
            shared,
            depth_gauges,
            rr: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            swap_lock: Mutex::new(()),
            drain_deadline: cfg.drain_deadline,
            canary_deadline: cfg.canary_deadline,
        })
    }

    /// Releases replicas parked by [`ServeConfig::paused`]. Idempotent.
    pub fn resume(&self) {
        let (lock, cv) = &self.shared.gate;
        *lock.lock().expect("gate poisoned") = true;
        cv.notify_all();
    }

    /// Microseconds since the engine clock started — the timebase of
    /// every `arrival_us` / `done_us` stamp.
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// The lifecycle state of every replica, as last published.
    pub fn replica_states(&self) -> Vec<ReplicaState> {
        (0..self.txs.len())
            .map(|i| self.shared.state_of(i))
            .collect()
    }

    /// The weight generation currently active engine-wide.
    pub fn generation(&self) -> u64 {
        self.shared.active_gen.load(Ordering::SeqCst)
    }

    /// Submits a request stamped with the current engine clock.
    pub fn submit(&self, stream: u64, image: Tensor, reply: &Sender<Response>) -> Admission {
        let t = self.shared.now_us();
        self.submit_at(stream, image, t, reply)
    }

    /// Submits a request with an explicit arrival stamp (virtual-time
    /// mode: the stamp drives batch composition; the load generator and
    /// the determinism suite submit pre-computed Poisson schedules).
    ///
    /// The request's single outcome is delivered on `reply` — either
    /// immediately (admission-time shed/coast) or after its batch runs.
    /// Replicas outside rotation (quarantined / retired / lost) receive
    /// **zero admissions**; their round-robin share spills over.
    pub fn submit_at(
        &self,
        stream: u64,
        image: Tensor,
        arrival_us: u64,
        reply: &Sender<Response>,
    ) -> Admission {
        let shared = &self.shared;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        shared.counters.submitted.fetch_add(1, Ordering::SeqCst);
        if telemetry::metrics_enabled() {
            telemetry::counter("serve.requests.submitted").inc();
        }
        // Register the reply route *before* the queue can see the
        // request, so the answering side always finds the entry.
        shared.pending.lock().expect("pending poisoned").insert(
            id,
            PendingReply {
                stream,
                arrival_us,
                reply: reply.clone(),
            },
        );
        let mut req = Request {
            id,
            stream,
            image,
            arrival_us,
        };
        // Round-robin with spill-over across *admitting* replicas:
        // start at the cursor, try every admitting queue once. A
        // single-submitter sequence lands deterministically.
        let n = self.txs.len();
        let start = self.rr.fetch_add(1, Ordering::SeqCst) % n;
        for k in 0..n {
            let r = (start + k) % n;
            if !shared.state_of(r).admits() {
                continue;
            }
            match self.txs[r].try_send(Msg::Req(req)) {
                Ok(()) => {
                    if telemetry::metrics_enabled() {
                        self.depth_gauges[r].add(1.0);
                    }
                    return Admission::Queued { replica: r };
                }
                Err(TrySendError::Full(back)) => {
                    let Msg::Req(back) = back else { unreachable!() };
                    req = back;
                }
                Err(TrySendError::Disconnected(back)) => {
                    // The replica thread is gone: record the loss once
                    // and spill over.
                    if shared.state_of(r) != ReplicaState::Lost {
                        shared.set_state(r, ReplicaState::Lost);
                        shared.counters.replica_lost.fetch_add(1, Ordering::SeqCst);
                    }
                    let Msg::Req(back) = back else { unreachable!() };
                    req = back;
                }
            }
        }
        // No admitting queue took it: shed or coast, but always answer.
        let outcome = shared.degrade_outcome(stream, ShedReason::QueueFull);
        shared.answer(
            id,
            outcome,
            None,
            None,
            None,
            shared.active_gen.load(Ordering::SeqCst),
        );
        Admission::Rejected
    }

    /// Lifetime counters so far (exact only after [`shutdown`](Self::shutdown)).
    pub fn counters(&self) -> ServeCounters {
        self.shared.counters.snapshot()
    }

    /// Hot weight swap: republishes `blueprint` into the running engine
    /// between batches, canary-first (see [`crate::swap`] for the
    /// protocol). On a passing probe the new generation is promoted to
    /// every replica and becomes what restarts respawn from; on a
    /// failing probe the canary rolls back and the engine keeps serving
    /// the previous generation.
    ///
    /// Publishes are serialized; the engine must be running (a paused
    /// engine never answers the canary and the call times out after
    /// [`ServeConfig::canary_deadline`]).
    ///
    /// # Errors
    ///
    /// [`SwapError::InvalidBlueprint`] when the weights do not fit the
    /// architecture, [`SwapError::NoHealthyReplica`] when no replica can
    /// act as canary, [`SwapError::CanaryUnresponsive`] on deadline
    /// expiry. A canary *rejection* is not an error — it is the
    /// [`SwapOutcome::RolledBack`] arm.
    pub fn publish(
        &self,
        blueprint: DetectorBlueprint,
        spec: CanarySpec,
    ) -> Result<SwapOutcome, SwapError> {
        let _serialize = self.swap_lock.lock().expect("swap lock poisoned");
        let shared = &self.shared;
        drop(blueprint.spawn().map_err(SwapError::InvalidBlueprint)?);
        let canary = (0..self.txs.len())
            .find(|&r| shared.state_of(r).admits())
            .ok_or(SwapError::NoHealthyReplica)?;
        let generation = shared.active_gen.load(Ordering::SeqCst) + 1;
        let (vtx, vrx) = mpsc::channel();
        self.txs[canary]
            .send(Msg::Canary(CanaryCmd {
                generation,
                blueprint: blueprint.clone(),
                spec,
                verdict: vtx,
            }))
            .map_err(|_| SwapError::CanaryUnresponsive)?;
        let verdict = vrx
            .recv_timeout(self.canary_deadline)
            .map_err(|_| SwapError::CanaryUnresponsive)?;
        match verdict {
            CanaryVerdict::Pass => {
                {
                    let mut active = shared.active.lock().expect("active poisoned");
                    *active = (generation, blueprint.clone());
                }
                shared.active_gen.store(generation, Ordering::SeqCst);
                shared
                    .counters
                    .swaps_published
                    .fetch_add(1, Ordering::SeqCst);
                if telemetry::metrics_enabled() {
                    telemetry::counter("serve.swap.published").inc();
                    telemetry::record_gauge("serve.generation", generation as f64);
                }
                for (r, tx) in self.txs.iter().enumerate() {
                    if r != canary {
                        let _ = tx.send(Msg::Adopt {
                            generation,
                            blueprint: blueprint.clone(),
                        });
                    }
                }
                Ok(SwapOutcome::Published { generation, canary })
            }
            CanaryVerdict::Fail(failure) => {
                shared
                    .counters
                    .swap_canary_fail
                    .fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .swap_rolled_back
                    .fetch_add(1, Ordering::SeqCst);
                if telemetry::metrics_enabled() {
                    telemetry::counter("serve.swap.canary_fail").inc();
                    telemetry::counter("serve.swap.rolled_back").inc();
                }
                Ok(SwapOutcome::RolledBack {
                    generation,
                    canary,
                    failure,
                })
            }
        }
    }

    /// Closes admission, drains every queue, joins the replicas and
    /// returns the final report. Every request accepted before the call
    /// has its outcome recorded by the time this returns — bounded by
    /// [`ServeConfig::drain_deadline`]: replicas that have not drained
    /// by then are detached and recorded [`ReplicaState::Lost`], and
    /// their in-flight requests are answered via the degrade policy
    /// (`force_drained`), preserving `lost() == 0`. A replica thread
    /// that *panicked* is likewise a structured loss in the report, not
    /// a panic of the drain path.
    pub fn shutdown(mut self) -> ServeReport {
        // Wake gated replicas first or the drain never starts.
        self.resume();
        self.txs.clear(); // disconnect: workers drain and exit
        let shared = self.shared.clone();
        let n = self.workers.len();
        let mut handles: Vec<Option<std::thread::JoinHandle<Vec<Vec<u64>>>>> =
            self.workers.drain(..).map(Some).collect();
        if let Some(d) = self.drain_deadline {
            let deadline = Instant::now() + d;
            while Instant::now() < deadline && handles.iter().flatten().any(|h| !h.is_finished()) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut batch_log: Vec<Vec<Vec<u64>>> = vec![Vec::new(); n];
        let mark_lost = |idx: usize| {
            // Admission may already have recorded the loss (try_send saw
            // a disconnected queue): count each replica at most once.
            if shared.state_of(idx) == ReplicaState::Lost {
                return;
            }
            shared.set_state(idx, ReplicaState::Lost);
            shared.counters.replica_lost.fetch_add(1, Ordering::SeqCst);
            if telemetry::metrics_enabled() {
                telemetry::counter(&format!("serve.replica{idx}.lost")).inc();
            }
        };
        for (idx, slot) in handles.iter_mut().enumerate() {
            let handle = slot.take().expect("handle taken once");
            if self.drain_deadline.is_none() || handle.is_finished() {
                match handle.join() {
                    Ok(log) => batch_log[idx] = log,
                    // The replica thread panicked outside the per-batch
                    // unwind guard: a structured loss, not our panic.
                    Err(_) => mark_lost(idx),
                }
            } else {
                // Stalled past the drain deadline: detach the thread
                // (it can no longer answer anything — the pending
                // registry is about to be drained) and record the loss.
                mark_lost(idx);
                drop(handle);
            }
        }
        // Bounded drain: answer every still-pending request via the
        // degrade policy. Entries are *taken*, so a stalled replica that
        // later wakes finds nothing left to answer — exactly one
        // outcome either way.
        let mut orphans: Vec<(u64, PendingReply)> = shared
            .pending
            .lock()
            .expect("pending poisoned")
            .drain()
            .collect();
        orphans.sort_by_key(|(id, _)| *id);
        let generation = shared.active_gen.load(Ordering::SeqCst);
        for (id, p) in orphans {
            let outcome = shared.degrade_outcome(p.stream, ShedReason::ReplicaUnavailable);
            record_outcome(&shared, &outcome);
            shared.counters.force_drained.fetch_add(1, Ordering::SeqCst);
            if telemetry::metrics_enabled() {
                telemetry::counter("serve.drain.forced").inc();
            }
            let _ = p.reply.send(Response {
                id,
                stream: p.stream,
                outcome,
                replica: None,
                batch: None,
                generation,
                arrival_us: p.arrival_us,
                started_us: None,
                done_us: shared.now_us(),
            });
        }
        let weight_hash = {
            let active = shared.active.lock().expect("active poisoned");
            active.1.weight_hash()
        };
        ServeReport {
            counters: shared.counters.snapshot(),
            batch_log,
            states: (0..n).map(|i| shared.state_of(i)).collect(),
            generation,
            weight_hash,
        }
    }
}

/// Tallies one outcome into the shared counters and telemetry.
fn record_outcome(shared: &Shared, outcome: &Outcome) {
    let metrics = telemetry::metrics_enabled();
    match outcome {
        Outcome::Served(_) => {
            shared.counters.served.fetch_add(1, Ordering::SeqCst);
            if metrics {
                telemetry::counter("serve.requests.served").inc();
            }
        }
        Outcome::Degraded(_) => {
            shared.counters.degraded.fetch_add(1, Ordering::SeqCst);
            if metrics {
                telemetry::counter("serve.requests.degraded").inc();
            }
        }
        Outcome::Shed(reason) => {
            shared.counters.shed.fetch_add(1, Ordering::SeqCst);
            if *reason == ShedReason::QueueFull {
                shared
                    .counters
                    .shed_queue_full
                    .fetch_add(1, Ordering::SeqCst);
            }
            if metrics {
                telemetry::counter("serve.requests.shed").inc();
                telemetry::counter(match reason {
                    ShedReason::QueueFull => "serve.shed.queue_full",
                    ShedReason::InferenceFailed => "serve.shed.infer",
                    ShedReason::ReplicaUnavailable => "serve.shed.unavailable",
                })
                .inc();
            }
        }
    }
}

/// One replica thread: queue → batcher → batched forward, scored by the
/// health tracker, restarted under supervision, swapped between batches.
struct Replica {
    idx: usize,
    shared: Arc<Shared>,
    /// `None` once retired (the detector is dropped with the broken
    /// replica's working set).
    det: Option<Detector>,
    /// Weight generation this replica currently serves.
    gen: u64,
    health: HealthTracker,
    batcher: Batcher<Request>,
    log: Vec<Vec<u64>>,
    seq: u64,
    depth: &'static telemetry::Gauge,
}

impl Replica {
    fn new(idx: usize, det: Detector, shared: Arc<Shared>) -> Self {
        let health = HealthTracker::new(shared.health);
        let batcher = Batcher::new(shared.batch);
        let depth = telemetry::gauge(&format!("serve.replica{idx}.queue.depth"));
        Replica {
            idx,
            shared,
            det: Some(det),
            gen: 0,
            health,
            batcher,
            log: Vec::new(),
            seq: 0,
            depth,
        }
    }

    /// Drains the queue until disconnect; returns the batch log.
    ///
    /// Work-conserving in both clock modes: whatever is queued is pulled
    /// into the batcher (closing on size or window as it goes), and once
    /// the queue runs empty the open batch runs at once instead of
    /// waiting for arrivals that may never come. Batches still form
    /// under load, from the requests that queued during the previous
    /// forward.
    fn run(mut self, rx: Receiver<Msg>) -> Vec<Vec<u64>> {
        self.shared.wait_until_running();
        loop {
            let msg = match rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => {
                    // Queue exhausted (or disconnected for the shutdown
                    // drain): run the open batch, then block for more.
                    self.flush_and_run();
                    match rx.recv() {
                        Ok(msg) => msg,
                        Err(_) => break,
                    }
                }
            };
            self.on_msg(msg);
        }
        self.log
    }

    fn on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::Req(r) => {
                if telemetry::metrics_enabled() {
                    self.depth.add(-1.0);
                }
                self.on_request(r);
            }
            Msg::Canary(cmd) => self.on_canary(cmd),
            Msg::Adopt {
                generation,
                blueprint,
            } => self.on_adopt(generation, blueprint),
        }
    }

    fn on_request(&mut self, r: Request) {
        if self.det.is_none() {
            // Retired: answer immediately via the degrade policy — the
            // graceful-capacity-degradation path for racy admissions.
            self.answer_unrotated(r);
            return;
        }
        let t = if self.shared.virtual_time {
            r.arrival_us
        } else {
            self.shared.now_us()
        };
        if let Some(batch) = self.batcher.push(r, t) {
            self.run_and_score(batch);
        }
    }

    /// Barrier-flush then execute whatever batch is open.
    fn flush_and_run(&mut self) {
        if let Some(batch) = self.batcher.flush() {
            self.run_and_score(batch);
        }
    }

    fn run_and_score(&mut self, batch: Vec<Request>) {
        let ok = self.exec_batch(batch);
        self.after_batch(ok);
    }

    /// Answers a request the replica can no longer serve (retired).
    fn answer_unrotated(&mut self, r: Request) {
        let outcome = self
            .shared
            .degrade_outcome(r.stream, ShedReason::ReplicaUnavailable);
        let gen = self.shared.active_gen.load(Ordering::SeqCst);
        self.shared
            .answer(r.id, outcome, Some(self.idx), None, None, gen);
    }

    /// Health bookkeeping after a batch: score the outcome, publish the
    /// state, and run the quarantine → supervised-restart → retire arc
    /// when the score trips.
    fn after_batch(&mut self, ok: bool) {
        let prev = self.health.state();
        let state = self.health.record_batch(!ok);
        if state != prev {
            self.shared.set_state(self.idx, state);
        }
        if state != ReplicaState::Quarantined {
            return;
        }
        self.shared
            .counters
            .quarantines
            .fetch_add(1, Ordering::SeqCst);
        if telemetry::metrics_enabled() {
            telemetry::counter(&format!("serve.replica{}.quarantines", self.idx)).inc();
        }
        match self.health.begin_restart() {
            RestartDecision::Restart { backoff_ms } => {
                // Deterministic exponential backoff; virtual-time mode
                // skips the sleep (identical decision sequence).
                if !self.shared.virtual_time && backoff_ms > 0 {
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                }
                let (gen, bp) = {
                    let active = self.shared.active.lock().expect("active poisoned");
                    active.clone()
                };
                match bp.spawn() {
                    Ok(d) => {
                        self.det = Some(d);
                        self.gen = gen;
                        self.health.complete_restart();
                        self.shared.counters.restarts.fetch_add(1, Ordering::SeqCst);
                        if telemetry::metrics_enabled() {
                            telemetry::counter(&format!("serve.replica{}.restarts", self.idx))
                                .inc();
                        }
                        self.shared.set_state(self.idx, self.health.state());
                    }
                    // Unreachable for validated blueprints; treated as a
                    // failed restart rather than a panic.
                    Err(_) => self.retire(),
                }
            }
            RestartDecision::Retire => self.retire(),
        }
    }

    /// Permanently removes this replica from rotation and answers
    /// whatever its batcher still holds via the degrade policy.
    fn retire(&mut self) {
        self.det = None;
        self.shared.counters.retired.fetch_add(1, Ordering::SeqCst);
        self.shared.set_state(self.idx, ReplicaState::Retired);
        if let Some(batch) = self.batcher.barrier() {
            for r in batch {
                self.answer_unrotated(r);
            }
        }
    }

    /// Canary phase of a hot swap: barrier-flush (the open batch runs on
    /// the old weights — no batch spans generations), probe the new
    /// blueprint on the pinned reference input, then either install the
    /// new generation or roll back.
    fn on_canary(&mut self, cmd: CanaryCmd) {
        if let Some(batch) = self.batcher.barrier() {
            self.run_and_score(batch);
        }
        // The barrier batch may have tripped the health score: a
        // replica that just retired cannot canary.
        if self.det.is_none() || !self.health.state().admits() {
            let _ = cmd
                .verdict
                .send(CanaryVerdict::Fail(CanaryFailure::ReplicaUnavailable));
            return;
        }
        match run_probe(&cmd, self.shared.plan.as_deref()) {
            Ok(new_det) => {
                self.det = Some(new_det);
                self.gen = cmd.generation;
                let _ = cmd.verdict.send(CanaryVerdict::Pass);
            }
            Err(failure) => {
                // Roll back: the old detector was never dropped — the
                // replica keeps serving the previous generation.
                let _ = cmd.verdict.send(CanaryVerdict::Fail(failure));
            }
        }
    }

    /// Adopts a canary-validated blueprint at the batch boundary.
    fn on_adopt(&mut self, generation: u64, blueprint: DetectorBlueprint) {
        if self.det.is_none() || generation <= self.gen {
            return; // retired, or a stale republication
        }
        if let Some(batch) = self.batcher.barrier() {
            self.run_and_score(batch);
        }
        if self.det.is_none() {
            return; // the barrier batch retired us
        }
        if let Ok(d) = blueprint.spawn() {
            self.det = Some(d);
            self.gen = generation;
        }
    }

    /// Executes one closed batch: stacked forward with fault injection
    /// and retries, then exactly one outcome per member request.
    /// Returns whether inference succeeded.
    fn exec_batch(&mut self, batch: Vec<Request>) -> bool {
        let shared = self.shared.clone();
        let idx = self.idx;
        let batch_seq = self.seq;
        self.seq += 1;
        let restarts = self.health.restarts();
        // Replica-kill window: the injected panic deliberately escapes
        // the per-batch unwind guard, modelling a dead replica thread.
        if let Some(plan) = &shared.plan {
            if plan.replica_kill_at(idx, batch_seq, restarts) {
                panic_any(InjectedFault {
                    stage: StageId::Infer,
                    frame: batch_seq as usize,
                });
            }
        }
        shared.counters.batches.fetch_add(1, Ordering::SeqCst);
        let metrics = telemetry::metrics_enabled();
        if metrics {
            telemetry::counter(&format!("serve.replica{idx}.batches")).inc();
        }
        self.log.push(batch.iter().map(|r| r.id).collect());
        let size = batch.len();
        let mut meta = Vec::with_capacity(size);
        let mut tensors = Vec::with_capacity(size);
        for r in batch {
            meta.push((r.id, r.stream, r.arrival_us));
            tensors.push(r.image);
        }
        let started = shared.now_us();
        if metrics {
            telemetry::histogram("serve.batch.size", &BATCH_BOUNDS).record(size as f64);
            for &(_, _, arrival) in &meta {
                telemetry::histogram("serve.queue_wait.ms", &telemetry::MS_BOUNDS)
                    .record(started.saturating_sub(arrival) as f64 / 1e3);
            }
        }
        // Batched forward under the fault plan, with panic isolation and
        // bounded retries — the same discipline as the pipeline
        // supervisor.
        let det = self
            .det
            .as_mut()
            .expect("in-rotation replica has a detector");
        let stacked = Tensor::stack(&tensors);
        let infer_started = Instant::now();
        let mut detections = None;
        if let Ok(input) = &stacked {
            for attempt in 0..=shared.max_retries {
                if attempt > 0 {
                    shared.counters.retried.fetch_add(1, Ordering::SeqCst);
                    if metrics {
                        telemetry::counter("serve.infer.retried").inc();
                    }
                }
                let ctx = FrameCtx {
                    frame: batch_seq as usize,
                    attempt,
                };
                let span = telemetry::span("serve.infer");
                // A panic mid-forward leaves no partial state we reuse:
                // the detector's transient routing state is reset by the
                // next forward, and Eval mode never touches the
                // parameters.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = &shared.plan {
                        plan.apply_replica(idx, batch_seq, restarts)
                            .map_err(|e| e.to_string())?;
                        plan.apply(StageId::Infer, &ctx)
                            .map_err(|e| e.to_string())?;
                    }
                    det.predict(input).map_err(|e| e.to_string())
                }));
                drop(span);
                if let Ok(Ok(dets)) = outcome {
                    detections = Some(dets);
                    break;
                }
            }
        }
        if metrics {
            telemetry::histogram("serve.infer.ms", &telemetry::MS_BOUNDS)
                .record(infer_started.elapsed().as_secs_f64() * 1e3);
            telemetry::counter("serve.batches").inc();
        }
        // Optional reply-path stall (slow response consumer).
        if let Some(plan) = &shared.plan {
            let ctx = FrameCtx {
                frame: batch_seq as usize,
                attempt: 0,
            };
            let _ = catch_unwind(AssertUnwindSafe(|| plan.apply(StageId::Post, &ctx)));
        }
        let ok = detections.is_some();
        debug_assert!(detections.as_ref().is_none_or(|d| d.len() == size));
        let mut dets = detections.into_iter().flatten();
        let placement = Some((batch_seq, size));
        for (id, stream, arrival_us) in meta {
            // A failed batch (retries exhausted, or an impossible stack)
            // degrades each member per the policy — first-frame rule
            // included.
            let outcome = match dets.next() {
                Some(d) => {
                    let mut last_good = shared.last_good.lock().expect("last_good poisoned");
                    last_good.insert(stream, d);
                    Outcome::Served(d)
                }
                None => shared.degrade_outcome(stream, ShedReason::InferenceFailed),
            };
            let answered =
                shared.answer(id, outcome, Some(idx), placement, Some(started), self.gen);
            if answered && ok && metrics {
                telemetry::counter(&format!("serve.replica{idx}.served")).inc();
                let done = shared.now_us();
                telemetry::histogram("serve.e2e.ms", &telemetry::MS_BOUNDS)
                    .record(done.saturating_sub(arrival_us) as f64 / 1e3);
            }
        }
        ok
    }
}

/// The canary validation probe (runs on the canary replica's thread):
/// weight-hash check, spawn, forward over the pinned reference input
/// under the swap-window fault schedule, detection/IoU comparison.
fn run_probe(cmd: &CanaryCmd, plan: Option<&FaultPlan>) -> Result<Detector, CanaryFailure> {
    if let Some(expected) = cmd.spec.expected_weight_hash {
        let got = cmd.blueprint.weight_hash();
        if got != expected {
            return Err(CanaryFailure::WeightHashMismatch { expected, got });
        }
    }
    let mut det = cmd
        .blueprint
        .spawn()
        .map_err(|e| CanaryFailure::SpawnFailed(e.to_string()))?;
    let probed = catch_unwind(AssertUnwindSafe(|| {
        if let Some(p) = plan {
            p.apply_canary(cmd.generation, 0)
                .map_err(|e| e.to_string())?;
        }
        det.predict(&cmd.spec.reference).map_err(|e| e.to_string())
    }));
    let dets = match probed {
        Ok(Ok(d)) => d,
        Ok(Err(e)) => return Err(CanaryFailure::ProbeError(e)),
        Err(_) => return Err(CanaryFailure::ProbePanicked),
    };
    if !cmd.spec.expected.is_empty() {
        if dets.len() != cmd.spec.expected.len() {
            return Err(CanaryFailure::DetectionCount {
                expected: cmd.spec.expected.len(),
                got: dets.len(),
            });
        }
        for (index, (got, want)) in dets.iter().zip(&cmd.spec.expected).enumerate() {
            let iou = got.bbox.iou(&want.bbox);
            if iou < cmd.spec.min_iou {
                return Err(CanaryFailure::IouBelowFloor {
                    index,
                    iou,
                    floor: cmd.spec.min_iou,
                });
            }
        }
    }
    Ok(det)
}

/// Batch-size histogram buckets (powers of two up to 64).
pub const BATCH_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

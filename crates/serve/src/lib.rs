//! # skynet-serve
//!
//! A batched async serving engine for the SkyNet detector — the
//! production-serving counterpart to the single-stream
//! `hw::pipeline` supervisor.
//!
//! The engine runs **N detector replicas** stamped from one immutable,
//! `Arc`-published weight set
//! ([`DetectorBlueprint`](skynet_core::replica::DetectorBlueprint)),
//! each behind its own **bounded request queue**. Three load-time
//! behaviours define it:
//!
//! * **Dynamic batching** ([`batcher`]): a replica coalesces whatever
//!   its queue holds, up to [`BatchPolicy::max_batch`](batcher::BatchPolicy)
//!   and within the coalescing window, and runs the batch as soon as the
//!   queue is empty — it never idles waiting for more — feeding the
//!   detector's already batch-parallel forward in one stacked pass. The
//!   coalescing decision is a pure state machine over timestamps, so
//!   batch composition is bit-reproducible for a replayed arrival
//!   sequence.
//! * **Admission control + load-shedding** ([`engine`]): when every
//!   queue is full the engine answers immediately instead of queueing
//!   without bound — shedding the request, or coasting on the stream's
//!   last good detection under
//!   [`DegradePolicy::CoastLastGood`](skynet_hw::pipeline::DegradePolicy)
//!   (with the supervisor's first-frame rule: nothing to coast on yet →
//!   shed). Under overload, latency stays bounded and the pressure shows
//!   up in the `serve.requests.shed` counter where it belongs.
//! * **Exactly-one-outcome accounting**: every submitted request gets
//!   exactly one [`Outcome`] on its reply channel, and
//!   [`ServeEngine::shutdown`](engine::ServeEngine::shutdown) drains the
//!   queues before joining — zero requests lost, even with an armed
//!   [`FaultPlan`](skynet_hw::fault::FaultPlan) panicking and stalling
//!   the infer stage.
//!
//! On top of per-batch fault tolerance the engine is
//! **self-healing per replica** ([`health`]): every replica scores its
//! batch outcomes through a deterministic health state machine
//! (`Healthy → Degraded → Quarantined`), quarantined replicas receive
//! zero admissions and are supervised-restarted from the active
//! blueprint with exponential backoff until a bounded restart budget
//! retires them permanently. Weights can be **hot-swapped** into the
//! running engine ([`swap`]):
//! [`ServeEngine::publish`](engine::ServeEngine::publish) validates the
//! new blueprint on a single canary replica against a pinned reference
//! input before promoting it — or rolls back automatically — and every
//! [`Response`] records the weight generation that
//! served it.
//!
//! Replicas are isolated where it matters: scratch-arena reuse is
//! per-thread by construction, and telemetry is split per replica
//! (`serve.replica<i>.queue.depth` / `.state` gauges,
//! `serve.replica<i>.batches` / `.served` / `.restarts` /
//! `.quarantines` counters) on top of the engine-wide `serve.*`
//! counters, `serve.swap.*` counters and latency histograms. See
//! `docs/OBSERVABILITY.md` for the full metric inventory and
//! `bench/src/bin/serve_load.rs` for the open-loop load harness
//! ([`loadgen`]) — including its chaos-soak scenario — that produces
//! `bench_results/serve_load.md`.
//!
//! ```
//! use skynet_core::head::Anchors;
//! use skynet_core::replica::DetectorBlueprint;
//! use skynet_core::skynet::{SkyNetConfig, Variant};
//! use skynet_nn::Act;
//! use skynet_serve::engine::{ServeConfig, ServeEngine};
//! use skynet_serve::loadgen::synth_image;
//! use std::sync::mpsc;
//!
//! let cfg = SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(16);
//! let blueprint = DetectorBlueprint::from_seed(cfg, Anchors::dac_sdc(), 0);
//! let engine = ServeEngine::start(&blueprint, &ServeConfig::default()).unwrap();
//! let (reply, inbox) = mpsc::channel();
//! engine.submit(0, synth_image(1, 16, 32), &reply);
//! let response = inbox.recv().unwrap();
//! let report = engine.shutdown();
//! assert_eq!(report.counters.lost(), 0);
//! # let _ = response;
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod engine;
pub mod health;
pub mod loadgen;
pub mod swap;

pub use batcher::{BatchPolicy, Batcher};
pub use engine::{
    Admission, Outcome, Response, ServeConfig, ServeCounters, ServeEngine, ServeReport, ShedReason,
};
pub use health::{HealthPolicy, HealthTracker, ReplicaState, RestartDecision};
pub use loadgen::{synth_image, Arrival, LoadSpec};
pub use swap::{CanaryFailure, CanarySpec, CanaryVerdict, SwapError, SwapOutcome};

//! Integration suite for the serving engine: batching determinism,
//! exactly-one-outcome accounting, drain-on-shutdown, admission-time
//! shedding, coast semantics, and zero loss under injected faults.

use skynet_core::head::Anchors;
use skynet_core::replica::DetectorBlueprint;
use skynet_core::skynet::{SkyNetConfig, Variant};
use skynet_hw::fault::{silence_injected_panics, Fault, FaultKind, FaultPlan};
use skynet_hw::pipeline::{DegradePolicy, StageId};
use skynet_nn::Act;
use skynet_serve::batcher::BatchPolicy;
use skynet_serve::engine::{Outcome, Response, ServeConfig, ServeEngine, ShedReason};
use skynet_serve::loadgen::{synth_image, LoadSpec};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn blueprint(seed: u64) -> DetectorBlueprint {
    let cfg = SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(16);
    DetectorBlueprint::from_seed(cfg, Anchors::dac_sdc(), seed)
}

fn drain(inbox: &mpsc::Receiver<Response>) -> Vec<Response> {
    let mut out = Vec::new();
    while let Ok(r) = inbox.try_recv() {
        out.push(r);
    }
    out
}

/// Replay-stable view of one outcome: `(id, stream, outcome kind,
/// confidence bits, weight generation, (replica, batch seq, batch
/// size))` — everything a replayed run must reproduce, wall-clock
/// stamps excluded.
type Fingerprint = (u64, u64, u8, u32, u64, Option<(usize, u64, usize)>);

fn fingerprint(r: &Response) -> Fingerprint {
    let (kind, bits) = match r.outcome {
        Outcome::Served(d) => (0u8, d.confidence.to_bits()),
        Outcome::Degraded(d) => (1, d.confidence.to_bits()),
        Outcome::Shed(ShedReason::QueueFull) => (2, 0),
        Outcome::Shed(ShedReason::InferenceFailed) => (3, 0),
        Outcome::Shed(ShedReason::ReplicaUnavailable) => (4, 0),
    };
    let placement = r.batch.map(|(seq, size)| {
        (
            r.replica.expect("batched response has a replica"),
            seq,
            size,
        )
    });
    (r.id, r.stream, kind, bits, r.generation, placement)
}

/// One paused, prefilled, virtual-time run: submit the whole schedule,
/// release the replicas, shut down, and return (batch log, outcomes).
fn deterministic_run(seed: u64) -> (Vec<Vec<Vec<u64>>>, Vec<Fingerprint>) {
    let bp = blueprint(3);
    let cfg = ServeConfig {
        replicas: 2,
        queue_capacity: 256,
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_us: 2_000,
        },
        policy: DegradePolicy::CoastLastGood,
        max_retries: 1,
        virtual_time: true,
        paused: true,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();
    let schedule = LoadSpec::poisson(96, 2_000.0, 4).schedule(seed);
    for a in &schedule {
        engine.submit_at(a.stream, synth_image(a.image_seed, 16, 32), a.at_us, &reply);
    }
    engine.resume();
    let report = engine.shutdown();
    assert_eq!(report.counters.lost(), 0);
    let mut outcomes: Vec<_> = drain(&inbox).iter().map(fingerprint).collect();
    outcomes.sort();
    (report.batch_log, outcomes)
}

#[test]
fn batch_composition_and_outcomes_are_bit_reproducible() {
    let (log_a, out_a) = deterministic_run(42);
    let (log_b, out_b) = deterministic_run(42);
    assert_eq!(
        log_a, log_b,
        "batch composition must replay bit-identically"
    );
    assert_eq!(out_a, out_b, "outcomes must replay bit-identically");
    // And a different arrival seed genuinely changes the composition.
    let (log_c, _) = deterministic_run(43);
    assert_ne!(log_a, log_c);
}

#[test]
fn virtual_time_batches_respect_policy_and_cover_every_request() {
    let (log, outcomes) = deterministic_run(7);
    let mut seen: Vec<u64> = Vec::new();
    for replica_log in &log {
        for batch in replica_log {
            assert!(!batch.is_empty());
            assert!(batch.len() <= 4, "batch {batch:?} exceeds max_batch");
            seen.extend_from_slice(batch);
        }
    }
    seen.sort_unstable();
    let expected: Vec<u64> = (0..96).collect();
    assert_eq!(
        seen, expected,
        "every queued request ran in exactly one batch"
    );
    assert_eq!(outcomes.len(), 96);
    assert!(
        outcomes.iter().all(|o| o.2 == 0),
        "prefilled run serves everything"
    );
}

#[test]
fn every_request_gets_exactly_one_outcome_through_shutdown_drain() {
    let bp = blueprint(5);
    let cfg = ServeConfig {
        replicas: 3,
        queue_capacity: 64,
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_us: 500,
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();
    let total = 150u64;
    for i in 0..total {
        engine.submit(i % 5, synth_image(i, 16, 32), &reply);
    }
    // Shut down immediately: most requests are still queued and must be
    // drained, not dropped.
    let report = engine.shutdown();
    assert_eq!(report.counters.submitted, total);
    assert_eq!(
        report.counters.lost(),
        0,
        "drain must account for every request"
    );
    let responses = drain(&inbox);
    assert_eq!(responses.len() as u64, total);
    let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len() as u64,
        total,
        "exactly one outcome per request id"
    );
    assert!(report.counters.served > 0);
    // Every served outcome splits its latency at the batch start.
    for r in responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served(_)))
    {
        let started = r.started_us.expect("a served request ran in a batch");
        assert!(
            r.arrival_us <= started && started <= r.done_us,
            "stamps out of order: {r:?}"
        );
    }
}

#[test]
fn overload_sheds_at_admission_instead_of_queueing_unboundedly() {
    let bp = blueprint(1);
    let cfg = ServeConfig {
        replicas: 2,
        queue_capacity: 4,
        policy: DegradePolicy::DropFrame,
        paused: true, // replicas parked: queues can only fill
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();
    let total = 100u64;
    for i in 0..total {
        engine.submit(i, synth_image(i, 16, 32), &reply);
    }
    // 2 replicas × capacity 4 slots fill; everything else is rejected
    // immediately with an explicit Shed outcome.
    let immediate = drain(&inbox);
    assert_eq!(immediate.len(), 92);
    assert!(immediate
        .iter()
        .all(|r| r.outcome == Outcome::Shed(ShedReason::QueueFull) && r.started_us.is_none()));
    let report = engine.shutdown(); // resumes, drains the 8 queued
    assert_eq!(report.counters.shed_queue_full, 92);
    assert_eq!(report.counters.served, 8);
    assert_eq!(report.counters.lost(), 0);
}

#[test]
fn coast_last_good_answers_queue_full_with_stale_detection() {
    let bp = blueprint(9);
    // Batch of 1 so the worker starts immediately; a long infer stall on
    // the second batch holds the worker while we overfill the queue.
    let plan = FaultPlan::new().inject(
        StageId::Infer,
        1,
        Fault::permanent(FaultKind::Stall(Duration::from_millis(250))),
    );
    let cfg = ServeConfig {
        replicas: 1,
        queue_capacity: 1,
        batch: BatchPolicy {
            max_batch: 1,
            max_delay_us: 0,
        },
        policy: DegradePolicy::CoastLastGood,
        max_retries: 0,
        fault_plan: Some(Arc::new(plan)),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();

    // Batch 0: stream 7 gets a fresh detection (the future last-good).
    engine.submit(7, synth_image(100, 16, 32), &reply);
    let first = inbox.recv_timeout(Duration::from_secs(10)).unwrap();
    let Outcome::Served(good) = first.outcome else {
        panic!("expected a served first request, got {:?}", first.outcome);
    };

    // Batch 1 stalls the only replica for 250ms...
    engine.submit(8, synth_image(101, 16, 32), &reply);
    std::thread::sleep(Duration::from_millis(50)); // let it get pulled
                                                   // ...so this one parks in the (capacity-1) queue...
    engine.submit(9, synth_image(102, 16, 32), &reply);
    // ...and admission is now full. Stream 7 coasts on its last good:
    let (r7, inbox7) = mpsc::channel();
    engine.submit(7, synth_image(103, 16, 32), &r7);
    let coasted = inbox7.recv_timeout(Duration::from_secs(1)).unwrap();
    match coasted.outcome {
        Outcome::Degraded(d) => {
            assert_eq!(d.confidence.to_bits(), good.confidence.to_bits());
            assert_eq!(d.bbox.cx.to_bits(), good.bbox.cx.to_bits());
        }
        other => panic!("expected coast, got {other:?}"),
    }
    // A stream with no good detection yet hits the first-frame rule: shed.
    let (r_new, inbox_new) = mpsc::channel();
    engine.submit(999, synth_image(104, 16, 32), &r_new);
    let fresh = inbox_new.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(fresh.outcome, Outcome::Shed(ShedReason::QueueFull));

    let report = engine.shutdown();
    assert_eq!(report.counters.lost(), 0);
    assert_eq!(report.counters.degraded, 1);
    assert_eq!(report.counters.served, 3); // streams 7, 8, 9
}

#[test]
fn injected_faults_shed_or_degrade_but_never_lose_requests() {
    silence_injected_panics();
    let bp = blueprint(11);
    // Replica-local batch sequences both start at 0, so this plan hits
    // the first batches of *every* replica: a permanent panic, then a
    // transient error (recovered by retry), then a transient stall.
    let plan = FaultPlan::new()
        .inject(StageId::Infer, 0, Fault::permanent(FaultKind::Panic))
        .inject(StageId::Infer, 1, Fault::transient(FaultKind::Error))
        .inject(
            StageId::Infer,
            2,
            Fault::transient(FaultKind::Stall(Duration::from_millis(5))),
        )
        .inject(
            StageId::Post,
            3,
            Fault::transient(FaultKind::Stall(Duration::from_millis(5))),
        );
    let cfg = ServeConfig {
        replicas: 2,
        queue_capacity: 64,
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_us: 200,
        },
        policy: DegradePolicy::CoastLastGood,
        max_retries: 2,
        fault_plan: Some(Arc::new(plan)),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();
    let total = 60u64;
    for i in 0..total {
        engine.submit(i % 3, synth_image(i, 16, 32), &reply);
        if i % 8 == 7 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let report = engine.shutdown();
    assert_eq!(report.counters.submitted, total);
    assert_eq!(
        report.counters.lost(),
        0,
        "faults may shed or degrade but never lose: {:?}",
        report.counters
    );
    let responses = drain(&inbox);
    assert_eq!(responses.len() as u64, total);
    let mut per_id: HashMap<u64, u32> = HashMap::new();
    for r in &responses {
        *per_id.entry(r.id).or_default() += 1;
    }
    assert!(per_id.values().all(|&n| n == 1), "one outcome per request");
    // The permanent panic on each replica's batch 0 forces sheds or
    // coasts; later batches serve normally.
    assert!(report.counters.served > 0, "{:?}", report.counters);
    assert!(
        report.counters.shed + report.counters.degraded > 0,
        "{:?}",
        report.counters
    );
    assert!(report.counters.retried > 0, "{:?}", report.counters);
}

#[test]
fn replicas_serve_the_published_weight_hash() {
    let bp = blueprint(21);
    let engine = ServeEngine::start(&bp, &ServeConfig::default()).unwrap();
    let (reply, inbox) = mpsc::channel();
    engine.submit(0, synth_image(0, 16, 32), &reply);
    let _ = inbox.recv_timeout(Duration::from_secs(10)).unwrap();
    let report = engine.shutdown();
    assert_eq!(report.weight_hash, bp.weight_hash());
}

#[test]
fn an_idle_replica_runs_its_open_batch_without_waiting_out_the_window() {
    let bp = blueprint(13);
    let cfg = ServeConfig {
        replicas: 1,
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_us: 10_000_000,
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();
    engine.submit(0, synth_image(0, 16, 32), &reply);
    let r = inbox.recv_timeout(Duration::from_secs(30)).unwrap();
    assert!(matches!(r.outcome, Outcome::Served(_)), "{r:?}");
    let latency_us = r.done_us - r.arrival_us;
    assert!(
        latency_us < 1_000_000,
        "a lone request waited {latency_us}us for a 10s window to expire"
    );
    assert_eq!(engine.shutdown().counters.lost(), 0);
}

#[test]
fn a_wall_clock_backlog_coalesces_into_one_full_batch() {
    let bp = blueprint(17);
    let cfg = ServeConfig {
        replicas: 1,
        // The window is wide, so only size (or an empty queue) closes.
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_us: 10_000_000,
        },
        paused: true,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(&bp, &cfg).unwrap();
    let (reply, inbox) = mpsc::channel();
    for i in 0..8 {
        engine.submit(i, synth_image(i, 16, 32), &reply);
    }
    engine.resume();
    for _ in 0..8 {
        let r = inbox.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.batch, Some((0, 8)), "the backlog split: {r:?}");
    }
    assert_eq!(engine.shutdown().counters.lost(), 0);
}

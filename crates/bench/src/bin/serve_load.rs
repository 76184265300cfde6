//! Open-loop load test for the batched serving engine: seeded Poisson
//! arrivals (with a bursty overload phase) driven in real time against
//! `skynet_serve::ServeEngine`, reporting p50/p95/p99 end-to-end latency
//! and the served/degraded/shed split at each offered rate.
//!
//! Two design choices make the numbers honest and reproducible:
//!
//! * the load is **open-loop** — arrival times come from a seeded
//!   schedule computed up front, so an overloaded engine cannot slow its
//!   own offered load (the classic closed-loop benchmark lie);
//! * every batch carries a fixed **5 ms synthetic service floor**
//!   (an always-firing `Infer` stall from the fault machinery), pinning
//!   the engine's capacity at `replicas × max_batch / 5ms` regardless of
//!   host speed, so "overload" means the same thing on every machine.
//!
//! The `faulted` scenario arms a fault schedule (panics, errors, stalls
//! and reply-path stalls standing in for slow clients) and asserts the
//! engine's accounting invariant: **zero requests lost** — every
//! submitted request gets exactly one outcome even while replicas are
//! panicking. The final `chaos` scenario is the **lifecycle soak**: a
//! replica wedged until its supervised restart, a second replica on
//! permanently dead hardware, and two mid-storm hot weight swaps (one
//! canary-validated and promoted, one rejected and rolled back) — all
//! under load, asserting zero loss, generation-stamped outcomes, zero
//! admissions to out-of-rotation replicas, and a recovered p99 after
//! the storm. The report is archived at `bench_results/serve_load.md`.
//!
//! Usage: `cargo run --release -p skynet-bench --bin serve_load`
//! (`SKYNET_BENCH_BUDGET=fast` for the CI smoke pass).

use skynet_bench::{table, Budget};
use skynet_core::head::Anchors;
use skynet_core::replica::DetectorBlueprint;
use skynet_core::skynet::{SkyNetConfig, Variant};
use skynet_hw::fault::{
    silence_injected_panics, Fault, FaultKind, FaultPlan, FaultRates, ReplicaFault,
};
use skynet_hw::pipeline::{DegradePolicy, StageId};
use skynet_nn::Act;
use skynet_serve::batcher::BatchPolicy;
use skynet_serve::engine::{Admission, Outcome, Response, ServeConfig, ServeCounters, ServeEngine};
use skynet_serve::health::HealthPolicy;
use skynet_serve::loadgen::{synth_image, LoadSpec};
use skynet_serve::swap::{CanarySpec, SwapOutcome};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Fixed per-batch service floor: pins capacity so "overload" is
/// machine-independent. 2 replicas × batch 8 / 5 ms ≈ 3 200 rps.
const SERVICE_FLOOR: Duration = Duration::from_millis(5);
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 8;

struct Row {
    name: &'static str,
    offered_rps: f64,
    submitted: u64,
    served: u64,
    degraded: u64,
    shed: u64,
    /// Requests rejected at admission (answered immediately by coasting
    /// or shedding instead of queueing) — the load-shedding actions.
    rejected: u64,
    lost: u64,
    /// Mean requests per executed batch.
    mean_batch: f64,
    /// Median queue wait (arrival → batch start) of served requests.
    wait_p50_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl Row {
    /// Reduces one finished run. Latency and queue wait are taken over
    /// freshly served requests; coasts and sheds are immediate
    /// admission-time answers and show up in their own columns.
    fn new(
        name: &'static str,
        offered_rps: f64,
        c: ServeCounters,
        rejected: u64,
        responses: &[Response],
    ) -> Row {
        let served: Vec<&Response> = responses
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Served(_)))
            .collect();
        let sorted_ms = |to: fn(&Response) -> u64| {
            let mut ms: Vec<f64> = served
                .iter()
                .map(|r| to(r).saturating_sub(r.arrival_us) as f64 / 1e3)
                .collect();
            ms.sort_by(f64::total_cmp);
            ms
        };
        let e2e_ms = sorted_ms(|r| r.done_us);
        let wait_ms = sorted_ms(|r| r.started_us.expect("a served request ran in a batch"));
        let batched = responses.iter().filter(|r| r.batch.is_some()).count();
        Row {
            name,
            offered_rps,
            submitted: c.submitted,
            served: c.served,
            degraded: c.degraded,
            shed: c.shed,
            rejected,
            lost: c.lost(),
            mean_batch: batched as f64 / c.batches.max(1) as f64,
            wait_p50_ms: percentile(&wait_ms, 0.50),
            p50_ms: percentile(&e2e_ms, 0.50),
            p95_ms: percentile(&e2e_ms, 0.95),
            p99_ms: percentile(&e2e_ms, 0.99),
        }
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// A plan that stalls every batch's infer for the service floor (frames
/// 0..batches are the replica-local batch sequence numbers).
fn floor_plan(batches: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for b in 0..batches {
        plan = plan.inject(
            StageId::Infer,
            b,
            Fault::permanent(FaultKind::Stall(SERVICE_FLOOR)),
        );
    }
    plan
}

/// Drives one open-loop scenario in real time and reduces it to a row.
fn run_scenario(
    name: &'static str,
    bp: &DetectorBlueprint,
    spec: &LoadSpec,
    plan: FaultPlan,
    seed: u64,
) -> Row {
    let cfg = ServeConfig {
        replicas: REPLICAS,
        queue_capacity: 32,
        batch: BatchPolicy {
            max_batch: MAX_BATCH,
            max_delay_us: 2_000,
        },
        policy: DegradePolicy::CoastLastGood,
        max_retries: 2,
        fault_plan: Some(Arc::new(plan)),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(bp, &cfg).expect("blueprint weights fit the config");
    let (reply, inbox) = mpsc::channel::<Response>();
    let schedule = spec.schedule(seed);
    let start = std::time::Instant::now();
    let mut rejected = 0u64;
    for a in &schedule {
        let target = Duration::from_micros(a.at_us);
        let elapsed = start.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        let admission = engine.submit(a.stream, synth_image(a.image_seed, 16, 32), &reply);
        if admission == skynet_serve::engine::Admission::Rejected {
            rejected += 1;
        }
    }
    let wall = start.elapsed();
    let report = engine.shutdown();
    let responses: Vec<Response> = inbox.try_iter().collect();
    assert_eq!(responses.len(), schedule.len(), "one outcome per request");
    Row::new(
        name,
        schedule.len() as f64 / wall.as_secs_f64(),
        report.counters,
        rejected,
        &responses,
    )
}

/// The lifecycle chaos soak: moderate load over three replicas while
/// replica 0 wedges until its supervised restart, replica 1 fails
/// persistently toward retirement, and two hot swaps land mid-storm —
/// one promoted through the canary, one rejected and rolled back.
/// Asserts the full robustness contract under load and reduces the run
/// to a table row.
fn run_chaos_soak(bp: &DetectorBlueprint, bp_next: &DetectorBlueprint, n: usize) -> Row {
    let spec = LoadSpec::poisson(n, 1_600.0, 8);
    let plan = floor_plan(spec.requests)
        // Wedged process: fails every batch from its 3rd until the
        // supervised restart clears it.
        .inject_replica(0, ReplicaFault::until_restarted(FaultKind::Error, 3))
        // Dead hardware: failures survive restarts; the restart budget
        // eventually retires the replica.
        .inject_replica(1, ReplicaFault::persistent(FaultKind::Error, 6));
    let cfg = ServeConfig {
        replicas: 3,
        queue_capacity: 32,
        batch: BatchPolicy {
            max_batch: MAX_BATCH,
            max_delay_us: 2_000,
        },
        policy: DegradePolicy::CoastLastGood,
        max_retries: 1,
        health: HealthPolicy {
            consecutive_failures: 2,
            restart_budget: 1,
            backoff_base_ms: 5,
            backoff_max_ms: 5,
            ..HealthPolicy::default()
        },
        fault_plan: Some(Arc::new(plan)),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(bp, &cfg).expect("blueprint weights fit the config");
    let (reply, inbox) = mpsc::channel::<Response>();
    let schedule = spec.schedule(44);
    let storm_us = schedule.last().expect("non-empty schedule").at_us;
    let start = std::time::Instant::now();
    let mut rejected = 0u64;
    let (good_swap, bad_swap) = std::thread::scope(|s| {
        let engine = &engine;
        let publisher = s.spawn(move || {
            // First swap ~40% into the storm: canary-validated, promoted.
            std::thread::sleep(Duration::from_micros(storm_us * 2 / 5));
            let reference = synth_image(1, 16, 32);
            let spec = CanarySpec::for_blueprint(bp_next, reference.clone())
                .expect("publisher-side probe");
            let good = engine
                .publish(bp_next.clone(), spec)
                .expect("publish reaches a canary verdict");
            // Second swap ~70% in: wrong expected hash, rolled back.
            std::thread::sleep(Duration::from_micros(storm_us * 3 / 10));
            let bad = engine
                .publish(
                    bp_next.clone(),
                    CanarySpec::new(reference).expect_weight_hash(1),
                )
                .expect("publish reaches a canary verdict");
            (good, bad)
        });
        for a in &schedule {
            let target = Duration::from_micros(a.at_us);
            let elapsed = start.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
            // Zero-admissions check: a replica observed out of rotation
            // both before and after the submit must not have admitted it.
            let pre: Vec<bool> = engine
                .replica_states()
                .iter()
                .map(|st| st.admits())
                .collect();
            let admission = engine.submit(a.stream, synth_image(a.image_seed, 16, 32), &reply);
            match admission {
                Admission::Queued { replica } => {
                    let post = engine.replica_states()[replica].admits();
                    assert!(
                        pre[replica] || post,
                        "replica {replica} admitted a request while out of rotation"
                    );
                }
                Admission::Rejected => rejected += 1,
            }
        }
        publisher.join().expect("publisher thread")
    });
    let wall = start.elapsed();
    let report = engine.shutdown();
    let responses: Vec<Response> = inbox.try_iter().collect();
    assert_eq!(responses.len(), schedule.len(), "one outcome per request");

    // The storm happened as scripted.
    assert!(
        matches!(good_swap, SwapOutcome::Published { generation: 1, .. }),
        "first swap must promote: {good_swap:?}"
    );
    assert!(
        matches!(bad_swap, SwapOutcome::RolledBack { .. }),
        "second swap must roll back: {bad_swap:?}"
    );
    let c = report.counters;
    assert_eq!(c.lost(), 0, "chaos soak lost requests: {c:?}");
    assert_eq!(c.swaps_published, 1, "{c:?}");
    assert_eq!(c.swap_canary_fail, 1, "{c:?}");
    assert_eq!(c.swap_rolled_back, 1, "{c:?}");
    assert!(c.quarantines >= 1, "no quarantine under the storm: {c:?}");
    assert!(c.restarts >= 1, "no supervised restart: {c:?}");
    // Every outcome carries its weight-generation stamp: 0 before the
    // promoted swap, 1 after, and never the rolled-back generation 2.
    assert!(
        responses.iter().all(|r| r.generation <= 1),
        "an outcome carries the rolled-back generation"
    );
    assert!(
        responses.iter().any(|r| r.generation == 1),
        "no outcome was served by the promoted generation"
    );
    assert_eq!(report.generation, 1);
    assert_eq!(report.weight_hash, bp_next.weight_hash());

    // p99 recovery: the last quarter of the storm (restart done, swap
    // settled) must serve with a queue-bounded tail again.
    let mut tail_ms: Vec<f64> = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served(_)) && r.arrival_us >= storm_us * 3 / 4)
        .map(|r| r.done_us.saturating_sub(r.arrival_us) as f64 / 1e3)
        .collect();
    tail_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(
        !tail_ms.is_empty(),
        "nothing served after the storm settled"
    );
    let tail_p99 = percentile(&tail_ms, 0.99);
    assert!(
        tail_p99 < 250.0,
        "post-storm p99 {tail_p99}ms did not recover"
    );

    Row::new(
        "chaos",
        schedule.len() as f64 / wall.as_secs_f64(),
        c,
        rejected,
        &responses,
    )
}

fn main() {
    silence_injected_panics();
    let budget = Budget::from_env();
    let n = budget.pick(240, 1_200);
    let bp = DetectorBlueprint::from_seed(
        SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(16),
        Anchors::dac_sdc(),
        0,
    );

    // Capacity with the 5 ms floor: 2 replicas × 8/batch / 5 ms ≈ 3 200
    // rps. Light and moderate sit under it; overload sits well past it;
    // bursty alternates calm 800 rps with 8 000 rps spikes.
    let scenarios: Vec<(&'static str, LoadSpec)> = vec![
        ("light", LoadSpec::poisson(n, 400.0, 8)),
        ("moderate", LoadSpec::poisson(n, 1_600.0, 8)),
        ("overload", LoadSpec::poisson(n, 12_800.0, 8)),
        (
            "bursty",
            LoadSpec {
                requests: n,
                rate_rps: 800.0,
                streams: 8,
                burst_every: n / 4,
                burst_len: n / 8,
                burst_multiplier: 10.0,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, spec) in &scenarios {
        rows.push(run_scenario(name, &bp, spec, floor_plan(spec.requests), 42));
    }

    // Fault-injected smoke: the floor plan plus panics, stage errors and
    // stalls on ~12% of batches, and reply-path (slow client) stalls.
    let smoke_spec = LoadSpec::poisson(n, 1_600.0, 8);
    let mut smoke_plan = floor_plan(smoke_spec.requests);
    let chaos = FaultPlan::scheduled(
        7,
        smoke_spec.requests,
        &FaultRates {
            panic: 0.04,
            error: 0.04,
            stall: 0.04,
            stall_for: Duration::from_millis(10),
            persist_attempts: 1, // transient: one retry recovers
        },
    );
    smoke_plan = smoke_plan.merge(chaos);
    let smoke = run_scenario("faulted", &bp, &smoke_spec, smoke_plan, 43);
    assert!(smoke.served > 0, "faulted run must still serve requests");
    assert_eq!(smoke.lost, 0, "faulted run must not lose a single request");
    rows.push(smoke);

    // Lifecycle chaos soak: persistent replica failures, supervised
    // restart, and two hot swaps (one rolled back) under moderate load.
    let bp_next = DetectorBlueprint::from_seed(
        SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(16),
        Anchors::dac_sdc(),
        1,
    );
    rows.push(run_chaos_soak(&bp, &bp_next, n));

    table::header(
        "Open-loop serving latency vs offered load (5ms/batch service floor)",
        &[
            ("scenario", 10),
            ("rps", 7),
            ("served", 7),
            ("degr", 6),
            ("shed", 6),
            ("reject", 7),
            ("batch", 6),
            ("wait50", 7),
            ("p50ms", 7),
            ("p95ms", 7),
            ("p99ms", 7),
        ],
    );
    for r in &rows {
        table::row(&[
            (r.name.into(), 10),
            (format!("{:.0}", r.offered_rps), 7),
            (r.served.to_string(), 7),
            (r.degraded.to_string(), 6),
            (r.shed.to_string(), 6),
            (r.rejected.to_string(), 7),
            (format!("{:.2}", r.mean_batch), 6),
            (format!("{:.1}", r.wait_p50_ms), 7),
            (format!("{:.1}", r.p50_ms), 7),
            (format!("{:.1}", r.p95_ms), 7),
            (format!("{:.1}", r.p99_ms), 7),
        ]);
    }

    // Acceptance: overload sheds load at admission instead of queueing
    // without bound (under CoastLastGood a rejection answers with the
    // stream's stale detection, so it lands in `degraded`/`shed`), and
    // the answered-latency tail stays within the queue-bound envelope.
    let overload = rows.iter().find(|r| r.name == "overload").unwrap();
    assert!(overload.rejected > 0, "overload must reject at admission");
    assert_eq!(
        overload.rejected,
        overload.degraded + overload.shed,
        "every rejection is answered by coasting or shedding"
    );
    assert!(
        overload.p99_ms < 500.0,
        "overload p99 {}ms should stay queue-bounded",
        overload.p99_ms
    );
    for r in &rows {
        assert_eq!(r.lost, 0, "{}: zero-loss invariant violated", r.name);
    }

    let mut md = String::new();
    let _ = writeln!(md, "# Serving engine under open-loop load\n");
    let _ = writeln!(
        md,
        "{n} requests per scenario, seeded Poisson arrivals over 8 streams,\n\
         {REPLICAS} replicas × queue 32 × batch ≤ {MAX_BATCH}, `CoastLastGood`\n\
         shedding policy, and a fixed 5 ms per-batch service floor so peak\n\
         capacity (≈3 200 rps at full batches) is host-independent. Replicas\n\
         are work-conserving: a replica runs its open batch as soon as its\n\
         queue is empty, so batches grow only from requests that queued\n\
         during the previous batch; the 2 ms window only caps the dequeue\n\
         span of one drain. Latency is end-to-end (submission → outcome)\n\
         over freshly served requests; coasts and sheds are immediate\n\
         admission-time answers. `p50 wait` is the median submission →\n\
         batch-start time (`Response::started_us`) of the same requests, so\n\
         `p50 ms − p50 wait` is roughly the batch's service time; `batch` is\n\
         the mean number of requests per executed batch. The `faulted` row\n\
         replays the moderate load with transient panics/errors/stalls\n\
         injected into ~12% of batches plus reply-path stalls (slow\n\
         clients). The `chaos` row is the lifecycle soak: three replicas,\n\
         one wedged until its supervised restart, one failing persistently\n\
         toward retirement, and two hot weight swaps mid-storm — one\n\
         canary-promoted, one rolled back."
    );
    let _ = writeln!(
        md,
        "\n| scenario | offered rps | submitted | served | degraded | shed | rejected | lost | batch | p50 wait ms | p50 ms | p95 ms | p99 ms |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for r in &rows {
        let _ = writeln!(
            md,
            "| {} | {:.0} | {} | {} | {} | {} | {} | {} | {:.2} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.name,
            r.offered_rps,
            r.submitted,
            r.served,
            r.degraded,
            r.shed,
            r.rejected,
            r.lost,
            r.mean_batch,
            r.wait_p50_ms,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms
        );
    }
    let _ = writeln!(
        md,
        "\nUnder overload the engine rejects excess demand at admission\n\
         (`rejected`), answering each rejection immediately — coasting on\n\
         the stream's last good detection (`degraded`) or shedding outright\n\
         (`shed`) — which keeps the answered-latency tail queue-bounded\n\
         instead of letting it grow with the backlog. The fault-injected and\n\
         chaos runs keep the exactly-one-outcome invariant (`lost` stays 0)\n\
         while replicas panic, retry, stall, quarantine, restart and swap\n\
         weight generations — with the post-storm p99 recovered and every\n\
         outcome stamped with the generation that served it."
    );
    print!("{md}");
    std::fs::create_dir_all("bench_results").expect("create bench_results/");
    std::fs::write("bench_results/serve_load.md", &md).expect("write report");
    println!("\nreport written to bench_results/serve_load.md");
}

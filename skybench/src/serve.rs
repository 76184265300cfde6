//! `serve_steady` and `serve_burst`: open-loop load on the serving
//! engine — 2 replicas, batches of at most 8, a 2 ms coalescing window,
//! 160×320 frames over 8 client streams.
//!
//! The arrival schedule is the benchmark's own: exponential gaps from
//! the seed (a Poisson process), shrunk inside bursts, then scaled so
//! the last arrival lands at the end of the run. One thread sends every
//! request at its due time, and each request's latency runs from that
//! due time to the engine's completion stamp, so a late generator or a
//! stalled engine is charged to every request it delayed.
//!
//! The schedule is sent in chunks of one burst cycle. Between two chunks
//! the engine drains and the reference clock is probed. Throughput is
//! fresh responses per second during which at least one request was
//! outstanding, so it measures how fast the engine clears its work (a
//! burst's backlog drains through full batches), not the offered rate.

use crate::stats;
use crate::{crc_tensors, err, frames, model_config, Bench, Gate, Segment, Timing, MODEL_SEED};
use skynet_core::head::{Anchors, Detection};
use skynet_core::replica::DetectorBlueprint;
use skynet_serve::batcher::BatchPolicy;
use skynet_serve::engine::{Admission, Outcome, Response, ServeConfig, ServeEngine};
use skynet_tensor::crc32::Crc32;
use skynet_tensor::{rng::SkyRng, telemetry, Tensor};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

const H: usize = 160;
const W: usize = 320;
const FRAMES: usize = 32;
const STREAMS: u64 = 8;
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 8;
const WINDOW_US: u64 = 2_000;
/// Requests per chunk. The schedule is sent in chunks; between two, the
/// engine drains and the reference clock is probed. One burst cycle.
const CHUNK: usize = 300;
/// A chunk's schedule starts this long after the chunk begins, so its
/// first request is not late by construction.
const LEAD_US: u64 = 5_000;
/// How long to wait for the last answers of a chunk.
const ANSWER_DEADLINE: Duration = Duration::from_secs(30);

/// An arrival pattern: Poisson at `rate_rps`, except that the first
/// `burst_len` of every `burst_every` requests arrive `burst_multiplier`
/// times faster. A run starts with a burst, so even the traced run's
/// short segment contains one.
pub struct Serve {
    rate_rps: f64,
    burst_every: usize,
    burst_len: usize,
    burst_multiplier: f64,
}

impl Serve {
    pub fn steady() -> Self {
        Serve {
            rate_rps: 150.0,
            burst_every: 0,
            burst_len: 0,
            burst_multiplier: 1.0,
        }
    }

    pub fn burst() -> Self {
        Serve {
            rate_rps: 150.0,
            burst_every: 300,
            burst_len: 60,
            burst_multiplier: 8.0,
        }
    }

    fn bursting(&self, i: usize) -> bool {
        self.burst_every > 0 && i % self.burst_every < self.burst_len
    }

    /// The arrival schedule for `dur`: as many requests as the pattern's
    /// mean rate fits, with gaps scaled so the last one is due at `dur`.
    fn schedule(&self, seed: u64, dur: Duration) -> Vec<Arrival> {
        let calm_gap = 1.0 / self.rate_rps;
        let mean_gap = if self.burst_every > 0 {
            let burst = self.burst_len as f64 / self.burst_multiplier;
            let calm = (self.burst_every - self.burst_len) as f64;
            calm_gap * (calm + burst) / self.burst_every as f64
        } else {
            calm_gap
        };
        let n = ((dur.as_secs_f64() / mean_gap).round() as usize).max(1);
        let mut rng = SkyRng::new(seed);
        let mut t = 0.0f64;
        let mut at = Vec::with_capacity(n);
        for i in 0..n {
            let gap = if self.bursting(i) {
                calm_gap / self.burst_multiplier
            } else {
                calm_gap
            };
            let u = f64::from(rng.uniform()).min(1.0 - 1e-9);
            t += -(1.0 - u).ln() * gap;
            at.push(t);
        }
        let scale = dur.as_secs_f64() * 1e6 / t;
        at.into_iter()
            .enumerate()
            .map(|(i, t)| Arrival {
                at_us: (t * scale) as u64,
                stream: i as u64 % STREAMS,
                frame: rng.below(FRAMES),
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Due time, µs from the schedule start.
    at_us: u64,
    stream: u64,
    frame: usize,
}

pub struct Inputs {
    frames: Vec<Tensor>,
    seed: u64,
}

pub struct State {
    engine: ServeEngine,
    reply: Sender<Response>,
    inbox: Receiver<Response>,
    /// Responses received so far, over the engine's lifetime.
    answered: u64,
    /// Each frame's batch-1 detection from a detector spawned off the
    /// same blueprint, computed before the timed segment.
    reference: Vec<Detection>,
}

fn config() -> ServeConfig {
    ServeConfig {
        replicas: REPLICAS,
        batch: BatchPolicy {
            max_batch: MAX_BATCH,
            max_delay_us: WINDOW_US,
        },
        ..ServeConfig::default()
    }
}

fn blueprint() -> DetectorBlueprint {
    DetectorBlueprint::from_seed(model_config(), Anchors::dac_sdc(), MODEL_SEED)
}

impl Bench for Serve {
    type Inputs = Inputs;
    type State = State;

    fn prepare(&self, seed: u64) -> Result<(Inputs, u32), String> {
        let frames: Vec<Tensor> = frames(seed, FRAMES, H, W)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let mut crc = Crc32::new();
        crc_tensors(&mut crc, &frames);
        Ok((Inputs { frames, seed }, crc.finalize()))
    }

    /// Publishes the blueprint, starts the engine, and waits until every
    /// replica has answered one request (its first forward compiles the
    /// plan).
    fn setup(&self, inputs: &Inputs) -> Result<State, String> {
        let engine = ServeEngine::start(&blueprint(), &config()).map_err(err)?;
        let (reply, inbox) = mpsc::channel();
        // Round-robin admission gives each idle replica one request.
        for r in 0..REPLICAS {
            engine.submit(r as u64, inputs.frames[r].clone(), &reply);
        }
        for _ in 0..REPLICAS {
            let resp = inbox
                .recv_timeout(ANSWER_DEADLINE)
                .map_err(|e| format!("warm-up request unanswered: {e}"))?;
            if !matches!(resp.outcome, Outcome::Served(_)) {
                return Err(format!("warm-up request not served: {:?}", resp.outcome));
            }
        }
        Ok(State {
            engine,
            reply,
            inbox,
            answered: REPLICAS as u64,
            reference: Vec::new(),
        })
    }

    fn gates(&self, state: &mut State, inputs: &Inputs) -> Result<Vec<Gate>, String> {
        let mut det = blueprint().spawn().map_err(err)?;
        state.reference = inputs
            .frames
            .iter()
            .map(|f| det.predict(f).map(|d| d[0]))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        Ok(Vec::new())
    }

    fn measure(
        &self,
        state: &mut State,
        inputs: &Inputs,
        dur: Duration,
        mut timing: Timing,
    ) -> Result<Segment, String> {
        let schedule = self.schedule(inputs.seed, dur);
        let mut crc = Crc32::new();
        for a in &schedule {
            crc.update(&a.at_us.to_le_bytes());
            crc.update(&a.stream.to_le_bytes());
            crc.update(&(a.frame as u64).to_le_bytes());
        }
        let mut seg = Segment {
            inputs_crc: Some(crc.finalize()),
            ops: schedule.len() as u64,
            ..Segment::default()
        };
        let mut clock = timing.clock();
        let start = Instant::now();
        let mut origin_us = 0;
        for chunk in schedule.chunks(CHUNK) {
            let first = seg.latencies_ms.len();
            let busy = run_chunk(state, inputs, chunk, origin_us, &mut seg)?;
            origin_us = chunk.last().map_or(origin_us, |a| a.at_us);
            let scale = timing.end_slice(&mut clock);
            seg.end_slice(first, busy, scale);
        }
        seg.elapsed = start.elapsed();
        Ok(seg)
    }

    fn finish(&self, state: State) -> Result<Vec<Gate>, String> {
        let State {
            engine,
            reply,
            inbox,
            answered,
            ..
        } = state;
        let report = engine.shutdown();
        drop(reply);
        let answered = answered + inbox.try_iter().count() as u64;
        let c = report.counters;
        Ok(vec![Gate {
            name: "serve_one_outcome_each",
            pass: c.lost() == 0 && answered == c.submitted,
            detail: format!(
                "submitted {}, responses {answered}, served {}, degraded {}, shed {}, lost {}",
                c.submitted,
                c.served,
                c.degraded,
                c.shed,
                c.lost()
            ),
        }])
    }
}

/// Sends one chunk of the schedule, each request at its due time (its
/// arrival time after `origin_us`, counted from a fresh start), and
/// waits for every answer. Records the outcomes in `seg`; returns how
/// long the engine had at least one request outstanding.
fn run_chunk(
    state: &mut State,
    inputs: &Inputs,
    chunk: &[Arrival],
    origin_us: u64,
    seg: &mut Segment,
) -> Result<Duration, String> {
    let engine = &state.engine;
    // Ids are assigned in submission order; this thread is the only
    // submitter, so this chunk's ids start here.
    let first_id = engine.counters().submitted;
    let start_us = engine.now_us() + LEAD_US;
    let due_us = |a: &Arrival| start_us + (a.at_us - origin_us);
    for a in chunk {
        let image = {
            let _s = telemetry::span("loadgen.prepare");
            inputs.frames[a.frame].clone()
        };
        let due = due_us(a);
        {
            let _s = telemetry::span("loadgen.wait");
            loop {
                let now = engine.now_us();
                if now >= due {
                    break;
                }
                std::thread::sleep(Duration::from_micros(due - now));
            }
        }
        let _s = telemetry::span("bench.submit");
        seg.extras
            .late_ms
            .push(stats::open_loop_ms(due, engine.now_us()));
        if engine.submit(a.stream, image, &state.reply) == Admission::Rejected {
            seg.extras.rejected += 1;
        }
    }

    let _s = telemetry::span("loadgen.collect");
    let mut outcomes: Vec<Option<Response>> = vec![None; chunk.len()];
    let deadline = Instant::now() + ANSWER_DEADLINE;
    let mut pending = chunk.len();
    while pending > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok(resp) = state.inbox.recv_timeout(left) else {
            break;
        };
        state.answered += 1;
        let slot = resp
            .id
            .checked_sub(first_id)
            .and_then(|k| outcomes.get_mut(k as usize))
            .ok_or(format!("response id {} outside this chunk", resp.id))?;
        if slot.replace(resp).is_some() {
            return Err("two outcomes for one request".into());
        }
        pending -= 1;
    }

    let mut outstanding = Vec::with_capacity(chunk.len());
    for (a, resp) in chunk.iter().zip(&outcomes) {
        let due = due_us(a);
        if let Some(r) = resp {
            outstanding.push((due, r.done_us.max(due)));
        }
        // Degraded, shed and unanswered requests fail; a served one
        // must carry the frame's batch-1 detection.
        let ok = match resp {
            Some(Response {
                outcome: Outcome::Served(d),
                done_us,
                ..
            }) => {
                seg.latencies_ms.push(stats::open_loop_ms(due, *done_us));
                seg.items += 1;
                let right = *d == state.reference[a.frame];
                seg.wrong += u64::from(!right);
                right
            }
            _ => false,
        };
        seg.tally.record(ok);
    }
    Ok(Duration::from_micros(stats::busy_us(&mut outstanding)))
}

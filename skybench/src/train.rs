//! `train_step`: closed-loop training steps — `Tensor::stack` →
//! `Detector::train_batch` → `Sgd::step` — at batch 8 and 48×96. The
//! backward kernels, weight writes and BatchNorm's train mode run; the
//! fused inference plan does not.

use crate::{
    closed_loop, crc_tensors, err, frames, model_config, Bench, Gate, Segment, Timing, MODEL_SEED,
};
use skynet_core::checkpoint::weight_hash;
use skynet_core::detector::Detector;
use skynet_core::head::Anchors;
use skynet_core::skynet::SkyNet;
use skynet_core::BBox;
use skynet_nn::Sgd;
use skynet_tensor::crc32::Crc32;
use skynet_tensor::{parallel, rng::SkyRng, telemetry, Tensor};
use std::time::Duration;

const H: usize = 48;
const W: usize = 96;
const BATCH: usize = 8;
/// Distinct samples; batches cycle through them in order.
const SAMPLES: usize = 64;
/// Steps the pooled-versus-serial gate compares.
const GATE_STEPS: usize = 20;
/// Length of the learning-rate decay (the paper's exponential schedule).
const LR_STEPS: usize = 1000;

pub struct Train;

pub struct Inputs {
    images: Vec<Tensor>,
    boxes: Vec<BBox>,
}

pub struct State {
    det: Detector,
    opt: Sgd,
    step: usize,
}

fn fresh() -> State {
    let net = SkyNet::new(model_config(), &mut SkyRng::new(MODEL_SEED));
    State {
        det: Detector::new(Box::new(net), Anchors::dac_sdc()),
        opt: Sgd::paper_detector(LR_STEPS),
        step: 0,
    }
}

/// One training step on the next batch; the `bench.*` spans are inert
/// unless the traced run turned tracing on.
fn step(state: &mut State, inputs: &Inputs) -> skynet_tensor::Result<f32> {
    let a = (state.step * BATCH) % SAMPLES;
    state.step += 1;
    let images = {
        let _s = telemetry::span("bench.gather");
        Tensor::stack(&inputs.images[a..a + BATCH])?
    };
    let loss = {
        let _s = telemetry::span("bench.fwd_bwd");
        state
            .det
            .train_batch(&images, &inputs.boxes[a..a + BATCH])?
    };
    let _s = telemetry::span("bench.optim");
    state.opt.step(state.det.backbone_mut());
    Ok(loss)
}

impl Bench for Train {
    type Inputs = Inputs;
    type State = State;

    fn prepare(&self, seed: u64) -> Result<(Inputs, u32), String> {
        let (images, boxes): (Vec<Tensor>, Vec<BBox>) = frames(seed, SAMPLES, H, W)
            .into_iter()
            .map(|s| (s.image, s.bbox))
            .unzip();
        let mut crc = Crc32::new();
        crc_tensors(&mut crc, &images);
        for b in &boxes {
            for v in [b.cx, b.cy, b.w, b.h] {
                crc.update(&v.to_le_bytes());
            }
        }
        Ok((Inputs { images, boxes }, crc.finalize()))
    }

    fn setup(&self, inputs: &Inputs) -> Result<State, String> {
        let mut state = fresh();
        // The first step allocates the momentum buffers and fills the
        // scratch arenas.
        step(&mut state, inputs).map_err(err)?;
        Ok(state)
    }

    fn gates(&self, _state: &mut State, inputs: &Inputs) -> Result<Vec<Gate>, String> {
        let run = |serial: bool| -> Result<u64, String> {
            let mut s = fresh();
            let mut go = || -> skynet_tensor::Result<()> {
                for _ in 0..GATE_STEPS {
                    step(&mut s, inputs)?;
                }
                Ok(())
            };
            if serial { parallel::serial(go) } else { go() }.map_err(err)?;
            Ok(weight_hash(s.det.backbone_mut()))
        };
        let (pooled, serial) = (run(false)?, run(true)?);
        Ok(vec![Gate {
            name: "train_pooled_equals_serial",
            pass: pooled == serial,
            detail: format!(
                "weight hash after {GATE_STEPS} steps: pooled {pooled:#018x}, serial {serial:#018x}"
            ),
        }])
    }

    fn measure(
        &self,
        state: &mut State,
        inputs: &Inputs,
        dur: Duration,
        timing: Timing,
    ) -> Result<Segment, String> {
        Ok(closed_loop(
            dur,
            BATCH as u64,
            timing,
            |_| matches!(step(state, inputs), Ok(l) if l.is_finite()),
        ))
    }
}

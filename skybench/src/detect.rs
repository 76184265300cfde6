//! `detect_f32` and `detect_int8`: the DAC-SDC path. One stream, closed
//! loop, batch 1, 160×320 frames through `Detector::predict` — the f32
//! fused plan, or the INT8 engine attached to the same detector.

use crate::{
    closed_loop, crc_tensors, err, frames, model_config, Bench, Gate, Segment, Timing, BUNDLES,
    MODEL_SEED,
};
use skynet_core::detector::Detector;
use skynet_core::head::{decode_best, Anchors, Detection};
use skynet_core::quant::{CalibMethod, Calibrator, QuantizedSkyNet};
use skynet_core::skynet::{SkyNet, Variant};
use skynet_nn::Mode;
use skynet_tensor::crc32::Crc32;
use skynet_tensor::{fusion, rng::SkyRng, telemetry, Tensor};
use std::sync::Arc;
use std::time::Duration;

const H: usize = 160;
const W: usize = 320;
/// Distinct frames cycled through by the loop.
const FRAMES: usize = 32;
/// INT8 calibration: MaxAbs over this many frames, in batches of 8.
const CALIB_FRAMES: usize = 32;
const CALIB_BATCH: usize = 8;
/// Frames the fused-versus-staged gate compares.
const GATE_FRAMES: usize = 4;

pub struct Detect {
    pub int8: bool,
}

pub struct Inputs {
    frames: Vec<Tensor>,
    /// Stacked calibration batches, from the model seed (INT8 only).
    calib: Vec<Tensor>,
}

pub struct State {
    det: Detector,
    engine: Option<Arc<QuantizedSkyNet>>,
    /// Each frame's detection, computed before the timed loop.
    reference: Vec<Detection>,
}

impl Detect {
    /// The raw prediction map: what `predict` computes before decoding.
    fn forward(state: &mut State, x: &Tensor) -> skynet_tensor::Result<Tensor> {
        match &state.engine {
            Some(engine) => engine.forward(x),
            None => state.det.backbone_mut().forward(x, Mode::Eval),
        }
    }
}

impl Bench for Detect {
    type Inputs = Inputs;
    type State = State;

    fn prepare(&self, seed: u64) -> Result<(Inputs, u32), String> {
        let frames: Vec<Tensor> = frames(seed, FRAMES, H, W)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let mut crc = Crc32::new();
        crc_tensors(&mut crc, &frames);
        let calib = if self.int8 {
            let images: Vec<Tensor> = crate::frames(MODEL_SEED, CALIB_FRAMES, H, W)
                .into_iter()
                .map(|s| s.image)
                .collect();
            images
                .chunks(CALIB_BATCH)
                .map(Tensor::stack)
                .collect::<Result<_, _>>()
                .map_err(err)?
        } else {
            Vec::new()
        };
        Ok((Inputs { frames, calib }, crc.finalize()))
    }

    fn setup(&self, inputs: &Inputs) -> Result<State, String> {
        let mut net = SkyNet::new(model_config(), &mut SkyRng::new(MODEL_SEED));
        let engine = if self.int8 {
            let mut calibrator = Calibrator::new(Variant::C, CalibMethod::MaxAbs);
            for batch in &inputs.calib {
                calibrator.observe(&mut net, batch).map_err(err)?;
            }
            let plan = calibrator.finish().map_err(err)?;
            Some(Arc::new(QuantizedSkyNet::build(&net, &plan).map_err(err)?))
        } else {
            None
        };
        let mut det = Detector::new(Box::new(net), Anchors::dac_sdc());
        if let Some(engine) = &engine {
            det.attach_int8(Arc::clone(engine));
        }
        // The first forward compiles the f32 plan and fills the scratch
        // arenas: a cost every user pays once.
        det.predict(&inputs.frames[0]).map_err(err)?;
        Ok(State {
            det,
            engine,
            reference: Vec::new(),
        })
    }

    fn gates(&self, state: &mut State, inputs: &Inputs) -> Result<Vec<Gate>, String> {
        state.reference = inputs
            .frames
            .iter()
            .map(|f| state.det.predict(f).map(|d| d[0]))
            .collect::<Result<_, _>>()
            .map_err(err)?;

        // The fused path must reproduce its oracle bit for bit: the
        // unfused layer walk for f32, the staged DW→PW walk for INT8.
        let was_on = fusion::enabled();
        let mut run = |on: bool| -> Result<Vec<Tensor>, String> {
            fusion::force(on);
            inputs.frames[..GATE_FRAMES]
                .iter()
                .map(|x| Detect::forward(state, x).map_err(err))
                .collect()
        };
        let fused = run(true);
        let oracle = run(false);
        fusion::force(was_on);
        let (fused, oracle) = (fused?, oracle?);
        let same = fused.iter().zip(&oracle).all(|(a, b)| {
            a.shape() == b.shape()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
        let mut crc = Crc32::new();
        crc_tensors(&mut crc, &fused);
        let (name, oracle_name) = if self.int8 {
            ("int8_fused_equals_staged", "staged")
        } else {
            ("f32_fused_equals_unfused", "unfused")
        };
        let mut gates = vec![Gate {
            name,
            pass: same,
            detail: format!(
                "fused crc {:#010x} over {GATE_FRAMES} frames {} the {oracle_name} walk",
                crc.finalize(),
                if same { "equals" } else { "DIFFERS FROM" }
            ),
        }];
        if let Some(engine) = &state.engine {
            let fused = engine.plan().fused_bundles();
            gates.push(Gate {
                name: "int8_plan_fuses_every_bundle",
                pass: fused == BUNDLES,
                detail: format!("{fused} of {BUNDLES} bundles lowered to the fused kernel"),
            });
        }
        Ok(gates)
    }

    fn measure(
        &self,
        state: &mut State,
        inputs: &Inputs,
        dur: Duration,
        timing: Timing,
    ) -> Result<Segment, String> {
        let n = inputs.frames.len();
        let traced = timing.traced();
        Ok(closed_loop(dur, 1, timing, |i| {
            let x = &inputs.frames[i % n];
            let dets = if traced {
                // Same work as `predict`, split at the public boundary
                // between the network and the box decoder.
                let pred = {
                    let _s = telemetry::span("bench.forward");
                    Detect::forward(state, x)
                };
                let _s = telemetry::span("bench.decode");
                pred.and_then(|p| decode_best(&p, state.det.anchors()))
            } else {
                state.det.predict(x)
            };
            matches!(&dets, Ok(d) if d.len() == 1 && d[0] == state.reference[i % n])
        }))
    }
}

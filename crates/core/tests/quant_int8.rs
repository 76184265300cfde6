//! End-to-end INT8 engine determinism: the full quantized forward pass
//! (quantize → 6 bundles of integer DW/PW stages → pool/reorg/concat →
//! dequantizing head) must produce **CRC-identical** f32 prediction
//! maps on every available SIMD backend, on the worker pool and under
//! forced-serial execution — the serving determinism contract extended
//! to the integer path. Also pins the detector-level dispatch:
//! `predict` routes through an attached engine, and a blueprint
//! publishing one spawns replicas that agree bit-for-bit.

use skynet_core::head::Anchors;
use skynet_core::quant::{CalibMethod, Calibrator, QuantizedSkyNet};
use skynet_core::replica::DetectorBlueprint;
use skynet_core::skynet::{SkyNet, SkyNetConfig, Variant};
use skynet_nn::{Act, Layer};
use skynet_tensor::crc32::crc32;
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{fusion, parallel, telemetry, Shape, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

fn with_fusion<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = fusion::enabled();
    fusion::force(on);
    let out = f();
    fusion::force(prev);
    out
}

fn random_images(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
    let mut rng = SkyRng::new(seed);
    let shape = Shape::new(n, 3, h, w);
    Tensor::from_vec(
        shape,
        (0..shape.numel()).map(|_| rng.normal(0.5, 0.25)).collect(),
    )
    .unwrap()
}

/// Width ÷8: at ÷16 the random-init network's activations die out and
/// every output is exactly 0, which would make the CRC checks vacuous.
fn calibrated_engine(variant: Variant, seed: u64) -> (SkyNet, QuantizedSkyNet) {
    let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(8);
    let mut net = SkyNet::new(cfg, &mut SkyRng::new(seed));
    let mut cal = Calibrator::new(variant, CalibMethod::MaxAbs);
    for s in 0..3 {
        cal.observe(&mut net, &random_images(2, 16, 32, 500 + s))
            .unwrap();
    }
    let plan = cal.finish().unwrap();
    let engine = QuantizedSkyNet::build(&net, &plan).unwrap();
    (net, engine)
}

fn output_crc(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

#[test]
fn int8_forward_is_crc_identical_across_backends_and_thread_modes() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for variant in [Variant::A, Variant::C] {
        let (_, engine) = calibrated_engine(variant, 11);
        let x = random_images(2, 16, 32, 21);
        let run = || output_crc(&engine.forward(&x).unwrap());
        let oracle = with_backend(Backend::Scalar, run);
        for be in simd::available_backends() {
            let pooled = with_backend(be, run);
            let serial = with_backend(be, || parallel::serial(run));
            assert_eq!(
                oracle,
                pooled,
                "{variant}: {} pooled diverged from scalar oracle",
                be.name()
            );
            assert_eq!(
                oracle,
                serial,
                "{variant}: {} serial diverged from scalar oracle",
                be.name()
            );
        }
    }
}

/// The tentpole equivalence: the fused INT8 engine (DW tile → requant →
/// PW → requant, all inside one scratch-resident band) is CRC-identical
/// to the unfused stage-pair walk — per variant, per backend, pooled
/// and forced-serial. Wrapping-i32 accumulation is grouping-independent
/// and the requant epilogue is per-element, so this holds structurally;
/// the test is the witness.
#[test]
fn fused_engine_is_crc_identical_to_unfused_across_backends() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for variant in [Variant::A, Variant::C] {
        let (_, engine) = calibrated_engine(variant, 17);
        let x = random_images(2, 16, 32, 27);
        let run = || output_crc(&engine.forward(&x).unwrap());
        let oracle = with_backend(Backend::Scalar, || with_fusion(false, run));
        for be in simd::available_backends() {
            for fused in [false, true] {
                let pooled = with_backend(be, || with_fusion(fused, run));
                let serial = with_backend(be, || with_fusion(fused, || parallel::serial(run)));
                assert_eq!(
                    oracle,
                    pooled,
                    "{variant}: {} fused={fused} pooled diverged",
                    be.name()
                );
                assert_eq!(
                    oracle,
                    serial,
                    "{variant}: {} fused={fused} serial diverged",
                    be.name()
                );
            }
        }
    }
}

/// Guards the fused-engine suite against vacuity: with the toggle on,
/// every bundle must actually execute through the fused kernel (no
/// fallback); with it off, every fused-lowered bundle must count a
/// fallback. The per-bundle `quant.bundle<N>.{dw,pw}.saturated`
/// counters must read identically either way — saturation totals are
/// commutative `u64` sums, so the fused band schedule cannot change
/// them.
#[test]
fn fused_engine_counters_prove_the_fused_path_ran() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, engine) = calibrated_engine(Variant::C, 19);
    assert_eq!(engine.plan().fused_bundles(), 6);
    let x = random_images(1, 16, 32, 29);
    let sat_counters = |snap: &telemetry::Snapshot| -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for b in 1..=6 {
            for stage in ["dw", "pw"] {
                let name = format!("quant.bundle{b}.{stage}.saturated");
                out.push((name.clone(), snap.counter(&name).unwrap_or(0)));
            }
        }
        out
    };

    telemetry::Builder::new().metrics(true).trace(false).apply();
    telemetry::reset_metrics();
    let _ = with_fusion(true, || engine.forward(&x).unwrap());
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("quant.fused.bundles_executed"), Some(6));
    assert_eq!(snap.counter("quant.fused.fallback").unwrap_or(0), 0);
    let fused_sats = sat_counters(&snap);

    telemetry::reset_metrics();
    let _ = with_fusion(false, || engine.forward(&x).unwrap());
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("quant.fused.bundles_executed").unwrap_or(0), 0);
    assert_eq!(snap.counter("quant.fused.fallback"), Some(6));
    assert_eq!(
        fused_sats,
        sat_counters(&snap),
        "per-bundle saturation totals depend on the schedule"
    );
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

#[test]
fn detector_predict_dispatches_to_attached_engine() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut net, engine) = calibrated_engine(Variant::C, 13);
    let x = random_images(1, 16, 32, 23);

    // An undispatched detector without an engine rejects predict_int8.
    let cfg = net.config().clone();
    let mut blobs = Vec::new();
    net.visit_params(&mut |p| blobs.push(p.value.as_slice().to_vec()));
    let bp = DetectorBlueprint::from_weights(cfg, Anchors::dac_sdc(), blobs);
    let mut float_det = bp.spawn().unwrap();
    assert!(float_det.int8_engine().is_none());
    assert!(float_det.predict_int8(&x).is_err());

    // The int8-published blueprint spawns replicas that dispatch
    // predict through the engine and agree bit-for-bit.
    let bp_q = bp.with_int8(std::sync::Arc::new(engine));
    let mut a = bp_q.spawn().unwrap();
    let mut b = bp_q.spawn().unwrap();
    assert!(a.int8_engine().is_some());
    let da = a.predict(&x).unwrap();
    let db = b.predict_int8(&x).unwrap();
    assert_eq!(da.len(), db.len());
    for (p, q) in da.iter().zip(&db) {
        assert_eq!(p.confidence.to_bits(), q.confidence.to_bits());
        assert_eq!(p.bbox.cx.to_bits(), q.bbox.cx.to_bits());
        assert_eq!(p.bbox.cy.to_bits(), q.bbox.cy.to_bits());
        assert_eq!(p.bbox.w.to_bits(), q.bbox.w.to_bits());
        assert_eq!(p.bbox.h.to_bits(), q.bbox.h.to_bits());
    }
}

/// Golden output CRCs of the INT8 engine, one per variant on a fixed
/// model and input. The other suites compare backends with each other
/// and fused with staged; only a pinned value catches a rounding change
/// applied to every backend alike.
#[test]
fn int8_forward_matches_golden_crc() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (variant, golden) in [
        (Variant::A, 0x4f87_8ac0),
        (Variant::B, 0xdf82_0841),
        (Variant::C, 0x2eb2_4871),
    ] {
        let (_, engine) = calibrated_engine(variant, 31);
        let x = random_images(2, 16, 32, 41);
        let y = engine.forward(&x).unwrap();
        let distinct: std::collections::BTreeSet<u32> =
            y.as_slice().iter().map(|v| v.to_bits()).collect();
        assert!(
            distinct.len() > y.as_slice().len() / 2,
            "{variant}: degenerate output map"
        );
        let crc = output_crc(&y);
        assert_eq!(crc, golden, "{variant}: INT8 output CRC {crc:#010x} moved");
    }
}

/// A malformed input (one channel, not three) is a caller error: the
/// forward returns it once, without retrying the staged pair and
/// without reporting a fusion fallback.
#[test]
fn malformed_input_errors_without_fused_fallback() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, engine) = calibrated_engine(Variant::C, 19);
    let mut rng = SkyRng::new(33);
    let shape = Shape::new(1, 1, 16, 32);
    let x = Tensor::from_vec(
        shape,
        (0..shape.numel()).map(|_| rng.normal(0.5, 0.25)).collect(),
    )
    .unwrap();
    telemetry::Builder::new().metrics(true).trace(false).apply();
    telemetry::reset_metrics();
    let result = with_fusion(true, || engine.forward(&x));
    let fallbacks = telemetry::snapshot()
        .counter("quant.fused.fallback")
        .unwrap_or(0);
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
    assert!(result.is_err(), "a 1-channel image must be rejected");
    assert_eq!(fallbacks, 0, "a caller error is not a fusion fallback");
}

//! Net-level fusion equivalence: a SkyNet eval forward through the
//! fused execution plan (`SKYNET_FUSION=on`) must be **bit-identical**
//! to the unfused layer-by-layer path — per variant, per `SKYNET_SIMD`
//! backend, pooled and forced-serial (CI re-runs the suite under
//! `SKYNET_THREADS=1` and the default pool) — and the plan must track
//! every weight/statistic mutation (training steps, optimizer visits)
//! without going stale. Training itself never runs fused, so the
//! trained-weight hash is identical with the toggle on or off.
//!
//! `fusion::force` and `simd::force` are process-global, so tests
//! serialize on a mutex (same discipline as `simd_equivalence`).

use skynet_core::checkpoint::weight_hash;
use skynet_core::detector::Detector;
use skynet_core::head::Anchors;
use skynet_core::skynet::{SkyNet, SkyNetConfig, Variant};
use skynet_core::trainer::{TrainConfig, Trainer};
use skynet_core::{BBox, Sample};
use skynet_nn::{Act, Layer, LrSchedule, Mode, Sgd};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{crc32, fusion, parallel, telemetry, Shape, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

/// Runs `f` with the fusion toggle pinned to `on`, restoring after.
fn with_fusion<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = fusion::enabled();
    fusion::force(on);
    let out = f();
    fusion::force(prev);
    out
}

fn net(variant: Variant, seed: u64) -> SkyNet {
    let mut rng = SkyRng::new(seed);
    SkyNet::new(
        SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16),
        &mut rng,
    )
}

fn random_input(seed: u64, n: usize) -> Tensor {
    let mut rng = SkyRng::new(seed);
    let shape = Shape::new(n, 3, 16, 32);
    Tensor::from_vec(
        shape,
        (0..shape.numel()).map(|_| rng.range(-1.0, 1.0)).collect(),
    )
    .unwrap()
}

/// CRC-32 over the exact bit patterns of a forward output — the
/// workspace's standard witness for "these two forwards are identical".
fn crc(t: &Tensor) -> u32 {
    let mut h = crc32::Crc32::new();
    for v in t.as_slice() {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finalize()
}

/// Fused vs unfused eval forward, bitwise, for one net and input, on
/// every available backend, pooled and serial. Returns the common CRC.
fn assert_fused_matches_unfused(variant: Variant, seed: u64, n: usize) -> u32 {
    let x = random_input(seed ^ 0x5eed, n);
    let unfused = with_fusion(false, || {
        net(variant, seed).forward(&x, Mode::Eval).unwrap()
    });
    let anchor = crc(&unfused);
    for be in simd::available_backends() {
        let label = be.name();
        let unf = with_backend(be, || {
            with_fusion(false, || {
                net(variant, seed).forward(&x, Mode::Eval).unwrap()
            })
        });
        assert_eq!(
            anchor,
            crc(&unf),
            "{variant:?}/{label}: unfused cross-backend"
        );
        let fus = with_backend(be, || {
            with_fusion(true, || net(variant, seed).forward(&x, Mode::Eval).unwrap())
        });
        assert_eq!(anchor, crc(&fus), "{variant:?}/{label}: fused (pooled)");
        let fus_serial = with_backend(be, || {
            with_fusion(true, || {
                parallel::serial(|| net(variant, seed).forward(&x, Mode::Eval).unwrap())
            })
        });
        assert_eq!(
            anchor,
            crc(&fus_serial),
            "{variant:?}/{label}: fused (serial)"
        );
    }
    anchor
}

#[test]
fn fused_forward_matches_unfused_all_variants() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Golden output CRCs: fused and unfused agreeing with each other is
    // not enough — a node reorder applied to both paths would still
    // agree, but not with these.
    for (variant, golden) in [
        (Variant::A, 0x976f_9c9d_u32),
        (Variant::B, 0x2bf2_7833),
        (Variant::C, 0x59b8_2ca3),
    ] {
        let got = assert_fused_matches_unfused(variant, 11, 1);
        assert_eq!(got, golden, "{variant:?}: eval output CRC {got:#010x}");
    }
    // Batched input exercises the (item × band) task decomposition.
    assert_fused_matches_unfused(Variant::C, 12, 3);
}

/// Guards the suite against vacuity: with the toggle on, the eval
/// forward must actually run through the plan (all bundles fused, no
/// fallback), witnessed by the `fusion.*` counters.
#[test]
fn fused_forward_actually_executes_the_plan() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::Builder::new().metrics(true).trace(false).apply();
    telemetry::reset_metrics();
    let x = random_input(41, 1);
    let _ = with_fusion(true, || {
        net(Variant::C, 42).forward(&x, Mode::Eval).unwrap()
    });
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("fusion.plan_builds"), Some(1));
    // Variant C fuses all six bundles (five backbone + the post-concat).
    assert_eq!(snap.counter("fusion.bundles_executed"), Some(6));
    assert_eq!(snap.counter("fusion.fallback"), None);
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

/// A training step mutates BN running statistics without going through
/// the optimizer; the next fused eval must see the new statistics, not a
/// stale plan built before the step.
#[test]
fn plan_tracks_bn_stats_across_training_steps() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = net(Variant::C, 21);
    let x = random_input(22, 2);
    // Build a plan first so staleness would be observable.
    let _ = with_fusion(true, || m.forward(&x, Mode::Eval).unwrap());
    let _ = m.forward(&x, Mode::Train).unwrap();
    let fused = with_fusion(true, || m.forward(&x, Mode::Eval).unwrap());
    let unfused = with_fusion(false, || m.forward(&x, Mode::Eval).unwrap());
    assert_eq!(
        crc(&fused),
        crc(&unfused),
        "plan went stale after a train step"
    );
}

/// `visit_params` hands out mutable parameter references (optimizer
/// steps, checkpoint restores); any visit must invalidate the plan.
#[test]
fn plan_tracks_param_mutation_via_visit() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = net(Variant::A, 31);
    let x = random_input(32, 1);
    let _ = with_fusion(true, || m.forward(&x, Mode::Eval).unwrap());
    m.visit_params(&mut |p| {
        for v in p.value.as_mut_slice() {
            *v += 0.0625;
        }
    });
    let fused = with_fusion(true, || m.forward(&x, Mode::Eval).unwrap());
    let unfused = with_fusion(false, || m.forward(&x, Mode::Eval).unwrap());
    assert_eq!(
        crc(&fused),
        crc(&unfused),
        "plan went stale after visit_params"
    );
}

/// With the plan active, each bundle's work is traced under a single
/// `fused.bundleN` span that **replaces** the unfused `skynet.bundleN`
/// span — the two names never coexist in one forward, so per-op
/// aggregation cannot double-count bundle time.
#[test]
fn fused_spans_replace_bundle_spans() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::Builder::new().metrics(false).trace(true).apply();
    telemetry::drain_spans();
    let x = random_input(51, 1);
    let _ = with_fusion(true, || {
        net(Variant::C, 52).forward(&x, Mode::Eval).unwrap()
    });
    let spans = telemetry::drain_spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    for b in 1..=6 {
        assert_eq!(count(&format!("fused.bundle{b}")), 1, "fused.bundle{b}");
        assert_eq!(count(&format!("skynet.bundle{b}")), 0, "skynet.bundle{b}");
    }
    assert_eq!(count("skynet.forward"), 1);
    // The whole-forward span still encloses every fused bundle, so the
    // aggregate view keeps its single root.
    let root = spans.iter().find(|s| s.name == "skynet.forward").unwrap();
    for s in spans.iter().filter(|s| s.name.starts_with("fused.bundle")) {
        assert!(root.start_ns <= s.start_ns && s.end_ns() <= root.end_ns());
    }
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = SkyRng::new(seed);
    (0..n)
        .map(|_| {
            let (h, w) = (16usize, 32usize);
            let cx = rng.range(0.2, 0.8);
            let cy = rng.range(0.3, 0.7);
            let mut img = Tensor::zeros(Shape::new(1, 3, h, w));
            for y in 0..h {
                for x in 0..w {
                    let fx = (x as f32 + 0.5) / w as f32;
                    let fy = (y as f32 + 0.5) / h as f32;
                    if (fx - cx).abs() < 0.1 && (fy - cy).abs() < 0.175 {
                        for c in 0..3 {
                            *img.at_mut(0, c, y, x) = 1.0;
                        }
                    }
                }
            }
            Sample::new(img, BBox::new(cx, cy, 0.2, 0.35), 0)
        })
        .collect()
}

fn train_hash(variant: Variant, fuse: bool) -> u64 {
    with_fusion(fuse, || {
        let mut rng = SkyRng::new(77);
        let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16);
        let mut det = Detector::new(Box::new(SkyNet::new(cfg, &mut rng)), Anchors::dac_sdc());
        let mut opt = Sgd::new(LrSchedule::Constant(2e-3), 0.9, 1e-4);
        let samples = toy_samples(8, 3);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 4,
            scales: Vec::new(),
            seed: 5,
        });
        trainer.train(&mut det, &samples, &mut opt).expect("train");
        // An eval forward mid-stream must not perturb subsequent weights.
        let _ = det
            .backbone_mut()
            .forward(&random_input(9, 1), Mode::Eval)
            .unwrap();
        weight_hash(det.backbone_mut())
    })
}

/// Training never executes fused (plans are Eval-only), so the trained
/// weights are bit-identical whichever way the toggle points. The golden
/// hashes pin the Train forward and the backward (through the bypass
/// for B/C) of every variant.
#[test]
fn trained_weight_hash_identical_fusion_on_off() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (variant, golden) in [
        (Variant::A, 0xa4c4_2cd8_ecbc_e576_u64),
        (Variant::B, 0x85d7_6b43_1867_c69c),
        (Variant::C, 0x2875_103b_2cfd_a9b3),
    ] {
        let off = train_hash(variant, false);
        assert_eq!(off, train_hash(variant, true), "{variant:?}");
        assert_eq!(off, golden, "{variant:?}: trained weight hash {off:#018x}");
    }
}

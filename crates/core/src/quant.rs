//! Post-training INT8 quantization: calibration, plan, and the
//! executable integer engine.
//!
//! The repo reproduces Table 7 twice, at two levels of fidelity:
//!
//! * **analytic (fake-quant)** — `Mode::QuantEval` rounds f32 feature
//!   maps to a fixed-point grid after every layer; arithmetic stays
//!   float. `skynet-hw`'s `quant` module reasons about the same
//!   schemes symbolically. This answers *"what would W11/FM9 cost in
//!   accuracy?"* without integer kernels.
//! * **executable (this module)** — weights are stored as `i8`,
//!   activations flow as `i8`, and every convolution runs
//!   `i8×i8→i32` integer arithmetic via
//!   [`skynet_tensor::qint`]. This is the deployment path, and the
//!   `quant_sweep` bench compares it against the analytic numbers.
//!
//! The pipeline is classic post-training quantization:
//!
//! 1. [`Calibrator::observe`] runs float forward passes through a
//!    **trained** [`SkyNet`] (it must be the live training instance —
//!    BN running statistics are folded into the integer stages and are
//!    not part of weight checkpoints), recording the activation
//!    magnitude distribution at every requantization point;
//! 2. [`Calibrator::finish`] turns the histograms into a [`QuantPlan`]:
//!    one symmetric scale per requant point ([`CalibMethod::MaxAbs`] or
//!    a saturating [`CalibMethod::Percentile`]);
//! 3. [`QuantizedSkyNet::build`] folds BN into the convolutions,
//!    quantizes weights per-channel, and holds one integer DW→PW stage
//!    pair per bundle ([`QExecPlan`]); its forward walks the same
//!    [`topology`] as the float network;
//! 4. [`crate::detector::Detector::attach_int8`] routes `predict`
//!    through the engine, so serving canaries and evaluation harnesses
//!    run the integer path unchanged.
//!
//! See `QUANTIZATION.md` at the repo root for the end-to-end workflow.

use crate::bundle::skynet_bundle_parts;
use crate::skynet::{topology, Node, SkyNet, Variant, POOL_WINDOW, REORG_BLOCK};
use skynet_nn::qint::{qfused_forward, QDwConv3, QFeature, QPointwise};
use skynet_nn::{Layer, Mode, Sequential};
use skynet_tensor::ops::concat_channels;
use skynet_tensor::{fusion, telemetry, Tensor};

/// How a requant point's activation histogram becomes a scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibMethod {
    /// `scale = maxabs / 127`: nothing saturates on the calibration
    /// set, but one outlier can waste most of the 8-bit grid.
    MaxAbs,
    /// `scale = P(q) / 127` where `P(q)` is the `q`-th quantile of the
    /// absolute values (e.g. `0.999`): outliers saturate, the bulk of
    /// the distribution gets finer resolution.
    Percentile(f32),
}

/// Bins of the magnitude histogram: the top 12 bits of the absolute
/// f32 pattern (8 exponent + 4 mantissa bits), i.e. a log-spaced grid
/// with 16 sub-bins per octave — plenty for picking an 8-bit scale.
const HIST_BINS: usize = 1 << 12;

/// Log-domain histogram of absolute activation values.
#[derive(Debug, Clone)]
struct ActHist {
    bins: Vec<u64>,
    maxabs: f32,
    total: u64,
}

impl ActHist {
    fn new() -> Self {
        ActHist {
            bins: vec![0; HIST_BINS],
            maxabs: 0.0,
            total: 0,
        }
    }

    fn observe(&mut self, values: &[f32]) {
        for &v in values {
            let a = v.abs();
            if !a.is_finite() {
                continue;
            }
            self.maxabs = self.maxabs.max(a);
            self.bins[(a.to_bits() >> 20) as usize] += 1;
            self.total += 1;
        }
    }

    /// Upper edge of the bin holding the `q`-th quantile of |x|.
    fn quantile(&self, q: f32) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let keep = (f64::from(q.clamp(0.0, 1.0)) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= keep {
                // Bin i holds the patterns [i·2²⁰, (i+1)·2²⁰): upper edge.
                return f32::from_bits(((i as u32) + 1) << 20).min(self.maxabs);
            }
        }
        self.maxabs
    }

    fn scale(&self, method: CalibMethod) -> f32 {
        let reach = match method {
            CalibMethod::MaxAbs => self.maxabs,
            CalibMethod::Percentile(q) => self.quantile(q),
        };
        if reach > 0.0 {
            reach / 127.0
        } else {
            // An all-zero activation site: any positive scale quantizes
            // it exactly.
            1.0
        }
    }
}

/// A calibrated quantization plan: one symmetric scale per
/// requantization point of a [`SkyNet`] graph.
///
/// Scales are indexed structurally: `stage_scales[b]` holds the
/// `[dw_out, pw_out]` scales of bundle `b` (Bundles 1–5, then Bundle 6
/// for variants B/C). Pooling, reorg and concat are scale-preserving
/// and need no entry; the head dequantizes straight from `i32`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantPlan {
    /// The variant of the network the scales were calibrated on.
    pub variant: Variant,
    /// How scales were derived from the histograms.
    pub method: CalibMethod,
    /// Number of images observed during calibration.
    pub samples: u32,
    /// Scale of the quantized network input.
    pub input_scale: f32,
    /// `[dw_out, pw_out]` scales per bundle, in execution order.
    pub stage_scales: Vec<[f32; 2]>,
}

impl QuantPlan {
    fn validate(&self, variant: Variant) -> Result<(), QuantError> {
        if self.variant != variant {
            return Err(QuantError::BadPlan(format!(
                "plan was calibrated on variant {}, network is variant {variant}",
                self.variant
            )));
        }
        let want = bundle_count(variant);
        if self.stage_scales.len() != want {
            return Err(QuantError::BadPlan(format!(
                "plan has {} bundle scale pairs, variant {variant} needs {want}",
                self.stage_scales.len()
            )));
        }
        let ok = |s: f32| s.is_finite() && s > 0.0;
        if !ok(self.input_scale) || self.stage_scales.iter().flatten().any(|&s| !ok(s)) {
            return Err(QuantError::BadPlan(
                "every scale must be finite and positive".into(),
            ));
        }
        Ok(())
    }
}

/// Errors from calibration and engine construction.
#[derive(Debug)]
pub enum QuantError {
    /// The network's layer graph is not the expected Bundle chain
    /// (DW → BN → Act → PW → BN → Act), so BN folding cannot proceed.
    StructureMismatch(String),
    /// The plan does not fit the network (wrong stage count, bad scale).
    BadPlan(String),
    /// A tensor-level failure during a calibration forward pass.
    Tensor(skynet_tensor::TensorError),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::StructureMismatch(d) => write!(f, "unquantizable structure: {d}"),
            QuantError::BadPlan(d) => write!(f, "bad quant plan: {d}"),
            QuantError::Tensor(e) => write!(f, "tensor error during calibration: {e}"),
        }
    }
}

impl std::error::Error for QuantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QuantError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<skynet_tensor::TensorError> for QuantError {
    fn from(e: skynet_tensor::TensorError) -> Self {
        QuantError::Tensor(e)
    }
}

/// Number of quantized bundles in a variant's topology (Bundles 1–5
/// plus Bundle 6 for B/C).
fn bundle_count(variant: Variant) -> usize {
    topology(variant)
        .filter(|n| matches!(n, Node::Bundle(_)))
        .count()
}

/// Runs one bundle layer-by-layer in eval mode, recording the
/// activations at its two requantization points (after DW+BN+Act,
/// after PW+BN+Act).
fn run_bundle_recording(
    seq: &mut Sequential,
    x: &Tensor,
    hists: &mut [ActHist; 2],
    bundle_idx: usize,
) -> Result<Tensor, QuantError> {
    if seq.len() != 6 {
        return Err(QuantError::StructureMismatch(format!(
            "bundle {} has {} layers, expected the 6-layer SkyNet chain",
            bundle_idx + 1,
            seq.len()
        )));
    }
    let mut cur = x.clone();
    for (i, layer) in seq.layers_mut().iter_mut().enumerate() {
        cur = layer.forward(&cur, Mode::Eval)?;
        if i == 2 {
            hists[0].observe(cur.as_slice());
        } else if i == 5 {
            hists[1].observe(cur.as_slice());
        }
    }
    Ok(cur)
}

/// Streams calibration batches through a trained float [`SkyNet`] and
/// accumulates activation histograms at every requantization point.
#[derive(Debug)]
pub struct Calibrator {
    variant: Variant,
    method: CalibMethod,
    input: ActHist,
    stages: Vec<[ActHist; 2]>,
    samples: u32,
}

impl Calibrator {
    /// Creates a calibrator for a graph of the given variant.
    pub fn new(variant: Variant, method: CalibMethod) -> Self {
        Calibrator {
            variant,
            method,
            input: ActHist::new(),
            stages: (0..bundle_count(variant))
                .map(|_| [ActHist::new(), ActHist::new()])
                .collect(),
            samples: 0,
        }
    }

    /// Runs one float forward pass in eval mode, recording activations.
    /// The network must be the live trained instance (BN running stats
    /// are read through the normal eval path).
    ///
    /// # Errors
    ///
    /// [`QuantError::StructureMismatch`] when the graph doesn't match
    /// the calibrator's variant or a bundle is not the 6-layer chain;
    /// [`QuantError::Tensor`] on forward errors.
    pub fn observe(&mut self, net: &mut SkyNet, images: &Tensor) -> Result<(), QuantError> {
        if net.cfg.variant != self.variant {
            return Err(QuantError::StructureMismatch(format!(
                "calibrator built for variant {}, network is variant {}",
                self.variant, net.cfg.variant
            )));
        }
        self.input.observe(images.as_slice());
        let mut cur = images.clone();
        let mut bypass = None;
        for node in topology(self.variant) {
            cur = match node {
                Node::Bundle(b) => {
                    run_bundle_recording(&mut net.bundles[b], &cur, &mut self.stages[b], b)?
                }
                Node::Pool(i) => net.pools[i].forward(&cur, Mode::Eval)?,
                // Reorg is a permutation: the bypass branch reuses
                // bundle 3's scale, no extra requant point.
                Node::ReorgFork => {
                    bypass = Some(net.reorg.forward(&cur, Mode::Eval)?);
                    cur
                }
                Node::Concat => {
                    let by = bypass.take().expect("ReorgFork precedes Concat");
                    concat_channels(&cur, &by)?
                }
                // The head exits to f32; no requant point to record.
                Node::Head => break,
            };
        }
        self.samples += images.shape().n as u32;
        Ok(())
    }

    /// Folds the histograms into a [`QuantPlan`] and tallies the
    /// `quant.calib.samples` counter.
    ///
    /// # Errors
    ///
    /// [`QuantError::BadPlan`] when no samples were observed.
    pub fn finish(self) -> Result<QuantPlan, QuantError> {
        if self.samples == 0 {
            return Err(QuantError::BadPlan(
                "no calibration samples observed".into(),
            ));
        }
        if telemetry::metrics_enabled() {
            telemetry::counter("quant.calib.samples").add(u64::from(self.samples));
        }
        Ok(QuantPlan {
            variant: self.variant,
            method: self.method,
            samples: self.samples,
            input_scale: self.input.scale(self.method),
            stage_scales: self
                .stages
                .iter()
                .map(|[dw, pw]| [dw.scale(self.method), pw.scale(self.method)])
                .collect(),
        })
    }
}

/// Folds one bundle's layer chain into a quantized DW + PW stage pair.
fn quantize_bundle(
    seq: &Sequential,
    scales: [f32; 2],
    bundle_idx: usize,
) -> Result<(QDwConv3, QPointwise), QuantError> {
    let (dw, bn1, act1, pw, bn2, act2) =
        skynet_bundle_parts(seq, bundle_idx).map_err(QuantError::StructureMismatch)?;
    let (s1, sh1) = bn1.folded_scale_shift();
    let (s2, sh2) = bn2.folded_scale_shift();
    let qdw = QDwConv3::fold(dw.weight(), &s1, &sh1, Some(act1.kind()), scales[0]);
    let qpw = QPointwise::fold(
        pw.weight(),
        pw.bias_values(),
        Some((&s2, &sh2)),
        Some(act2.kind()),
        Some(scales[1]),
    );
    Ok((qdw, qpw))
}

/// The integer stages of a [`QuantizedSkyNet`]: one folded DW→PW stage
/// pair per [`Node::Bundle`] (Bundles 1–5, then Bundle 6 for B/C) and
/// the dequantizing head. The engine's forward walks the topology over
/// them.
#[derive(Debug, Clone)]
pub struct QExecPlan {
    bundles: Vec<(QDwConv3, QPointwise)>,
    head: QPointwise,
}

impl QExecPlan {
    /// Number of bundles that run the fused INT8 row-tile kernel: those
    /// whose PW stage requantizes back to `i8`. A head-style stage with
    /// no output scale exits to f32 and can never feed the fused
    /// epilogue.
    pub fn fused_bundles(&self) -> usize {
        self.bundles
            .iter()
            .filter(|(_, pw)| pw.out_scale().is_some())
            .count()
    }
}

/// The executable INT8 form of a trained [`SkyNet`]: BN folded,
/// weights stored as `i8` with per-channel scales, every convolution
/// running `i8×i8→i32` integer kernels. Immutable and `Send + Sync`,
/// so one engine can be shared by every serving replica behind an
/// `Arc`.
#[derive(Debug, Clone)]
pub struct QuantizedSkyNet {
    variant: Variant,
    input_scale: f32,
    plan: QExecPlan,
}

impl QuantizedSkyNet {
    /// Folds a trained float network into the integer engine under a
    /// calibrated plan.
    ///
    /// The network must be the live trained instance — BN running
    /// statistics are folded into the integer stages here, and they are
    /// **not** restored by weight checkpoints or blueprint spawns.
    ///
    /// # Errors
    ///
    /// [`QuantError::BadPlan`] when the plan was calibrated on another
    /// variant, doesn't fit the network or contains a non-positive
    /// scale; [`QuantError::StructureMismatch`] when a bundle is not the
    /// DW→BN→Act→PW→BN→Act chain.
    pub fn build(net: &SkyNet, plan: &QuantPlan) -> Result<Self, QuantError> {
        plan.validate(net.cfg.variant)?;
        let bundles = net
            .bundles
            .iter()
            .zip(&plan.stage_scales)
            .enumerate()
            .map(|(i, (seq, &scales))| quantize_bundle(seq, scales, i))
            .collect::<Result<_, _>>()?;
        let head = QPointwise::fold(net.head.weight(), net.head.bias_values(), None, None, None);
        Ok(QuantizedSkyNet {
            variant: net.cfg.variant,
            input_scale: plan.input_scale,
            plan: QExecPlan { bundles, head },
        })
    }

    /// The folded integer stages (for tests and diagnostics).
    pub fn plan(&self) -> &QExecPlan {
        &self.plan
    }

    /// The variant this engine was folded from.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The input quantization scale.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Runs one bundle through the fused INT8 kernel, or — when the
    /// runtime [`fusion`] toggle is off — through the staged pair,
    /// counting the detour under `quant.fused.fallback`. An error from
    /// the fused kernel is a shape or channel mismatch the staged pair
    /// would reject too, so it is returned as is. Either way the output
    /// bits are identical (wrapping-i32 accumulation is
    /// grouping-independent; see [`skynet_tensor::qint`]).
    fn run_bundle(&self, idx: usize, q: &QFeature) -> skynet_tensor::Result<QFeature> {
        let (dw, pw) = &self.plan.bundles[idx];
        if fusion::enabled() {
            let (out, sats) = qfused_forward(dw, pw, q)?;
            record_bundle_saturation(idx, sats.dw, sats.pw);
            return Ok(out);
        }
        record_fused_fallback();
        let (mid, dw_sat) = dw.forward_counted(q)?;
        let (out, pw_sat) = pw.forward_counted(&mid)?;
        record_bundle_saturation(idx, dw_sat, pw_sat);
        Ok(out)
    }

    /// Runs the integer forward pass: quantize the input, then walk the
    /// variant's [`topology`] through the `i8` stages to the
    /// dequantizing head. Output is the same `N×10×(H/8)×(W/8)` f32
    /// prediction map the float network produces, ready for
    /// [`crate::head::decode_best`], and **bit-identical** whether
    /// bundles run fused or unfused.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the stage graph.
    pub fn forward(&self, images: &Tensor) -> skynet_tensor::Result<Tensor> {
        let _whole = telemetry::span("skynet.int8.forward");
        let (mut cur, sat) = QFeature::quantize(images, self.input_scale);
        if sat > 0 && telemetry::metrics_enabled() {
            telemetry::counter("quant.input.saturated").add(sat);
        }
        let mut bypass = None;
        for node in topology(self.variant) {
            cur = match node {
                Node::Bundle(b) => self.run_bundle(b, &cur)?,
                Node::Pool(_) => cur.maxpool(POOL_WINDOW)?,
                Node::ReorgFork => {
                    bypass = Some(cur.reorg(REORG_BLOCK)?);
                    cur
                }
                Node::Concat => {
                    let _span = telemetry::span("skynet.int8.concat");
                    let by = bypass.take().expect("ReorgFork precedes Concat");
                    cur.concat_channels(&by)?
                }
                Node::Head => {
                    let _span = telemetry::span("skynet.int8.head");
                    return self.plan.head.forward_dequant(&cur);
                }
            };
        }
        unreachable!("every topology ends with the head")
    }
}

/// Counts one bundle that took the staged pair because fusion is off.
fn record_fused_fallback() {
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.fused.fallback").inc();
    }
}

/// Publishes a bundle's requant saturation totals under
/// `quant.bundle<N>.{dw,pw}.saturated` (1-based bundle numbering, the
/// paper's). The totals are schedule-independent — per-band counts are
/// summed with commutative `u64` adds — so the counters read the same
/// on every backend, thread count, and fusion mode.
fn record_bundle_saturation(idx: usize, dw: u64, pw: u64) {
    if !telemetry::metrics_enabled() {
        return;
    }
    if dw > 0 {
        telemetry::counter(&format!("quant.bundle{}.dw.saturated", idx + 1)).add(dw);
    }
    if pw > 0 {
        telemetry::counter(&format!("quant.bundle{}.pw.saturated", idx + 1)).add(pw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skynet::SkyNetConfig;
    use skynet_nn::Act;
    use skynet_tensor::{rng::SkyRng, Shape};

    fn random_images(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = SkyRng::new(seed);
        let shape = Shape::new(n, 3, h, w);
        Tensor::from_vec(
            shape,
            (0..shape.numel()).map(|_| rng.normal(0.5, 0.25)).collect(),
        )
        .unwrap()
    }

    fn calibrated(variant: Variant, seed: u64) -> (SkyNet, QuantPlan) {
        let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16);
        let mut net = SkyNet::new(cfg, &mut SkyRng::new(seed));
        let mut cal = Calibrator::new(variant, CalibMethod::MaxAbs);
        for s in 0..3 {
            cal.observe(&mut net, &random_images(2, 16, 32, 100 + s))
                .unwrap();
        }
        (net, cal.finish().unwrap())
    }

    #[test]
    fn plan_has_one_scale_pair_per_bundle() {
        let (_, plan_a) = calibrated(Variant::A, 1);
        assert_eq!(plan_a.stage_scales.len(), 5);
        let (_, plan_c) = calibrated(Variant::C, 1);
        assert_eq!(plan_c.stage_scales.len(), 6);
        assert_eq!(plan_c.samples, 6);
        assert!(plan_c.input_scale > 0.0);
        assert!(plan_c.stage_scales.iter().flatten().all(|&s| s > 0.0));
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let cal = Calibrator::new(Variant::C, CalibMethod::MaxAbs);
        assert!(matches!(cal.finish(), Err(QuantError::BadPlan(_))));
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let (net, plan) = calibrated(Variant::C, 2);
        let mut short = plan.clone();
        short.stage_scales.pop();
        assert!(matches!(
            QuantizedSkyNet::build(&net, &short),
            Err(QuantError::BadPlan(_))
        ));
        let mut bad = plan;
        bad.stage_scales[0][1] = 0.0;
        assert!(matches!(
            QuantizedSkyNet::build(&net, &bad),
            Err(QuantError::BadPlan(_))
        ));
    }

    #[test]
    fn calibrator_rejects_a_network_of_another_variant() {
        // B and C have the same bundle count, so only the recorded
        // variant can tell them apart.
        let cfg = SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(16);
        let mut net = SkyNet::new(cfg, &mut SkyRng::new(5));
        let mut cal = Calibrator::new(Variant::B, CalibMethod::MaxAbs);
        assert!(matches!(
            cal.observe(&mut net, &random_images(1, 16, 32, 6)),
            Err(QuantError::StructureMismatch(_))
        ));
    }

    #[test]
    fn plan_of_another_variant_is_rejected() {
        let (_, plan_b) = calibrated(Variant::B, 5);
        let (net_c, plan_c) = calibrated(Variant::C, 5);
        assert_eq!((plan_b.variant, plan_c.variant), (Variant::B, Variant::C));
        assert!(matches!(
            QuantizedSkyNet::build(&net_c, &plan_b),
            Err(QuantError::BadPlan(_))
        ));
    }

    #[test]
    fn int8_forward_matches_float_geometry_and_direction() {
        for variant in [Variant::A, Variant::C] {
            let (mut net, plan) = calibrated(variant, 3);
            let engine = QuantizedSkyNet::build(&net, &plan).unwrap();
            let x = random_images(2, 16, 32, 7);
            let fy = net.forward(&x, Mode::Eval).unwrap();
            let qy = engine.forward(&x).unwrap();
            assert_eq!(qy.shape(), fy.shape(), "{variant}");
            assert!(qy.as_slice().iter().all(|v| v.is_finite()));
            // The integer path approximates the float map: high cosine
            // similarity even though per-element error accumulates.
            let (mut dot, mut nf, mut nq) = (0f64, 0f64, 0f64);
            for (&a, &b) in fy.as_slice().iter().zip(qy.as_slice()) {
                dot += f64::from(a) * f64::from(b);
                nf += f64::from(a) * f64::from(a);
                nq += f64::from(b) * f64::from(b);
            }
            let cos = dot / (nf.sqrt() * nq.sqrt()).max(1e-12);
            assert!(cos > 0.98, "{variant}: cosine {cos}");
        }
    }

    #[test]
    fn int8_forward_is_deterministic() {
        let (net, plan) = calibrated(Variant::C, 4);
        let engine = QuantizedSkyNet::build(&net, &plan).unwrap();
        let x = random_images(1, 16, 32, 9);
        let a = engine.forward(&x).unwrap();
        let b = engine.forward(&x).unwrap();
        assert!(a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn percentile_scale_never_exceeds_maxabs() {
        let mut h = ActHist::new();
        // Bulk below 1.0 plus one extreme outlier — the case percentile
        // calibration exists for.
        let mut vals: Vec<f32> = (0..1000).map(|i| i as f32 / 1000.0).collect();
        vals.push(100.0);
        h.observe(&vals);
        let p = h.scale(CalibMethod::Percentile(0.99));
        let m = h.scale(CalibMethod::MaxAbs);
        assert!(p > 0.0 && p <= m, "p={p} m={m}");
        // The outlier dominates maxabs but not the 99th percentile.
        assert!(p < m / 10.0, "p={p} m={m}");
    }
}

//! The SkyNet architecture — Table 3 / Fig. 4 of the paper.
//!
//! Three configurations share a chain of six DW+PW Bundles with three
//! 2×2 max-pool layers:
//!
//! * **Model A** — plain chain, head directly after Bundle 5;
//! * **Model B** — feature-map bypass from Bundle 3's output, reordered
//!   (space-to-depth ×2) and concatenated ahead of Bundle 6, whose
//!   point-wise stage has 48 channels;
//! * **Model C** — as B but with 96 channels in Bundle 6 (the DAC-SDC
//!   winning configuration when paired with ReLU6).
//!
//! The head is a classification-free YOLO detector: a 1×1 convolution to
//! `2 anchors × 5` channels (§5.1).
//!
//! The node order is written once, in [`topology`]. Every lowering walks
//! it: the layer-by-layer forward and backward here, the fused f32 plan
//! ([`crate::plan`]), the INT8 engine and its calibration
//! ([`crate::quant`]), and the analytic descriptors.

use crate::bundle::BundleSpec;
use crate::desc::{LayerDesc, NetDesc};
use skynet_nn::{Act, Conv2d, Layer, MaxPool2d, Mode, Param, Reorg, Sequential};
use skynet_tensor::ops::{concat_channels, split_channels};
use skynet_tensor::{fusion, rng::SkyRng, telemetry, Result, Tensor};

/// Which SkyNet configuration to build (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No bypass.
    A,
    /// Bypass + reorg, 48-channel Bundle 6.
    B,
    /// Bypass + reorg, 96-channel Bundle 6 — the contest entry.
    C,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::A => write!(f, "A"),
            Variant::B => write!(f, "B"),
            Variant::C => write!(f, "C"),
        }
    }
}

/// One node of the SkyNet topology, at bundle granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// A DW3→BN→Act→PW→BN→Act Bundle (0-based; 5 is Bundle 6).
    Bundle(usize),
    /// The max-pool after Bundle `i + 1` (`i` in 0–2).
    Pool(usize),
    /// Reorg (space-to-depth) the current map and stash it as the
    /// bypass operand of [`Node::Concat`].
    ReorgFork,
    /// Concatenate the stashed bypass onto the current map.
    Concat,
    /// The 1×1 detection head.
    Head,
}

/// Window (and stride) of every [`Node::Pool`].
pub const POOL_WINDOW: usize = 2;

/// Block of the [`Node::ReorgFork`] space-to-depth: the bypass carries
/// `REORG_BLOCK²` times the channels of Bundle 3's output.
pub const REORG_BLOCK: usize = 2;

/// The node order of variants B/C: the fork sits after Bundle 3's body,
/// before pool 3, and the join right before Bundle 6. Variant A runs the
/// same order without the bypass nodes (fork, join and Bundle 6).
const TOPOLOGY: [Node; 12] = [
    Node::Bundle(0),
    Node::Pool(0),
    Node::Bundle(1),
    Node::Pool(1),
    Node::Bundle(2),
    Node::ReorgFork,
    Node::Pool(2),
    Node::Bundle(3),
    Node::Bundle(4),
    Node::Concat,
    Node::Bundle(5),
    Node::Head,
];

/// The nodes of a variant in execution order (reverse it for backward).
pub fn topology(variant: Variant) -> impl DoubleEndedIterator<Item = Node> {
    let bypass = variant != Variant::A;
    TOPOLOGY
        .into_iter()
        .filter(move |n| bypass || !matches!(n, Node::ReorgFork | Node::Concat | Node::Bundle(5)))
}

/// The feature-extractor prefix: Bundles 1–5 and the three pools, the
/// backbone the paper drops into SiamRPN++/SiamMask in §7.
fn backbone() -> impl Iterator<Item = Node> {
    topology(Variant::A).take_while(|&n| n != Node::Head)
}

/// Which walk over the topology a span belongs to (column of
/// [`Node::span`]'s table).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Walk {
    /// The layer-by-layer forward.
    Forward,
    /// The fused f32 plan.
    Fused,
    /// The layer-by-layer backward.
    Backward,
}

impl Node {
    /// The telemetry span of this node under a walk: the one table of
    /// SkyNet's per-node span names. A fused bundle runs under
    /// `fused.bundleN`, which **replaces** `skynet.bundleN`, so per-op
    /// aggregation never sees the same work under two names.
    pub(crate) fn span(self, walk: Walk) -> &'static str {
        const SPANS: [[&str; 3]; 12] = [
            ["skynet.bundle1", "fused.bundle1", "skynet.bundle1.bwd"],
            ["skynet.bundle2", "fused.bundle2", "skynet.bundle2.bwd"],
            ["skynet.bundle3", "fused.bundle3", "skynet.bundle3.bwd"],
            ["skynet.bundle4", "fused.bundle4", "skynet.bundle4.bwd"],
            ["skynet.bundle5", "fused.bundle5", "skynet.bundle5.bwd"],
            ["skynet.bundle6", "fused.bundle6", "skynet.bundle6.bwd"],
            ["skynet.pool1", "skynet.pool1", "skynet.pool1.bwd"],
            ["skynet.pool2", "skynet.pool2", "skynet.pool2.bwd"],
            ["skynet.pool3", "skynet.pool3", "skynet.pool3.bwd"],
            ["skynet.reorg", "skynet.reorg", "skynet.reorg.bwd"],
            ["skynet.concat", "skynet.concat", "skynet.split.bwd"],
            ["skynet.head", "skynet.head", "skynet.head.bwd"],
        ];
        let row = match self {
            Node::Bundle(b) => b,
            Node::Pool(i) => 6 + i,
            Node::ReorgFork => 9,
            Node::Concat => 10,
            Node::Head => 11,
        };
        SPANS[row][walk as usize]
    }
}

/// Number of anchors in the detection head (the paper uses two).
pub const NUM_ANCHORS: usize = 2;

/// Output channels of the head: `NUM_ANCHORS × (x, y, w, h, conf)`.
pub const HEAD_CHANNELS: usize = NUM_ANCHORS * 5;

/// Paper-scale point-wise output widths of Bundles 1–5 (Table 3).
pub const PAPER_WIDTHS: [usize; 5] = [48, 96, 192, 384, 512];

/// Configuration of a SkyNet instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SkyNetConfig {
    /// Which variant to build.
    pub variant: Variant,
    /// Activation used inside every Bundle (the Table 4 ablation axis).
    pub act: Act,
    /// Point-wise output widths of Bundles 1–5.
    pub widths: [usize; 5],
    /// Width of Bundle 6's point-wise stage (ignored for variant A).
    pub bundle6_width: usize,
}

impl SkyNetConfig {
    /// Paper-scale configuration of the given variant and activation.
    pub fn new(variant: Variant, act: Act) -> Self {
        SkyNetConfig {
            variant,
            act,
            widths: PAPER_WIDTHS,
            bundle6_width: match variant {
                Variant::B => 48,
                _ => 96,
            },
        }
    }

    /// Divides every width by `d` (rounding up, minimum 2) — the scaling
    /// used to make CPU training tractable while preserving the layer
    /// structure.
    pub fn with_width_divisor(mut self, d: usize) -> Self {
        for w in &mut self.widths {
            *w = (*w / d).max(2);
        }
        self.bundle6_width = (self.bundle6_width / d).max(2);
        self
    }

    /// Pairs each of `nodes` with the channel counts entering and
    /// leaving it on the main path, from a 3-channel input. A fork leaves
    /// the main path as it is; a join adds the stashed bypass.
    fn channel_flow(&self, nodes: impl Iterator<Item = Node>) -> Vec<(Node, usize, usize)> {
        let (mut cur, mut bypass) = (3, 0);
        nodes
            .map(|node| {
                let c_in = cur;
                cur = match node {
                    Node::Bundle(b) => self.widths.get(b).copied().unwrap_or(self.bundle6_width),
                    Node::Pool(_) => cur,
                    Node::ReorgFork => {
                        bypass = cur * REORG_BLOCK * REORG_BLOCK;
                        cur
                    }
                    Node::Concat => cur + bypass,
                    Node::Head => HEAD_CHANNELS,
                };
                (node, c_in, cur)
            })
            .collect()
    }

    /// Abstract layer list of `nodes`; each Bundle expands through
    /// [`BundleSpec::describe_layers`].
    fn describe(&self, nodes: impl Iterator<Item = Node>) -> Vec<LayerDesc> {
        let spec = BundleSpec::skynet(self.act);
        let mut layers = Vec::new();
        for (node, c_in, c_out) in self.channel_flow(nodes) {
            match node {
                Node::Bundle(_) => layers.extend(spec.describe_layers(c_in, c_out)),
                Node::Pool(_) => layers.push(LayerDesc::Pool {
                    c: c_in,
                    k: POOL_WINDOW,
                }),
                Node::ReorgFork => layers.push(LayerDesc::Reorg {
                    c: c_in,
                    s: REORG_BLOCK,
                }),
                Node::Concat => layers.push(LayerDesc::Concat {
                    c_main: c_in,
                    c_bypass: c_out - c_in,
                }),
                Node::Head => layers.push(LayerDesc::Conv {
                    in_c: c_in,
                    out_c: c_out,
                    k: 1,
                    s: 1,
                    p: 0,
                }),
            }
        }
        layers
    }

    /// Abstract descriptor of this configuration for an `in_h×in_w` RGB
    /// input (hardware models, parameter counting).
    pub fn descriptor(&self, in_h: usize, in_w: usize) -> NetDesc {
        NetDesc::new(3, in_h, in_w, self.describe(topology(self.variant)))
    }
}

/// A trainable SkyNet detector backbone + head.
///
/// Implements [`Layer`], producing the raw `N×10×(H/8)×(W/8)` prediction
/// map; decode it with [`crate::head::decode_best`].
pub struct SkyNet {
    pub(crate) cfg: SkyNetConfig,
    /// One layer chain per [`Node::Bundle`]: Bundles 1–5, plus Bundle 6
    /// for B/C.
    pub(crate) bundles: Vec<Sequential>,
    pub(crate) pools: Vec<MaxPool2d>,
    pub(crate) reorg: Reorg,
    pub(crate) head: Conv2d,
    // Backward routing state.
    split_at: Option<usize>,
    /// Cached fused execution plan (eval-mode fast path); `None` until
    /// the first fused forward and after every invalidation.
    plan: Option<crate::plan::ExecPlan>,
}

impl SkyNet {
    /// Builds a SkyNet with freshly initialized weights, drawing them in
    /// topology order (Bundles 1–5, Bundle 6, head).
    pub fn new(cfg: SkyNetConfig, rng: &mut SkyRng) -> Self {
        let spec = BundleSpec::skynet(cfg.act);
        let (mut bundles, mut pools, mut head) = (Vec::new(), Vec::new(), None);
        for (node, c_in, c_out) in cfg.channel_flow(topology(cfg.variant)) {
            match node {
                Node::Bundle(_) => bundles.push(spec.build(c_in, c_out, rng)),
                Node::Pool(_) => pools.push(MaxPool2d::new(POOL_WINDOW)),
                Node::Head => {
                    head = Some(Conv2d::new(
                        c_in,
                        c_out,
                        skynet_tensor::conv::ConvGeometry::pointwise(),
                        rng,
                    ))
                }
                Node::ReorgFork | Node::Concat => {}
            }
        }
        SkyNet {
            cfg,
            bundles,
            pools,
            reorg: Reorg::new(REORG_BLOCK),
            head: head.expect("every topology ends with the head"),
            split_at: None,
            plan: None,
        }
    }

    /// Drops the cached execution plan. Called whenever the weights or
    /// BN statistics may change (optimizer visits, training forwards) so
    /// a stale plan can never serve.
    pub(crate) fn invalidate_plan(&mut self) {
        if self.plan.is_some() {
            telemetry::counter("fusion.plan_invalidations").inc();
        }
        self.plan = None;
    }

    /// The cached plan, building it on first use. Returns `None` (with a
    /// `fusion.fallback` count) when the structure is not fusable.
    fn plan(&mut self) -> Option<&crate::plan::ExecPlan> {
        if self.plan.is_none() {
            match crate::plan::ExecPlan::build(self) {
                Ok(p) => self.plan = Some(p),
                Err(_) => {
                    telemetry::counter("fusion.fallback").inc();
                    return None;
                }
            }
        }
        self.plan.as_ref()
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &SkyNetConfig {
        &self.cfg
    }

    /// Abstract descriptor at the given input geometry.
    pub fn descriptor(&self, in_h: usize, in_w: usize) -> NetDesc {
        self.cfg.descriptor(in_h, in_w)
    }

    /// Total downsampling factor from input to prediction grid.
    pub fn stride(&self) -> usize {
        8
    }
}

/// Builds the SkyNet **feature extractor**: Bundles 1–5 with the three
/// pools (no bypass, no Bundle 6, no detection head) — the backbone the
/// paper drops into SiamRPN++/SiamMask in §7. Returns the network and its
/// output channel count.
pub fn features(cfg: &SkyNetConfig, rng: &mut SkyRng) -> (Sequential, usize) {
    let spec = BundleSpec::skynet(cfg.act);
    let mut seq = Sequential::empty();
    let mut out_c = 3;
    for (node, c_in, c_out) in cfg.channel_flow(backbone()) {
        if let Node::Bundle(_) = node {
            seq.push(Box::new(spec.build(c_in, c_out, rng)));
        } else {
            seq.push(Box::new(MaxPool2d::new(POOL_WINDOW)));
        }
        out_c = c_out;
    }
    (seq, out_c)
}

/// Abstract descriptor of the feature extractor at paper scale (for the
/// §7 parameter-size comparison against ResNet-50).
pub fn features_descriptor(cfg: &SkyNetConfig, in_h: usize, in_w: usize) -> NetDesc {
    NetDesc::new(3, in_h, in_w, cfg.describe(backbone()))
}

impl Layer for SkyNet {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let _whole = telemetry::span("skynet.forward");
        match mode {
            // Training mutates BN running statistics without a
            // `visit_params` pass — any cached plan is stale after it.
            Mode::Train => self.invalidate_plan(),
            // The fused plan captures eval-path BN epilogues; it is
            // bit-identical to the unfused eval path (QuantEval's
            // per-layer fake-quantize points make it non-fusable).
            Mode::Eval => {
                if fusion::enabled() {
                    if let Some(plan) = self.plan() {
                        return plan.run(x);
                    }
                }
            }
            Mode::QuantEval { .. } => {}
        }
        let mut cur = x.clone();
        let mut bypass = None;
        for node in topology(self.cfg.variant) {
            let _s = telemetry::span(node.span(Walk::Forward));
            cur = match node {
                Node::Bundle(b) => self.bundles[b].forward(&cur, mode)?,
                Node::Pool(i) => self.pools[i].forward(&cur, mode)?,
                Node::ReorgFork => {
                    bypass = Some(self.reorg.forward(&cur, mode)?);
                    cur
                }
                Node::Concat => {
                    self.split_at = Some(cur.shape().c);
                    let by = bypass.take().expect("ReorgFork precedes Concat");
                    concat_channels(&cur, &by)?
                }
                Node::Head => self.head.forward(&cur, mode)?,
            };
        }
        Ok(cur)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let _whole = telemetry::span("skynet.backward");
        let mut g = grad_out.clone();
        let mut g_bypass = None;
        for node in topology(self.cfg.variant).rev() {
            let _s = telemetry::span(node.span(Walk::Backward));
            g = match node {
                Node::Head => self.head.backward(&g)?,
                Node::Bundle(b) => self.bundles[b].backward(&g)?,
                Node::Pool(i) => self.pools[i].backward(&g)?,
                Node::Concat => {
                    let split = self
                        .split_at
                        .take()
                        .expect("forward must run before backward");
                    let (g_main, g_by) = split_channels(&g, split)?;
                    g_bypass = Some(g_by);
                    g_main
                }
                // The bypass gradient joins the main path after pool 3's
                // backward, before Bundle 3's.
                Node::ReorgFork => {
                    let g_by = g_bypass.take().expect("Concat precedes the fork backward");
                    let g_reorg = self.reorg.backward(&g_by)?;
                    g.add(&g_reorg)?
                }
            };
        }
        Ok(g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // The visitor may mutate any weight (optimizer steps, checkpoint
        // loads), so the cached plan must go.
        self.invalidate_plan();
        for b in &mut self.bundles {
            b.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn name(&self) -> String {
        format!("SkyNet-{} ({})", self.cfg.variant, self.cfg.act)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl std::fmt::Debug for SkyNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SkyNet-{} act={} widths={:?} b6={}",
            self.cfg.variant, self.cfg.act, self.cfg.widths, self.cfg.bundle6_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_tensor::Shape;

    #[test]
    fn paper_scale_parameter_count_matches_table2() {
        // Table 2 lists the SkyNet backbone at 0.44 M parameters; Table 4
        // lists model C at 1.82 MB (float32). Our analytic count must land
        // in that neighbourhood.
        let cfg = SkyNetConfig::new(Variant::C, Act::Relu6);
        let params = cfg.descriptor(160, 320).total_params();
        assert!(
            (430_000..470_000).contains(&params),
            "model C params = {params}"
        );
    }

    #[test]
    fn variant_ordering_by_size_matches_table4() {
        // Table 4: A (1.27 MB) < B (1.57 MB) < C (1.82 MB).
        let p = |v| {
            SkyNetConfig::new(v, Act::Relu6)
                .descriptor(160, 320)
                .total_params()
        };
        let (a, b, c) = (p(Variant::A), p(Variant::B), p(Variant::C));
        assert!(a < b && b < c, "sizes {a} {b} {c}");
    }

    #[test]
    fn forward_shapes_all_variants() {
        for variant in [Variant::A, Variant::B, Variant::C] {
            let mut rng = SkyRng::new(1);
            let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(8);
            let mut net = SkyNet::new(cfg, &mut rng);
            let x = Tensor::zeros(Shape::new(2, 3, 24, 48));
            let y = net.forward(&x, Mode::Eval).unwrap();
            assert_eq!(y.shape(), Shape::new(2, HEAD_CHANNELS, 3, 6), "{variant}");
        }
    }

    #[test]
    fn descriptor_params_match_built_model() {
        for variant in [Variant::A, Variant::B, Variant::C] {
            let mut rng = SkyRng::new(2);
            let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(8);
            let mut net = SkyNet::new(cfg.clone(), &mut rng);
            // Built model has the head bias (+HEAD_CHANNELS) that the
            // descriptor's conv layers don't count.
            assert_eq!(
                net.param_count(),
                cfg.descriptor(24, 48).total_params() + HEAD_CHANNELS,
                "{variant}"
            );
        }
    }

    #[test]
    fn paper_scale_descriptors_are_pinned() {
        // Golden totals at 160×320: any change to the layer order or
        // channel flow of the descriptors moves at least one of them.
        for (variant, params, macs) in [
            (Variant::A, 309_057, 376_934_400),
            (Variant::B, 380_033, 435_353_600),
            (Variant::C, 442_049, 484_966_400),
        ] {
            let desc = SkyNetConfig::new(variant, Act::Relu6).descriptor(160, 320);
            assert_eq!(
                (desc.total_params(), desc.total_macs()),
                (params, macs),
                "{variant}"
            );
        }
        let cfg = SkyNetConfig::new(Variant::C, Act::Relu6);
        let feat = features_descriptor(&cfg, 160, 320);
        assert_eq!(
            (feat.total_params(), feat.total_macs()),
            (303_937, 372_838_400)
        );
    }

    #[test]
    fn train_backward_runs_through_bypass() {
        let mut rng = SkyRng::new(3);
        let cfg = SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(16);
        let mut net = SkyNet::new(cfg, &mut rng);
        let x = Tensor::ones(Shape::new(1, 3, 16, 16));
        let y = net.forward(&x, Mode::Train).unwrap();
        let gx = net.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(gx.shape(), x.shape());
        let mut total = 0.0;
        net.visit_params(&mut |p| total += p.grad.max_abs());
        assert!(total > 0.0, "gradients must reach the Bundles");
    }

    #[test]
    fn variant_a_has_no_bypass() {
        let mut rng = SkyRng::new(4);
        let cfg = SkyNetConfig::new(Variant::A, Act::Relu).with_width_divisor(16);
        let net = SkyNet::new(cfg, &mut rng);
        assert_eq!(net.bundles.len(), 5);
        assert!(topology(Variant::A).all(|n| !matches!(n, Node::ReorgFork | Node::Concat)));
    }

    #[test]
    fn topology_places_the_bypass_around_pool3_and_bundle6() {
        let c: Vec<Node> = topology(Variant::C).collect();
        assert_eq!(c.len(), 12);
        assert_eq!(c[0], Node::Bundle(0));
        assert_eq!(*c.last().unwrap(), Node::Head);
        // The fork reorgs Bundle 3's output before pool 3 sees it.
        let fork = c.iter().position(|&n| n == Node::ReorgFork).unwrap();
        assert_eq!((c[fork - 1], c[fork + 1]), (Node::Bundle(2), Node::Pool(2)));
        let join = c.iter().position(|&n| n == Node::Concat).unwrap();
        assert_eq!(
            (c[join - 1], c[join + 1]),
            (Node::Bundle(4), Node::Bundle(5))
        );
        // A drops exactly the fork, the join and Bundle 6.
        assert_eq!(topology(Variant::A).count(), 9);
        assert!(topology(Variant::A).all(|n| n != Node::Bundle(5)));
        // The tracker backbone is A's prefix up to the head.
        assert_eq!(backbone().count(), 8);
    }

    #[test]
    fn descriptor_macs_dominated_by_pointwise() {
        // Sanity: in a DW+PW network the PW convs dominate compute.
        let cfg = SkyNetConfig::new(Variant::C, Act::Relu6);
        let desc = cfg.descriptor(160, 320);
        let total = desc.total_macs();
        let pw: u64 = desc
            .walk()
            .iter()
            .filter(|ls| matches!(ls.layer, LayerDesc::Conv { k: 1, .. }))
            .map(|ls| ls.layer.macs(ls.h_in, ls.w_in))
            .sum();
        assert!(pw * 10 > total * 8, "PW should be >80% of MACs");
    }
}

//! Graph-level execution plan with operator fusion.
//!
//! [`SkyNet`]'s layer objects execute one at a time, materializing every
//! intermediate feature map. This module builds a small static **graph
//! IR** ([`Graph`]) from the bundle structure once, rewrites it with
//! three fusion passes, and compiles the result into an executable
//! [`ExecPlan`] whose steps drive the fused kernels in
//! [`skynet_tensor::fused`]:
//!
//! 1. **BN-fold** ([`Graph::fold_bn`]) — each `Conv → BatchNorm` pair
//!    becomes one conv whose store applies the BN-eval affine as a
//!    per-channel **epilogue**. The epilogue captures
//!    `(μ, 1/√(σ²+ε), γ, β)` at plan-build time and replays the eval
//!    path's exact f32 sequence `y = γ·(x − μ)·inv_std + β`, so —
//!    unlike the classic fold-into-weights rewrite
//!    ([`Conv2d::fold_bn`], which re-rounds every weight product and is
//!    kept for deployment-style transforms like INT8 — this is its
//!    float analogue with the rounding question designed away) — the
//!    output bits are unchanged.
//! 2. **Fused activation** ([`Graph::fuse_act`]) — the ReLU/ReLU6 clamp
//!    moves into the producing kernel's store loop
//!    (`max(x, 0)`/`min(·, 6)` with the elementwise kernels'
//!    `maxps`/`minps` lane semantics, position-independent per element).
//! 3. **Bundle fusion** ([`Graph::fuse_bundles`]) — the
//!    `DW-Conv3+BN+Act → PW+BN+Act` pair executes over cache-resident
//!    row tiles in the scratch arena, never materializing the
//!    intermediate ([`skynet_tensor::fused::fused_bundle_forward`]).
//!
//! Every pass preserves **bit-identity** with the unfused layer path
//! across SIMD backends and thread counts; the unfused path stays on as
//! the runtime oracle behind `SKYNET_FUSION`
//! ([`skynet_tensor::fusion`]). Plans are cached per network and
//! invalidated whenever weights can change (optimizer visits, training
//! forwards) — see `SkyNet::forward`.

use crate::skynet::{SkyNet, Variant};
use skynet_nn::{Activation, BatchNorm2d, Conv2d, DwConv2d, Sequential};
use skynet_tensor::conv::{conv2d, ConvGeometry};
use skynet_tensor::fused::{fused_bundle_forward, BnAct};
use skynet_tensor::ops::concat_channels;
use skynet_tensor::pool::maxpool2d;
use skynet_tensor::reorg::reorg;
use skynet_tensor::{telemetry, Result, Tensor};

/// One node of the inference graph IR. `bundle` is the 0-based bundle
/// position (5 = Bundle 6); `stage` distinguishes the DW-side (`0`)
/// from the PW-side (`1`) BN/activation within a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Depth-wise 3×3 convolution of a bundle.
    DwConv3 {
        /// Bundle position.
        bundle: usize,
    },
    /// Point-wise convolution of a bundle.
    PwConv {
        /// Bundle position.
        bundle: usize,
    },
    /// BatchNorm after the DW (`stage` 0) or PW (`stage` 1) conv.
    Bn {
        /// Bundle position.
        bundle: usize,
        /// 0 = after DW, 1 = after PW.
        stage: usize,
    },
    /// ReLU/ReLU6 activation.
    Act {
        /// Bundle position.
        bundle: usize,
        /// 0 = after DW, 1 = after PW.
        stage: usize,
    },
    /// DW conv with the BN affine folded into its store epilogue
    /// (after [`Graph::fold_bn`]).
    DwConvBn {
        /// Bundle position.
        bundle: usize,
    },
    /// PW conv with the BN affine folded into its store epilogue.
    PwConvBn {
        /// Bundle position.
        bundle: usize,
    },
    /// DW conv with BN **and** activation fused into the store loop
    /// (after [`Graph::fuse_act`]).
    DwConvBnAct {
        /// Bundle position.
        bundle: usize,
    },
    /// PW conv with BN and activation fused into the store loop.
    PwConvBnAct {
        /// Bundle position.
        bundle: usize,
    },
    /// A whole bundle over cache-resident row tiles (after
    /// [`Graph::fuse_bundles`]).
    FusedBundle {
        /// Bundle position.
        bundle: usize,
    },
    /// 2×2 max-pool after bundles 1–3.
    Pool {
        /// Pool position (0–2).
        idx: usize,
    },
    /// Fork point: reorg (space-to-depth) the current map and stash it
    /// as the bypass operand for [`Op::Concat`].
    ReorgFork,
    /// Join point: concatenate the stashed bypass onto the current map.
    Concat,
    /// The 1×1 detection head (with bias, no BN/activation).
    Head,
}

/// The linear inference graph over the bundle structure. Control flow
/// (the single fork/join of the bypass) is encoded by
/// [`Op::ReorgFork`]/[`Op::Concat`], which is exactly as much graph as
/// the SkyNet topology has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    ops: Vec<Op>,
}

impl Graph {
    /// Builds the unfused graph mirroring `SkyNet::forward`'s exact op
    /// order (reorg fork after Bundle 3's body, before pool 3).
    pub fn from_skynet(net: &SkyNet) -> Graph {
        let mut ops = Vec::new();
        let bundle_ops = |ops: &mut Vec<Op>, b: usize| {
            ops.push(Op::DwConv3 { bundle: b });
            ops.push(Op::Bn {
                bundle: b,
                stage: 0,
            });
            ops.push(Op::Act {
                bundle: b,
                stage: 0,
            });
            ops.push(Op::PwConv { bundle: b });
            ops.push(Op::Bn {
                bundle: b,
                stage: 1,
            });
            ops.push(Op::Act {
                bundle: b,
                stage: 1,
            });
        };
        for i in 0..3 {
            bundle_ops(&mut ops, i);
            if i == 2 && net.cfg.variant != Variant::A {
                ops.push(Op::ReorgFork);
            }
            ops.push(Op::Pool { idx: i });
        }
        bundle_ops(&mut ops, 3);
        bundle_ops(&mut ops, 4);
        if net.bundle6.is_some() {
            ops.push(Op::Concat);
            bundle_ops(&mut ops, 5);
        }
        ops.push(Op::Head);
        Graph { ops }
    }

    /// The op list (read-only; tests assert pass results against it).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Pass 1 — BN-fold: `DwConv3/PwConv → Bn` pairs collapse into one
    /// conv-with-epilogue node.
    pub fn fold_bn(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (
                Op::DwConv3 { bundle },
                Op::Bn {
                    bundle: b2,
                    stage: 0,
                },
            ) if bundle == b2 => Some(Op::DwConvBn { bundle }),
            (
                Op::PwConv { bundle },
                Op::Bn {
                    bundle: b2,
                    stage: 1,
                },
            ) if bundle == b2 => Some(Op::PwConvBn { bundle }),
            _ => None,
        });
    }

    /// Pass 2 — fused activation: `ConvBn → Act` pairs move the clamp
    /// into the conv's store loop.
    pub fn fuse_act(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (
                Op::DwConvBn { bundle },
                Op::Act {
                    bundle: b2,
                    stage: 0,
                },
            ) if bundle == b2 => Some(Op::DwConvBnAct { bundle }),
            (
                Op::PwConvBn { bundle },
                Op::Act {
                    bundle: b2,
                    stage: 1,
                },
            ) if bundle == b2 => Some(Op::PwConvBnAct { bundle }),
            _ => None,
        });
    }

    /// Pass 3 — bundle fusion: adjacent `DwConvBnAct → PwConvBnAct` of
    /// the same bundle become one cache-blocked fused bundle.
    pub fn fuse_bundles(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (Op::DwConvBnAct { bundle }, Op::PwConvBnAct { bundle: b2 }) if bundle == b2 => {
                Some(Op::FusedBundle { bundle })
            }
            _ => None,
        });
    }

    /// Runs all three passes in their documented order.
    pub fn optimize(&mut self) {
        self.fold_bn();
        self.fuse_act();
        self.fuse_bundles();
    }

    /// One left-to-right sweep replacing adjacent pairs; linear passes
    /// over a linear graph, so one sweep reaches the fixed point.
    fn rewrite_pairs(&mut self, rule: impl Fn(Op, Op) -> Option<Op>) {
        let mut out: Vec<Op> = Vec::with_capacity(self.ops.len());
        for &op in &self.ops {
            if let Some(&prev) = out.last() {
                if let Some(merged) = rule(prev, op) {
                    *out.last_mut().expect("non-empty") = merged;
                    continue;
                }
            }
            out.push(op);
        }
        self.ops = out;
    }
}

/// Why a plan could not be built. Structural mismatches fall back to the
/// unfused path (counted as `fusion.fallback`), never fail the forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Per-bundle span names for the fused kernels (`fused.<bundle>`): the
/// fused op **replaces** `skynet.bundleN` in the profiler's table, so
/// `telemetry::aggregate` never sees the same work under two names.
const FUSED_SPANS: [&str; 6] = [
    "fused.bundle1",
    "fused.bundle2",
    "fused.bundle3",
    "fused.bundle4",
    "fused.bundle5",
    "fused.bundle6",
];
const POOL_SPANS: [&str; 3] = ["skynet.pool1", "skynet.pool2", "skynet.pool3"];

/// Captured weights + epilogues of one fused bundle (boxed inside
/// [`Step`] to keep the step list's per-element size small).
struct FusedStep {
    span: &'static str,
    dw_w: Tensor,
    dw_geo: ConvGeometry,
    bn1: BnAct,
    pw_w: Tensor,
    bn2: BnAct,
}

/// One executable step of a compiled plan.
enum Step {
    /// A fused bundle: weights + captured epilogues.
    Fused(Box<FusedStep>),
    Pool {
        span: &'static str,
        k: usize,
    },
    ReorgFork {
        block: usize,
    },
    Concat,
    Head {
        w: Tensor,
        bias: Option<Vec<f32>>,
        geo: ConvGeometry,
    },
}

/// A compiled, immutable inference plan for one [`SkyNet`]: the
/// optimized [`Graph`] plus captured weights/epilogues. Built lazily on
/// the first fused eval forward and cached until the owner's weights can
/// change (see `SkyNet::forward` / `SkyNet::visit_params`).
pub struct ExecPlan {
    graph: Graph,
    steps: Vec<Step>,
}

impl std::fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExecPlan[{} steps]", self.steps.len())
    }
}

/// Downcasts one bundle chain into its six typed layers.
fn bundle_parts(
    seq: &Sequential,
    idx: usize,
) -> std::result::Result<
    (
        &DwConv2d,
        &BatchNorm2d,
        &Activation,
        &Conv2d,
        &BatchNorm2d,
        &Activation,
    ),
    PlanError,
> {
    let mismatch = |what: &str| {
        PlanError(format!(
            "bundle {}: expected DW→BN→Act→PW→BN→Act, {what}",
            idx + 1
        ))
    };
    let layers = seq.layers();
    if layers.len() != 6 {
        return Err(mismatch(&format!("found {} layers", layers.len())));
    }
    let cast = |i: usize| layers[i].as_any();
    Ok((
        cast(0)
            .and_then(|a| a.downcast_ref::<DwConv2d>())
            .ok_or_else(|| mismatch("layer 1 is not DwConv2d"))?,
        cast(1)
            .and_then(|a| a.downcast_ref::<BatchNorm2d>())
            .ok_or_else(|| mismatch("layer 2 is not BatchNorm2d"))?,
        cast(2)
            .and_then(|a| a.downcast_ref::<Activation>())
            .ok_or_else(|| mismatch("layer 3 is not Activation"))?,
        cast(3)
            .and_then(|a| a.downcast_ref::<Conv2d>())
            .ok_or_else(|| mismatch("layer 4 is not Conv2d"))?,
        cast(4)
            .and_then(|a| a.downcast_ref::<BatchNorm2d>())
            .ok_or_else(|| mismatch("layer 5 is not BatchNorm2d"))?,
        cast(5)
            .and_then(|a| a.downcast_ref::<Activation>())
            .ok_or_else(|| mismatch("layer 6 is not Activation"))?,
    ))
}

/// Captures one bundle's weights and epilogues as a fused step.
fn compile_bundle(seq: &Sequential, idx: usize) -> std::result::Result<Step, PlanError> {
    let (dw, bn1, act1, pw, bn2, act2) = bundle_parts(seq, idx)?;
    let geo = dw.geometry();
    if geo.kernel != 3 || (geo.stride != 1 && geo.stride != 2) {
        return Err(PlanError(format!(
            "bundle {}: DW geometry k={} s={} not fusable",
            idx + 1,
            geo.kernel,
            geo.stride
        )));
    }
    let pgeo = pw.geometry();
    if pgeo.kernel != 1 || pgeo.stride != 1 || pgeo.pad != 0 || pw.bias_values().is_some() {
        return Err(PlanError(format!(
            "bundle {}: PW stage is not a bias-free point-wise conv",
            idx + 1
        )));
    }
    let ep = |bn: &BatchNorm2d, ceiling: Option<f32>| {
        BnAct::new(
            bn.running_mean().to_vec(),
            bn.running_var(),
            bn.eps(),
            bn.gamma().to_vec(),
            bn.beta().to_vec(),
            ceiling,
        )
    };
    Ok(Step::Fused(Box::new(FusedStep {
        span: FUSED_SPANS[idx],
        dw_w: dw.weight().clone(),
        dw_geo: geo,
        bn1: ep(bn1, act1.kind().output_ceiling()),
        pw_w: pw.weight().clone(),
        bn2: ep(bn2, act2.kind().output_ceiling()),
    })))
}

impl ExecPlan {
    /// Builds and optimizes the plan for a network: IR construction, the
    /// three fusion passes, then weight/epilogue capture.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the network's structure does not
    /// match the fusable bundle shape (the caller falls back to the
    /// unfused path).
    pub fn build(net: &SkyNet) -> std::result::Result<ExecPlan, PlanError> {
        let mut graph = Graph::from_skynet(net);
        graph.optimize();
        let mut steps = Vec::with_capacity(graph.ops().len());
        for &op in graph.ops() {
            steps.push(match op {
                Op::FusedBundle { bundle } => {
                    let seq = if bundle < net.bundles.len() {
                        &net.bundles[bundle]
                    } else {
                        net.bundle6
                            .as_ref()
                            .ok_or_else(|| PlanError("bundle 6 missing".into()))?
                    };
                    compile_bundle(seq, bundle)?
                }
                Op::Pool { idx } => Step::Pool {
                    span: POOL_SPANS[idx],
                    k: net.pools[idx].window(),
                },
                Op::ReorgFork => Step::ReorgFork {
                    block: net.reorg.block(),
                },
                Op::Concat => Step::Concat,
                Op::Head => Step::Head {
                    w: net.head.weight().clone(),
                    bias: net.head.bias_values().map(<[f32]>::to_vec),
                    geo: net.head.geometry(),
                },
                other => {
                    return Err(PlanError(format!(
                        "op {other:?} survived fusion — not executable"
                    )))
                }
            });
        }
        telemetry::counter("fusion.plan_builds").inc();
        Ok(ExecPlan { graph, steps })
    }

    /// The optimized graph (for tests and diagnostics).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Executes the plan. Bit-identical to the unfused
    /// `SkyNet::forward` in eval mode on every SIMD backend and thread
    /// count (see [`skynet_tensor::fused`] for the argument).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (none occur for inputs the
    /// unfused path accepts).
    pub fn run(&self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        let mut bypass = None;
        for step in &self.steps {
            cur = match step {
                Step::Fused(f) => {
                    let _s = telemetry::span(f.span);
                    fused_bundle_forward(&cur, &f.dw_w, f.dw_geo, &f.bn1, &f.pw_w, &f.bn2)?
                }
                Step::Pool { span, k } => {
                    let _s = telemetry::span(span);
                    maxpool2d(&cur, *k)?.output
                }
                Step::ReorgFork { block } => {
                    let _s = telemetry::span("skynet.reorg");
                    bypass = Some(reorg(&cur, *block)?);
                    cur
                }
                Step::Concat => {
                    let _s = telemetry::span("skynet.concat");
                    let by = bypass.take().expect("ReorgFork precedes Concat");
                    concat_channels(&cur, &by)?
                }
                Step::Head { w, bias, geo } => {
                    let _s = telemetry::span("skynet.head");
                    conv2d(&cur, w, bias.as_deref(), *geo)?
                }
            };
        }
        Ok(cur)
    }
}

/// One step of the quantized (INT8) execution plan.
///
/// The integer engine has a much coarser op vocabulary than the float
/// graph: its stages are *already* BN-folded and activation-fused at
/// [`crate::quant::QuantizedSkyNet::build`] time, so the only fusion
/// decision left is whether a bundle's DW→PW pair runs as two full-map
/// kernels or as one cache-resident fused tile
/// ([`skynet_tensor::fused::qfused_bundle_forward`]). That decision is
/// the `fused` flag on [`QOp::Bundle`], set by
/// [`QExecPlan::lower_fused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QOp {
    /// Quantize the f32 input into the `i8` activation domain.
    Quantize,
    /// One DW→PW stage pair of the integer engine.
    Bundle {
        /// Bundle position (0-based; 5 = Bundle 6).
        bundle: usize,
        /// Lowered to the fused INT8 row-tile kernel. The engine still
        /// checks the runtime [`skynet_tensor::fusion`] toggle at each
        /// forward and counts `quant.fused.fallback` when the toggle
        /// sends a fused-lowered bundle down the staged pair.
        fused: bool,
    },
    /// 2×2 max-pool after bundles 1–3.
    Pool {
        /// Pool position (0–2).
        idx: usize,
    },
    /// Fork point: reorg the current map and stash it as the bypass
    /// operand for [`QOp::Concat`] (variants B/C only).
    ReorgFork,
    /// Join point: concatenate the stashed bypass onto the current map.
    Concat,
    /// The dequantizing 1×1 head (`i8×i8→i32` accumulate, f32 exit).
    Head,
}

/// The compiled step list of the INT8 engine: the same topology
/// [`Graph::from_skynet`] encodes for the float path, at bundle
/// granularity. Built once in `QuantizedSkyNet::build` and walked on
/// every integer forward — the fuse/don't-fuse decision is made at
/// plan time, not per call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QExecPlan {
    ops: Vec<QOp>,
}

impl QExecPlan {
    /// Builds the unlowered (all-unfused) plan for a variant, mirroring
    /// the integer engine's op order exactly: quantize, bundles 1–3
    /// each followed by a pool (with the reorg fork after Bundle 3's
    /// body, before pool 3), bundles 4–5, the concat + Bundle 6 join
    /// for B/C, then the head.
    pub fn for_variant(variant: Variant) -> QExecPlan {
        let has_b6 = variant != Variant::A;
        let mut ops = vec![QOp::Quantize];
        for i in 0..3 {
            ops.push(QOp::Bundle {
                bundle: i,
                fused: false,
            });
            if i == 2 && has_b6 {
                ops.push(QOp::ReorgFork);
            }
            ops.push(QOp::Pool { idx: i });
        }
        for b in 3..5 {
            ops.push(QOp::Bundle {
                bundle: b,
                fused: false,
            });
        }
        if has_b6 {
            ops.push(QOp::Concat);
            ops.push(QOp::Bundle {
                bundle: 5,
                fused: false,
            });
        }
        ops.push(QOp::Head);
        QExecPlan { ops }
    }

    /// The lowering pass: marks every bundle the predicate accepts as
    /// fused. The engine passes "does the PW stage requantize back to
    /// `i8`?" — a head-style stage with no output scale exits to f32
    /// and can never feed the fused epilogue.
    pub fn lower_fused(&mut self, fusable: impl Fn(usize) -> bool) {
        for op in &mut self.ops {
            if let QOp::Bundle { bundle, fused } = op {
                *fused = fusable(*bundle);
            }
        }
    }

    /// The step list (read-only; tests assert the lowering against it).
    pub fn ops(&self) -> &[QOp] {
        &self.ops
    }

    /// Number of bundles lowered to the fused kernel.
    pub fn fused_bundles(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, QOp::Bundle { fused: true, .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skynet::SkyNetConfig;
    use skynet_nn::Act;
    use skynet_tensor::rng::SkyRng;

    fn net(variant: Variant) -> SkyNet {
        let mut rng = SkyRng::new(3);
        let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16);
        SkyNet::new(cfg, &mut rng)
    }

    #[test]
    fn unfused_graph_shape() {
        let g = Graph::from_skynet(&net(Variant::C));
        // 6 bundles × 6 ops + 3 pools + fork + join + head = 42.
        assert_eq!(g.ops().len(), 42);
        assert_eq!(g.ops()[0], Op::DwConv3 { bundle: 0 });
        // The fork sits after Bundle 3's chain, before pool 3.
        let fork = g.ops().iter().position(|o| *o == Op::ReorgFork).unwrap();
        assert_eq!(g.ops()[fork + 1], Op::Pool { idx: 2 });
        assert_eq!(
            g.ops()[fork - 1],
            Op::Act {
                bundle: 2,
                stage: 1
            }
        );
        // Variant A: no fork/join/bundle 6.
        let ga = Graph::from_skynet(&net(Variant::A));
        assert_eq!(ga.ops().len(), 5 * 6 + 3 + 1);
        assert!(!ga.ops().contains(&Op::ReorgFork));
    }

    #[test]
    fn passes_rewrite_in_order() {
        let mut g = Graph::from_skynet(&net(Variant::C));
        g.fold_bn();
        assert!(g.ops().contains(&Op::DwConvBn { bundle: 0 }));
        assert!(!g.ops().iter().any(|o| matches!(o, Op::Bn { .. })));
        // Activations survive pass 1 untouched.
        assert!(g.ops().contains(&Op::Act {
            bundle: 0,
            stage: 0
        }));
        g.fuse_act();
        assert!(g.ops().contains(&Op::DwConvBnAct { bundle: 0 }));
        assert!(!g.ops().iter().any(|o| matches!(o, Op::Act { .. })));
        g.fuse_bundles();
        // 6 fused bundles + 3 pools + fork + join + head = 12 ops.
        assert_eq!(g.ops().len(), 12);
        for b in 0..6 {
            assert!(g.ops().contains(&Op::FusedBundle { bundle: b }));
        }
    }

    #[test]
    fn plan_builds_for_all_variants() {
        for v in [Variant::A, Variant::B, Variant::C] {
            let plan = ExecPlan::build(&net(v)).unwrap();
            let fused = plan
                .graph()
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::FusedBundle { .. }))
                .count();
            assert_eq!(fused, if v == Variant::A { 5 } else { 6 });
        }
    }

    #[test]
    fn qplan_mirrors_engine_op_order() {
        let p = QExecPlan::for_variant(Variant::C);
        // quantize + 6 bundles + 3 pools + fork + join + head = 13.
        assert_eq!(p.ops().len(), 13);
        assert_eq!(p.ops()[0], QOp::Quantize);
        assert_eq!(*p.ops().last().unwrap(), QOp::Head);
        // The fork sits after Bundle 3, before pool 3 — same topology
        // as the float graph.
        let fork = p.ops().iter().position(|o| *o == QOp::ReorgFork).unwrap();
        assert_eq!(
            p.ops()[fork - 1],
            QOp::Bundle {
                bundle: 2,
                fused: false
            }
        );
        assert_eq!(p.ops()[fork + 1], QOp::Pool { idx: 2 });
        let join = p.ops().iter().position(|o| *o == QOp::Concat).unwrap();
        assert_eq!(
            p.ops()[join + 1],
            QOp::Bundle {
                bundle: 5,
                fused: false
            }
        );
        // Variant A: 1 + 5 + 3 + 1 = 10 steps, no fork/join.
        let pa = QExecPlan::for_variant(Variant::A);
        assert_eq!(pa.ops().len(), 10);
        assert!(!pa.ops().contains(&QOp::ReorgFork));
        assert!(!pa.ops().contains(&QOp::Concat));
    }

    #[test]
    fn qplan_lowering_marks_exactly_the_accepted_bundles() {
        let mut p = QExecPlan::for_variant(Variant::C);
        assert_eq!(p.fused_bundles(), 0);
        p.lower_fused(|b| b != 3);
        assert_eq!(p.fused_bundles(), 5);
        for op in p.ops() {
            if let QOp::Bundle { bundle, fused } = op {
                assert_eq!(*fused, *bundle != 3, "bundle {bundle}");
            }
        }
        p.lower_fused(|_| true);
        assert_eq!(p.fused_bundles(), 6);
    }
}

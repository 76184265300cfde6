//! The fused f32 execution plan.
//!
//! [`SkyNet`]'s layer objects execute one at a time, materializing every
//! intermediate feature map. [`ExecPlan::build`] walks the SkyNet
//! [`topology`] once and lowers each node to one executable step; every
//! bundle becomes a single call of
//! [`skynet_tensor::fused::fused_bundle_forward`], which runs the whole
//! `DW-Conv3+BN+Act → PW+BN+Act` pair over cache-resident row tiles in
//! the scratch arena and never materializes the intermediate.
//!
//! The fused kernel is **bit-identical** to the unfused layer path across
//! SIMD backends and thread counts, for three reasons that are properties
//! of the kernel, not of any rewrite:
//!
//! * **BN epilogue.** The BN-eval affine is applied in the conv's store
//!   loop from `(μ, 1/√(σ²+ε), γ, β)` captured at plan-build time, in the
//!   eval path's exact f32 order `y = γ·(x − μ)·inv_std + β`. Unlike the
//!   classic fold-into-weights rewrite ([`Conv2d::fold_bn`], which
//!   re-rounds every weight product and is kept for deployment-style
//!   transforms like INT8), no product is re-rounded.
//! * **Fused clamp.** The ReLU/ReLU6 clamp runs in the same store loop
//!   (`max(x, 0)`/`min(·, 6)` with the elementwise kernels'
//!   `maxps`/`minps` lane semantics), position-independent per element.
//! * **Band independence.** DW rows are row-local, the point-wise matmul
//!   accumulates each output element in a fixed ascending chain, and the
//!   band height depends on the shape alone, so a band tile equals the
//!   whole-plane result bitwise.
//!
//! The unfused path stays on as the runtime oracle behind `SKYNET_FUSION`
//! ([`skynet_tensor::fusion`]). Plans are cached per network and
//! invalidated whenever weights can change (optimizer visits, training
//! forwards) — see `SkyNet::forward`.
//!
//! [`Conv2d::fold_bn`]: skynet_nn::Conv2d::fold_bn

use crate::bundle::skynet_bundle_parts;
use crate::skynet::{topology, Node, SkyNet, Walk, POOL_WINDOW, REORG_BLOCK};
use skynet_nn::BatchNorm2d;
use skynet_tensor::conv::{conv2d, ConvGeometry};
use skynet_tensor::fused::{fused_bundle_forward, BnAct};
use skynet_tensor::ops::concat_channels;
use skynet_tensor::pool::maxpool2d;
use skynet_tensor::reorg::reorg;
use skynet_tensor::{telemetry, Result, Tensor};

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

/// Captured weights + epilogues of one fused bundle (boxed inside
/// [`Step`] to keep the step list's per-element size small).
struct FusedStep {
    dw_w: Tensor,
    dw_geo: ConvGeometry,
    bn1: BnAct,
    pw_w: Tensor,
    bn2: BnAct,
}

/// One executable step of a compiled plan: the lowering of one
/// topology [`Node`].
enum Step {
    /// A fused bundle: weights + captured epilogues.
    Bundle(Box<FusedStep>),
    Pool,
    ReorgFork,
    Concat,
    Head {
        w: Tensor,
        bias: Option<Vec<f32>>,
        geo: ConvGeometry,
    },
}

/// A compiled, immutable inference plan for one [`SkyNet`]: one step per
/// topology node, with captured weights/epilogues, each under its node's
/// span. Built lazily on the first fused eval forward and cached until
/// the owner's weights can change (see `SkyNet::forward` /
/// `SkyNet::visit_params`).
pub struct ExecPlan {
    steps: Vec<(&'static str, Step)>,
}

impl std::fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExecPlan[{} steps]", self.steps.len())
    }
}

/// Captures one bundle's weights and epilogues as a fused step.
fn compile_bundle(net: &SkyNet, idx: usize) -> std::result::Result<Step, PlanError> {
    let (dw, bn1, act1, pw, bn2, act2) =
        skynet_bundle_parts(&net.bundles[idx], idx).map_err(PlanError)?;
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
    Ok(Step::Bundle(Box::new(FusedStep {
        dw_w: dw.weight().clone(),
        dw_geo: geo,
        bn1: ep(bn1, act1.kind().output_ceiling()),
        pw_w: pw.weight().clone(),
        bn2: ep(bn2, act2.kind().output_ceiling()),
    })))
}

impl ExecPlan {
    /// Builds the plan for a network: one step per topology node, with
    /// the bundles' weights and epilogues captured.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the network's structure does not
    /// match the fusable bundle shape (the caller falls back to the
    /// unfused path).
    pub fn build(net: &SkyNet) -> std::result::Result<ExecPlan, PlanError> {
        let steps = topology(net.cfg.variant)
            .map(|node| {
                let step = match node {
                    Node::Bundle(b) => compile_bundle(net, b)?,
                    Node::Pool(_) => Step::Pool,
                    Node::ReorgFork => Step::ReorgFork,
                    Node::Concat => Step::Concat,
                    Node::Head => Step::Head {
                        w: net.head.weight().clone(),
                        bias: net.head.bias_values().map(<[f32]>::to_vec),
                        geo: net.head.geometry(),
                    },
                };
                Ok((node.span(Walk::Fused), step))
            })
            .collect::<std::result::Result<_, PlanError>>()?;
        telemetry::counter("fusion.plan_builds").inc();
        Ok(ExecPlan { steps })
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
        for (span, step) in &self.steps {
            let _s = telemetry::span(span);
            cur = match step {
                Step::Bundle(f) => {
                    fused_bundle_forward(&cur, &f.dw_w, f.dw_geo, &f.bn1, &f.pw_w, &f.bn2)?
                }
                Step::Pool => maxpool2d(&cur, POOL_WINDOW)?.output,
                Step::ReorgFork => {
                    bypass = Some(reorg(&cur, REORG_BLOCK)?);
                    cur
                }
                Step::Concat => {
                    let by = bypass.take().expect("ReorgFork precedes Concat");
                    concat_channels(&cur, &by)?
                }
                Step::Head { w, bias, geo } => conv2d(&cur, w, bias.as_deref(), *geo)?,
            };
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skynet::{SkyNetConfig, Variant};
    use skynet_nn::Act;
    use skynet_tensor::rng::SkyRng;

    fn net(variant: Variant) -> SkyNet {
        let mut rng = SkyRng::new(3);
        let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16);
        SkyNet::new(cfg, &mut rng)
    }

    #[test]
    fn plan_builds_for_all_variants() {
        for v in [Variant::A, Variant::B, Variant::C] {
            let plan = ExecPlan::build(&net(v)).unwrap();
            assert_eq!(plan.steps.len(), topology(v).count(), "{v}");
            let fused = plan
                .steps
                .iter()
                .filter(|(span, step)| {
                    span.starts_with("fused.bundle") && matches!(step, Step::Bundle(_))
                })
                .count();
            assert_eq!(fused, if v == Variant::A { 5 } else { 6 }, "{v}");
        }
    }

    #[test]
    fn a_bundle_that_is_not_the_skynet_chain_is_rejected() {
        let mut m = net(Variant::C);
        m.bundles[3] = skynet_nn::Sequential::empty();
        let err = ExecPlan::build(&m).unwrap_err();
        assert!(err.to_string().contains("bundle 4"), "{err}");
    }
}

//! The **Bundle**: the hardware-aware basic block of the bottom-up design
//! flow (§4.1).
//!
//! From the software side a Bundle is a short sequence of DNN components
//! that is stacked repeatedly to form a network; from the hardware side it
//! is the set of IPs that must exist on the FPGA. Because a SkyNet-style
//! network uses a *single* Bundle type throughout, one shared set of IPs
//! can execute every layer — the property the FPGA mapping in `skynet-hw`
//! exploits.

use crate::desc::LayerDesc;
use skynet_nn::{Act, Activation, BatchNorm2d, Conv2d, DwConv2d, Layer, Sequential};
use skynet_tensor::{conv::ConvGeometry, rng::SkyRng};

/// One primitive component inside a Bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// 3×3 depth-wise convolution (keeps channel count).
    DwConv3,
    /// 5×5 depth-wise convolution (keeps channel count).
    DwConv5,
    /// 1×1 point-wise convolution (maps to the Bundle's output channels).
    PwConv1,
    /// 3×3 dense convolution (maps to the Bundle's output channels).
    Conv3,
    /// Batch normalization.
    Bn,
    /// ReLU activation.
    Relu,
    /// ReLU6 activation.
    Relu6,
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Component::DwConv3 => "DW-Conv3",
            Component::DwConv5 => "DW-Conv5",
            Component::PwConv1 => "PW-Conv1",
            Component::Conv3 => "Conv3",
            Component::Bn => "BN",
            Component::Relu => "ReLU",
            Component::Relu6 => "ReLU6",
        };
        write!(f, "{s}")
    }
}

/// A Bundle specification: an ordered list of components.
///
/// The winning SkyNet Bundle (§5.1) is
/// `[DW-Conv3, BN, ReLU6, PW-Conv1, BN, ReLU6]`, available as
/// [`BundleSpec::skynet`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BundleSpec {
    components: Vec<Component>,
}

impl BundleSpec {
    /// Creates a specification from a component list.
    ///
    /// # Panics
    ///
    /// Panics if the list contains no channel-mapping convolution
    /// (`PwConv1` or `Conv3`): such a Bundle could never change width and
    /// cannot build a useful backbone.
    pub fn new(components: Vec<Component>) -> Self {
        assert!(
            components
                .iter()
                .any(|c| matches!(c, Component::PwConv1 | Component::Conv3)),
            "a Bundle needs a channel-mapping convolution"
        );
        BundleSpec { components }
    }

    /// The Bundle selected by the paper's design flow:
    /// DW-Conv3 → BN → act → PW-Conv1 → BN → act, with the activation
    /// chosen by `act`.
    pub fn skynet(act: Act) -> Self {
        let a = match act {
            Act::Relu => Component::Relu,
            Act::Relu6 => Component::Relu6,
        };
        BundleSpec::new(vec![
            Component::DwConv3,
            Component::Bn,
            a,
            Component::PwConv1,
            Component::Bn,
            a,
        ])
    }

    /// Component list.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Human-readable name, e.g. `DW-Conv3+BN+ReLU6+PW-Conv1+BN+ReLU6`.
    pub fn describe(&self) -> String {
        self.components
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Instantiates the Bundle as a trainable layer chain mapping `in_c`
    /// to `out_c` channels.
    ///
    /// Channel semantics: depth-wise components keep the current width;
    /// the **first** channel-mapping convolution jumps to `out_c`; BN and
    /// activations follow the current width.
    pub fn build(&self, in_c: usize, out_c: usize, rng: &mut SkyRng) -> Sequential {
        let mut seq = Sequential::empty();
        let mut cur = in_c;
        for &comp in &self.components {
            match comp {
                Component::DwConv3 => {
                    seq.push(Box::new(DwConv2d::new(cur, ConvGeometry::same3x3(), rng)));
                }
                Component::DwConv5 => {
                    seq.push(Box::new(DwConv2d::new(
                        cur,
                        ConvGeometry::new(5, 1, 2),
                        rng,
                    )));
                }
                Component::PwConv1 => {
                    seq.push(Box::new(Conv2d::pointwise(cur, out_c, rng)));
                    cur = out_c;
                }
                Component::Conv3 => {
                    seq.push(Box::new(Conv2d::new_no_bias(
                        cur,
                        out_c,
                        ConvGeometry::same3x3(),
                        rng,
                    )));
                    cur = out_c;
                }
                Component::Bn => {
                    seq.push(Box::new(BatchNorm2d::new(cur)));
                }
                Component::Relu => {
                    seq.push(Box::new(Activation::new(Act::Relu)));
                }
                Component::Relu6 => {
                    seq.push(Box::new(Activation::new(Act::Relu6)));
                }
            }
        }
        seq
    }

    /// Abstract layer descriptors for the Bundle mapping `in_c → out_c`
    /// (for parameter/MAC counting and the hardware models).
    pub fn describe_layers(&self, in_c: usize, out_c: usize) -> Vec<LayerDesc> {
        let mut layers = Vec::with_capacity(self.components.len());
        let mut cur = in_c;
        for &comp in &self.components {
            layers.push(match comp {
                Component::DwConv3 => LayerDesc::DwConv {
                    c: cur,
                    k: 3,
                    s: 1,
                    p: 1,
                },
                Component::DwConv5 => LayerDesc::DwConv {
                    c: cur,
                    k: 5,
                    s: 1,
                    p: 2,
                },
                Component::PwConv1 => {
                    let l = LayerDesc::Conv {
                        in_c: cur,
                        out_c,
                        k: 1,
                        s: 1,
                        p: 0,
                    };
                    cur = out_c;
                    l
                }
                Component::Conv3 => {
                    let l = LayerDesc::Conv {
                        in_c: cur,
                        out_c,
                        k: 3,
                        s: 1,
                        p: 1,
                    };
                    cur = out_c;
                    l
                }
                Component::Bn => LayerDesc::Bn { c: cur },
                Component::Relu | Component::Relu6 => LayerDesc::Act { c: cur },
            });
        }
        layers
    }

    /// Parameter count of one Bundle instance mapping `in_c → out_c`.
    pub fn params(&self, in_c: usize, out_c: usize) -> usize {
        self.describe_layers(in_c, out_c)
            .iter()
            .map(|l| l.params())
            .sum()
    }
}

/// The six typed layers of a built [`BundleSpec::skynet`] chain, in
/// order: DW-Conv3, BN, act, PW-Conv1, BN, act.
pub(crate) type SkyNetBundleParts<'a> = (
    &'a DwConv2d,
    &'a BatchNorm2d,
    &'a Activation,
    &'a Conv2d,
    &'a BatchNorm2d,
    &'a Activation,
);

/// Downcasts bundle `idx` (0-based) into its six typed layers — the one
/// place the fused f32 plan and the INT8 engine learn what a built bundle
/// holds. The error names the first layer that does not fit.
pub(crate) fn skynet_bundle_parts(
    seq: &Sequential,
    idx: usize,
) -> Result<SkyNetBundleParts<'_>, String> {
    let mismatch =
        |what: String| format!("bundle {}: expected DW→BN→Act→PW→BN→Act, {what}", idx + 1);
    let layers = seq.layers();
    if layers.len() != 6 {
        return Err(mismatch(format!("found {} layers", layers.len())));
    }
    fn cast<T: 'static>(layer: &dyn Layer) -> Option<&T> {
        layer.as_any().and_then(|a| a.downcast_ref::<T>())
    }
    let is_not = |i: usize, ty: &str| mismatch(format!("layer {} is not {ty}", i + 1));
    Ok((
        cast(&*layers[0]).ok_or_else(|| is_not(0, "DwConv2d"))?,
        cast(&*layers[1]).ok_or_else(|| is_not(1, "BatchNorm2d"))?,
        cast(&*layers[2]).ok_or_else(|| is_not(2, "Activation"))?,
        cast(&*layers[3]).ok_or_else(|| is_not(3, "Conv2d"))?,
        cast(&*layers[4]).ok_or_else(|| is_not(4, "BatchNorm2d"))?,
        cast(&*layers[5]).ok_or_else(|| is_not(5, "Activation"))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_nn::{Layer, Mode};
    use skynet_tensor::{Shape, Tensor};

    #[test]
    fn skynet_bundle_structure() {
        let b = BundleSpec::skynet(Act::Relu6);
        assert_eq!(b.components().len(), 6);
        assert_eq!(b.describe(), "DW-Conv3+BN+ReLU6+PW-Conv1+BN+ReLU6");
    }

    #[test]
    fn built_bundle_maps_channels() {
        let mut rng = SkyRng::new(0);
        let mut seq = BundleSpec::skynet(Act::Relu6).build(48, 96, &mut rng);
        let x = Tensor::ones(Shape::new(1, 48, 4, 8));
        let y = seq.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), Shape::new(1, 96, 4, 8));
    }

    #[test]
    fn params_match_built_model() {
        let mut rng = SkyRng::new(0);
        let spec = BundleSpec::skynet(Act::Relu6);
        let mut seq = spec.build(48, 96, &mut rng);
        assert_eq!(seq.param_count(), spec.params(48, 96));
        // Hand count: DW 48·9 + BN 96 + PW 48·96 + BN 192.
        assert_eq!(spec.params(48, 96), 48 * 9 + 96 + 48 * 96 + 192);
    }

    #[test]
    #[should_panic(expected = "channel-mapping convolution")]
    fn bundle_without_mapping_conv_is_rejected() {
        let _ = BundleSpec::new(vec![Component::DwConv3, Component::Bn]);
    }

    #[test]
    fn relu_variant_uses_relu() {
        let b = BundleSpec::skynet(Act::Relu);
        assert!(b.describe().contains("ReLU"));
        assert!(!b.describe().contains("ReLU6"));
    }
}

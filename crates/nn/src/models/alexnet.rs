//! AlexNet (paper benchmark 3).
//!
//! Figures 10-11 and Table I of the paper analyze AlexNet layer by layer,
//! so the builder reproduces the published Caffe topology exactly:
//! 5 convolutions (conv1..conv5, with LRN after conv1/conv2 and max-pool
//! after conv1/conv2/conv5) followed by three fully-connected layers with
//! dropout. Counting the data (input) node, the graph has the 25 layers
//! the paper quotes for AlexNet.

use edgenn_tensor::Shape;

use crate::graph::Graph;
use crate::layer::{Dense, Dropout, Flatten, LocalResponseNorm, MaxPool2d, Relu, Softmax};
use crate::models::{ModelCtx, ModelScale};
use crate::Result;

/// Builds AlexNet.
pub(crate) fn build(scale: ModelScale) -> Result<Graph> {
    match scale {
        ModelScale::Paper => build_paper(),
        ModelScale::Tiny => build_tiny(),
    }
}

fn build_paper() -> Result<Graph> {
    let mut ctx = ModelCtx::new("AlexNet", Shape::new(&[3, 227, 227]), 0xA1E);
    ctx.conv_relu("conv1", 3, 96, 11, 4, 0)?; // 96x55x55
    ctx.push(LocalResponseNorm::alexnet_default("norm1"))?;
    ctx.push(MaxPool2d::new("pool1", 3, 2))?; // 96x27x27
    ctx.conv_relu("conv2", 96, 256, 5, 1, 2)?; // 256x27x27
    ctx.push(LocalResponseNorm::alexnet_default("norm2"))?;
    ctx.push(MaxPool2d::new("pool2", 3, 2))?; // 256x13x13
    ctx.conv_relu("conv3", 256, 384, 3, 1, 1)?;
    ctx.conv_relu("conv4", 384, 384, 3, 1, 1)?;
    ctx.conv_relu("conv5", 384, 256, 3, 1, 1)?;
    ctx.push(MaxPool2d::new("pool5", 3, 2))?; // 256x6x6
    ctx.push(Flatten::new("flatten"))?; // 9216
    let seed = ctx.next_seed();
    ctx.push(Dense::new("fc6", 9216, 4096, seed))?;
    ctx.push(Relu::new("fc6_relu"))?;
    ctx.push(Dropout::new("drop6"))?;
    let seed = ctx.next_seed();
    ctx.push(Dense::new("fc7", 4096, 4096, seed))?;
    ctx.push(Relu::new("fc7_relu"))?;
    ctx.push(Dropout::new("drop7"))?;
    let seed = ctx.next_seed();
    ctx.push(Dense::new("fc8", 4096, 1000, seed))?;
    ctx.push(Softmax::new("softmax"))?;
    ctx.finish()
}

fn build_tiny() -> Result<Graph> {
    let mut ctx = ModelCtx::new("AlexNet", Shape::new(&[3, 32, 32]), 0xA1E);
    ctx.conv_relu("conv1", 3, 8, 3, 1, 1)?; // 8x32x32
    ctx.push(LocalResponseNorm::alexnet_default("norm1"))?;
    ctx.push(MaxPool2d::new("pool1", 2, 2))?; // 8x16x16
    ctx.conv_relu("conv2", 8, 16, 3, 1, 1)?;
    ctx.push(LocalResponseNorm::alexnet_default("norm2"))?;
    ctx.push(MaxPool2d::new("pool2", 2, 2))?; // 16x8x8
    ctx.conv_relu("conv3", 16, 16, 3, 1, 1)?;
    ctx.conv_relu("conv4", 16, 16, 3, 1, 1)?;
    ctx.conv_relu("conv5", 16, 8, 3, 1, 1)?;
    ctx.push(MaxPool2d::new("pool5", 2, 2))?; // 8x4x4
    ctx.push(Flatten::new("flatten"))?; // 128
    let seed = ctx.next_seed();
    ctx.push(Dense::new("fc6", 128, 64, seed))?;
    ctx.push(Relu::new("fc6_relu"))?;
    ctx.push(Dropout::new("drop6"))?;
    let seed = ctx.next_seed();
    ctx.push(Dense::new("fc7", 64, 32, seed))?;
    ctx.push(Relu::new("fc7_relu"))?;
    ctx.push(Dropout::new("drop7"))?;
    let seed = ctx.next_seed();
    ctx.push(Dense::new("fc8", 32, 10, seed))?;
    ctx.push(Softmax::new("softmax"))?;
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;

    #[test]
    fn paper_alexnet_feature_map_sizes() {
        let g = build(ModelScale::Paper).unwrap();
        let shape_of = |name: &str| {
            g.nodes()
                .iter()
                .find(|n| n.layer().name() == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .output_shape()
                .dims()
                .to_vec()
        };
        assert_eq!(shape_of("conv1"), vec![96, 55, 55]);
        assert_eq!(shape_of("pool1"), vec![96, 27, 27]);
        assert_eq!(shape_of("conv2"), vec![256, 27, 27]);
        assert_eq!(shape_of("pool2"), vec![256, 13, 13]);
        assert_eq!(shape_of("conv5"), vec![256, 13, 13]);
        assert_eq!(shape_of("pool5"), vec![256, 6, 6]);
        assert_eq!(shape_of("flatten"), vec![9216]);
        assert_eq!(shape_of("fc8"), vec![1000]);
    }

    #[test]
    fn alexnet_mixes_conv_and_fc_flops() {
        // Figure 11's analysis depends on AlexNet having heavyweight conv
        // layers AND heavyweight fc layers; both should be substantial.
        let g = build(ModelScale::Paper).unwrap();
        let mut conv = 0u64;
        let mut fc = 0u64;
        for id in g.topo_order() {
            let node = g.node(id).unwrap();
            let shapes = g.input_shapes(id).unwrap();
            let flops = node.layer().workload(&shapes).map_or(0, |w| w.flops);
            match node.layer().class() {
                LayerClass::Conv => conv += flops,
                LayerClass::Fc => fc += flops,
                _ => {}
            }
        }
        assert!(conv > 1_000_000_000, "conv flops {conv}");
        assert!(fc > 100_000_000, "fc flops {fc}");
        // fc params dominate: the memory-bound behavior Figure 11 exploits.
        assert!(g.param_bytes() > 200_000_000);
    }
}

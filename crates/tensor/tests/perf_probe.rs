//! Manual perf probe for the dispatched kernels (not a CI gate).
//!
//! Run with:
//! `cargo test --release -p edgenn-tensor --test perf_probe -- --ignored --nocapture`
//! Optionally pin a variant with `EDGENN_SIMD=portable|avx2|avx512`.

use std::hint::black_box;
use std::time::Instant;

use edgenn_tensor::{
    conv_gemm_into, conv_qgemm_into, gemm_into, gemm_pack_a, kernel_arch, min_max, pool_into,
    qgemm_pack_a, qgemm_requant_into, quantize_into, row_sums, Conv2dGeometry, Epilogue, PoolKind,
    QTensor, QuantParams, Quantization, Requant, Tensor,
};

/// Rounds every probe is timed in.
const ROUNDS: usize = 3;

/// One timed kernel: how many timed calls a round makes of it, and the
/// call.
type Probe<'a> = (usize, Box<dyn FnMut() + 'a>);

/// Each probe's fastest median µs over [`ROUNDS`] rounds. A round times
/// every probe in turn (`samples / 10` untimed calls, then `samples`
/// timed ones), so a slow spell of the host lands on one round of
/// several probes rather than on every round of one.
fn best_medians_us(probes: &mut [Probe<'_>]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; probes.len()];
    for _ in 0..ROUNDS {
        for ((samples, call), best) in probes.iter_mut().zip(&mut best) {
            let mut ns: Vec<u64> = Vec::with_capacity(*samples);
            for i in 0..*samples + *samples / 10 {
                let t0 = Instant::now();
                call();
                if i >= *samples / 10 {
                    ns.push(t0.elapsed().as_nanos() as u64);
                }
            }
            ns.sort_unstable();
            *best = best.min(ns[ns.len() / 2] as f64 / 1e3);
        }
    }
    best
}

#[test]
#[ignore = "manual perf probe, prints timings"]
fn gemm_f32_vs_int8_throughput() {
    // VGG-ish deep conv shape: (out_c, in_c*3*3) x (k, out_h*out_w).
    let (m, k, n) = (256, 2304, 196);
    let w = Tensor::random(&[m, k], 1.0, 1);
    let x = Tensor::random(&[k, n], 1.0, 2);
    let (mut f32_out, mut int8_out) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);

    let qw = QTensor::quantize_per_channel(&w).unwrap();
    let Quantization::PerChannel(wp) = qw.quant().clone() else {
        unreachable!()
    };
    let w_scales: Vec<f32> = wp.iter().map(|p| p.scale).collect();
    let rsums = row_sums(qw.as_slice(), m, k);
    let act = QuantParams::from_min_max(-1.0, 1.0);
    let mut qx = vec![0i8; k * n];
    quantize_into(x.as_slice(), &mut qx, act);
    let rq = Requant {
        w_scales: &w_scales,
        act,
        row_sums: &rsums,
        bias: None,
        relu: false,
    };

    const SAMPLES: usize = 12;
    let us = best_medians_us(&mut [
        (
            SAMPLES,
            Box::new(|| gemm_into(w.as_slice(), x.as_slice(), &mut f32_out, m, k, n)),
        ),
        (
            SAMPLES,
            Box::new(|| qgemm_requant_into(qw.as_slice(), &qx, &mut int8_out, m, k, n, &rq)),
        ),
    ]);
    let (f32_us, int8_us) = (us[0], us[1]);
    let flops = 2.0 * (m * k * n) as f64;
    println!(
        "arch={} ({m}x{k}x{n}), fastest of {ROUNDS} rounds' medians of {SAMPLES} calls: \
         f32 {:.2} ms ({:.2} GFLOP/s) | int8 {:.2} ms ({:.2} Gop/s) | int8/f32 {:.2}x",
        kernel_arch().name(),
        f32_us / 1e3,
        flops / (f32_us * 1e3),
        int8_us / 1e3,
        flops / (int8_us * 1e3),
        f32_us / int8_us,
    );
}

/// One conv geometry of a Tiny model: the layers that run it, input
/// channels, input side, kernel, stride, padding, output channels.
type ConvLayer = (&'static str, usize, usize, usize, usize, usize, usize);

/// Tiny VGG-16's 13 convs (3x3, stride 1, pad 1).
const VGG: [ConvLayer; 13] = [
    ("conv1_1", 3, 32, 3, 1, 1, 4),
    ("conv1_2", 4, 32, 3, 1, 1, 4),
    ("conv2_1", 4, 16, 3, 1, 1, 8),
    ("conv2_2", 8, 16, 3, 1, 1, 8),
    ("conv3_1", 8, 8, 3, 1, 1, 8),
    ("conv3_2", 8, 8, 3, 1, 1, 8),
    ("conv3_3", 8, 8, 3, 1, 1, 8),
    ("conv4_1", 8, 4, 3, 1, 1, 16),
    ("conv4_2", 16, 4, 3, 1, 1, 16),
    ("conv4_3", 16, 4, 3, 1, 1, 16),
    ("conv5_1", 16, 2, 3, 1, 1, 16),
    ("conv5_2", 16, 2, 3, 1, 1, 16),
    ("conv5_3", 16, 2, 3, 1, 1, 16),
];

/// Tiny SqueezeNet's 9 conv geometries; the fire2 and fire3 expand
/// layers share theirs, so the model runs 11 convs.
const SQUEEZENET: [ConvLayer; 9] = [
    ("conv1", 3, 32, 3, 2, 1, 8),
    ("fire2_squeeze", 8, 8, 1, 1, 0, 4),
    ("fire2_e1 fire3_e1", 4, 8, 1, 1, 0, 8),
    ("fire2_e3 fire3_e3", 4, 8, 3, 1, 1, 8),
    ("fire3_squeeze", 16, 8, 1, 1, 0, 4),
    ("fire4_squeeze", 16, 4, 1, 1, 0, 8),
    ("fire4_e1", 8, 4, 1, 1, 0, 16),
    ("fire4_e3", 8, 4, 3, 1, 1, 16),
    ("conv10", 32, 4, 1, 1, 0, 10),
];

/// A square window's geometry: channels, input side, kernel, stride,
/// padding.
fn geometry(c: usize, hw: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: c,
        in_h: hw,
        in_w: hw,
        kernel_h: k,
        kernel_w: k,
        stride_h: s,
        stride_w: s,
        pad_h: p,
        pad_w: p,
    }
}

#[test]
#[ignore = "manual perf probe, prints timings"]
fn conv_layers_of_the_tiny_models() {
    // Each layer as the engine runs it: prepacked weights, bias and ReLU
    // in the epilogue, every output channel, the activation parameters
    // calibrated beforehand.
    const SAMPLES: usize = 20_000;
    println!(
        "arch={}, fastest of {ROUNDS} rounds' medians of {SAMPLES} calls",
        kernel_arch().name()
    );
    for (model, layers) in [("VGG-16", &VGG[..]), ("SqueezeNet", &SQUEEZENET[..])] {
        let mut probes: Vec<Probe<'_>> = Vec::new();
        for &(_, c, hw, k, s, p, m) in layers {
            let g = geometry(c, hw, k, s, p);
            let depth = c * k * k;
            let x = Tensor::random(&[c, hw, hw], 1.0, 1);
            let w = Tensor::random(&[m, depth], 0.5, 2);
            let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.01).collect();
            let len = m * g.out_h() * g.out_w();

            let packed = gemm_pack_a(w.as_slice(), m, depth);
            let (x32, bias32, mut out) = (x.clone(), bias.clone(), vec![0.0f32; len]);
            probes.push((
                SAMPLES,
                Box::new(move || {
                    let ep = Epilogue::BiasRelu { bias: &bias32 };
                    let x = black_box(x32.as_slice());
                    conv_gemm_into(x, &g, &packed, depth, &mut out, ep).unwrap();
                }),
            ));

            let qw = QTensor::quantize_per_channel(&w).unwrap();
            let Quantization::PerChannel(params) = qw.quant() else {
                unreachable!("per-channel weights")
            };
            let scales: Vec<f32> = params.iter().map(|p| p.scale).collect();
            let sums = row_sums(qw.as_slice(), m, depth);
            let awide = qgemm_pack_a(qw.as_slice(), m, depth, k * k);
            let (lo, hi) = min_max(x.as_slice());
            let act = QuantParams::from_min_max(lo, hi);
            let mut out = vec![0.0f32; len];
            probes.push((
                SAMPLES,
                Box::new(move || {
                    let rq = Requant {
                        w_scales: &scales,
                        act,
                        row_sums: &sums,
                        bias: Some(&bias),
                        relu: true,
                    };
                    let x = black_box(x.as_slice());
                    conv_qgemm_into(x, &g, &awide, 0..m, &mut out, &rq).unwrap();
                }),
            ));
        }
        let us = best_medians_us(&mut probes);
        let (mut f32_sum, mut int8_sum) = (0.0, 0.0);
        for (&(names, ..), us) in layers.iter().zip(us.chunks(2)) {
            let (f32_us, int8_us) = (us[0], us[1]);
            let runs = names.split(' ').count();
            println!("{model:<10} {names:<18} f32 {f32_us:7.2} us   int8 {int8_us:7.2} us");
            f32_sum += runs as f64 * f32_us;
            int8_sum += runs as f64 * int8_us;
        }
        println!(
            "{model:<10} {:<18} f32 {f32_sum:7.2} us   int8 {int8_sum:7.2} us",
            "sum"
        );
    }
}

/// One max pool: the model and layer, channels, input side, kernel,
/// stride, padding.
type PoolLayer = (
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// Every pool of the Tiny VGG-16, SqueezeNet, LeNet and AlexNet (all
/// 2x2 stride 2), then a paper-scale 3x3 stride-2 pool (AlexNet's
/// `pool1`) and a padded one (ResNet's `pool1`).
const POOLS: [PoolLayer; 17] = [
    ("VGG-16", "pool1", 4, 32, 2, 2, 0),
    ("VGG-16", "pool2", 8, 16, 2, 2, 0),
    ("VGG-16", "pool3", 8, 8, 2, 2, 0),
    ("VGG-16", "pool4", 16, 4, 2, 2, 0),
    ("VGG-16", "pool5", 16, 2, 2, 2, 0),
    ("SqueezeNet", "pool1", 8, 16, 2, 2, 0),
    ("SqueezeNet", "pool3", 16, 8, 2, 2, 0),
    ("LeNet", "pool1", 4, 14, 2, 2, 0),
    ("LeNet", "pool2", 8, 5, 2, 2, 0),
    ("AlexNet", "pool1", 8, 32, 2, 2, 0),
    ("AlexNet", "pool2", 16, 16, 2, 2, 0),
    ("AlexNet", "pool5", 8, 8, 2, 2, 0),
    ("AlexNet", "pool1 paper", 96, 55, 3, 2, 0),
    ("AlexNet", "pool2 paper", 256, 27, 3, 2, 0),
    ("SqueezeNet", "pool8 paper", 512, 13, 3, 2, 0),
    ("ResNet", "pool1 paper", 64, 112, 3, 2, 1),
    ("ResNet", "pool1 half", 64, 56, 3, 2, 1),
];

#[test]
#[ignore = "manual perf probe, prints timings"]
fn pool_layers_of_the_models() {
    // Each max pool as the engine runs it: every channel, `out`
    // overwritten. The paper-scale shapes take fewer samples.
    println!(
        "arch={}, fastest of {ROUNDS} rounds' median µs",
        kernel_arch().name()
    );
    let mut probes: Vec<Probe<'_>> = POOLS
        .iter()
        .map(|&(_, _, c, hw, k, s, p)| -> Probe<'_> {
            let g = geometry(c, hw, k, s, p);
            let x = Tensor::random(&[c, hw, hw], 1.0, 1);
            let mut out = vec![0.0f32; c * g.out_h() * g.out_w()];
            let samples = if c * hw * hw > 50_000 { 500 } else { 20_000 };
            let pool = move || {
                pool_into(black_box(x.as_slice()), &g, PoolKind::Max, &mut out).unwrap();
            };
            (samples, Box::new(pool))
        })
        .collect();
    let us = best_medians_us(&mut probes);
    for (&(model, name, c, hw, k, s, p), us) in POOLS.iter().zip(us) {
        println!("{model:<10} {name:<12} {c:>3}x{hw}x{hw} {k}/{s}/{p}  {us:8.3} us");
    }
}

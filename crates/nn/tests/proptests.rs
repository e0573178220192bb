//! Randomized (seeded, deterministic) tests for layer and graph invariants.
//!
//! These were originally property-based tests; they now draw cases from a
//! fixed-seed RNG so the suite is reproducible and dependency-free.

use std::ops::Range;

use edgenn_nn::graph::{compile, CompileOptions, GraphBuilder, Segment};
use edgenn_nn::layer::{
    AddResidual, AvgPool2d, BatchNorm2d, Concat, Conv2d, Dense, Dropout, Layer, LocalResponseNorm,
    MaxPool2d, Part, Relu, Slice,
};
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_tensor::{Shape, Tensor};
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

fn random_cuts(rng: &mut rand::rngs::StdRng, upper: usize) -> Vec<usize> {
    let n = rng.gen_range(0usize..3);
    (0..n).map(|_| rng.gen_range(1usize..upper)).collect()
}

/// Checks the merge invariant for an arbitrary set of cut points: each
/// share, written into its own sub-slice of one NaN-filled buffer, must
/// leave the buffer bit for bit equal to the full-range call — in f32
/// and int8, with the fused ReLU off and on.
fn check_merge(layer: &dyn Layer, inputs: &[&Tensor], cuts: &[usize]) {
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let units = layer.partition_units(&shapes).unwrap();
    let len = layer.output_shape(&shapes).unwrap().num_elements();
    let unit_len = len / units;

    let mut bounds: Vec<usize> = vec![0];
    bounds.extend(cuts.iter().map(|c| c % units).filter(|&c| c > 0));
    bounds.push(units);
    bounds.sort_unstable();
    bounds.dedup();

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for int8 in [false, true] {
        for relu in [false, true] {
            let part = |range| Part::Units { range, int8, relu };
            let mut full = vec![f32::NAN; len];
            layer
                .forward_into(inputs, part(0..units), &mut full)
                .unwrap();
            if !int8 && !relu {
                assert_eq!(full, layer.forward(inputs).unwrap().as_slice());
            }
            let mut merged = vec![f32::NAN; len];
            let mut rest = merged.as_mut_slice();
            for w in bounds.windows(2) {
                let range: Range<usize> = w[0]..w[1];
                let (share, tail) = rest.split_at_mut(range.len() * unit_len);
                layer.forward_into(inputs, part(range), share).unwrap();
                rest = tail;
            }
            assert_eq!(
                bits(&merged),
                bits(&full),
                "merge invariant broken for {} with bounds {bounds:?} (int8 {int8}, relu {relu})",
                layer.name()
            );
        }
    }
}

#[test]
fn conv_merge_invariant_over_random_geometry() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0001);
    let mut checked = 0usize;
    while checked < CASES {
        let in_c = rng.gen_range(1usize..4);
        let out_c = rng.gen_range(2usize..9);
        let hw = rng.gen_range(4usize..10);
        let k = rng.gen_range(1usize..4);
        let stride = rng.gen_range(1usize..3);
        let pad = rng.gen_range(0usize..2);
        let seed = rng.gen_range(0u64..500);
        let cuts = random_cuts(&mut rng, 64);
        if hw + 2 * pad < k {
            continue;
        }
        checked += 1;
        let conv = Conv2d::new("c", in_c, out_c, k, stride, pad, seed);
        let x = Tensor::random(&[in_c, hw, hw], 1.0, seed + 1);
        check_merge(&conv, &[&x], &cuts);
    }
}

#[test]
fn dense_merge_invariant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0002);
    for _ in 0..CASES {
        let inf = rng.gen_range(1usize..32);
        let outf = rng.gen_range(2usize..32);
        let seed = rng.gen_range(0u64..500);
        let cuts = random_cuts(&mut rng, 64);
        let dense = Dense::new("fc", inf, outf, seed);
        let x = Tensor::random(&[inf], 1.0, seed + 1);
        check_merge(&dense, &[&x], &cuts);
    }
}

#[test]
fn pool_and_norm_merge_invariants() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0003);
    for _ in 0..CASES {
        let c = rng.gen_range(2usize..8);
        let hw = rng.gen_range(4usize..10);
        let seed = rng.gen_range(0u64..500);
        let cuts = random_cuts(&mut rng, 64);
        let x = Tensor::random(&[c, hw, hw], 1.0, seed);
        check_merge(&MaxPool2d::new("mp", 2, 2), &[&x], &cuts);
        check_merge(&AvgPool2d::new("ap", 2, 1), &[&x], &cuts);
        check_merge(&Relu::new("r"), &[&x], &cuts);
        check_merge(&LocalResponseNorm::alexnet_default("lrn"), &[&x], &cuts);
        check_merge(&BatchNorm2d::new("bn", c, seed), &[&x], &cuts);
    }
}

#[test]
fn concat_merge_invariant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0004);
    for _ in 0..CASES {
        let c1 = rng.gen_range(1usize..5);
        let c2 = rng.gen_range(1usize..5);
        let hw = rng.gen_range(2usize..6);
        let seed = rng.gen_range(0u64..500);
        let cuts = random_cuts(&mut rng, 32);
        let a = Tensor::random(&[c1, hw, hw], 1.0, seed);
        let b = Tensor::random(&[c2, hw, hw], 1.0, seed + 1);
        check_merge(&Concat::new("cat", 2), &[&a, &b], &cuts);
    }
}

#[test]
fn random_chain_graphs_are_consistent() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0005);
    for _ in 0..CASES {
        let n_layers = rng.gen_range(1usize..5);
        let widths: Vec<usize> = (0..n_layers).map(|_| rng.gen_range(2usize..16)).collect();
        let seed = rng.gen_range(0u64..500);
        // Build a random MLP chain; forward twice must agree, and the
        // structure must decompose to a single chain covering every node.
        let input_dim = 8usize;
        let mut b = GraphBuilder::new("rand-mlp", Shape::new(&[input_dim]));
        let mut prev = b.input_id();
        let mut in_dim = input_dim;
        for (i, &w) in widths.iter().enumerate() {
            prev = b
                .add(
                    Dense::new(format!("fc{i}"), in_dim, w, seed + i as u64),
                    &[prev],
                )
                .unwrap();
            prev = b.add(Relu::new(format!("r{i}")), &[prev]).unwrap();
            in_dim = w;
        }
        let graph = b.finish().unwrap();
        let x = Tensor::random(&[input_dim], 1.0, seed);
        let y1 = graph.forward(&x).unwrap();
        let y2 = graph.forward(&x).unwrap();
        assert_eq!(&y1, &y2);
        assert_eq!(y1.dims(), &[*widths.last().unwrap()]);

        let s = graph.structure().unwrap();
        assert!(s.is_pure_chain());
        let covered: usize = s.segments().iter().map(|seg| seg.nodes().len()).sum();
        assert_eq!(covered, graph.len());
    }
}

#[test]
fn random_forkjoin_graphs_decompose() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0006);
    for _ in 0..CASES {
        let branch_a = rng.gen_range(1usize..4);
        let branch_b = rng.gen_range(1usize..4);
        let c = rng.gen_range(2usize..6);
        let seed = rng.gen_range(0u64..300);
        // input -> relu (fork) -> two relu chains -> concat.
        let mut b = GraphBuilder::new("rand-fork", Shape::new(&[c, 4, 4]));
        let fork = b.add(Relu::new("fork"), &[b.input_id()]).unwrap();
        let mut a_tip = fork;
        for i in 0..branch_a {
            a_tip = b.add(Relu::new(format!("a{i}")), &[a_tip]).unwrap();
        }
        let mut b_tip = fork;
        for i in 0..branch_b {
            b_tip = b.add(Relu::new(format!("b{i}")), &[b_tip]).unwrap();
        }
        let _ = b.add(Concat::new("join", 2), &[a_tip, b_tip]).unwrap();
        let graph = b.finish().unwrap();

        let s = graph.structure().unwrap();
        assert_eq!(s.parallel_segment_count(), 1);
        let parallel = s
            .segments()
            .iter()
            .find_map(|seg| match seg {
                Segment::Parallel { branches, .. } => Some(branches.clone()),
                _ => None,
            })
            .unwrap();
        let mut lens: Vec<usize> = parallel.iter().map(Vec::len).collect();
        lens.sort_unstable();
        let mut expected = vec![branch_a, branch_b];
        expected.sort_unstable();
        assert_eq!(lens, expected);

        // Functional execution still matches across runs.
        let x = Tensor::random(&[c, 4, 4], 1.0, seed);
        let y = graph.forward(&x).unwrap();
        assert_eq!(y.dims()[0], 2 * c);
    }
}

#[test]
fn compiled_random_dags_are_bitwise_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0008);
    for case in 0..CASES {
        let mut c = rng.gen_range(2usize..6);
        let hw = rng.gen_range(4usize..8);
        let seed = rng.gen_range(0u64..500);
        // Random DAGs built from the structures every compiler pass
        // rewrites: dropout identities, conv/dense + relu fusion
        // candidates, covering slice→concat round-trips, and residual
        // forks — compiled output must match the raw graph bit for bit.
        let mut b = GraphBuilder::new("rand-compile", Shape::new(&[c, hw, hw]));
        let mut tip = b.input_id();
        for i in 0..rng.gen_range(1usize..4) {
            match rng.gen_range(0u32..5) {
                0 => {
                    let out_c = rng.gen_range(2usize..6);
                    tip = b
                        .add(
                            Conv2d::new(format!("conv{i}"), c, out_c, 3, 1, 1, seed + i as u64),
                            &[tip],
                        )
                        .unwrap();
                    tip = b.add(Relu::new(format!("cr{i}")), &[tip]).unwrap();
                    c = out_c;
                }
                1 => {
                    tip = b.add(Dropout::new(format!("drop{i}")), &[tip]).unwrap();
                    tip = b.add(Relu::new(format!("dr{i}")), &[tip]).unwrap();
                }
                2 => {
                    // Redundant activation pair: the second ReLU is a
                    // no-op the fuser must leave semantically intact.
                    tip = b.add(Relu::new(format!("r{i}a")), &[tip]).unwrap();
                    tip = b.add(Relu::new(format!("r{i}b")), &[tip]).unwrap();
                }
                3 => {
                    // Covering slice pair re-joined in order: cancels to
                    // the producer under simplify-slices.
                    let m = rng.gen_range(1usize..c);
                    let lo = b.add(Slice::new(format!("slo{i}"), 0, m), &[tip]).unwrap();
                    let hi = b.add(Slice::new(format!("shi{i}"), m, c), &[tip]).unwrap();
                    tip = b.add(Concat::new(format!("cat{i}"), 2), &[lo, hi]).unwrap();
                }
                _ => {
                    tip = b
                        .add(AddResidual::new(format!("res{i}")), &[tip, tip])
                        .unwrap();
                    tip = b.add(Relu::new(format!("rr{i}")), &[tip]).unwrap();
                }
            }
        }
        let raw = b.finish().unwrap();
        let (compiled, report) = compile(&raw, &CompileOptions::default()).unwrap();
        assert!(
            compiled.len() <= raw.len(),
            "case {case}: compile grew the graph ({} -> {})",
            raw.len(),
            compiled.len()
        );
        assert_eq!(report.nodes_pre, raw.len());
        assert_eq!(report.nodes_post, compiled.len());

        let x = Tensor::random(raw.input_shape().dims(), 1.0, seed + 7);
        let want = raw.forward(&x).unwrap();
        let got = compiled.forward(&x).unwrap();
        assert_eq!(
            want.as_slice(),
            got.as_slice(),
            "case {case}: compiled output diverged bitwise"
        );

        // The pipeline runs to fixpoint: compiling the compiled graph
        // again must find nothing left to rewrite.
        let (again, re) = compile(&compiled, &CompileOptions::default()).unwrap();
        assert_eq!(again.len(), compiled.len(), "case {case}: not a fixpoint");
        assert_eq!(re.passes_applied(), 0, "case {case}: not a fixpoint");
    }
}

#[test]
fn compiled_models_are_bitwise_identical_over_random_inputs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11E_0009);
    for kind in ModelKind::ALL {
        let raw = build(kind, ModelScale::Tiny);
        let (compiled, report) = compile(&raw, &CompileOptions::default()).unwrap();
        assert!(
            compiled.len() < raw.len(),
            "{}: compiler removed nothing ({} nodes)",
            kind.name(),
            raw.len()
        );
        assert_eq!(report.nodes_post, compiled.len());
        for _ in 0..4 {
            let seed = rng.gen_range(0u64..10_000);
            let x = Tensor::random(raw.input_shape().dims(), 1.0, seed);
            let want = raw.forward(&x).unwrap();
            let got = compiled.forward(&x).unwrap();
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "{}: compiled output diverged bitwise (seed {seed})",
                kind.name()
            );
        }
    }
}

//! Randomized (seeded, deterministic) tests for tensor invariants.
//!
//! These were originally property-based tests; they now draw cases from a
//! fixed-seed RNG so the suite is reproducible and dependency-free.

use edgenn_tensor::{gemm, im2col, matvec, naive_gemm, Conv2dGeometry, Shape, Tensor};
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

fn small_dims(rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    let rank = rng.gen_range(1usize..=3);
    (0..rank).map(|_| rng.gen_range(1usize..6)).collect()
}

#[test]
fn reshape_roundtrip_preserves_tensor() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0001);
    for _ in 0..CASES {
        let dims = small_dims(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let t = Tensor::random(&dims, 1.0, seed);
        let flat = t.reshape(&[t.len()]).unwrap();
        let back = flat.reshape(&dims).unwrap();
        assert_eq!(back, t);
    }
}

#[test]
fn concat_of_axis0_runs_roundtrips() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0002);
    for _ in 0..CASES {
        let axis0 = rng.gen_range(1usize..12);
        let inner = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..1000);
        let cut_frac = rng.gen_range(0.0f64..1.0);
        let t = Tensor::random(&[axis0, inner], 1.0, seed);
        let cut = ((axis0 as f64 * cut_frac) as usize).clamp(1, axis0);
        // Row-major: the first `cut` axis-0 units are one contiguous run.
        let run = |lo: usize, hi: usize| {
            let data = t.as_slice()[lo * inner..hi * inner].to_vec();
            Tensor::from_vec(data, &[hi - lo, inner]).unwrap()
        };
        if cut == axis0 {
            // Degenerate split: a single full run must equal the tensor.
            assert_eq!(Tensor::concat_axis0(&[&run(0, axis0)]).unwrap(), t);
        } else {
            let merged = Tensor::concat_axis0(&[&run(0, cut), &run(cut, axis0)]).unwrap();
            assert_eq!(merged, t);
        }
    }
}

#[test]
fn offset_is_bijective_over_shape() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0003);
    for _ in 0..CASES {
        let dims = small_dims(&mut rng);
        let shape = Shape::new(&dims);
        let n = shape.num_elements();
        let mut seen = vec![false; n];
        // Enumerate all multi-indices and verify offsets cover 0..n uniquely.
        let mut index = vec![0usize; dims.len()];
        for _ in 0..n {
            let off = shape.offset(&index).unwrap();
            assert!(!seen[off], "offset {off} repeated");
            seen[off] = true;
            // increment multi-index (odometer).
            for axis in (0..dims.len()).rev() {
                index[axis] += 1;
                if index[axis] < dims[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }
}

#[test]
fn gemm_distributes_over_addition() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0004);
    for _ in 0..CASES {
        let m = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        let n = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..500);
        let a = Tensor::random(&[m, k], 1.0, seed);
        let b = Tensor::random(&[k, n], 1.0, seed + 1);
        let c = Tensor::random(&[k, n], 1.0, seed + 2);
        let lhs = gemm(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = gemm(&a, &b).unwrap().add(&gemm(&a, &c).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-4));
    }
}

#[test]
fn gemm_scales_linearly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0005);
    for _ in 0..CASES {
        let m = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..500);
        let s = rng.gen_range(-3.0f32..3.0);
        let a = Tensor::random(&[m, k], 1.0, seed);
        let b = Tensor::random(&[k, m], 1.0, seed + 9);
        let lhs = gemm(&a.scale(s), &b).unwrap();
        let rhs = gemm(&a, &b).unwrap().scale(s);
        assert!(lhs.approx_eq(&rhs, 1e-3));
    }
}

#[test]
fn matvec_agrees_with_gemm() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0006);
    for _ in 0..CASES {
        let m = rng.gen_range(1usize..6);
        let k = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..500);
        let a = Tensor::random(&[m, k], 1.0, seed);
        let x = Tensor::random(&[k], 1.0, seed + 77);
        let mv = matvec(&a, &x).unwrap();
        let mm = gemm(&a, &x.reshape(&[k, 1]).unwrap()).unwrap();
        assert!(mv.approx_eq(&mm.reshape(&[m]).unwrap(), 1e-4));
    }
}

#[test]
fn im2col_row_count_and_patch_sums() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0007);
    let mut checked = 0usize;
    while checked < CASES {
        let c = rng.gen_range(1usize..4);
        let hw = rng.gen_range(3usize..8);
        let k = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..200);
        if k > hw {
            continue;
        }
        checked += 1;
        let input = Tensor::random(&[c, hw, hw], 1.0, seed);
        let g = Conv2dGeometry {
            in_channels: c,
            in_h: hw,
            in_w: hw,
            kernel_h: k,
            kernel_w: k,
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
        };
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims()[0], c * k * k);
        assert_eq!(cols.dims()[1], g.out_h() * g.out_w());
        // Convolving with an all-ones kernel equals summing each patch; check
        // one output position against a direct window sum.
        let ones = Tensor::ones(&[1, c * k * k]);
        let sums = gemm(&ones, &cols).unwrap();
        let mut direct = 0.0f32;
        for ch in 0..c {
            for dy in 0..k {
                for dx in 0..k {
                    direct += input.get(&[ch, dy, dx]).unwrap();
                }
            }
        }
        assert!((sums.as_slice()[0] - direct).abs() < 1e-3);
    }
}

#[test]
fn tiled_gemm_matches_the_naive_oracle() {
    // Differential test for the cache-blocked GEMM: every case is checked
    // against the naive triple loop, with shapes steered at degenerate
    // and tile-boundary cases (k = 0, n = 1, non-multiples of MR/NR/KC).
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xED6E_0008);
    for case in 0..CASES {
        let (m, k, n) = match case % 8 {
            0 => (rng.gen_range(1usize..6), 0, rng.gen_range(1usize..6)),
            1 => (rng.gen_range(1usize..40), rng.gen_range(1usize..64), 1),
            2 => (1, rng.gen_range(1usize..64), rng.gen_range(1usize..40)),
            3 => (4, 32, 16),  // exact register-tile multiples
            4 => (5, 33, 17),  // every tile dimension off by one
            5 => (3, 300, 29), // k past the KC blocking threshold
            _ => (
                rng.gen_range(1usize..32),
                rng.gen_range(1usize..128),
                rng.gen_range(1usize..32),
            ),
        };
        let seed = rng.gen_range(0u64..1000);
        let a = Tensor::random(&[m, k], 1.0, seed);
        let b = Tensor::random(&[k, n], 1.0, seed.wrapping_add(1));
        let fast = gemm(&a, &b).unwrap();
        let slow = naive_gemm(&a, &b).unwrap();
        assert_eq!(fast.dims(), &[m, n]);
        // fp32 reassociation scales with the dot length; 1e-5 relative
        // to the largest accumulated magnitude.
        let scale = slow
            .as_slice()
            .iter()
            .fold(1.0f32, |acc, v| acc.max(v.abs()));
        let diff = fast.max_abs_diff(&slow).unwrap_or(0.0);
        assert!(
            diff <= 1e-5 * scale,
            "case {case}: {m}x{k}x{n} diff {diff} (scale {scale})"
        );
    }
}

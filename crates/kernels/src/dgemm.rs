//! Dense double-precision matrix multiply (the HPCC DGEMM kernel, the
//! update step of HPL, and the ScaLAPACK-style solver in the AORSA proxy).
//!
//! Row-major storage. The blocked kernel tiles for cache.

/// `C += A * B` — naive triple loop (test oracle and small-problem path).
pub fn dgemm_naive(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            let brow = &b[k * n..k * n + n];
            let crow = &mut c[i * n..i * n + n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
}

/// Cache-blocked `C += A * B` for square row-major matrices.
pub fn dgemm(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    const BLOCK: usize = 64;
    assert!(a.len() >= n * n && b.len() >= n * n && c.len() >= n * n);
    let mut i0 = 0;
    while i0 < n {
        let rows = BLOCK.min(n - i0);
        let cchunk = &mut c[i0 * n..(i0 + rows) * n];
        block_panel(n, i0, rows, a, b, cchunk);
        i0 += BLOCK;
    }
}

/// Update `rows` rows of C starting at global row `i0`.
fn block_panel(n: usize, i0: usize, rows: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    const BLOCK: usize = 64;
    let mut k0 = 0;
    while k0 < n {
        let kb = BLOCK.min(n - k0);
        let mut j0 = 0;
        while j0 < n {
            let jb = BLOCK.min(n - j0);
            for i in 0..rows {
                let arow = &a[(i0 + i) * n + k0..(i0 + i) * n + k0 + kb];
                for (dk, &aik) in arow.iter().enumerate() {
                    let k = k0 + dk;
                    let brow = &b[k * n + j0..k * n + j0 + jb];
                    let crow = &mut c[i * n + j0..i * n + j0 + jb];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aik * bv;
                    }
                }
            }
            j0 += BLOCK;
        }
        k0 += BLOCK;
    }
}

/// Flops credited to an N×N matrix multiply.
pub fn dgemm_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn blocked_matches_naive() {
        for n in [1usize, 2, 17, 64, 65, 130] {
            let a = random_matrix(n, 1);
            let b = random_matrix(n, 2);
            let mut c1 = vec![0.0; n * n];
            let mut c2 = vec![0.0; n * n];
            dgemm_naive(n, &a, &b, &mut c1);
            dgemm(n, &a, &b, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let n = 33;
        let a = random_matrix(n, 3);
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut c = vec![0.0; n * n];
        dgemm(n, &a, &eye, &mut c);
        for (x, y) in a.iter().zip(&c) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulates_into_c() {
        let n = 8;
        let a = random_matrix(n, 4);
        let b = random_matrix(n, 5);
        let mut c = vec![1.0; n * n];
        let mut expect = vec![1.0; n * n];
        dgemm(n, &a, &b, &mut c);
        dgemm_naive(n, &a, &b, &mut expect);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(dgemm_flops(100), 2.0e6);
    }
}

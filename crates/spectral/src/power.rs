//! Power iteration with deflation — the method the paper names.
//!
//! "The eigenvalues were computed using the power iteration method in
//! existing solvers" (Section IV-B). We keep this textbook implementation
//! as the cross-check for [`crate::lanczos_topk`] and as an ablation bench:
//! it extracts one eigenpair at a time and deflates it from the operator,
//! so its cost grows as `O(k² n + k · iters · E)` and it is only practical
//! for modest `k`.

use crate::laplacian::SymLaplacian;
use rand::Rng;

/// Top-`k` eigenvalues of the Laplacian by power iteration with
/// Hotelling deflation, in descending order.
///
/// Each eigenpair is iterated until the Rayleigh quotient moves less than
/// `tol` or `max_iter` sweeps elapse.
pub fn power_iteration_topk<R: Rng + ?Sized>(
    op: &SymLaplacian,
    k: usize,
    tol: f64,
    max_iter: usize,
    rng: &mut R,
) -> Vec<f64> {
    let n = op.dim();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let mut found: Vec<(f64, Vec<f64>)> = Vec::with_capacity(k);
    let mut w = vec![0.0f64; n];

    for _ in 0..k {
        let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
        orthogonalize(&mut v, &found);
        if !normalize(&mut v) {
            break; // space exhausted
        }
        let mut lambda = 0.0f64;
        for _ in 0..max_iter {
            op.matvec_into(&v, &mut w);
            // Deflate: w -= Σ λ_i q_i (q_iᵀ v) — equivalent to iterating
            // (L − Σ λ_i q_i q_iᵀ).
            for (l_i, q_i) in &found {
                let c = dot(q_i, &v) * *l_i;
                if c != 0.0 {
                    for i in 0..n {
                        w[i] -= c * q_i[i];
                    }
                }
            }
            // Also hard-orthogonalize to fight drift.
            orthogonalize(&mut w, &found);
            let new_lambda = dot(&w, &v);
            let nw = norm(&w);
            if nw < 1e-14 {
                lambda = new_lambda;
                break;
            }
            for i in 0..n {
                v[i] = w[i] / nw;
            }
            if (new_lambda - lambda).abs() < tol * lambda.abs().max(1.0) {
                lambda = new_lambda;
                break;
            }
            lambda = new_lambda;
        }
        found.push((lambda.max(0.0), v.clone()));
    }

    let mut ev: Vec<f64> = found.into_iter().map(|(l, _)| l).collect();
    ev.sort_by(|a, b| b.partial_cmp(a).expect("NaN eigenvalue"));
    ev
}

fn orthogonalize(v: &mut [f64], basis: &[(f64, Vec<f64>)]) {
    for (_, q) in basis {
        let c = dot(v, q);
        if c != 0.0 {
            for i in 0..v.len() {
                v[i] -= c * q[i];
            }
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn normalize(a: &mut [f64]) -> bool {
    let n = norm(a);
    if n < 1e-14 {
        return false;
    }
    for x in a.iter_mut() {
        *x /= n;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanczos::lanczos_topk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_graph::builder::from_edges;
    use vnet_graph::GraphBuilder;

    #[test]
    fn star_top_eigenvalue() {
        let n = 20u32;
        let mut b = GraphBuilder::new(n);
        for leaf in 1..n {
            b.add_edge(0, leaf).unwrap();
        }
        let g = b.build();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let ev = power_iteration_topk(&l, 1, 1e-12, 5000, &mut rng);
        assert!((ev[0] - n as f64).abs() < 1e-6, "got {}", ev[0]);
    }

    #[test]
    fn agrees_with_lanczos_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut b = GraphBuilder::new(40);
        for _ in 0..150 {
            let u = rng.random_range(0..40u32);
            let v = rng.random_range(0..40u32);
            if u != v {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let l = SymLaplacian::from_digraph(&g);
        let power = power_iteration_topk(&l, 4, 1e-13, 20_000, &mut rng);
        let lanc = lanczos_topk(&l, 4, 40, &mut rng, &vnet_ctx::AnalysisCtx::quiet());
        for (p, q) in power.iter().zip(&lanc) {
            assert!((p - q).abs() < 1e-4, "power {p} vs lanczos {q}");
        }
    }

    #[test]
    fn path_spectrum_descending() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(13);
        let ev = power_iteration_topk(&l, 5, 1e-13, 20_000, &mut rng);
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
        // λmax of P5 = 4 sin²(4π/10) ≈ 3.618.
        assert!((ev[0] - 3.618_033_988).abs() < 1e-5, "got {}", ev[0]);
    }

    #[test]
    fn empty_and_zero_k() {
        let g = vnet_graph::DiGraph::empty(4);
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(14);
        assert!(power_iteration_topk(&l, 0, 1e-10, 100, &mut rng).is_empty());
        let ev = power_iteration_topk(&l, 2, 1e-10, 100, &mut rng);
        // Edgeless graph: all eigenvalues zero.
        for &x in &ev {
            assert!(x.abs() < 1e-9);
        }
    }
}

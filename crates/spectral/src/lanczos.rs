//! Lanczos iteration with partial reorthogonalization.
//!
//! In floating point the Lanczos vectors drift away from orthogonal as
//! Ritz values converge, and the tridiagonal matrix then grows ghost
//! copies of the converged eigenvalues. Reorthogonalizing against the
//! whole basis at every step prevents that, at `O(m² n)`. It is also more
//! than needed: a *semi-orthogonal* basis, every overlap below `√ε`,
//! already gives Ritz values as accurate as a fully orthogonal one.
//!
//! Partial reorthogonalization (Simon 1984, "The Lanczos algorithm with
//! partial reorthogonalization", *Math. Comp.* 42) keeps the basis there.
//! It carries an `O(j)`-per-step recurrence estimate `ω` of how far each
//! new vector has drifted from orthogonal, and sweeps the vector against
//! the basis only when the largest estimate passes `√ε`, and on the step
//! after. A sweep is classical Gram–Schmidt, with a second pass only when
//! the first shrinks the vector below `1/√2` of its norm (Daniel, Gragg,
//! Kaufman & Stewart 1976, the "DGKS" test) or when the residual was at
//! rounding level, below `√ε‖T‖`, to begin with.
//!
//! Each sweep runs in `ROW_CHUNK`-row tasks, the matvec's decomposition.
//! Task `t` sums its rows' share of every coefficient in row order, the
//! shares are added in task order on the caller's thread, and each task
//! then subtracts the projections from its rows in basis order. The
//! decomposition depends on `n` alone, so every bit is the same at any
//! thread count.
//!
//! Both phases of a pass stream the basis, so both take it `DOT_BLOCK`
//! vectors at a time: the dot phase runs that many independent sums per
//! pass over a task's rows, and the update phase loads each row once,
//! subtracts the block's products in basis order and stores it once,
//! instead of once per vector. Per row these are the operations of one
//! pass per vector, in the same order, so the bits are those too.
//!
//! Every matvec and sweep runs on the context's pool. At the default tier
//! (n 18,062: five row tasks, 450 matvecs and 158 sweeps, about a
//! thousand forks of a few milliseconds each per call) a 2-core host ran
//! `lanczos_topk` in 1.09–1.33 s on one thread and 0.68–0.71 s on two
//! while idle, and in 1.12–1.20 s against 0.89–1.21 s while another
//! process kept one core busy (three runs each). A fork wakes parked
//! helpers rather than spawning threads, and the caller runs any lane a
//! helper has not started, so a busy core costs the pooled iteration
//! about what it costs the serial one. A core taken from under a helper
//! that has started its lane is another matter: the caller waits for the
//! lane. While the host's other tenants took about a tenth of its cycles,
//! two threads took 1.8–2.4 s against 1.7–1.9 s on one.

use std::f64::consts::FRAC_1_SQRT_2;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::laplacian::{SymLaplacian, ROW_CHUNK};
use crate::tridiag::tridiag_eigenvalues;
use rand::Rng;
use vnet_ctx::{AnalysisCtx, ScratchArena};
use vnet_par::{ParPool, ParStats};

/// The `ε` of the orthogonality estimates.
const EPS: f64 = f64::EPSILON;

/// `√ε = 2⁻²⁶`: the semi-orthogonality level whose crossing triggers a
/// sweep.
const SQRT_EPS: f64 = 1.0 / 67_108_864.0;

/// Basis vectors that share one pass over a task's rows, in both phases
/// of a sweep. The dot phase's add chains are independent, so the products
/// overlap; the update phase loads and stores each row once per block.
const DOT_BLOCK: usize = 8;

/// Below this residual norm the Krylov space is exhausted.
const RESTART_TOL: f64 = 1e-12;

/// Approximate the largest `k` eigenvalues of the Laplacian with `steps`
/// Lanczos iterations (partial reorthogonalization), returned in
/// *descending* order.
///
/// `steps` should comfortably exceed `k` (a 2–3× margin is typical); it is
/// clamped to the operator dimension, in which case the Ritz values are
/// exact eigenvalues up to the tridiagonal tolerance.
///
/// The basis is kept semi-orthogonal (see the module docs), which rules
/// out the ghost eigenvalues that matter here: the power-law fit of
/// Section IV-B is on the eigenvalue *distribution*, and spurious
/// duplicates would bias the tail weight. The cost is `O(m·E)` for the
/// `m = steps` matvecs plus `O(s·m·n)` for the `s` sweeps; `s` depends on
/// the spectrum, about a third of the steps on the follow graphs here.
/// Only the `k` kept Ritz values are bisected.
///
/// The canonical context-taking entrypoint: the operator application (see
/// [`SymLaplacian::matvec_into_pool`]) and the sweeps run on the context's
/// pool in `ROW_CHUNK`-row tasks, so an operator of at most 4,096 rows is
/// one task and runs on the caller's thread (see the module docs for the
/// default tier's walls). The row tasks' layout depends on `n` alone and
/// every reduction runs in a fixed order, so the Ritz values are **bitwise
/// identical** at any thread count. Work counters
/// (`algo.lanczos.*`), par accounting (stage `lanczos`) and the walls of
/// the matvecs, the reorthogonalization and the tridiagonal solve (stages
/// `lanczos.matvec`, `lanczos.reorth`, `lanczos.tridiag`) land on the
/// context's observability handle.
pub fn lanczos_topk<R: Rng + ?Sized>(
    op: &SymLaplacian,
    k: usize,
    steps: usize,
    rng: &mut R,
    ctx: &AnalysisCtx,
) -> Vec<f64> {
    let started = Instant::now();
    let m = if k == 0 { 0 } else { steps.max(k).min(op.dim()) };
    let mut run = krylov(op, m, rng, ctx.pool(), ctx.scratch());
    // Recycle the basis; the bounded arena keeps what fits.
    for q in run.basis.drain(..) {
        ctx.scratch().put_f64(q);
    }
    let solve = Instant::now();
    let mut ev = tridiag_eigenvalues(&run.alpha, &run.beta, k, 1e-10);
    let tridiag = solve.elapsed();
    ev.reverse(); // descending
    // Laplacian eigenvalues are nonnegative; clip tiny negatives from
    // bisection tolerance.
    for x in &mut ev {
        if *x < 0.0 && *x > -1e-8 {
            *x = 0.0;
        }
    }

    let obs = ctx.obs();
    obs.set_counter("algo.lanczos.matvecs", &[], run.stats.matvecs);
    obs.set_counter("algo.lanczos.reorth_projections", &[], run.stats.reorth_projections);
    obs.set_counter("algo.lanczos.sweeps", &[], run.stats.sweeps);
    obs.set_counter("algo.lanczos.restarts", &[], run.stats.restarts);
    ctx.record_par("lanczos", &run.par);
    for (stage, wall) in [
        ("lanczos.matvec", run.matvec_wall),
        ("lanczos.reorth", run.reorth_wall),
        ("lanczos.tridiag", tridiag),
        ("lanczos", started.elapsed()),
    ] {
        ctx.observe_par_wall(stage, wall.as_micros() as u64);
    }
    ev
}

/// Work counters from a Lanczos run, for observability manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanczosStats {
    /// Operator applications (`matvec_into` calls).
    pub matvecs: u64,
    /// Basis-vector projections removed during reorthogonalization (those
    /// with a nonzero coefficient).
    pub reorth_projections: u64,
    /// Steps whose new vector was swept against the basis.
    pub sweeps: u64,
    /// Invariant-subspace restarts with a fresh random direction.
    pub restarts: u64,
}

/// What one Lanczos run leaves: the tridiagonal `T` (diagonal `alpha`,
/// `beta[i]` coupling `q_i` and `q_{i+1}`), the basis it was built on, and
/// the run's accounting.
#[derive(Default)]
struct Krylov {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    basis: Vec<Vec<f64>>,
    stats: LanczosStats,
    par: ParStats,
    matvec_wall: Duration,
    reorth_wall: Duration,
}

/// `m` Lanczos steps from a random unit start vector drawn from `rng`.
fn krylov<R: Rng + ?Sized>(
    op: &SymLaplacian,
    m: usize,
    rng: &mut R,
    pool: &ParPool,
    scratch: &ScratchArena,
) -> Krylov {
    let mut run = Krylov::default();
    let n = op.dim();
    if m == 0 {
        return run;
    }

    // All dense working vectors (the iterate, the mat-vec target, and each
    // basis vector) come from the scratch arena and are filled before use,
    // so reuse is invisible to numerics. Everything else the step loop
    // touches is allocated here, once.
    let mut v = scratch.take_f64(n);
    for x in v.iter_mut() {
        *x = rng.random::<f64>() - 0.5;
    }
    normalize(&mut v);
    let mut w = scratch.take_f64(n);
    let mut sweeper = Sweeper::new(n, m);
    run.basis.reserve(m);
    run.alpha.reserve(m);
    run.beta.reserve(m);
    // Simon's ω rows for q_{j−1}, q_j and q_{j+1}: `row[i]` estimates the
    // overlap with q_i, and `row[row's own index]` is 1.
    let mut prev = vec![0.0; m];
    let mut cur = vec![0.0; m];
    let mut next = vec![0.0; m];
    cur[0] = 1.0;
    // Running estimate of ‖T‖, the scale of the local rounding error.
    let mut t_norm = 0.0f64;
    // Sweep this step because the previous one triggered.
    let mut force = false;

    for j in 0..m {
        let mut snapshot = scratch.take_f64(n);
        snapshot.copy_from_slice(&v);
        run.basis.push(snapshot);
        let t = Instant::now();
        run.par.merge(op.matvec_into_pool(&v, &mut w, pool));
        run.matvec_wall += t.elapsed();
        run.stats.matvecs += 1;
        let a = dot(&w, &v);
        run.alpha.push(a);
        // w -= a v + beta_{j-1} v_{j-1}
        for i in 0..n {
            w[i] -= a * v[i];
        }
        let b_prev = if j > 0 { run.beta[j - 1] } else { 0.0 };
        if j > 0 {
            let v_prev = &run.basis[j - 1];
            for i in 0..n {
                w[i] -= b_prev * v_prev[i];
            }
        }
        if j + 1 == m {
            break;
        }

        let t = Instant::now();
        let mut b = norm(&w);
        t_norm = t_norm.max(a.abs() + b + b_prev);
        let lost = b > 0.0 && {
            // The local term: the rounding of this step's matvec and
            // three-term update, relative to the new coupling.
            let psi = EPS * n as f64 * t_norm / b;
            omega_step(&mut next, &cur, &prev, &run.alpha, &run.beta, b, psi) > SQRT_EPS
        };
        if force || lost {
            // A residual below √ε‖T‖ is mostly rounding. One pass leaves
            // it about as far from orthogonal as the basis vectors are from
            // each other (up to √ε), not at the ε its reset row claims; the
            // second pass closes that gap.
            let breakdown = b < SQRT_EPS * t_norm;
            run.stats.reorth_projections += sweeper.pass(&mut w, &run.basis, pool, &mut run.par);
            let first = b;
            b = norm(&w);
            if breakdown || b < first * FRAC_1_SQRT_2 {
                run.stats.reorth_projections +=
                    sweeper.pass(&mut w, &run.basis, pool, &mut run.par);
                b = norm(&w);
            }
            run.stats.sweeps += 1;
            reset_row(&mut next, j);
            force = !force;
        }
        if b < RESTART_TOL {
            // Invariant subspace exhausted: restart with a fresh random
            // direction orthogonal to the current basis. The previous
            // iterate is already snapshotted into `basis`, so `v` can be
            // overwritten in place.
            run.stats.restarts += 1;
            for x in v.iter_mut() {
                *x = rng.random::<f64>() - 0.5;
            }
            for _ in 0..2 {
                sweeper.pass(&mut v, &run.basis, pool, &mut run.par);
            }
            let fb = norm(&v);
            if fb < RESTART_TOL {
                break; // space exhausted (n small)
            }
            for x in &mut v {
                *x /= fb;
            }
            run.beta.push(0.0);
            reset_row(&mut next, j);
        } else {
            run.beta.push(b);
            for (x, &wx) in v.iter_mut().zip(w.iter()) {
                *x = wx / b;
            }
        }
        run.reorth_wall += t.elapsed();
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut cur, &mut next);
    }

    scratch.put_f64(v);
    scratch.put_f64(w);
    run
}

/// Simon's recurrence for the overlaps `ω_{j+1,i} ≈ q_{j+1} · q_i` of the
/// next basis vector, from the rows of `q_j` (`cur`) and `q_{j−1}`
/// (`prev`). `alpha` holds `α_0..=α_j`, `beta[i]` couples `q_i` and
/// `q_{i+1}` for `i < j`, `b` is the new coupling and `psi` the local
/// term `ω_{j+1,j}`. Writes `next[..=j+1]` and returns the largest
/// estimate off the diagonal.
fn omega_step(
    next: &mut [f64],
    cur: &[f64],
    prev: &[f64],
    alpha: &[f64],
    beta: &[f64],
    b: f64,
    psi: f64,
) -> f64 {
    let j = alpha.len() - 1;
    let mut worst = psi;
    for i in 0..j {
        let mut t = beta[i] * cur[i + 1] + (alpha[i] - alpha[j]) * cur[i] - beta[j - 1] * prev[i];
        if i > 0 {
            t += beta[i - 1] * cur[i - 1];
        }
        // The step's rounding, ε(β_{i+1} + β_{j+1}), taken to push the
        // overlap further the way it already leans.
        t += (EPS * (beta[i] + b)).copysign(t);
        next[i] = t / b;
        worst = worst.max(next[i].abs());
    }
    next[j] = psi;
    next[j + 1] = 1.0;
    worst
}

/// The ω row of a vector at index `j + 1` that was just made orthogonal
/// to `q_0..=q_j`: every overlap back to `ε`.
fn reset_row(row: &mut [f64], j: usize) {
    row[..=j].fill(EPS);
    row[j + 1] = 1.0;
}

/// Classical Gram–Schmidt against the basis in `ROW_CHUNK`-row tasks on
/// the pool. Its buffers are sized for the full basis once per call.
struct Sweeper {
    /// Task `t`'s share of every coefficient, at `t * stride..`.
    partials: Vec<f64>,
    /// The coefficients of the current pass.
    coef: Vec<f64>,
}

impl Sweeper {
    fn new(n: usize, m: usize) -> Self {
        Self { partials: vec![0.0; n.div_ceil(ROW_CHUNK) * m], coef: vec![0.0; m] }
    }

    /// One pass, `x -= Σ_i (q_i · x) q_i` with every coefficient taken
    /// from the same `x`. Returns how many coefficients were nonzero.
    fn pass(&mut self, x: &mut [f64], basis: &[Vec<f64>], pool: &ParPool, par: &mut ParStats) -> u64 {
        let len = basis.len();
        let stride = self.coef.len();
        let n = x.len();
        let shared: &[f64] = x;
        par.merge(pool.for_each_chunk_mut(&mut self.partials, stride, |t, _, share| {
            let rows = t * ROW_CHUNK..((t + 1) * ROW_CHUNK).min(n);
            partial_dots(&mut share[..len], basis, shared, rows);
        }));
        let coef = &mut self.coef[..len];
        coef.copy_from_slice(&self.partials[..len]);
        for share in self.partials.chunks(stride).skip(1) {
            for (c, &s) in coef.iter_mut().zip(share) {
                *c += s;
            }
        }
        let coef: &[f64] = coef;
        par.merge(pool.for_each_chunk_mut(x, ROW_CHUNK, |_, offset, chunk| {
            subtract_projections(chunk, basis, coef, offset);
        }));
        coef.iter().filter(|&&c| c != 0.0).count() as u64
    }
}

/// `x[r] -= Σ_i coef[i] · q_i[offset + r]` for every row of `x`, each
/// row's products subtracted in basis order. `DOT_BLOCK` vectors share
/// one pass over the rows: a row is loaded once, has the block's products
/// subtracted and is stored once. A zero coefficient is skipped, not
/// subtracted (its `±0.0` product could flip a `-0.0` entry's sign), so a
/// block that holds one, like the last partial block, goes vector by
/// vector.
fn subtract_projections(x: &mut [f64], basis: &[Vec<f64>], coef: &[f64], offset: usize) {
    let rows = offset..offset + x.len();
    for (qs, cs) in basis.chunks(DOT_BLOCK).zip(coef.chunks(DOT_BLOCK)) {
        if qs.len() == DOT_BLOCK && cs.iter().all(|&c| c != 0.0) {
            let qs: [&[f64]; DOT_BLOCK] = std::array::from_fn(|i| &qs[i][rows.clone()]);
            let cs: [f64; DOT_BLOCK] = std::array::from_fn(|i| cs[i]);
            for (r, y) in x.iter_mut().enumerate() {
                let mut v = *y;
                for (q, &c) in qs.iter().zip(&cs) {
                    v -= c * q[r];
                }
                *y = v;
            }
        } else {
            for (q, &c) in qs.iter().zip(cs) {
                if c != 0.0 {
                    for (y, &qy) in x.iter_mut().zip(&q[rows.clone()]) {
                        *y -= c * qy;
                    }
                }
            }
        }
    }
}

/// `out[i] = Σ_{r ∈ rows} q_i[r] · x[r]` for every basis vector `q_i`,
/// each sum accumulated in row order from zero. `DOT_BLOCK` vectors share
/// one pass over the rows.
fn partial_dots(out: &mut [f64], basis: &[Vec<f64>], x: &[f64], rows: Range<usize>) {
    let x = &x[rows.clone()];
    for (qs, out) in basis.chunks(DOT_BLOCK).zip(out.chunks_mut(DOT_BLOCK)) {
        if qs.len() == DOT_BLOCK {
            let qs: [&[f64]; DOT_BLOCK] = std::array::from_fn(|i| &qs[i][rows.clone()]);
            let mut acc = [0.0f64; DOT_BLOCK];
            for (r, &xr) in x.iter().enumerate() {
                for (a, q) in acc.iter_mut().zip(&qs) {
                    *a += q[r] * xr;
                }
            }
            out.copy_from_slice(&acc);
        } else {
            for (o, q) in out.iter_mut().zip(qs) {
                *o = q[rows.clone()].iter().zip(x).fold(0.0, |acc, (&qr, &xr)| acc + qr * xr);
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

fn normalize(a: &mut [f64]) {
    let n = norm(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_graph::builder::from_edges;
    use vnet_graph::GraphBuilder;

    /// The update phase the block kernel replaced, kept as its reference:
    /// one pass over `x` per basis vector, in basis order, skipping zero
    /// coefficients.
    fn subtract_per_vector(x: &mut [f64], basis: &[Vec<f64>], coef: &[f64]) {
        for (q, &c) in basis.iter().zip(coef) {
            if c != 0.0 {
                for (y, &qy) in x.iter_mut().zip(q) {
                    *y -= c * qy;
                }
            }
        }
    }

    /// A signed zero: `-0.0` or `0.0`.
    fn signed_zero(rng: &mut StdRng) -> f64 {
        if rng.random::<bool>() {
            -0.0
        } else {
            0.0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The block update through the pass's row tasks leaves every entry
        /// with the bits of the per-vector loop: partial and whole blocks,
        /// several row tasks, coefficients of either zero sign in random
        /// lanes, and rows whose `-0.0` survives only while every product
        /// subtracted from it is a zero.
        #[test]
        fn block_update_matches_the_per_vector_loop_bit_for_bit(
            m in 0usize..41,
            n in 0usize..(2 * ROW_CHUNK + 18),
            seed in 0u64..u64::MAX,
            zero_odds in 0u32..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let zero_rows: Vec<bool> = (0..n).map(|_| rng.random_range(0..8) == 0).collect();
            let basis: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    zero_rows
                        .iter()
                        .map(|&z| if z { signed_zero(&mut rng) } else { rng.random::<f64>() - 0.5 })
                        .collect()
                })
                .collect();
            let coef: Vec<f64> = (0..m)
                .map(|_| match zero_odds {
                    1 if rng.random_range(0..16) == 0 => signed_zero(&mut rng),
                    2 if rng.random::<bool>() => signed_zero(&mut rng),
                    _ => rng.random::<f64>() - 0.5,
                })
                .collect();
            let x: Vec<f64> = zero_rows
                .iter()
                .map(|&z| if z || rng.random_range(0..8) == 0 { -0.0 } else { rng.random::<f64>() - 0.5 })
                .collect();
            let mut want = x.clone();
            subtract_per_vector(&mut want, &basis, &coef);
            let mut got = x;
            ParPool::new(2).for_each_chunk_mut(&mut got, ROW_CHUNK, |_, offset, chunk| {
                subtract_projections(chunk, &basis, &coef, offset);
            });
            let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&got) == bits(&want), "m={} n={}", m, n);
        }
    }

    #[test]
    fn path_graph_full_spectrum() {
        // Undirected path P4 Laplacian eigenvalues: 2 - 2cos(kπ/4)... i.e.
        // 4 sin²(kπ/8): {0, 0.586, 2, 3.414}.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let ev = lanczos_topk(&l, 4, 4, &mut rng, &AnalysisCtx::quiet());
        let expect = [3.414_213_562, 2.0, 0.585_786_437, 0.0];
        for (got, want) in ev.iter().zip(expect) {
            assert!((got - want).abs() < 1e-6, "got {got} want {want}");
        }
    }

    #[test]
    fn complete_graph_spectrum() {
        // K5 Laplacian: eigenvalue n=5 with multiplicity 4, and 0.
        let n = 5u32;
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        let g = b.build();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let ev = lanczos_topk(&l, 5, 5, &mut rng, &AnalysisCtx::quiet());
        for &x in &ev[..4] {
            assert!((x - 5.0).abs() < 1e-6, "got {x}");
        }
        assert!(ev[4].abs() < 1e-6);
    }

    #[test]
    fn star_graph_top_eigenvalue() {
        // Star K_{1,n-1}: λ_max = n.
        let n = 30u32;
        let mut b = GraphBuilder::new(n);
        for leaf in 1..n {
            b.add_edge(0, leaf).unwrap();
        }
        let g = b.build();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let ev = lanczos_topk(&l, 3, 25, &mut rng, &AnalysisCtx::quiet());
        assert!((ev[0] - n as f64).abs() < 1e-6, "λmax={} want {n}", ev[0]);
        // The middle of the spectrum is all 1's for a star.
        assert!((ev[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn topk_truncates_and_descends() {
        let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)])
            .unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let ev = lanczos_topk(&l, 3, 8, &mut rng, &AnalysisCtx::quiet());
        assert_eq!(ev.len(), 3);
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn eigenvalues_bounded_by_two_dmax() {
        let g = from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (1, 2)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(6);
        let ev = lanczos_topk(&l, 7, 7, &mut rng, &AnalysisCtx::quiet());
        for &x in &ev {
            assert!(x >= -1e-9 && x <= 2.0 * l.max_degree() + 1e-9);
        }
    }

    #[test]
    fn disconnected_graph_multiple_zero_eigenvalues() {
        // Two disjoint undirected edges → two zero eigenvalues.
        let g = from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let ev = lanczos_topk(&l, 4, 4, &mut rng, &AnalysisCtx::quiet());
        // Spectrum: {2, 2, 0, 0}
        assert!((ev[0] - 2.0).abs() < 1e-6);
        assert!((ev[1] - 2.0).abs() < 1e-6);
        assert!(ev[2].abs() < 1e-6);
        assert!(ev[3].abs() < 1e-6);
    }

    /// A graph whose operator has three row tasks per matvec and per
    /// sweep pass, so the sweeps' coefficient shares really are summed
    /// across tasks.
    fn three_task_graph() -> vnet_graph::DiGraph {
        let n = 2 * ROW_CHUNK as u32 + 1_000;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i * 17 + 3) % n), (i, (i + 1) % n), (i, (i * i + 7) % n)])
            .filter(|(a, b)| a != b)
            .collect();
        from_edges(n, &edges).unwrap()
    }

    #[test]
    fn pool_ritz_values_bitwise_equal_serial_across_thread_counts() {
        // Equal bits of T mean equal Ritz values.
        let g = three_task_graph();
        let l = SymLaplacian::from_digraph(&g);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(11);
            let t = krylov(&l, 80, &mut rng, &ParPool::new(threads), &ScratchArena::new());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (t.stats, bits(&t.alpha), bits(&t.beta))
        };
        let reference = run(1);
        assert!(reference.0.sweeps > 0, "no sweep to compare");
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn lanczos_topk_runs_on_the_context_pool_with_serial_bits_and_counts() {
        let g = three_task_graph();
        let l = SymLaplacian::from_digraph(&g);
        let run = |threads: usize| {
            let obs = vnet_obs::Obs::new();
            let ctx = AnalysisCtx::from_obs(ParPool::new(threads), &obs);
            let mut rng = StdRng::seed_from_u64(11);
            let ritz: Vec<u64> =
                lanczos_topk(&l, 20, 80, &mut rng, &ctx).iter().map(|x| x.to_bits()).collect();
            let metrics = obs.metrics();
            let work = [
                "algo.lanczos.matvecs",
                "algo.lanczos.reorth_projections",
                "algo.lanczos.sweeps",
            ]
            .map(|name| metrics.counter(name, &[]));
            (ritz, work, metrics.counter("par.tasks", &[("stage", "lanczos")]))
        };
        let reference = run(1);
        assert_eq!(reference.0.len(), 20);
        assert!(reference.1[2] > 0, "no sweep to compare");
        assert!(reference.2 > 80, "par.tasks {}", reference.2);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn small_tier_basis_stays_semi_orthogonal() {
        // The eigen section's shape at the quick preset: k 100, 160 steps,
        // the start vector drawn from the section's seed.
        let ds = verified_net::Dataset::build(
            &verified_net::SynthesisConfig::small(),
            &AnalysisCtx::quiet(),
        );
        let l = SymLaplacian::from_digraph(&ds.graph);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let run = krylov(&l, 160, &mut rng, &ParPool::serial(), &ScratchArena::new());
        assert_eq!(run.basis.len(), 160);
        assert!(run.stats.sweeps > 0 && run.stats.sweeps < 160, "sweeps {}", run.stats.sweeps);
        let mut worst = 0.0f64;
        for (i, q) in run.basis.iter().enumerate() {
            for p in &run.basis[..i] {
                worst = worst.max(dot(q, p).abs());
            }
        }
        assert!(worst <= SQRT_EPS, "max |q_i · q_j| = {worst:e}");
    }

    #[test]
    fn empty_inputs() {
        let (g, g2) = (vnet_graph::DiGraph::empty(0), vnet_graph::DiGraph::empty(3));
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(lanczos_topk(&l, 5, 10, &mut rng, &AnalysisCtx::quiet()).is_empty());
        let l2 = SymLaplacian::from_digraph(&g2);
        assert!(lanczos_topk(&l2, 0, 10, &mut rng, &AnalysisCtx::quiet()).is_empty());
    }
}

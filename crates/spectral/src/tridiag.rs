//! Eigenvalues of symmetric tridiagonal matrices by Sturm-sequence
//! bisection.
//!
//! This is the inner solver of the Lanczos pipeline: Lanczos reduces the
//! huge sparse Laplacian to a small tridiagonal `T`, whose eigenvalues
//! (Ritz values) approximate the extremal Laplacian spectrum. Bisection on
//! the Sturm count is slower than QL but is branch-free to reason about,
//! unconditionally stable, and extracts *only* the largest `k` values —
//! exactly what the power-law fit needs. Each index is bisected
//! independently, so a value does not depend on how many others are
//! asked for.
//!
//! The Sturm recurrence is a chain of dependent divisions, so one index at
//! a time waits on the divider's latency at every row. The kept indices
//! are therefore bisected `LANES` at a time: one pass over `(a, b)`
//! advances `LANES` independent recurrences, each lane with its own
//! bracket and the same stopping rule. Every lane performs exactly the
//! IEEE operations a lone bisection of its index would.

/// Indices bisected together; each pass over `T` runs this many
/// independent Sturm recurrences.
const LANES: usize = 8;

/// Number of eigenvalues of the symmetric tridiagonal matrix
/// (diagonal `a`, off-diagonal `b`, `b.len() == a.len() − 1`) that are
/// strictly less than `x`, via the LDLᵀ Sturm recurrence.
pub fn sturm_count(a: &[f64], b: &[f64], x: f64) -> usize {
    sturm_counts(a, b, [x])[0]
}

/// [`sturm_count`] at every shift of `x`, in one pass over the rows.
fn sturm_counts<const L: usize>(a: &[f64], b: &[f64], x: [f64; L]) -> [usize; L] {
    debug_assert!(b.len() + 1 == a.len() || a.is_empty());
    let mut count = [0usize; L];
    let mut d = [1.0f64; L];
    for i in 0..a.len() {
        let off2 = if i == 0 { 0.0 } else { b[i - 1] * b[i - 1] };
        for l in 0..L {
            d[l] = a[i] - x[l] - if d[l] != 0.0 { off2 / d[l] } else { off2 / 1e-300 };
            count[l] += usize::from(d[l] < 0.0);
        }
    }
    count
}

/// The `k` largest eigenvalues of the symmetric tridiagonal `(a, b)` in
/// ascending order (all of them when `k >= a.len()`), each located by
/// bisection to absolute tolerance `tol`.
pub fn tridiag_eigenvalues(a: &[f64], b: &[f64], k: usize, tol: f64) -> Vec<f64> {
    let n = a.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let (lo, hi) = gershgorin(a, b, tol);
    let first = n.saturating_sub(k);
    let mut ev = Vec::with_capacity(n - first);
    for start in (first..n).step_by(LANES) {
        let lanes = LANES.min(n - start);
        ev.extend_from_slice(&bisect_group(a, b, start, lanes, lo, hi, tol)[..lanes]);
    }
    ev
}

/// Gershgorin bounds on the spectrum of `(a, b)`, widened by `tol`.
fn gershgorin(a: &[f64], b: &[f64], tol: f64) -> (f64, f64) {
    let n = a.len();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let r = if i == 0 { 0.0 } else { b[i - 1].abs() }
            + if i + 1 < n { b[i].abs() } else { 0.0 };
        lo = lo.min(a[i] - r);
        hi = hi.max(a[i] + r);
    }
    (lo - tol, hi + tol)
}

/// The eigenvalues of 0-based indices `first..first + lanes` (`lanes` at
/// most `LANES`), lane `l` bisecting index `first + l` on the Sturm count
/// within `[lo, hi]`; the lanes past `lanes` stay idle.
///
/// A lane stops at width `tol`, or earlier once its `lo` and `hi` are
/// adjacent floats: past `|x| ≈ 2⁵² · tol` their gap exceeds `tol`, the
/// midpoint rounds onto an endpoint, and neither bound would move again.
fn bisect_group(
    a: &[f64],
    b: &[f64],
    first: usize,
    lanes: usize,
    lo: f64,
    hi: f64,
    tol: f64,
) -> [f64; LANES] {
    let mut lo = [lo; LANES];
    let mut hi = [hi; LANES];
    let mut mid = lo;
    let mut live: [bool; LANES] = std::array::from_fn(|l| l < lanes);
    loop {
        for l in 0..LANES {
            if live[l] {
                mid[l] = 0.5 * (lo[l] + hi[l]);
                // Negated, not `mid > lo && mid < hi`: a NaN midpoint is
                // bisected on, as the one-index loop does.
                live[l] = hi[l] - lo[l] > tol && !(mid[l] <= lo[l] || mid[l] >= hi[l]);
            }
        }
        if !live.contains(&true) {
            break;
        }
        let counts = sturm_counts(a, b, mid);
        for l in 0..LANES {
            if live[l] {
                if counts[l] > first + l {
                    hi[l] = mid[l];
                } else {
                    lo[l] = mid[l];
                }
            }
        }
    }
    std::array::from_fn(|l| 0.5 * (lo[l] + hi[l]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-index bisection the grouped lanes replaced, kept as their
    /// reference: the `k`-th smallest eigenvalue (0-based) via bisection on
    /// the Sturm count within `[lo, hi]`, with the same stopping rule.
    fn bisect_kth(a: &[f64], b: &[f64], k: usize, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if sturm_count(a, b, mid) > k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every kept value of the grouped bisection has the bits of a lone
        /// bisection of its index: random tridiagonals, some split by zero
        /// couplings; small-integer ones, whose shifts land exactly on a
        /// pivot (the recurrence's `d == 0` guard); and ones shifted past
        /// `2⁵² · tol`, whose brackets end as adjacent floats.
        #[test]
        fn grouped_bisection_matches_one_index_at_a_time_bit_for_bit(
            n in 1usize..48,
            seed in 0u64..u64::MAX,
            kind in 0u32..3,
            zero_odds in 0u32..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |width: f64| match kind {
                0 => f64::from(rng.random_range(-3i32..4)),
                _ => (rng.random::<f64>() - 0.5) * width,
            };
            let shift = if kind == 1 { 6e5 } else { 0.0 };
            let a: Vec<f64> = (0..n).map(|_| shift + draw(8.0)).collect();
            let mut b: Vec<f64> = (1..n).map(|_| draw(4.0)).collect();
            for x in b.iter_mut().filter(|_| zero_odds > 0 && rng.random_range(0..4 * zero_odds) == 0) {
                *x = 0.0;
            }
            let tol = 1e-10;
            let (lo, hi) = gershgorin(&a, &b, tol);
            for k in [1, 7, 8, 9, 17, n] {
                let want: Vec<f64> =
                    (n.saturating_sub(k)..n).map(|i| bisect_kth(&a, &b, i, lo, hi, tol)).collect();
                prop_assert_eq!(bits(&tridiag_eigenvalues(&a, &b, k, tol)), bits(&want), "k={}", k);
            }
        }
    }

    #[test]
    fn grouped_lanes_stop_on_adjacent_floats_like_one_index() {
        // Nine values near 6e5, where neighbouring floats are 1.16e-10
        // apart, more than the tolerance: no bracket can narrow to `tol`,
        // so every lane of the full group of eight and of the group of one
        // ends on two adjacent floats, as a lone bisection does.
        let a = [6e5, 6e5 + 3.0, 6e5 - 2.0, 6e5, 6e5 + 1.0, 6e5, 6e5 - 5.0, 6e5, 6e5 + 4.0];
        let b = [1.0, 0.0, 0.5, 2.0, 0.0, 1.5, 0.25, 1.0];
        let (tol, n) = (1e-10, a.len());
        let (lo, hi) = gershgorin(&a, &b, tol);
        let want: Vec<f64> = (0..n).map(|i| bisect_kth(&a, &b, i, lo, hi, tol)).collect();
        assert_eq!(bits(&tridiag_eigenvalues(&a, &b, n, tol)), bits(&want));
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let a = [3.0, 1.0, 2.0];
        let b = [0.0, 0.0];
        let ev = tridiag_eigenvalues(&a, &b, a.len(), 1e-12);
        assert!((ev[0] - 1.0).abs() < 1e-9);
        assert!((ev[1] - 2.0).abs() < 1e-9);
        assert!((ev[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_by_two_closed_form() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let ev = tridiag_eigenvalues(&[2.0, 2.0], &[1.0], 2, 1e-12);
        assert!((ev[0] - 1.0).abs() < 1e-9);
        assert!((ev[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn path_laplacian_spectrum() {
        // Laplacian of the n-path has eigenvalues 2 - 2 cos(k π / n)... for
        // the path graph: 4 sin²(kπ / (2n)), k = 0..n-1.
        let n = 6usize;
        let a: Vec<f64> = (0..n)
            .map(|i| if i == 0 || i == n - 1 { 1.0 } else { 2.0 })
            .collect();
        let b = vec![-1.0; n - 1];
        let ev = tridiag_eigenvalues(&a, &b, a.len(), 1e-12);
        for (k, &lambda) in ev.iter().enumerate() {
            let expect = 4.0 * (k as f64 * std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
            assert!((lambda - expect).abs() < 1e-8, "k={k}: {lambda} vs {expect}");
        }
    }

    #[test]
    fn sturm_count_monotone() {
        let a = [2.0, 2.0, 2.0, 2.0];
        let b = [-1.0, -1.0, -1.0];
        let mut prev = 0;
        for i in 0..40 {
            let x = -1.0 + i as f64 * 0.2;
            let c = sturm_count(&a, &b, x);
            assert!(c >= prev, "count must be nondecreasing in x");
            prev = c;
        }
        assert_eq!(sturm_count(&a, &b, 100.0), 4);
        assert_eq!(sturm_count(&a, &b, -100.0), 0);
    }

    #[test]
    fn top_k_matches_the_tail_of_the_full_solve_bit_for_bit() {
        let n = 40;
        let a: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 3.5).collect();
        let b: Vec<f64> = (0..n - 1).map(|i| ((i * 13) % 7) as f64 * 0.3 - 0.8).collect();
        let full = tridiag_eigenvalues(&a, &b, n, 1e-10);
        for k in [1, 7, n] {
            let top = tridiag_eigenvalues(&a, &b, k, 1e-10);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&top), bits(&full[n - k..]), "k={k}");
        }
        assert_eq!(tridiag_eigenvalues(&a, &b, n + 5, 1e-10).len(), n);
        assert!(tridiag_eigenvalues(&a, &b, 0, 1e-10).is_empty());
    }

    #[test]
    fn bisection_stops_when_the_bracket_is_adjacent_floats() {
        // Near 6e5 neighbouring floats are 1.16e-10 apart, more than the
        // tolerance, so a width test alone never ends. Run on a thread so
        // a regression fails the test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(tridiag_eigenvalues(&[6e5, 6e5], &[1.0], 2, 1e-10));
        });
        let ev = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("bisection returns within 2 s");
        assert!((ev[0] - (6e5 - 1.0)).abs() < 1e-9, "{}", ev[0]);
        assert!((ev[1] - (6e5 + 1.0)).abs() < 1e-9, "{}", ev[1]);
    }

    #[test]
    fn empty_matrix() {
        assert!(tridiag_eigenvalues(&[], &[], 3, 1e-12).is_empty());
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = [5.0, -1.0, 3.0, 0.5, 2.0];
        let b = [1.5, -0.3, 2.0, 0.7];
        let ev = tridiag_eigenvalues(&a, &b, a.len(), 1e-11);
        for w in ev.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        // Trace check: sum of eigenvalues equals trace.
        let trace: f64 = a.iter().sum();
        let sum: f64 = ev.iter().sum();
        assert!((trace - sum).abs() < 1e-7, "trace {trace} vs sum {sum}");
    }
}

//! User categorization from bios ("User Categorization" is one of the
//! paper's index terms).
//!
//! Section IV-E reads professional themes out of the bios and concludes
//! that journalism dominates the verified elite. This module turns that
//! reading into a measurement: classify every user by bio keywords
//! (`vnet_textmine::categorize`), then profile each category's size and
//! reach — quantifying "being a pre-eminent journalist ... seems to be one
//! of the surest ways to get verified".

use crate::dataset::Dataset;
use serde::Serialize;
use std::time::Instant;
use vnet_ctx::AnalysisCtx;
use vnet_textmine::categorize_bio;

/// Profiles per classification task of [`category_analysis`].
const PROFILE_CHUNK: usize = 1_024;

/// Size and reach profile of one user category.
#[derive(Debug, Clone, Serialize)]
pub struct CategoryProfile {
    /// Category label.
    pub category: String,
    /// Members.
    pub count: usize,
    /// Share of all users.
    pub share: f64,
    /// Mean global follower count.
    pub mean_followers: f64,
    /// Mean in-degree inside the verified sub-graph.
    pub mean_internal_in_degree: f64,
    /// Mean lifetime statuses.
    pub mean_statuses: f64,
}

/// Category analysis results.
#[derive(Debug, Clone, Serialize)]
pub struct CategoryReport {
    /// Profiles sorted by membership, descending.
    pub profiles: Vec<CategoryProfile>,
    /// Combined share of news-adjacent categories (journalist +
    /// media-outlet) — the paper's dominant theme.
    pub news_share: f64,
}

/// Classify every user's bio and aggregate per-category statistics.
///
/// The bios are classified in tasks of `PROFILE_CHUNK` (1,024) profiles on
/// the context's pool (par stage `categories`); the sums then run over the
/// profiles in order on the caller's thread, so every mean has the same
/// bits at any thread count.
pub fn category_analysis(dataset: &Dataset, ctx: &AnalysisCtx) -> CategoryReport {
    use std::collections::HashMap;
    struct Acc {
        count: usize,
        followers: f64,
        in_degree: f64,
        statuses: f64,
    }
    let started = Instant::now();
    let (labels, par) = ctx.pool().map_reduce_chunks(
        dataset.profiles.len(),
        PROFILE_CHUNK,
        |_, range| {
            dataset.profiles[range]
                .iter()
                .map(|p| categorize_bio(&p.bio).label())
                .collect::<Vec<_>>()
        },
        Vec::with_capacity(dataset.profiles.len()),
        |mut labels, chunk| {
            labels.extend(chunk);
            labels
        },
    );
    ctx.record_par("categories", &par);
    ctx.observe_par_wall("categories", started.elapsed().as_micros() as u64);

    let mut acc: HashMap<&'static str, Acc> = HashMap::new();
    for ((v, p), label) in dataset.profiles.iter().enumerate().zip(labels) {
        let e = acc.entry(label).or_insert(Acc { count: 0, followers: 0.0, in_degree: 0.0, statuses: 0.0 });
        e.count += 1;
        e.followers += p.followers_count as f64;
        e.in_degree += dataset.graph.in_degree(v as u32) as f64;
        e.statuses += p.statuses_count as f64;
    }
    let total: usize = dataset.profiles.len();
    let mut profiles: Vec<CategoryProfile> = acc
        .into_iter()
        .map(|(label, a)| CategoryProfile {
            category: label.to_string(),
            count: a.count,
            share: a.count as f64 / total.max(1) as f64,
            mean_followers: a.followers / a.count.max(1) as f64,
            mean_internal_in_degree: a.in_degree / a.count.max(1) as f64,
            mean_statuses: a.statuses / a.count.max(1) as f64,
        })
        .collect();
    profiles.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.category.cmp(&b.category)));
    let news_share = profiles
        .iter()
        .filter(|p| p.category == "journalist" || p.category == "media-outlet")
        .map(|p| p.share)
        .sum();
    CategoryReport { profiles, news_share }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthesisConfig;
    use crate::Dataset;

    #[test]
    fn journalism_dominates_as_in_the_paper() {
        let ctx = AnalysisCtx::quiet();
        let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
        let r = category_analysis(&ds, &ctx);
        let total: usize = r.profiles.iter().map(|p| p.count).sum();
        assert_eq!(total, ds.profiles.len());
        // News-adjacent categories carry a large share (generator prior:
        // journalists 24% + outlets 13%, classifier is noisy but close).
        assert!(r.news_share > 0.15, "news share {}", r.news_share);
        // Journalist is among the top-3 categories by membership.
        let top3: Vec<&str> =
            r.profiles.iter().take(3).map(|p| p.category.as_str()).collect();
        assert!(top3.contains(&"journalist"), "top3: {top3:?}");
        // Shares sum to one.
        let share_sum: f64 = r.profiles.iter().map(|p| p.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }
}

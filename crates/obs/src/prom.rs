//! Prometheus text exposition (version 0.0.4) for metric snapshots.
//!
//! The snapshot's canonical keys (`name{k1=v1,k2=v2}`, labels sorted)
//! are already Prometheus-shaped; this module parses them back apart,
//! mangles names into the Prometheus charset, escapes label values, and
//! renders families in a fixed order so the output is byte-deterministic
//! for a given snapshot:
//!
//! * counter families first, then gauges, then histograms;
//! * families sorted by mangled name within each section;
//! * series within a family in canonical (sorted-label) key order.
//!
//! Families are grouped by *parsed name*, not by map adjacency: `{`
//! (0x7B) sorts after every lowercase letter, so in the raw `BTreeMap`
//! the unlabelled series `serve_requests` and `serve_requests{shard=a}`
//! can straddle an unrelated key — naive adjacency grouping would emit a
//! family twice, which Prometheus rejects.

use std::collections::BTreeMap;

use crate::metrics::{HistogramSnapshot, Registry};

/// Render a metrics snapshot as Prometheus text exposition.
pub fn render_prometheus(registry: &Registry) -> String {
    render_parts(&registry.counters, &registry.gauges, &registry.histograms)
}

/// Render already-snapshotted maps (the serve layer snapshots once and
/// filters before rendering).
pub fn render_parts(
    counters: &BTreeMap<String, u64>,
    gauges: &BTreeMap<String, f64>,
    histograms: &BTreeMap<String, HistogramSnapshot>,
) -> String {
    let mut out = String::new();
    for (name, series) in group_families(counters.iter().map(|(k, v)| (k.as_str(), v))) {
        out.push_str("# TYPE ");
        out.push_str(&name);
        out.push_str(" counter\n");
        for (labels, value) in series {
            out.push_str(&name);
            out.push_str(&labels);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
    }
    for (name, series) in group_families(gauges.iter().map(|(k, v)| (k.as_str(), v))) {
        out.push_str("# TYPE ");
        out.push_str(&name);
        out.push_str(" gauge\n");
        for (labels, value) in series {
            out.push_str(&name);
            out.push_str(&labels);
            out.push(' ');
            out.push_str(&format_value(*value));
            out.push('\n');
        }
    }
    for (name, series) in group_families(histograms.iter().map(|(k, v)| (k.as_str(), v))) {
        out.push_str("# TYPE ");
        out.push_str(&name);
        out.push_str(" histogram\n");
        for (labels, snapshot) in series {
            render_histogram(&mut out, &name, &labels, snapshot);
        }
    }
    out
}

/// Group canonical-keyed series into `mangled name → [(rendered label
/// block, value)]`, preserving canonical series order within a family.
fn group_families<'a, V>(
    series: impl Iterator<Item = (&'a str, V)>,
) -> BTreeMap<String, Vec<(String, V)>> {
    let mut families: BTreeMap<String, Vec<(String, V)>> = BTreeMap::new();
    for (key, value) in series {
        let (name, labels) = split_key(key);
        families
            .entry(mangle_name(name))
            .or_default()
            .push((render_labels(labels, None), value));
    }
    families
}

/// Split a canonical key into `(name, [(k, v)])`.
fn split_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(brace) = key.find('{') else {
        return (key, Vec::new());
    };
    let name = &key[..brace];
    let body = key[brace + 1..].strip_suffix('}').unwrap_or(&key[brace + 1..]);
    let labels = body
        .split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .collect();
    (name, labels)
}

/// Mangle a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other byte becomes `_`.
fn mangle_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render a label block `{k="v",…}`, optionally appending an extra
/// (`le`) pair; empty when there are no labels at all.
fn render_labels(labels: Vec<(&str, &str)>, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.into_iter().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&mangle_name(k));
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Format a float sample value. Integral values drop the fraction (the
/// shortest round-trippable form, matching common exporters).
fn format_value(v: f64) -> String {
    v.to_string()
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    // Re-split the rendered label block so the `le` pair can be merged;
    // cheaper to thread the raw pairs through, but this path is cold.
    let base = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}')).unwrap_or("");
    let mut cumulative = 0u64;
    for (i, bound) in h.bounds.iter().enumerate() {
        cumulative += h.counts.get(i).copied().unwrap_or(0);
        push_bucket(out, name, base, &format_value(*bound), cumulative);
    }
    push_bucket(out, name, base, "+Inf", h.count);
    out.push_str(name);
    out.push_str("_sum");
    out.push_str(labels);
    out.push(' ');
    out.push_str(&format_value(h.sum));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    out.push_str(labels);
    out.push(' ');
    out.push_str(&h.count.to_string());
    out.push('\n');
}

fn push_bucket(out: &mut String, name: &str, base_labels: &str, le: &str, value: u64) {
    out.push_str(name);
    out.push_str("_bucket{");
    if !base_labels.is_empty() {
        out.push_str(base_labels);
        out.push(',');
    }
    out.push_str("le=\"");
    out.push_str(le);
    out.push_str("\"} ");
    out.push_str(&value.to_string());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn counters_and_gauges_render_with_types() {
        let r = Obs::new();
        r.inc_by("serve.requests", &[("shard", "a")], 3);
        r.inc_by("serve.requests", &[("shard", "b")], 1);
        r.inc("serve.requests", &[]);
        r.set_gauge("serve.queue_depth", &[("shard", "a")], 2.0);
        let text = render_prometheus(&r.metrics());
        assert_eq!(
            text,
            "# TYPE serve_requests counter\n\
             serve_requests 1\n\
             serve_requests{shard=\"a\"} 3\n\
             serve_requests{shard=\"b\"} 1\n\
             # TYPE serve_queue_depth gauge\n\
             serve_queue_depth{shard=\"a\"} 2\n"
        );
    }

    #[test]
    fn family_grouping_survives_interleaved_keys() {
        // In raw BTreeMap order the unlabelled `m` and `m{shard=a}` are
        // separated by `mz` (`{` sorts after `z`): one TYPE line anyway.
        let r = Obs::new();
        r.inc("m", &[]);
        r.inc("mz", &[]);
        r.inc("m", &[("shard", "a")]);
        let text = render_prometheus(&r.metrics());
        assert_eq!(
            text,
            "# TYPE m counter\nm 1\nm{shard=\"a\"} 1\n# TYPE mz counter\nmz 1\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Obs::new();
        r.inc("hits", &[("snap", "we\"ird\\name")]);
        let text = render_prometheus(&r.metrics());
        assert!(
            text.contains("hits{snap=\"we\\\"ird\\\\name\"} 1"),
            "escaping failed: {text}"
        );
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        // A fractional sum, as a hand-built snapshot may carry.
        let lat = HistogramSnapshot {
            bounds: vec![1.0, 10.0],
            counts: vec![1, 2, 1],
            count: 4,
            sum: 112.5,
        };
        let histograms = BTreeMap::from([("lat{op=x}".to_string(), lat)]);
        let text = render_parts(&BTreeMap::new(), &BTreeMap::new(), &histograms);
        assert_eq!(
            text,
            "# TYPE lat histogram\n\
             lat_bucket{op=\"x\",le=\"1\"} 1\n\
             lat_bucket{op=\"x\",le=\"10\"} 3\n\
             lat_bucket{op=\"x\",le=\"+Inf\"} 4\n\
             lat_sum{op=\"x\"} 112.5\n\
             lat_count{op=\"x\"} 4\n"
        );
    }

    #[test]
    fn unlabelled_histogram_has_bare_le_blocks() {
        let r = Obs::new();
        r.declare_buckets("h", &[2.0]);
        r.observe("h", &[], 1);
        let text = render_prometheus(&r.metrics());
        assert_eq!(
            text,
            "# TYPE h histogram\n\
             h_bucket{le=\"2\"} 1\n\
             h_bucket{le=\"+Inf\"} 1\n\
             h_sum 1\n\
             h_count 1\n"
        );
    }

    #[test]
    fn name_mangling_covers_dots_and_leading_digits() {
        assert_eq!(mangle_name("serve.stage_wall_micros"), "serve_stage_wall_micros");
        assert_eq!(mangle_name("7th"), "_7th");
        assert_eq!(mangle_name("a-b c"), "a_b_c");
    }
}

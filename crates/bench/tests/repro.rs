//! Golden run of the `repro` binary: the whole paper battery at the small
//! tier, with `--markdown` and `--manifest`.
//!
//! One battery pass computes each section once, and every experiment and
//! the markdown report render from those reports. The pins below were
//! recorded from the build that still computed `bios` and `activity` once
//! per experiment and ran the battery a second time for `--markdown`, so
//! they show that rendering from one pass changed no byte. They hold at
//! any `--threads`. `exp.deviations` is not pinned: its verified column is
//! the sections' own values, read from the same pass.

use std::process::Command;

use verified_net::Section;
use vnet_obs::RunManifest;

/// `section.*`, `exp.*` (all but `exp.deviations`) and `dataset.*`
/// fingerprints of `repro --all --scale small`.
const PINNED: [(&str, &str); 28] = [
    ("dataset.content", "2db4008b173a2169"),
    ("dataset.summary", "31d2a13c478cfb4b"),
    ("exp.adf", "210a41423484e6a3"),
    ("exp.basic", "2a52fafa5130106c"),
    ("exp.categories", "c4cc067e55d3cb1a"),
    ("exp.eigen", "a4bc680d57bfc7a7"),
    ("exp.elite-core", "a1913325a3abf3c0"),
    ("exp.fig1", "976b7b8d87a29905"),
    ("exp.fig2", "d10c6f8250e4369b"),
    ("exp.fig3", "6b7bf07030dbd49a"),
    ("exp.fig4", "f024daeea81c211e"),
    ("exp.fig5", "3a4e061a9044980d"),
    ("exp.fig6", "49e89151fa6df9a1"),
    ("exp.pelt", "62fe37d81e6363e1"),
    ("exp.reciprocity", "186f102e3464b739"),
    ("exp.table1", "9db24143a8cae57e"),
    ("exp.table2", "7a16a1dece8509e3"),
    ("section.activity", "04d679924bb3b6ea"),
    ("section.basic", "7e7f4a0947f9d60f"),
    ("section.bios", "c6666d6a2ab3bbb4"),
    ("section.categories", "7e0085d307e4c811"),
    ("section.centrality", "45385bca4868bf0e"),
    ("section.degrees", "288a1eebd0744442"),
    ("section.eigen", "4de6177fba1db455"),
    ("section.elite_core", "22c6a5edf4b612ea"),
    ("section.figure1", "738eaff7e746648f"),
    ("section.reciprocity", "d67193a3282273c5"),
    ("section.separation", "9082d914cb6437ed"),
];

/// FNV-1a of the `--markdown` file of the same run.
const MARKDOWN_FNV: u64 = 0x8759_ac84_26d8_4388;

#[test]
fn all_experiments_render_from_one_battery_pass() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("repro-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create output dir");
    let markdown = dir.join("report.md");
    let manifest = dir.join("manifest.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--all", "--scale", "small", "--threads", "2", "--markdown"])
        .arg(&markdown)
        .arg("--manifest")
        .arg(&manifest)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("all deviations reproduced: true"),
        "a deviation direction was lost"
    );

    let m: RunManifest =
        serde_json::from_str(&std::fs::read_to_string(&manifest).expect("manifest"))
            .expect("manifest parses");
    for section in Section::ALL {
        let name = format!("analysis.{section}");
        let runs = m.stages.iter().filter(|s| s.name == name).count();
        assert_eq!(runs, 1, "{name} computed {runs} times");
    }
    for (name, digest) in PINNED {
        assert_eq!(
            m.fingerprints.get(name).map(String::as_str),
            Some(digest),
            "{name} moved"
        );
    }
    let md = std::fs::read(&markdown).expect("markdown report");
    assert_eq!(
        vnet_obs::fingerprint_bytes(&md),
        MARKDOWN_FNV,
        "markdown report moved"
    );
    std::fs::remove_dir_all(&dir).expect("remove output dir");
}

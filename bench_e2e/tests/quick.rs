//! Runs every workload in quick mode, untraced and traced, and checks
//! that each metric `BENCHMARK.json` lists is reported with its unit
//! and that every checked operation passed.

use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name"` (and `"unit"`, when present) of every entry of one
/// top-level list of `BENCHMARK.json`.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {section}"));
    let end = start + json[start..].find(']').expect("list is closed");
    json[start..end]
        .split("{\"name\": \"")
        .skip(1)
        .map(|item| {
            let field = |key: &str| {
                item.split(&format!("\"{key}\": \""))
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or_default()
                    .to_string()
            };
            let name = item.split('"').next().expect("quoted name").to_string();
            (name, field("unit"))
        })
        .collect()
}

#[test]
fn quick_runs_report_every_listed_metric_and_pass_their_checks() {
    let json = benchmark_json();
    let workloads = listed(&json, "workloads");
    assert_eq!(workloads.len(), 4);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = listed(&json, section);
        assert!(!metrics.is_empty());
        for (workload, _) in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            assert_eq!(line.matches("\"unit\": ").count(), metrics.len(), "{line}");
            for (name, unit) in &metrics {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}: {line}"));
                let unit_at = at + line[at..].find("\"unit\": ").expect("metric has a unit");
                assert!(
                    line[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{workload}: {name} is not in {unit}: {line}"
                );
            }
        }
    }
}

//! Perf-regression ratchet: compare freshly measured timing ratios
//! against the committed baseline `results/bench_summary.json`.
//!
//! ```text
//! cargo run --release -p dual-bench --bin bench_ratchet -- \
//!     --baseline results/bench_summary.json \
//!     --measured /tmp/stream.json --measured /tmp/obs.json [--update]
//! ```
//!
//! Every input is a flat `{"name": ratio}` JSON object in the
//! workspace's byte-stable idiom (`--summary-out` of
//! `stream_throughput` and `obs_overhead`). The metrics are
//! machine-normalized wall-time **ratios** (instrumented/baseline;
//! encode and pipeline-minus-encode over a fixed calibration loop), so
//! a single committed baseline is meaningful across hosts. Two failure
//! modes:
//!
//! * **regression** — measured > baseline × (1 + `DUAL_BENCH_TOL`),
//!   default 10%. The hot path got slower; fix it or raise the
//!   tolerance explicitly.
//! * **stale baseline** — measured < baseline × (1 − 25%). The code got
//!   faster; the win must be locked in by re-running with `--update`
//!   and committing the new, lower baseline. This is the one-way
//!   burn-down: baselines only ratchet downward, never drift upward.
//!
//! `--update` rewrites the baseline from the measured values (sorted
//! keys, fixed `{:.4}` formatting) instead of checking.

const STALE_FRACTION: f64 = 0.25;

fn tolerance() -> f64 {
    std::env::var("DUAL_BENCH_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10)
}

/// Parse the flat `{"name": number}` byte-stable JSON produced by the
/// `--summary-out` writers. Anything that is not a `"key": number`
/// line (braces, the `version` marker) is skipped.
fn parse_flat(text: &str, path: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, value)) = rest.split_once("\":") else {
            continue;
        };
        if name == "version" {
            continue;
        }
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{path}: metric `{name}` has a non-numeric value"));
        out.push((name.to_string(), value));
    }
    out
}

fn read_metrics(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read ratchet input {path}: {e}"));
    parse_flat(&text, path)
}

fn to_json(metrics: &[(String, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"version\": 1");
    for (name, value) in metrics {
        let _ = write!(out, ",\n  \"{name}\": {value:.4}");
    }
    out.push_str("\n}\n");
    out
}

fn main() {
    let mut baseline_path: Option<String> = None;
    let mut measured_paths: Vec<String> = Vec::new();
    let mut update = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = Some(args.next().expect("--baseline requires a path")),
            "--measured" => measured_paths.push(args.next().expect("--measured requires a path")),
            "--update" => update = true,
            other => panic!(
                "unknown argument `{other}` (usage: bench_ratchet --baseline PATH --measured PATH... [--update])"
            ),
        }
    }
    let baseline_path = baseline_path.expect("--baseline is required");
    assert!(
        !measured_paths.is_empty(),
        "at least one --measured input is required"
    );

    let mut measured: Vec<(String, f64)> = measured_paths
        .iter()
        .flat_map(|p| read_metrics(p))
        .collect();
    measured.sort_by(|a, b| a.0.cmp(&b.0));
    for pair in measured.windows(2) {
        assert!(
            pair[0].0 != pair[1].0,
            "metric `{}` measured twice — the --summary-out inputs overlap",
            pair[0].0
        );
    }

    if update {
        std::fs::write(&baseline_path, to_json(&measured)).expect("writable baseline path");
        println!(
            "bench_ratchet: baseline {baseline_path} rewritten with {} metric(s)",
            measured.len()
        );
        return;
    }

    let tol = tolerance();
    let baseline = read_metrics(&baseline_path);
    println!(
        "bench_ratchet: tolerance +{:.0}% (DUAL_BENCH_TOL), stale below -{:.0}%\n",
        tol * 100.0,
        STALE_FRACTION * 100.0
    );
    println!(
        "  {:<28} {:>9} {:>9} {:>8}  verdict",
        "metric", "baseline", "measured", "delta"
    );

    let mut failures = Vec::new();
    for (name, base) in &baseline {
        let base = *base;
        let Some(got) = measured.iter().find(|(n, _)| n == name).map(|&(_, v)| v) else {
            failures.push(format!("metric `{name}` missing from the measured inputs"));
            continue;
        };
        let delta = got / base.max(1e-12) - 1.0;
        let verdict = if got > base * (1.0 + tol) {
            failures.push(format!(
                "`{name}` regressed: {got:.4} vs baseline {base:.4} (+{:.1}% > +{:.0}%)",
                delta * 100.0,
                tol * 100.0
            ));
            "REGRESSED"
        } else if got < base * (1.0 - STALE_FRACTION) {
            failures.push(format!(
                "`{name}` baseline is stale: measured {got:.4} beats {base:.4} by {:.1}% — lock in the win via --update and commit the new baseline",
                -delta * 100.0
            ));
            "STALE"
        } else {
            "ok"
        };
        println!(
            "  {name:<28} {base:>9.4} {got:>9.4} {:>+7.1}%  {verdict}",
            delta * 100.0
        );
    }
    for (name, _) in &measured {
        assert!(
            baseline.iter().any(|(n, _)| n == name),
            "metric `{name}` is measured but absent from {baseline_path} — add it via --update"
        );
    }

    assert!(
        failures.is_empty(),
        "bench_ratchet failed:\n  - {}",
        failures.join("\n  - ")
    );
    println!(
        "\nbench_ratchet OK ({} metric(s) within the ratchet)",
        baseline.len()
    );
}

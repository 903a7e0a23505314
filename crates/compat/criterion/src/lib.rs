//! Offline, API-compatible shim for the [criterion](https://docs.rs/criterion)
//! benchmark harness.
//!
//! The build environment of this repository cannot reach a crates registry,
//! so this crate implements the (small) subset of criterion's API that the
//! workspace's bench targets use: [`Criterion`], [`BenchmarkGroup`],
//! [`Bencher`], [`BenchmarkId`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is first calibrated (the iteration
//! count is doubled until one sample takes at least ~5 ms), then
//! `sample_size` timed samples are collected and the per-iteration minimum,
//! mean and maximum are reported. Passing `--test` on the command line (what
//! `cargo bench -- --test` forwards) runs every benchmark body exactly once
//! as a smoke test, which CI uses.
//!
//! Machine-readable results: when the `CPS_BENCH_JSON` environment variable
//! names a file and `CPS_BENCH_KEY` names a history key (ci.sh exports
//! `git describe --always --dirty`), every measured benchmark upserts its
//! mean ns/iter into that file under the key
//! (`{"<commit>": {"group/bench": ns, ...}, ...}`): a per-commit
//! performance *history* in which re-running a commit upserts its own
//! entries, new commits append and old commits are never touched. Without
//! both variables nothing is recorded. Bench targets run as separate
//! processes, so the file is re-read and re-written per result; `ci.sh perf`
//! uses this to maintain `BENCH_results.json`, the repository's performance
//! trajectory.

use std::time::{Duration, Instant};

/// Re-export of the standard optimisation barrier under criterion's name.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifier for a parameterised benchmark (`function_name/parameter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an identifier from a function name and a parameter value.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }

    /// Creates an identifier from a parameter value alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Conversion into the string id under which a benchmark is reported.
pub trait IntoBenchmarkId {
    /// The reported benchmark id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timer handed to the benchmark closure; `iter` runs and times the payload.
#[derive(Debug)]
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` for the configured number of iterations and records the
    /// elapsed wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

#[derive(Debug, Clone, Copy)]
struct Settings {
    test_mode: bool,
    sample_size: usize,
}

/// The benchmark manager: entry point handed to every bench function.
#[derive(Debug)]
pub struct Criterion {
    settings: Settings,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion { settings: Settings { test_mode, sample_size: 20 } }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), settings: self.settings, _criterion: self }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        run_benchmark(&id.into_benchmark_id(), self.settings, f);
        self
    }
}

/// A group of related benchmarks sharing settings and a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Benchmarks `f` under `group_name/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into_benchmark_id());
        run_benchmark(&id, self.settings, f);
        self
    }

    /// Benchmarks `f` with an input value under `group_name/id`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.id);
        run_benchmark(&id, self.settings, |b| f(b, input));
        self
    }

    /// Finishes the group (kept for API compatibility; reporting is eager).
    pub fn finish(self) {}
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, settings: Settings, mut f: F) {
    if settings.test_mode {
        let mut bencher = Bencher { iterations: 1, elapsed: Duration::ZERO };
        f(&mut bencher);
        println!("Testing {id} ... ok");
        return;
    }

    // Calibrate: double the iteration count until one sample costs >= 5 ms.
    let mut iterations: u64 = 1;
    loop {
        let mut bencher = Bencher { iterations, elapsed: Duration::ZERO };
        f(&mut bencher);
        if bencher.elapsed >= Duration::from_millis(5) || iterations >= 1 << 30 {
            break;
        }
        iterations *= 2;
    }

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(settings.sample_size);
    for _ in 0..settings.sample_size {
        let mut bencher = Bencher { iterations, elapsed: Duration::ZERO };
        f(&mut bencher);
        per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / iterations as f64);
    }
    let min = per_iter_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_iter_ns.iter().copied().fold(0.0f64, f64::max);
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
    println!(
        "{id:<55} time: [{} {} {}] ({} samples x {} iters)",
        format_ns(min),
        format_ns(mean),
        format_ns(max),
        per_iter_ns.len(),
        iterations,
    );
    record_json_result(id, mean);
}

/// Upserts `id -> mean_ns` under the history key `CPS_BENCH_KEY` in the
/// JSON file named by `CPS_BENCH_JSON` (a no-op unless both are set). The
/// file is always rewritten in the exact format [`merge_json_keyed`]
/// produces, so re-reading it only has to parse `"key": value` /
/// `"key": {` lines; benchmark ids and history keys never contain quotes
/// or backslashes.
fn record_json_result(id: &str, mean_ns: f64) {
    let (Ok(path), Ok(key)) = (std::env::var("CPS_BENCH_JSON"), std::env::var("CPS_BENCH_KEY"))
    else {
        return;
    };
    if path.is_empty() || key.is_empty() {
        return;
    }
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    match merge_json_keyed(&existing, &key, id, mean_ns) {
        Some(merged) => {
            let _ = std::fs::write(&path, merged);
        }
        None => eprintln!("{path} is not a keyed benchmark history; {id} not recorded"),
    }
}

/// Parses the keyed line format [`merge_json_keyed`] emits into
/// `(history_key, bench_id, mean_ns)` triples; `None` if an entry sits
/// outside every history key (a flat map, which is not rewritten).
fn parse_entries(existing: &str) -> Option<Vec<(String, String, f64)>> {
    let mut entries: Vec<(String, String, f64)> = Vec::new();
    let mut group: Option<String> = None;
    for line in existing.lines() {
        let line = line.trim().trim_end_matches(',');
        if line == "{" || line == "}" {
            continue;
        }
        if let Some(key) = line.strip_prefix('"').and_then(|rest| rest.strip_suffix("\": {")) {
            group = Some(key.to_string());
            continue;
        }
        if let Some((key, value)) = line.strip_prefix('"').and_then(|rest| rest.split_once("\": "))
        {
            if let Ok(ns) = value.trim().parse::<f64>() {
                entries.push((group.clone()?, key.to_string(), ns));
            }
        }
    }
    Some(entries)
}

/// Pure merge step for the keyed history: upserts `(history_key, id)`,
/// preserving every other commit's entries and the first-seen order of both
/// keys and benchmarks. `None` if `existing` is not a keyed history.
fn merge_json_keyed(existing: &str, history_key: &str, id: &str, mean_ns: f64) -> Option<String> {
    let mut entries = parse_entries(existing)?;
    match entries.iter_mut().find(|(group, key, _)| group == history_key && key == id) {
        Some(entry) => entry.2 = mean_ns,
        None => entries.push((history_key.to_string(), id.to_string(), mean_ns)),
    }
    // Group order = first appearance.
    let mut groups: Vec<&str> = Vec::new();
    for (group, _, _) in &entries {
        if !groups.iter().any(|existing| existing == group) {
            groups.push(group);
        }
    }
    let mut out = String::from("{\n");
    for (group_index, group) in groups.iter().enumerate() {
        out.push_str(&format!("\"{group}\": {{\n"));
        let members: Vec<&(String, String, f64)> =
            entries.iter().filter(|(g, _, _)| g == group).collect();
        for (index, (_, key, ns)) in members.iter().enumerate() {
            let separator = if index + 1 < members.len() { "," } else { "" };
            out.push_str(&format!("\"{key}\": {ns:.2}{separator}\n"));
        }
        let separator = if group_index + 1 < groups.len() { "," } else { "" };
        out.push_str(&format!("}}{separator}\n"));
    }
    out.push_str("}\n");
    Some(out)
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a function running a list of bench functions, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the `main` entry point running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("f", 8).into_benchmark_id(), "f/8");
        assert_eq!(BenchmarkId::from_parameter(8).into_benchmark_id(), "8");
        assert_eq!("plain".into_benchmark_id(), "plain");
    }

    #[test]
    fn bencher_counts_iterations() {
        let mut count = 0u64;
        let mut bencher = Bencher { iterations: 5, elapsed: Duration::ZERO };
        bencher.iter(|| count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    fn merge_json_keyed_appends_history_and_upserts_within_a_key() {
        // First commit.
        let a = merge_json_keyed("", "abc1234", "g/bench", 100.0).unwrap();
        assert!(a.contains("\"abc1234\": {"));
        assert!(a.contains("\"g/bench\": 100.00"));
        // Second benchmark of the same commit.
        let b = merge_json_keyed(&a, "abc1234", "g/other", 7.5).unwrap();
        assert_eq!(b.matches("abc1234").count(), 1);
        assert!(b.contains("\"g/other\": 7.50"));
        // A new commit appends; the old commit's entries survive untouched.
        let c = merge_json_keyed(&b, "def5678", "g/bench", 90.0).unwrap();
        assert!(c.contains("\"abc1234\": {"));
        assert!(c.contains("\"def5678\": {"));
        assert!(c.contains("\"g/bench\": 100.00"));
        assert!(c.contains("\"g/bench\": 90.00"));
        assert!(c.find("abc1234").unwrap() < c.find("def5678").unwrap());
        // Re-running a commit upserts only its own entry.
        let d = merge_json_keyed(&c, "abc1234", "g/bench", 110.0).unwrap();
        assert!(d.contains("\"g/bench\": 110.00"));
        assert!(d.contains("\"g/bench\": 90.00"));
        assert!(!d.contains("100.00"));
        // The output stays parseable by its own reader.
        let entries = parse_entries(&d).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries.contains(&("abc1234".to_string(), "g/bench".to_string(), 110.0)));
        assert!(entries.contains(&("abc1234".to_string(), "g/other".to_string(), 7.5)));
        assert!(entries.contains(&("def5678".to_string(), "g/bench".to_string(), 90.0)));
    }

    #[test]
    fn keyed_history_is_detected_and_never_flattened() {
        // A keyed history, including the old "unkeyed" group, survives a
        // merge as data.
        let history = "{\n\"unkeyed\": {\n\"g/bench\": 123.00\n},\n\
                       \"abc1234\": {\n\"g/new\": 1.00\n}\n}\n";
        let merged = merge_json_keyed(history, "def5678", "g/bench", 50.0).unwrap();
        let entries = parse_entries(&merged).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries.contains(&("unkeyed".to_string(), "g/bench".to_string(), 123.0)));
        assert!(entries.contains(&("abc1234".to_string(), "g/new".to_string(), 1.0)));
        assert!(entries.contains(&("def5678".to_string(), "g/bench".to_string(), 50.0)));
        // A flat map is detected and left alone rather than rewritten.
        assert!(merge_json_keyed("{\n\"g/bench\": 123.00\n}\n", "abc1234", "g/new", 1.0).is_none());
    }

    #[test]
    fn format_ns_picks_units() {
        assert!(format_ns(10.0).ends_with("ns"));
        assert!(format_ns(10_000.0).ends_with("us"));
        assert!(format_ns(10_000_000.0).ends_with("ms"));
        assert!(format_ns(10_000_000_000.0).ends_with(" s"));
    }
}

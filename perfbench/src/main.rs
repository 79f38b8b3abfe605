//! Benchmark entry point: one workload per invocation.
//!
//! ```text
//! perfbench --workload <encode-d4000|search-s1024|tenants-durable> \
//!           --seed <n> --seconds <s> --trace <0|1> \
//!           [--state-dir <dir>] [--build-id <id>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! clock around the calls; `--trace 1` replays every layer beside the
//! same calls and reports the per-layer metrics. Both print a report
//! and, as the last line, one JSON object. The exit code is non-zero
//! when any output check fails. `perfbench/run.py` builds this binary
//! and calls it.

use dual_hdc::{Encoder, HdMapper};
use dual_pim::CostModel;
use dual_stream::{ShardedIndex, StreamConfig, StreamEngine};
use dual_topology::{TenantSpec, Topology};
use dual_trace::{AlertEngine, Recorder};
use perfbench::latency::LatencyBook;
use perfbench::replay::{sense_pass, Shadow, Work};
use perfbench::spans::Spans;
use perfbench::stats::{median, quantile};
use perfbench::workload::{service_rules, System, Workload, TENANTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Builds timed for `setup_s`, beside the one each firehose pass makes.
const SETUP_BUILDS: usize = 41;
/// Fewest closed-loop passes an untraced run makes.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` the firehose passes may use.
const FIREHOSE_SHARE: f64 = 0.45;
/// Share of `--seconds` the open-loop phase lasts.
const OPEN_SHARE: f64 = 0.4;
/// Identical open loops the open-loop phase is split into; latency
/// figures are medians over them, so one noisy stretch of the host
/// does not set a run's tail.
const OPEN_SEGMENTS: usize = 8;
/// Checkpoint/restore repetitions at the end of a workload.
const SNAP_REPS: usize = 3;
/// Seed reserved for confirming later claims; never used while tuning.
const HELDOUT_SEED: u64 = 20_261_017;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: Option<PathBuf>,
    build_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::named(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_owned())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_owned())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        state_dir: flags.get("--state-dir").map(PathBuf::from),
        build_id: flags
            .get("--build-id")
            .cloned()
            .unwrap_or_else(|| "dev".to_owned()),
    })
}

/// A metric value with its unit, in report order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Accumulates the report, the failed checks and the run's counts.
struct Run {
    report: String,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn line(&mut self, text: impl AsRef<str>) {
        self.report.push_str(text.as_ref());
        self.report.push('\n');
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time `Workload::build`.
fn timed_build(w: &Workload, setup: &mut Vec<f64>) -> Result<System, String> {
    let t = Instant::now();
    let sys = w.build()?;
    setup.push(secs(t));
    Ok(sys)
}

/// Outcome totals of a finished system, summed over its engines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Outcome {
    offered: u64,
    clustered: u64,
    failed: u64,
    chip_ns: f64,
    chip_pj: f64,
}

/// Check conservation on every engine of `sys` after a drain of
/// `offered` points fed round-robin: offered = clustered + dropped +
/// rejected, nothing pending.
fn outcome(w: &Workload, sys: &System, offered: usize) -> Result<Outcome, String> {
    let streams = w.streams();
    let mut out = Outcome {
        offered: offered as u64,
        ..Outcome::default()
    };
    for (s, engine) in sys.engines().into_iter().enumerate() {
        let seen = sys.seen(s);
        let fed = (offered / streams + usize::from(s < offered % streams)) as u64;
        let pending = engine.pending() as u64;
        if fed != seen.assigned + seen.dropped + seen.rejected + pending || pending != 0 {
            return Err(format!(
                "conservation: stream {s} fed {fed} = assigned {} + dropped {} + rejected {} + pending {pending} fails",
                seen.assigned, seen.dropped, seen.rejected
            ));
        }
        out.clustered += seen.assigned;
        out.failed += seen.dropped + seen.rejected;
        out.chip_ns += engine.meter().total().time_ns();
        out.chip_pj += engine.meter().total().energy_pj();
    }
    Ok(out)
}

/// FNV-1a digest of everything deterministic about a finished system:
/// counters, centroid words and the chip ledger of every engine.
fn digest(sys: &System) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in sys.engines() {
        let c = e.counters();
        for v in [
            c.ingested,
            c.rejected,
            c.dropped,
            c.inline_flushes,
            c.batches,
            c.size_cuts,
            c.deadline_cuts,
            c.drain_cuts,
            c.encoded,
            c.assigned,
            c.seeded,
            c.rebinarized,
        ] {
            eat(v);
        }
        for hv in e.model().centroids() {
            for &word in hv.bits().as_words() {
                eat(word);
            }
        }
        eat(e.meter().total().time_ns().to_bits());
        eat(e.meter().total().energy_pj().to_bits());
        for (_, n) in e.meter().total().counts() {
            eat(n);
        }
    }
    h
}

/// Feed `points` round-robin with the workload's tick schedule as fast
/// as the calls return, then drain.
fn firehose(w: &Workload, sys: &mut System, points: &[Vec<f64>]) -> Result<(), String> {
    let streams = w.streams();
    for (i, p) in points.iter().enumerate() {
        sys.push(i % streams, p)?;
        if (i + 1) % w.tick_every == 0 {
            sys.tick()?;
        }
    }
    sys.drain()
}

/// Results of the open-loop phase.
struct OpenLoop {
    book: LatencyBook,
    lags: Vec<f64>,
    outcome: Outcome,
    digest: u64,
}

/// Sleep, then spin, until `due` seconds after `start`.
fn wait_until(start: Instant, due: f64) {
    loop {
        let left = due - secs(start);
        if left <= 0.0 {
            return;
        }
        if left > 0.002 {
            std::thread::sleep(Duration::from_secs_f64(left - 0.001));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Offer `points` at the workload's fixed rate, ticking on the arrival
/// schedule, and time every point from its scheduled arrival to the
/// return of the call that committed its batch.
fn open_loop(w: &Workload, points: &[Vec<f64>]) -> Result<OpenLoop, String> {
    let streams = w.streams();
    let mut sys = w.build()?;
    let mut book = LatencyBook::new((0..streams).map(|s| sys.seen(s)).collect());
    let mut lags = Vec::with_capacity(points.len());
    let start = Instant::now();
    for (i, p) in points.iter().enumerate() {
        let due = i as f64 / w.offered_rate;
        wait_until(start, due);
        lags.push(secs(start) - due);
        let s = i % streams;
        book.offer(s, due);
        sys.push(s, p)?;
        book.settle(s, sys.seen(s), secs(start))?;
        if (i + 1) % w.tick_every == 0 {
            sys.tick()?;
            let now = secs(start);
            for s in 0..streams {
                book.settle(s, sys.seen(s), now)?;
            }
        }
    }
    sys.drain()?;
    let now = secs(start);
    for s in 0..streams {
        book.settle(s, sys.seen(s), now)?;
    }
    if book.outstanding() != 0 {
        return Err(format!(
            "latency book: {} points never settled",
            book.outstanding()
        ));
    }
    let outcome = outcome(w, &sys, points.len())?;
    Ok(OpenLoop {
        book,
        lags,
        outcome,
        digest: digest(&sys),
    })
}

/// The open-loop phase: `OPEN_SEGMENTS` identical open loops, each on
/// a freshly built system.
struct OpenPhase {
    segments: Vec<OpenLoop>,
}

impl OpenPhase {
    /// Run one more open loop; it must repeat the first exactly.
    fn run_one(&mut self, w: &Workload, points: &[Vec<f64>]) -> Result<(), String> {
        let seg = open_loop(w, points)?;
        if let Some(first) = self.segments.first() {
            if first.digest != seg.digest || first.outcome != seg.outcome {
                return Err("repeat: an open-loop segment differs from the first".to_owned());
            }
        }
        self.segments.push(seg);
        Ok(())
    }

    /// Outcome of one segment (every segment has the same).
    fn outcome(&self) -> Outcome {
        self.segments[0].outcome
    }

    /// Median over segments of the `q`-quantile latency, failed points
    /// counted as infinite, in milliseconds.
    fn latency_ms(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .segments
            .iter()
            .map(|s| quantile(&s.book.with_failures(), q) * 1e3)
            .collect();
        median(&per)
    }

    /// Median over segments of the generator's p99 lag, milliseconds.
    fn lag_p99_ms(&self) -> f64 {
        let per: Vec<f64> = self
            .segments
            .iter()
            .map(|s| quantile(&s.lags, 0.99) * 1e3)
            .collect();
        median(&per)
    }
}

/// Majority-label accuracy of the final sub-centroids on held-out
/// points: each point goes to its nearest sub-centroid of its stream's
/// engine, each sub-centroid votes the label most of its points carry.
fn heldout_accuracy(
    w: &Workload,
    sys: &System,
    first_index: usize,
    points: &[Vec<f64>],
    labels: &[usize],
) -> Result<f64, String> {
    let engines = sys.engines();
    let streams = w.streams();
    let mut votes: BTreeMap<(usize, usize), BTreeMap<usize, u64>> = BTreeMap::new();
    for (s, engine) in engines.iter().enumerate() {
        let mine: Vec<usize> = (0..points.len())
            .filter(|j| (first_index + j) % streams == s)
            .collect();
        let encoded = mine
            .iter()
            .map(|&j| engine.encoder().encode(&points[j]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("heldout encode: {e}"))?;
        let index = ShardedIndex::new(engine.model().centroids().to_vec(), w.shards);
        for (&j, (slot, _)) in mine.iter().zip(index.assign(&encoded, w.threads)) {
            *votes
                .entry((s, slot))
                .or_default()
                .entry(labels[j])
                .or_default() += 1;
        }
    }
    let right: u64 = votes
        .values()
        .map(|v| v.values().copied().max().unwrap_or(0))
        .sum();
    Ok(right as f64 / points.len() as f64)
}

/// Median checkpoint and restore times of a workload's final engine.
struct SnapProbe {
    checkpoint_us: f64,
    restore_us: f64,
    bytes: usize,
}

/// Checkpoint (on a clone) and restore the first engine of `sys`.
fn snap_probe(w: &Workload, sys: &System) -> Result<SnapProbe, String> {
    let engine = sys.engines()[0];
    let (mut ck, mut rs, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..SNAP_REPS {
        let mut copy = engine.clone();
        let encoder = w.encoder();
        let t = Instant::now();
        let blob = copy.checkpoint();
        ck.push(secs(t) * 1e6);
        let t = Instant::now();
        let restored = StreamEngine::restore_with(encoder, &blob, CostModel::paper(), None)
            .map_err(|e| format!("restore: {e}"))?;
        rs.push(secs(t) * 1e6);
        if restored.model() != engine.model() || restored.counters() != engine.counters() {
            return Err("restore: restored engine differs from the checkpointed one".to_owned());
        }
        bytes = blob.len();
    }
    Ok(SnapProbe {
        checkpoint_us: median(&ck),
        restore_us: median(&rs),
        bytes,
    })
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host fingerprint: logical CPUs, CPU model line and compiler.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" calibration_ns_per_iter={:.4}",
        env!("PERFBENCH_RUSTC"),
        calibration_ns()
    )
}

/// A fixed popcount + fused multiply-add loop that is not code under
/// test; reported with each result, never used to normalise a metric.
fn calibration_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut ones = 0u64;
        let mut acc = 1.0f64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ones += u64::from(x.count_ones());
            acc = acc.mul_add(0.999_999_9, f64::from(x as u32 & 1));
        }
        black_box((ones, acc));
        samples.push(secs(t) * 1e9 / ITERS as f64);
    }
    median(&samples)
}

/// Deterministic results every run of a workload and seed must repeat.
struct Fingerprint {
    firehose: u64,
    open: u64,
    heldout: f64,
    failed: u64,
    chip_ns: f64,
    chip_pj: f64,
}

impl Fingerprint {
    fn text(&self) -> String {
        format!(
            "firehose={:016x} open={:016x} heldout={:016x} failed={} chip_ns={:016x} chip_pj={:016x}\n",
            self.firehose,
            self.open,
            self.heldout.to_bits(),
            self.failed,
            self.chip_ns.to_bits(),
            self.chip_pj.to_bits()
        )
    }
}

/// Compare with (or store) the fingerprint of earlier runs of the same
/// build, workload, seed and open-loop length, traced or not.
fn repeat_check(args: &Args, run: &mut Run, fp: &Fingerprint, open_points: usize) {
    let Some(dir) = &args.state_dir else { return };
    let dir = dir.join("records");
    let path = dir.join(format!(
        "{}-{}-{}-{open_points}.txt",
        args.build_id, args.workload.name, args.seed
    ));
    let text = fp.text();
    match std::fs::read_to_string(&path) {
        Ok(before) => run.check(
            before == text,
            format!(
                "repeat: deterministic results differ from an earlier run: {} vs {}",
                before.trim(),
                text.trim()
            ),
        ),
        Err(_) => {
            let saved = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
            run.check(
                saved.is_ok(),
                format!("repeat: cannot write {}", path.display()),
            );
        }
    }
}

/// Closed-loop passes, each on a freshly built system.
#[derive(Default)]
struct Passes {
    pps: Vec<f64>,
    setup: Vec<f64>,
    /// Digest, outcome and final system of the first pass.
    first: Option<(u64, Outcome, System)>,
}

impl Passes {
    /// Run one more pass; it must repeat the first exactly. Returns the
    /// pass's wall time in seconds.
    fn run_one(&mut self, w: &Workload, points: &[Vec<f64>]) -> Result<f64, String> {
        let mut sys = timed_build(w, &mut self.setup)?;
        let t = Instant::now();
        firehose(w, &mut sys, points)?;
        let elapsed = secs(t);
        let out = outcome(w, &sys, points.len())?;
        self.pps.push(out.clustered as f64 / elapsed);
        let d = digest(&sys);
        match &self.first {
            None => self.first = Some((d, out, sys)),
            Some((d0, o0, _)) => {
                if *d0 != d || *o0 != out {
                    return Err("repeat: a firehose pass differs from the first pass".to_owned());
                }
            }
        }
        Ok(elapsed)
    }
}

/// The inputs of one run: the seeded stream and its labels.
struct Inputs {
    points: Vec<Vec<f64>>,
    labels: Vec<usize>,
    open_points: usize,
}

impl Inputs {
    fn firehose(&self, w: &Workload) -> &[Vec<f64>] {
        &self.points[..w.firehose_points]
    }

    fn heldout(&self, w: &Workload) -> (&[Vec<f64>], &[usize]) {
        let r = w.firehose_points..w.firehose_points + w.heldout_points;
        (&self.points[r.clone()], &self.labels[r])
    }

    fn open(&self) -> &[Vec<f64>] {
        &self.points[..self.open_points]
    }
}

/// The shared tail of both modes, after the closed-loop passes and the
/// open loops: held-out score, snapshot probe, and the fingerprint
/// check. Returns the held-out accuracy and the snapshot figures.
fn finish(
    args: &Args,
    run: &mut Run,
    inputs: &Inputs,
    firehose: (u64, Outcome, &System),
    open: &OpenPhase,
) -> Result<(f64, SnapProbe), String> {
    let w = args.workload;
    let (fd, fo, sys) = firehose;
    let (hp, hl) = inputs.heldout(&w);
    let heldout = heldout_accuracy(&w, sys, w.firehose_points, hp, hl)?;
    let snap = snap_probe(&w, sys)?;
    run.line(format!(
        "snap: checkpoint {:.1} us, restore {:.1} us, {} bytes (median of {SNAP_REPS})",
        snap.checkpoint_us, snap.restore_us, snap.bytes
    ));
    let fp = Fingerprint {
        firehose: fd,
        open: open.segments[0].digest,
        heldout,
        failed: fo.failed + open.outcome().failed,
        chip_ns: fo.chip_ns,
        chip_pj: fo.chip_pj,
    };
    repeat_check(args, run, &fp, inputs.open_points);
    Ok((heldout, snap))
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args, run: &mut Run, inputs: &Inputs) -> Result<Metrics, String> {
    let w = args.workload;
    let mut setup = Vec::new();
    for _ in 0..SETUP_BUILDS {
        drop(timed_build(&w, &mut setup)?);
    }
    // Closed-loop passes and open loops alternate, so both kinds of
    // figure sample the host over the whole run.
    let mut passes = Passes::default();
    let mut open = OpenPhase {
        segments: Vec::new(),
    };
    let budget = FIREHOSE_SHARE * args.seconds;
    let mut pass_time = 0.0;
    for k in 1..=OPEN_SEGMENTS {
        let due = budget * k as f64 / OPEN_SEGMENTS as f64;
        while pass_time < due || passes.pps.len() < MIN_PASSES.min(k) {
            pass_time += passes.run_one(&w, inputs.firehose(&w))?;
        }
        open.run_one(&w, inputs.open())?;
    }
    setup.extend(&passes.setup);
    let (digest, fo, sys) = passes.first.as_ref().ok_or("no firehose pass ran")?;
    let (heldout, _) = finish(args, run, inputs, (*digest, *fo, sys), &open)?;

    let (fo, oo) = (*fo, open.outcome());
    let offered = fo.offered + oo.offered;
    let failed = fo.failed + oo.failed;
    let (n_passes, n_segments) = (passes.pps.len() as u64, OPEN_SEGMENTS as u64);
    run.attempted = fo.offered * n_passes + oo.offered * n_segments;
    run.failed = fo.failed * n_passes + oo.failed * n_segments;
    let p50 = open.latency_ms(0.5);
    let p99 = open.latency_ms(0.99);
    run.check(
        p99.is_finite(),
        "latency: more than 1% of open-loop points failed, p99 is unbounded",
    );
    let mut m = Metrics(Vec::new());
    m.put("points_per_s", median(&passes.pps), "pts/s");
    m.put("latency_p50_ms", p50, "ms");
    m.put(
        "latency_p99_ms",
        if p99.is_finite() { p99 } else { f64::MAX },
        "ms",
    );
    m.put(
        "served_ratio",
        1.0 - failed as f64 / offered as f64,
        "ratio",
    );
    m.put("heldout_accuracy", heldout, "ratio");
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    run.line(format!(
        "points_per_s: median of {} closed-loop passes of {} points: {:.1?}",
        passes.pps.len(),
        w.firehose_points,
        passes.pps
    ));
    let seg = &open.segments[0].book;
    run.line(format!(
        "latency: median over {OPEN_SEGMENTS} open loops of {} points at {} pts/s, each {} samples ({} assigned, {} failed); generator lag p99 {:.3} ms",
        inputs.open_points,
        w.offered_rate,
        seg.samples().len() + seg.failed() as usize,
        seg.samples().len(),
        seg.failed(),
        open.lag_p99_ms()
    ));
    let per: Vec<(f64, f64)> = open
        .segments
        .iter()
        .map(|s| {
            let all = s.book.with_failures();
            (quantile(&all, 0.5) * 1e3, quantile(&all, 0.99) * 1e3)
        })
        .collect();
    run.line(format!("latency per open loop (p50, p99) ms: {per:.2?}"));
    run.line(format!(
        "failed_ratio = {} ratio ({failed} of {offered} offered over both phases; served_ratio = 1 - failed_ratio)",
        failed as f64 / offered as f64
    ));
    run.line(format!(
        "heldout_accuracy over {} held-out points; setup_s median of {} builds",
        w.heldout_points,
        setup.len()
    ));
    Ok(m)
}

/// Names of the outer call spans.
fn call_names(w: &Workload) -> (&'static str, &'static str, &'static str) {
    if w.tenants {
        ("topology.push", "topology.tick", "topology.drain")
    } else {
        ("engine.push", "engine.tick", "engine.drain")
    }
}

/// One traced closed-loop pass: each call to the system is timed, and
/// the shadow replays it layer by layer right after.
struct Traced {
    work: Work,
    depths: Vec<f64>,
    ticks: u64,
    deferred: u64,
    /// Clustered points per second of outer-call time.
    pps: f64,
    digest: u64,
    outcome: Outcome,
    system: System,
}

fn traced_pass(w: &Workload, points: &[Vec<f64>], spans: &mut Spans) -> Result<Traced, String> {
    let streams = w.streams();
    let (push_name, tick_name, drain_name) = call_names(w);
    let mut sys = w.build()?;
    let mut shadow = Shadow::new(w);
    let mut alerts = AlertEngine::new(service_rules()).map_err(|e| format!("alerts: {e}"))?;
    let mut recorder = Recorder::new(256);
    let mut depths = Vec::new();
    let mut ticks = 0u64;
    let first_span = spans.spans().len();
    for (i, p) in points.iter().enumerate() {
        let s = i % streams;
        spans.time(push_name, || sys.push(s, p))?;
        let id = spans.enter("replay.push");
        shadow.push(s, p, spans)?;
        spans.exit(id);
        if (i + 1) % w.tick_every != 0 {
            continue;
        }
        for (s, e) in sys.engines().into_iter().enumerate() {
            depths.push(e.pending() as f64);
            if e.pending() != shadow.pending(s) {
                return Err("replay: ring depth differs before a tick".to_owned());
            }
        }
        spans.time(tick_name, || sys.tick())?;
        ticks += 1;
        let id = spans.enter("replay.tick");
        shadow.tick(spans)?;
        let (registry, now) = match &sys {
            System::Engine(e) => (e.obs_registry(), e.now()),
            System::Topology(t) => (t.obs_registry(), t.now()),
        };
        spans.time("alerts.eval", || alerts.eval(now, registry, &mut recorder));
        if w.tenants {
            // The `wal` tenant captures a snapshot at the end of every
            // tick it runs; it has no quota, so it runs every tick.
            let mut copy = sys.engines()[0].clone();
            black_box(spans.time("snap.checkpoint", || copy.checkpoint()));
        }
        spans.exit(id);
    }
    spans.time(drain_name, || sys.drain())?;
    let id = spans.enter("replay.drain");
    shadow.drain(spans)?;
    spans.exit(id);
    shadow.verify(&sys)?;
    let outcome = outcome(w, &sys, points.len())?;
    let calls_ns: u64 = spans.spans()[first_span..]
        .iter()
        .filter(|s| s.parent.is_none() && [push_name, tick_name, drain_name].contains(&s.name))
        .map(|s| s.end - s.start)
        .sum();
    Ok(Traced {
        work: shadow.work(),
        depths,
        ticks,
        deferred: shadow.deferred(),
        pps: outcome.clustered as f64 / (calls_ns as f64 / 1e9),
        digest: digest(&sys),
        outcome,
        system: sys,
    })
}

/// The sense pass replayed over a single engine's final centroids with
/// the `faulty` tenant's plan: (µs per pass, healed / injected).
fn fault_probe(w: &Workload, sys: &System) -> (f64, f64) {
    let fault = w.fault_config();
    let centroids = sys.engines()[0].model().centroids().to_vec();
    let mut pool = dual_fault::SpareRowPool::new(w.slots(), fault.policy.spares());
    let (mut us, mut injected, mut healed) = (Vec::new(), 0u64, 0u64);
    for epoch in 1..=4 {
        let t = Instant::now();
        let s = sense_pass(
            &fault.plan,
            fault.policy,
            &mut pool,
            &centroids,
            w.shards,
            epoch,
        );
        us.push(secs(t) * 1e6);
        injected += s.injected;
        healed += s.healed;
    }
    (median(&us), healed as f64 / injected.max(1) as f64)
}

/// The admission gate and scheduler alone, on a one-tenant topology
/// with the workload's engine shape and nothing due: (ns per push, µs
/// per tick).
fn topology_probe(w: &Workload, points: &[Vec<f64>]) -> Result<(f64, f64), String> {
    let n = points.len().min(4096);
    let mut cfg: StreamConfig = w.stream_config();
    cfg.capacity = n;
    cfg.max_batch = n + 1;
    cfg.max_ticks = u64::MAX;
    let mut topo: Topology<HdMapper> = Topology::new();
    topo.add_tenant(TenantSpec::new("probe", cfg), w.encoder())
        .map_err(|e| format!("probe: {e}"))?;
    let t = Instant::now();
    for p in &points[..n] {
        topo.push("probe", p).map_err(|e| format!("probe: {e}"))?;
    }
    let push_ns = secs(t) * 1e9 / n as f64;
    let ticks = 256;
    let t = Instant::now();
    for _ in 0..ticks {
        topo.tick().map_err(|e| format!("probe: {e}"))?;
    }
    Ok((push_ns, secs(t) * 1e6 / f64::from(ticks)))
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args, run: &mut Run, inputs: &Inputs) -> Result<Metrics, String> {
    let w = args.workload;
    let points = inputs.firehose(&w);
    let start = Instant::now();
    let mut spans = Spans::new();
    let mut passes: Vec<Traced> = Vec::new();
    // Untraced passes alternate with traced ones, so the tracing
    // overhead compares passes run under the same host conditions.
    let mut untraced_pps = Vec::new();
    let budget = FIREHOSE_SHARE * args.seconds;
    while passes.is_empty()
        || secs(start) * (passes.len() + 1) as f64 / passes.len() as f64 <= budget
    {
        let mut untraced = Passes::default();
        untraced.run_one(&w, points)?;
        untraced_pps.push(untraced.pps[0]);
        let pass = traced_pass(&w, points, &mut spans)?;
        if untraced.first.as_ref().map(|f| f.0) != Some(pass.digest) {
            return Err("repeat: the traced pass differs from the untraced pass".to_owned());
        }
        passes.push(pass);
    }
    let first = &passes[0];
    let mut open = OpenPhase {
        segments: Vec::new(),
    };
    for _ in 0..OPEN_SEGMENTS {
        open.run_one(&w, inputs.open())?;
    }
    let (_, snap) = finish(
        args,
        run,
        inputs,
        (first.digest, first.outcome, &first.system),
        &open,
    )?;
    let closed = 2 * passes.len() as u64;
    let segments = OPEN_SEGMENTS as u64;
    run.attempted = first.outcome.offered * closed + open.outcome().offered * segments;
    run.failed = first.outcome.failed * closed + open.outcome().failed * segments;

    let mut work = Work::default();
    let (mut depths, mut ticks, mut deferred, mut traced_pps) =
        (Vec::new(), 0u64, 0u64, Vec::new());
    for p in &passes {
        work.add(&p.work);
        depths.extend(&p.depths);
        ticks += p.ticks;
        deferred += p.deferred;
        traced_pps.push(p.pps);
    }
    let totals = spans.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let (push_name, tick_name, drain_name) = call_names(&w);
    let points_f = work.points as f64;
    let offered_f = work.offered as f64;
    let calls = ns(push_name) + ns(tick_name) + ns(drain_name);
    let mut replayed = ns("ring.push")
        + ns("ring.pop")
        + ns("pool.encode")
        + ns("online.observe")
        + ns("fault.sense")
        + ns("snap.checkpoint");
    if w.tenants {
        replayed += ns("alerts.eval");
    }

    let engines = first.system.engines();
    let (chip_ns, chip_pj, chip_points) = engines.iter().fold((0.0, 0.0, 0u64), |acc, e| {
        let t = e.meter().total();
        (
            acc.0 + t.time_ns(),
            acc.1 + t.energy_pj(),
            acc.2 + e.meter().points(),
        )
    });
    let (sense_us, healed_ratio) = if w.tenants {
        let status = engines[1]
            .fault_status()
            .ok_or("faulty tenant has no fault status")?;
        run.check(
            status.quarantine_trips == 0,
            "fault: a shard was quarantined; the workload left the healing envelope",
        );
        (
            ns("fault.sense") / work.sense_passes.max(1) as f64 / 1e3,
            status.healed as f64 / status.injected.max(1) as f64,
        )
    } else {
        fault_probe(&w, &first.system)
    };
    let (topo_push_ns, topo_tick_us, deferred_share) = if w.tenants {
        (
            ns(push_name) / offered_f,
            ns(tick_name) / ticks as f64 / 1e3,
            deferred as f64 / (ticks * TENANTS.len() as u64) as f64,
        )
    } else {
        let (p, t) = topology_probe(&w, points)?;
        (p, t, 0.0)
    };

    let mut m = Metrics(Vec::new());
    m.put("hdc.encode_ns_per_point", ns("hdc.encode") / points_f, "ns");
    m.put(
        "hdc.project_ns_per_point",
        ns("hdc.project") / points_f,
        "ns",
    );
    m.put(
        "hdc.binarize_ns_per_point",
        (ns("hdc.encode") - ns("hdc.project")) / points_f,
        "ns",
    );
    m.put(
        "pool.encode_ns_per_point",
        ns("pool.encode") / points_f,
        "ns",
    );
    m.put(
        "pool.speedup",
        ns("hdc.encode") / ns("pool.encode"),
        "ratio",
    );
    m.put(
        "index.assign_ns_per_point",
        ns("index.assign") / points_f,
        "ns",
    );
    m.put(
        "index.words_per_point",
        work.index_words as f64 / points_f,
        "count",
    );
    m.put(
        "online.update_ns_per_point",
        (ns("online.observe") - ns("index.assign")) / points_f,
        "ns",
    );
    m.put(
        "online.rebinarized_per_batch",
        work.rebinarized as f64 / work.batches as f64,
        "count",
    );
    m.put(
        "ring.push_pop_ns_per_point",
        (ns("ring.push") + ns("ring.pop")) / offered_f,
        "ns",
    );
    m.put("ring.depth_p99", quantile(&depths, 0.99), "count");
    m.put(
        "engine.push_ns_per_point",
        self_ns(push_name) / offered_f,
        "ns",
    );
    m.put(
        "engine.tick_us_per_batch",
        (self_ns(tick_name) + self_ns(drain_name)) / work.batches as f64 / 1e3,
        "us",
    );
    m.put(
        "engine.residual_ns_per_point",
        (calls - replayed) / offered_f,
        "ns",
    );
    m.put("fault.sense_us_per_batch", sense_us, "us");
    m.put("fault.healed_ratio", healed_ratio, "ratio");
    m.put("snap.checkpoint_us", snap.checkpoint_us, "us");
    m.put("snap.restore_us", snap.restore_us, "us");
    m.put("snap.bytes", snap.bytes as f64, "bytes");
    m.put("topology.push_ns_per_point", topo_push_ns, "ns");
    m.put("topology.tick_us", topo_tick_us, "us");
    m.put("topology.deferred_share", deferred_share, "ratio");
    m.put(
        "trace.alerts_eval_us_per_tick",
        ns("alerts.eval") / count("alerts.eval").max(1) as f64 / 1e3,
        "us",
    );
    m.put("pim.chip_ns_per_point", chip_ns / chip_points as f64, "ns");
    m.put("pim.chip_pj_per_point", chip_pj / chip_points as f64, "pJ");
    m.put("loadgen.lag_p99_ms", open.lag_p99_ms(), "ms");
    m.put(
        "trace_overhead_ratio",
        median(&traced_pps) / median(&untraced_pps),
        "ratio",
    );

    run.line(format!(
        "traced: {} replayed passes of {} points, every one bit-identical to the engine; {} spans",
        passes.len(),
        w.firehose_points,
        spans.spans().len()
    ));
    for (name, t) in &totals {
        run.line(format!(
            "span {name}: count {} total {:.3} ms self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    if let Some(dir) = &args.state_dir {
        let path = dir.join(format!("spans-{}-{}.csv", w.name, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans.write_csv(f));
        run.check(written.is_ok(), format!("cannot write {}", path.display()));
        run.line(format!("spans written to {}", path.display()));
    }
    Ok(m)
}

fn json(run: &Run, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failures.is_empty(),
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { f64::MAX };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut run = Run {
        report: String::new(),
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    run.line(format!(
        "perfbench workload={} seed={} seconds={} trace={} (seed {HELDOUT_SEED} is reserved for confirming claims)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    run.line(host_line());
    run.line(format!(
        "shape: D={} m={} slots={} batch={} threads={} streams={} tick_every={} offered_rate={} pts/s",
        w.dim,
        w.features,
        w.slots(),
        w.batch,
        w.threads,
        w.streams(),
        w.tick_every,
        w.offered_rate
    ));
    let open_seconds = OPEN_SHARE * args.seconds / OPEN_SEGMENTS as f64;
    let open_points = ((w.offered_rate * open_seconds) as usize).max(w.offered_rate as usize);
    let total = open_points.max(w.firehose_points + w.heldout_points);
    let (points, labels) = w.inputs(args.seed, total);
    let inputs = Inputs {
        points,
        labels,
        open_points,
    };
    let result = if args.trace {
        traced(&args, &mut run, &inputs)
    } else {
        untraced(&args, &mut run, &inputs)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            run.failures.push(e);
            Metrics(Vec::new())
        }
    };
    for (name, value, unit) in &metrics.0 {
        run.line(format!("{name} = {value} {unit}"));
    }
    for f in run.failures.clone() {
        run.line(format!("CHECK FAILED: {f}"));
    }
    if run.failures.is_empty() {
        run.line(format!(
            "checks: conservation, call results, replay and repeat all hold on {}",
            w.name
        ));
    }
    print!("{}", run.report);
    println!("{}", json(&run, &metrics));
    if !run.failures.is_empty() {
        std::process::exit(1);
    }
}

//! Bottleneck reports from metrics snapshots: the `atos-profile` binary.
//!
//! A sharded run (`--sim-threads K --metrics PATH`) leaves a
//! [`atos_trace::MetricsRegistry`] JSON snapshot whose `shard<i>.*` and
//! `sharded.*` namespaces carry the profiling layer's telemetry: per-shard
//! barrier-wait histograms, window spans, exchange volumes, and the
//! per-window imbalance distribution. [`render_report`] turns that
//! snapshot into a human-readable diagnosis — top time sinks per shard, an
//! imbalance verdict, the barrier-overhead fraction, and a
//! scaling-headroom estimate — without re-running anything: the report is
//! a pure function of the snapshot, so it is deterministic and can be
//! produced long after the run (or from a snapshot captured on another
//! machine).
//!
//! Interpretation thresholds (see EXPERIMENTS.md "diagnosing a flat
//! scaling curve"): a median per-window imbalance ratio at or below
//! [`BALANCED_RATIO`] is considered balanced, at or below
//! [`SKEWED_RATIO`] moderately skewed, and above that skewed — the shard
//! partition, not the barrier, is then the scaling limiter.

use atos_core::LoadBalance;
use atos_trace::hist::{Histogram, HistogramSummary};
use atos_trace::json::{self, Json};

/// Median per-window imbalance ratio (max shard events / mean shard
/// events) at or below which the partition counts as balanced.
pub const BALANCED_RATIO: f64 = 1.25;

/// Median imbalance ratio at or below which the partition counts as
/// moderately skewed; above it the verdict is "skewed".
pub const SKEWED_RATIO: f64 = 2.0;

/// One shard's telemetry re-read from a metrics snapshot.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Shard index.
    pub shard: usize,
    /// PE range `[pe_lo, pe_hi)` the shard owns.
    pub pe_lo: u64,
    /// End of the PE range (exclusive).
    pub pe_hi: u64,
    /// Windows the shard executed.
    pub windows: u64,
    /// Simulation events the shard executed.
    pub events: u64,
    /// Cross-shard messages the shard published.
    pub published: u64,
    /// Cross-shard rows the shard drained.
    pub drained: u64,
    /// Total wall-clock nanoseconds the shard's thread spent in barriers.
    pub barrier_wait_total_ns: u64,
    /// Successful steals the shard's PEs performed (0 under
    /// owner-computes).
    pub lb_steals: u64,
    /// Barrier-wait distribution (wall-clock ns per window).
    pub barrier_wait: Option<HistogramSummary>,
    /// Window-span distribution (virtual ns of safe-horizon advance).
    pub window_span: Option<HistogramSummary>,
    /// Events-per-window distribution.
    pub window_events: Option<HistogramSummary>,
}

/// Everything [`render_report`] extracts from a snapshot.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Shard count of the run.
    pub shards: Vec<ShardRow>,
    /// Host threads the run used.
    pub threads: u64,
    /// Host wall-clock of the sharded region, nanoseconds.
    pub wall_ns: u64,
    /// Conservative lookahead, virtual nanoseconds.
    pub lookahead_ns: u64,
    /// Windows executed (same for every shard).
    pub windows: u64,
    /// Total events across shards.
    pub events: u64,
    /// Total cross-shard messages published.
    pub published: u64,
    /// Mean-over-shards barrier-wait fraction, permille of wall-clock.
    pub barrier_frac_permille: u64,
    /// Barrier waits that fell back to `yield_now`.
    pub barrier_yield_waits: u64,
    /// Per-window imbalance distribution (permille of perfect balance).
    pub imbalance: Option<HistogramSummary>,
    /// Active load-balance discipline ([`LoadBalance::code`]; 0 = the
    /// paper's static owner-computes).
    pub lb_discipline: u64,
    /// Successful steals across the run.
    pub lb_steals: u64,
    /// Tasks executed away from their owner PE via steals.
    pub lb_stolen_tasks: u64,
    /// Total tasks the run processed (`run.tasks`).
    pub tasks: u64,
    /// Vertices the run reached (`run.reached_vertices`, the ideal task
    /// count for traversal apps; 0 when the snapshot predates the key).
    pub reached: u64,
}

fn num(v: &Json, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_num()?;
    if n.is_finite() && n >= 0.0 {
        Some(n as u64)
    } else {
        None
    }
}

fn hist(v: &Json, key: &str) -> Option<HistogramSummary> {
    Histogram::summary_from_json(v.get(key)?)
}

impl ProfileSnapshot {
    /// Parse a [`atos_trace::MetricsRegistry::to_json`] snapshot. Returns
    /// `Err` when the text is not valid JSON or carries no sharded-run
    /// telemetry (`sharded.shards` absent — e.g. a sequential
    /// `--sim-threads 1` run).
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let k = num(&v, "sharded.shards").ok_or_else(|| {
            "no sharded-run telemetry in this snapshot (key `sharded.shards` missing) — \
             capture one with `--sim-threads K --metrics PATH`, K > 1"
                .to_string()
        })? as usize;
        let mut shards = Vec::with_capacity(k);
        for s in 0..k {
            let p = |field: &str| num(&v, &format!("shard{s}.{field}"));
            shards.push(ShardRow {
                shard: s,
                pe_lo: p("pe_lo").unwrap_or(0),
                pe_hi: p("pe_hi").unwrap_or(0),
                windows: p("windows").unwrap_or(0),
                events: p("events").unwrap_or(0),
                published: p("published").unwrap_or(0),
                drained: p("drained").unwrap_or(0),
                barrier_wait_total_ns: p("barrier_wait_total_ns").unwrap_or(0),
                lb_steals: p("lb_steals").unwrap_or(0),
                barrier_wait: hist(&v, &format!("shard{s}.barrier_wait_ns")),
                window_span: hist(&v, &format!("shard{s}.window_span_ns")),
                window_events: hist(&v, &format!("shard{s}.window_events")),
            });
        }
        Ok(ProfileSnapshot {
            shards,
            threads: num(&v, "sharded.threads").unwrap_or(1),
            wall_ns: num(&v, "sharded.wall_ns").unwrap_or(0),
            lookahead_ns: num(&v, "sharded.lookahead_ns").unwrap_or(0),
            windows: num(&v, "sharded.windows").unwrap_or(0),
            events: num(&v, "sharded.events").unwrap_or(0),
            published: num(&v, "sharded.published").unwrap_or(0),
            barrier_frac_permille: num(&v, "sharded.barrier_frac_permille").unwrap_or(0),
            barrier_yield_waits: num(&v, "sharded.barrier_yield_waits").unwrap_or(0),
            imbalance: hist(&v, "sharded.imbalance_permille"),
            lb_discipline: num(&v, "lb.discipline").unwrap_or(0),
            lb_steals: num(&v, "lb.steals").unwrap_or(0),
            lb_stolen_tasks: num(&v, "lb.stolen_tasks").unwrap_or(0),
            tasks: num(&v, "run.tasks").unwrap_or(0),
            reached: num(&v, "run.reached_vertices").unwrap_or(0),
        })
    }

    /// Name of the active load-balance policy: `"owner"` for snapshots
    /// that predate the `lb.*` namespace (the key reads 0), and the bare
    /// number for a code no current policy has — a snapshot written when
    /// `chunk` (2) and `priority` (3) existed did not run owner-computes
    /// and must not be reported as if it had.
    pub fn balancer_name(&self) -> String {
        match u8::try_from(self.lb_discipline).ok().and_then(LoadBalance::from_code) {
            Some(lb) => lb.name().to_string(),
            None => format!("#{}", self.lb_discipline),
        }
    }

    /// Redundant work as a percentage over the ideal task count: tasks
    /// beyond one per reached vertex. `None` when the snapshot carries no
    /// `run.reached_vertices` (non-traversal app or pre-`lb` history).
    pub fn redundant_work_pct(&self) -> Option<f64> {
        if self.reached == 0 {
            return None;
        }
        Some(100.0 * (self.tasks as f64 / self.reached as f64 - 1.0).max(0.0))
    }

    /// Fraction of tasks executed away from their owner PE via steals.
    pub fn migrated_frac(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.lb_stolen_tasks as f64 / self.tasks as f64
    }

    /// Mean-over-shards fraction of wall-clock spent waiting at barriers.
    pub fn barrier_frac(&self) -> f64 {
        self.barrier_frac_permille as f64 / 1000.0
    }

    /// Median per-window imbalance ratio (1.0 = perfect balance).
    pub fn imbalance_ratio(&self) -> f64 {
        match &self.imbalance {
            Some(h) => (h.p50 as f64 / 1000.0).max(1.0),
            None => 1.0,
        }
    }

    /// Human verdict on the imbalance distribution.
    pub fn imbalance_verdict(&self) -> &'static str {
        let r = self.imbalance_ratio();
        if r <= BALANCED_RATIO {
            "balanced"
        } else if r <= SKEWED_RATIO {
            "moderately skewed"
        } else {
            "skewed"
        }
    }

    /// Estimated useful parallelism: `K / imbalance × (1 − barrier_frac)`
    /// — how many of the `K` shards' worth of work the run can actually
    /// overlap once imbalance and synchronization are paid.
    pub fn scaling_headroom(&self) -> f64 {
        let k = self.shards.len().max(1) as f64;
        (k / self.imbalance_ratio()) * (1.0 - self.barrier_frac()).max(0.0)
    }

    /// The dominant scaling limiter, by simple attribution: barriers when
    /// synchronization eats over a quarter of wall-clock, imbalance when
    /// the distribution is skewed, otherwise window execution itself.
    pub fn dominant_sink(&self) -> &'static str {
        if self.barrier_frac() > 0.25 {
            "barrier synchronization (shrink K or raise lookahead)"
        } else if self.imbalance_ratio() > SKEWED_RATIO {
            "load imbalance (repartition the PEs across shards)"
        } else {
            "window execution (compute-bound; scaling limited by events per window)"
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn hist_cells(h: &Option<HistogramSummary>) -> (String, String, String) {
    match h {
        Some(h) => (fmt_ns(h.p50), fmt_ns(h.p99), fmt_ns(h.max)),
        None => ("-".into(), "-".into(), "-".into()),
    }
}

/// Render the bottleneck report for one metrics snapshot. `Err` carries a
/// one-line reason suitable for stderr (malformed JSON, or no sharded
/// telemetry).
pub fn render_report(metrics_json: &str) -> Result<String, String> {
    let snap = ProfileSnapshot::parse(metrics_json)?;
    let mut out = String::new();
    let k = snap.shards.len();
    out.push_str(&format!(
        "atos-profile: {k} shards on {} thread{}, {} windows, {} events, wall {}\n",
        snap.threads,
        if snap.threads == 1 { "" } else { "s" },
        snap.windows,
        snap.events,
        fmt_ns(snap.wall_ns),
    ));
    out.push_str(&format!(
        "lookahead {} (virtual), {} cross-shard messages, {} yield-waits at barriers\n\n",
        fmt_ns(snap.lookahead_ns),
        snap.published,
        snap.barrier_yield_waits,
    ));

    out.push_str(&format!(
        "{:<6}{:>10}{:>9}{:>11}{:>10}{:>9}{:>9}{:>11}{:>11}{:>11}{:>8}\n",
        "shard", "pes", "windows", "events", "publish", "drain", "steals", "wait-p50", "wait-p99",
        "wait-max", "wait%"
    ));
    for row in &snap.shards {
        let (p50, p99, max) = hist_cells(&row.barrier_wait);
        let wait_pct = if snap.wall_ns > 0 {
            100.0 * row.barrier_wait_total_ns as f64 / snap.wall_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<6}{:>10}{:>9}{:>11}{:>10}{:>9}{:>9}{:>11}{:>11}{:>11}{:>7.1}%\n",
            row.shard,
            format!("{}..{}", row.pe_lo, row.pe_hi),
            row.windows,
            row.events,
            row.published,
            row.drained,
            row.lb_steals,
            p50,
            p99,
            max,
            wait_pct,
        ));
    }

    // Top time sinks: rank shards by barrier wait, flag the busiest shard.
    let mut by_wait: Vec<&ShardRow> = snap.shards.iter().collect();
    by_wait.sort_by(|a, b| {
        b.barrier_wait_total_ns
            .cmp(&a.barrier_wait_total_ns)
            .then(a.shard.cmp(&b.shard))
    });
    if let Some(worst) = by_wait.first() {
        out.push_str(&format!(
            "\ntop waiter: shard {} ({} in barriers)",
            worst.shard,
            fmt_ns(worst.barrier_wait_total_ns)
        ));
    }
    if let Some(busiest) = snap.shards.iter().max_by_key(|r| (r.events, usize::MAX - r.shard)) {
        out.push_str(&format!(
            "; busiest: shard {} ({} events)\n",
            busiest.shard, busiest.events
        ));
    } else {
        out.push('\n');
    }

    out.push_str(&format!(
        "\nimbalance: median {:.2}x of perfect balance under the {} balancer -> {}\n",
        snap.imbalance_ratio(),
        snap.balancer_name(),
        snap.imbalance_verdict(),
    ));
    let redundant = match snap.redundant_work_pct() {
        Some(pct) => format!("redundant work +{pct:.1}%"),
        None => "redundant work n/a (no run.reached_vertices in snapshot)".to_string(),
    };
    out.push_str(&format!(
        "load balance: {} discipline, {} steal{} moved {} task{} ({:.1}% of {}), {}\n",
        snap.balancer_name(),
        snap.lb_steals,
        if snap.lb_steals == 1 { "" } else { "s" },
        snap.lb_stolen_tasks,
        if snap.lb_stolen_tasks == 1 { "" } else { "s" },
        100.0 * snap.migrated_frac(),
        snap.tasks,
        redundant,
    ));
    out.push_str(&format!(
        "barrier overhead: {:.1}% of wall-clock\n",
        100.0 * snap.barrier_frac(),
    ));
    out.push_str(&format!(
        "scaling headroom: ~{:.2} of {k} shards useful ({})\n",
        snap.scaling_headroom(),
        snap.dominant_sink(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_trace::MetricsRegistry;

    fn synthetic_snapshot(imbalance_p50: u64, barrier_frac_permille: u64) -> String {
        let mut reg = MetricsRegistry::new();
        reg.set("sharded.shards", 2);
        reg.set("sharded.threads", 2);
        reg.set("sharded.wall_ns", 1_000_000);
        reg.set("sharded.lookahead_ns", 500);
        reg.set("sharded.windows", 10);
        reg.set("sharded.events", 300);
        reg.set("sharded.published", 40);
        reg.set("sharded.barrier_frac_permille", barrier_frac_permille);
        reg.set("sharded.barrier_yield_waits", 3);
        reg.set("lb.discipline", 1);
        reg.set("lb.steals", 6);
        reg.set("lb.stolen_tasks", 48);
        reg.set("run.tasks", 400);
        reg.set("run.reached_vertices", 320);
        let mut imb = Histogram::new();
        for _ in 0..9 {
            imb.record(imbalance_p50);
        }
        reg.set_histogram("sharded.imbalance_permille", imb);
        for s in 0..2u64 {
            reg.set(&format!("shard{s}.pe_lo"), s * 2);
            reg.set(&format!("shard{s}.pe_hi"), s * 2 + 2);
            reg.set(&format!("shard{s}.windows"), 10);
            reg.set(&format!("shard{s}.events"), 150 + s * 20);
            reg.set(&format!("shard{s}.published"), 20);
            reg.set(&format!("shard{s}.drained"), 20);
            reg.set(&format!("shard{s}.barrier_wait_total_ns"), 10_000 * (s + 1));
            reg.set(&format!("shard{s}.lb_steals"), 3 * (s + 1));
            let mut h = Histogram::new();
            for v in [900u64, 1000, 1200, 5000] {
                h.record(v);
            }
            reg.set_histogram(&format!("shard{s}.barrier_wait_ns"), h.clone());
            reg.set_histogram(&format!("shard{s}.window_span_ns"), h.clone());
            reg.set_histogram(&format!("shard{s}.window_events"), h);
        }
        reg.to_json()
    }

    #[test]
    fn report_requires_sharded_telemetry() {
        let mut reg = MetricsRegistry::new();
        reg.set("run.elapsed_ns", 123);
        let err = render_report(&reg.to_json()).unwrap_err();
        assert!(err.contains("sharded.shards"), "{err}");
        assert!(render_report("not json").is_err());
    }

    #[test]
    fn report_renders_all_sections() {
        let text = synthetic_snapshot(1400, 120);
        let report = render_report(&text).unwrap();
        assert!(report.contains("2 shards on 2 threads"), "{report}");
        assert!(report.contains("wait-p99"), "{report}");
        assert!(report.contains("top waiter: shard 1"), "{report}");
        assert!(report.contains("busiest: shard 1"), "{report}");
        assert!(report.contains("moderately skewed"), "{report}");
        assert!(report.contains("barrier overhead: 12.0%"), "{report}");
        assert!(report.contains("scaling headroom"), "{report}");
        // The load-balance section: verdict names the active balancer,
        // the steals column renders, and the discipline line carries
        // steal counts plus the redundant-work percentage.
        assert!(report.contains("under the steal balancer"), "{report}");
        assert!(report.contains("steals"), "{report}");
        assert!(
            report.contains("load balance: steal discipline, 6 steals moved 48 tasks"),
            "{report}"
        );
        assert!(report.contains("(12.0% of 400), redundant work +25.0%"), "{report}");
    }

    #[test]
    fn report_defaults_to_owner_on_pre_lb_snapshots() {
        // A snapshot with no lb.* namespace (pre-discipline history) must
        // parse and report owner-computes with zero steals.
        let mut reg = MetricsRegistry::new();
        reg.set("sharded.shards", 1);
        reg.set("shard0.pe_lo", 0);
        reg.set("shard0.pe_hi", 4);
        let snap = ProfileSnapshot::parse(&reg.to_json()).unwrap();
        assert_eq!(snap.balancer_name(), "owner");
        assert_eq!(snap.lb_steals, 0);
        assert_eq!(snap.redundant_work_pct(), None);
        let report = render_report(&reg.to_json()).unwrap();
        assert!(report.contains("load balance: owner discipline, 0 steals"), "{report}");
        assert!(report.contains("redundant work n/a"), "{report}");
    }

    #[test]
    fn report_prints_the_code_of_a_retired_discipline() {
        // Snapshots written while `chunk` (2) and `priority` (3) existed.
        for code in [2u64, 3] {
            let mut reg = MetricsRegistry::new();
            reg.set("sharded.shards", 1);
            reg.set("lb.discipline", code);
            reg.set("lb.steals", 4);
            let snap = ProfileSnapshot::parse(&reg.to_json()).unwrap();
            assert_eq!(snap.balancer_name(), format!("#{code}"));
            let report = render_report(&reg.to_json()).unwrap();
            assert!(
                report.contains(&format!("load balance: #{code} discipline, 4 steals")),
                "{report}"
            );
            assert!(!report.contains("owner"), "{report}");
        }
    }

    #[test]
    fn verdict_thresholds() {
        let balanced = ProfileSnapshot::parse(&synthetic_snapshot(1100, 0)).unwrap();
        assert_eq!(balanced.imbalance_verdict(), "balanced");
        let moderate = ProfileSnapshot::parse(&synthetic_snapshot(1800, 0)).unwrap();
        assert_eq!(moderate.imbalance_verdict(), "moderately skewed");
        let skewed = ProfileSnapshot::parse(&synthetic_snapshot(3500, 0)).unwrap();
        assert_eq!(skewed.imbalance_verdict(), "skewed");
        // Headroom: K=2, ratio ~3.5 (HDR bucket floor), no barrier cost.
        let ratio = skewed.imbalance_ratio();
        assert!((3.3..3.6).contains(&ratio), "{ratio}");
        let h = skewed.scaling_headroom();
        assert!((h - 2.0 / ratio).abs() < 1e-9, "{h}");
    }

    #[test]
    fn dominant_sink_attribution() {
        let barrier = ProfileSnapshot::parse(&synthetic_snapshot(1000, 400)).unwrap();
        assert!(barrier.dominant_sink().starts_with("barrier"));
        let imb = ProfileSnapshot::parse(&synthetic_snapshot(4000, 10)).unwrap();
        assert!(imb.dominant_sink().starts_with("load imbalance"));
        let compute = ProfileSnapshot::parse(&synthetic_snapshot(1000, 10)).unwrap();
        assert!(compute.dominant_sink().starts_with("window execution"));
    }

    #[test]
    fn report_on_real_reference_run() {
        // End-to-end: profile an actual sharded reference run's snapshot.
        let (_, reg, _) = crate::observability::reference_run_sharded(
            atos_graph::generators::Scale::Tiny,
            crate::RunConfig {
                sim_threads: 4,
                ..Default::default()
            },
            &crate::EventTally::default(),
        );
        let report = render_report(&reg.to_json()).unwrap();
        assert!(report.contains("4 shards"), "{report}");
        assert!(report.contains("imbalance"), "{report}");
        for s in 0..4 {
            assert!(report.contains(&format!("\n{s}")), "shard {s} row\n{report}");
        }
    }
}

//! Test reports: per-case verdicts and the aggregate the driver returns
//! ("Meissa reports passed and failed test cases to the developer", §3).
//!
//! Besides verdict counters, the report carries timing: every case records
//! its wall-clock latency (send → verdict), and the aggregate surfaces the
//! p50/p99 latency and end-to-end throughput — the numbers that matter once
//! the driver runs over a real wire instead of an in-process call.

use crate::localize::TraceStep;
use std::fmt;
use std::time::Duration;

/// Outcome of one test case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Actual output matched the expected output and every applicable
    /// intent held.
    Pass,
    /// Actual output diverged from the expected (source-semantics) output —
    /// the signature of a non-code bug when the source is believed correct.
    OutputMismatch {
        /// Human-readable difference description.
        detail: String,
    },
    /// An LPI intent's `expect` clause failed on the produced state.
    IntentViolation {
        /// Name of the violated intent.
        intent: String,
    },
    /// The case could not be executed (e.g. hash post-filter rejected every
    /// candidate packet).
    Skipped {
        /// Why.
        reason: String,
    },
}

impl Verdict {
    /// True for a failed case: an output mismatch or an intent violation.
    pub(crate) fn is_failure(&self) -> bool {
        matches!(
            self,
            Verdict::OutputMismatch { .. } | Verdict::IntentViolation { .. }
        )
    }
}

/// One test case's result.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Template that produced the case.
    pub template_id: usize,
    /// The verdict.
    pub verdict: Verdict,
    /// Bug-localization trace (§7), populated on failure.
    pub trace: Vec<TraceStep>,
    /// Wall-clock latency from injection to verdict. For the wire driver
    /// this spans send → matched response (including retries); skipped
    /// cases record zero.
    pub latency: Duration,
}

impl CaseResult {
    /// A case result with no latency recorded yet.
    pub fn new(template_id: usize, verdict: Verdict, trace: Vec<TraceStep>) -> Self {
        CaseResult {
            template_id,
            verdict,
            trace,
            latency: Duration::ZERO,
        }
    }
}

/// The aggregate test report.
#[derive(Clone, Debug)]
pub struct TestReport {
    /// Name of the fault configuration the target ran under (for bench
    /// matrices; "none" for production targets).
    pub target_label: String,
    /// All case results, in template order.
    pub cases: Vec<CaseResult>,
    /// End-to-end wall time of the whole run (sender + receiver + checker);
    /// the denominator of [`TestReport::cases_per_sec`]. Zero when the
    /// driver did not record it.
    pub elapsed: Duration,
}

impl TestReport {
    /// An empty report for the given target label.
    pub fn new(target_label: &str) -> Self {
        TestReport {
            target_label: target_label.to_string(),
            cases: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Appends a case result.
    pub fn push(&mut self, case: CaseResult) {
        self.cases.push(case);
    }

    /// Number of passed cases.
    pub fn passed(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.verdict == Verdict::Pass)
            .count()
    }

    /// Number of failed cases (mismatches + intent violations).
    pub fn failed(&self) -> usize {
        self.cases.iter().filter(|c| c.verdict.is_failure()).count()
    }

    /// Number of skipped cases.
    pub fn skipped(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| matches!(c.verdict, Verdict::Skipped { .. }))
            .count()
    }

    /// True when at least one case failed — i.e. Meissa found a bug.
    pub fn found_bug(&self) -> bool {
        self.failed() > 0
    }

    /// Latencies of every executed (non-skipped) case, sorted ascending.
    fn sorted_latencies(&self) -> Vec<Duration> {
        let mut v: Vec<Duration> = self
            .cases
            .iter()
            .filter(|c| !matches!(c.verdict, Verdict::Skipped { .. }))
            .map(|c| c.latency)
            .collect();
        v.sort();
        v
    }

    /// Nearest-rank percentile of executed-case latency (`p` in 0..=100).
    /// `None` when every case was skipped.
    pub fn latency_percentile(&self, p: u32) -> Option<Duration> {
        let v = self.sorted_latencies();
        if v.is_empty() {
            return None;
        }
        let rank = meissa_testkit::obs::percentile_index(v.len(), p);
        Some(v[rank.min(v.len() - 1)])
    }

    /// Median per-case latency.
    pub fn latency_p50(&self) -> Option<Duration> {
        self.latency_percentile(50)
    }

    /// 99th-percentile per-case latency.
    pub fn latency_p99(&self) -> Option<Duration> {
        self.latency_percentile(99)
    }

    /// Executed cases per second of end-to-end wall time. `None` when the
    /// driver recorded no elapsed time.
    pub fn cases_per_sec(&self) -> Option<f64> {
        if self.elapsed.is_zero() {
            return None;
        }
        let executed = self.cases.len() - self.skipped();
        Some(executed as f64 / self.elapsed.as_secs_f64())
    }
}

impl fmt::Display for TestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "test report (target: {}): {} passed, {} failed, {} skipped of {} cases",
            self.target_label,
            self.passed(),
            self.failed(),
            self.skipped(),
            self.cases.len()
        )?;
        if let (Some(p50), Some(p99)) = (self.latency_p50(), self.latency_p99()) {
            write!(
                f,
                "  latency p50 {:.3}ms, p99 {:.3}ms",
                p50.as_secs_f64() * 1e3,
                p99.as_secs_f64() * 1e3
            )?;
            if let Some(tput) = self.cases_per_sec() {
                write!(f, ", {tput:.0} cases/s")?;
            }
            writeln!(f)?;
        }
        for c in &self.cases {
            match &c.verdict {
                Verdict::Pass => {}
                Verdict::OutputMismatch { detail } => {
                    writeln!(f, "  case #{}: NO PASS — {detail}", c.template_id)?;
                    for step in c.trace.iter().take(12) {
                        writeln!(f, "      {step}")?;
                    }
                    if c.trace.len() > 12 {
                        writeln!(f, "      … {} more steps", c.trace.len() - 12)?;
                    }
                }
                Verdict::IntentViolation { intent } => {
                    writeln!(f, "  case #{}: NO PASS — intent `{intent}` violated", c.template_id)?;
                }
                Verdict::Skipped { reason } => {
                    writeln!(f, "  case #{}: skipped — {reason}", c.template_id)?;
                }
            }
        }
        Ok(())
    }
}

/// Aggregate result of a sustained-soak run (the wire driver's
/// wall-clock replay mode, optionally fuzzing). A soak produces far too
/// many cases to keep per-case results; this carries counters only.
///
/// `elapsed` covers the replay phase — planning happened before the soak
/// clock started — so [`SoakStats::cases_per_sec`] measures the wire tier.
#[derive(Clone, Debug, Default)]
pub struct SoakStats {
    /// Replay-phase wall time.
    pub elapsed: Duration,
    /// Cases replayed to a verdict (responses plus drain-phase give-ups).
    pub cases: u64,
    /// Cases where the target's observed behaviour disagreed with the
    /// reference (zero on a faithful target, fuzzed or not).
    pub divergent: u64,
    /// Cases that needed at least one retransmission.
    pub retried: u64,
    /// Whether packets were mutated before injection.
    pub fuzzed: bool,
    /// Divergence class → count, sorted by class name. Classes are stable
    /// strings (`missing-output`, `unexpected-forward`, `payload-mismatch`,
    /// `port-mismatch`, `state-mismatch`, `no-response`).
    pub classes: Vec<(String, u64)>,
    /// Total rule arms (installed rules + miss arms) in the program under
    /// soak. Zero when the reference ran without a tally.
    pub rules_total: u64,
    /// Rule arms the replay exercised at least once.
    pub rules_hit: u64,
    /// Coverage-growth curve: `(t_ms, arms_hit)` samples at coarse time
    /// buckets over the replay, cumulative and therefore monotone. Shows
    /// how fast the replayed case mix saturates the rule set.
    pub coverage_curve: Vec<(u64, u64)>,
}

impl SoakStats {
    /// Replayed cases per second of soak wall time. `None` when no time
    /// was recorded.
    pub fn cases_per_sec(&self) -> Option<f64> {
        if self.elapsed.is_zero() {
            return None;
        }
        Some(self.cases as f64 / self.elapsed.as_secs_f64())
    }
}

impl fmt::Display for SoakStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soak{}: {} cases in {:.2}s",
            if self.fuzzed { " (fuzz)" } else { "" },
            self.cases,
            self.elapsed.as_secs_f64()
        )?;
        if let Some(tput) = self.cases_per_sec() {
            write!(f, " = {tput:.0}/s")?;
        }
        write!(f, ", {} divergent, {} retried", self.divergent, self.retried)?;
        if self.rules_total > 0 {
            write!(f, ", rules {}/{}", self.rules_hit, self.rules_total)?;
        }
        for (class, n) in &self.classes {
            write!(f, "\n  {class}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_stats_throughput_and_display() {
        let mut s = SoakStats {
            elapsed: Duration::from_secs(2),
            cases: 5000,
            divergent: 3,
            retried: 7,
            fuzzed: true,
            classes: vec![("payload-mismatch".into(), 2), ("no-response".into(), 1)],
            rules_total: 6,
            rules_hit: 5,
            coverage_curve: vec![(0, 3), (500, 5)],
        };
        assert_eq!(s.cases_per_sec(), Some(2500.0));
        let text = s.to_string();
        assert!(text.contains("soak (fuzz)"), "{text}");
        assert!(text.contains("2500/s"), "{text}");
        assert!(text.contains("rules 5/6"), "{text}");
        assert!(text.contains("payload-mismatch: 2"), "{text}");
        s.elapsed = Duration::ZERO;
        assert_eq!(s.cases_per_sec(), None);
    }

    #[test]
    fn counters_partition_cases() {
        let mut r = TestReport::new("none");
        r.push(CaseResult::new(0, Verdict::Pass, vec![]));
        r.push(CaseResult::new(
            1,
            Verdict::OutputMismatch { detail: "x".into() },
            vec![],
        ));
        r.push(CaseResult::new(
            2,
            Verdict::IntentViolation { intent: "i".into() },
            vec![],
        ));
        r.push(CaseResult::new(
            3,
            Verdict::Skipped { reason: "r".into() },
            vec![],
        ));
        assert_eq!(r.passed(), 1);
        assert_eq!(r.failed(), 2);
        assert_eq!(r.skipped(), 1);
        assert!(r.found_bug());
        let text = r.to_string();
        assert!(text.contains("NO PASS"));
        assert!(text.contains("intent `i`"));
    }

    #[test]
    fn clean_report_has_no_failures() {
        let mut r = TestReport::new("none");
        for i in 0..5 {
            r.push(CaseResult::new(i, Verdict::Pass, vec![]));
        }
        assert!(!r.found_bug());
        assert_eq!(r.passed(), 5);
    }

    #[test]
    fn latency_percentiles_use_executed_cases_only() {
        let mut r = TestReport::new("none");
        for (i, ms) in [10u64, 20, 30, 40, 1000].iter().enumerate() {
            r.push(CaseResult {
                template_id: i,
                verdict: Verdict::Pass,
                trace: vec![],
                latency: Duration::from_millis(*ms),
            });
        }
        // A skipped case's zero latency must not drag the percentiles down.
        r.push(CaseResult::new(9, Verdict::Skipped { reason: "s".into() }, vec![]));
        assert_eq!(r.latency_p50(), Some(Duration::from_millis(30)));
        assert_eq!(r.latency_p99(), Some(Duration::from_millis(1000)));
        r.elapsed = Duration::from_secs(1);
        assert_eq!(r.cases_per_sec(), Some(5.0));
        let text = r.to_string();
        assert!(text.contains("latency p50"), "{text}");
    }

    #[test]
    fn empty_and_all_skipped_reports_have_no_percentiles() {
        let r = TestReport::new("none");
        assert_eq!(r.latency_p50(), None);
        assert_eq!(r.cases_per_sec(), None);
        let mut r = TestReport::new("none");
        r.push(CaseResult::new(0, Verdict::Skipped { reason: "s".into() }, vec![]));
        assert_eq!(r.latency_p99(), None);
    }

    #[test]
    fn cases_per_sec_is_none_without_recorded_elapsed() {
        // `elapsed` is documented as zero when the driver did not record
        // it; throughput must be absent rather than a division by zero,
        // even when the report holds executed cases.
        let mut r = TestReport::new("none");
        r.push(CaseResult::new(0, Verdict::Pass, vec![]));
        r.push(CaseResult::new(1, Verdict::OutputMismatch { detail: "x".into() }, vec![]));
        assert_eq!(r.elapsed, Duration::ZERO);
        assert_eq!(r.cases_per_sec(), None);
        r.elapsed = Duration::from_millis(500);
        assert_eq!(r.cases_per_sec(), Some(4.0));
    }
}

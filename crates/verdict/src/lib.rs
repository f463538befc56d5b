//! Explainable verdicts for the BPROM pipeline.
//!
//! The detector's raw output is one probability; an operable black-box
//! auditor must explain *why* a model was flagged. This crate turns every
//! detection signal into a [`Finding`] with a **stable rule ID**
//! (`B001` prompted-accuracy collapse, `B002` subspace inconsistency,
//! `B003` forest vote margin, ... — see [`RuleId`]), a severity, a
//! human-readable reason, and the concrete evidence values, then flows
//! findings through a four-stage pipeline:
//!
//! 1. **collect** — the caller distills one audit into [`Signals`]
//!    (scores, prompted accuracy, query/fault/cache accounting; no
//!    wall-clock, so downstream artifacts are run-to-run byte-stable).
//! 2. **rules** — [`RulePolicy::evaluate`] matches every registered rule
//!    against the signals and emits findings in rule-ID order.
//! 3. **correlate** — [`correlate`] merges repeated audits of the same
//!    model fingerprint over time into one [`ModelIncident`] per model,
//!    escalating backdoor-evidence rules that fire persistently.
//! 4. **respond** — [`respond`] assigns each incident an [`Action`] under
//!    the active [`Mode`]: **learning** records findings without ever
//!    flagging, **strict** flags or quarantines on backdoor evidence.
//!
//! The result serializes as a versioned, machine-readable
//! [`IncidentReport`] (`incident.json`, schema checked by the zero-dep
//! [`validate_incident`]). [`render`] is the single formatting path both
//! `Verdict`'s `Display` and the experiment binaries use, so human and
//! JSON outputs cannot drift.
//!
//! # Example
//!
//! ```
//! use bprom_verdict::{Mode, RulePolicy, Signals, VerdictPipeline};
//!
//! let mut pipeline = VerdictPipeline::new("demo", RulePolicy::default(), Mode::Strict);
//! let mut signals = Signals::default();
//! signals.score = 0.92;
//! signals.backdoored = true;
//! signals.prompted_accuracy = 0.1;
//! signals.queries = 1200;
//! signals.accuracy_queries = 120;
//! pipeline.collect("m0123456789abcdef", signals);
//! let report = pipeline.report();
//! assert_eq!(report.quarantined, 1);
//! assert!(bprom_verdict::validate_incident(
//!     &bprom_obs::Value::parse(&report.to_json_string()).unwrap()
//! ).is_ok());
//! ```

mod correlate;
mod incident;
mod render;
mod respond;
mod rules;
pub mod sink;

pub use correlate::{correlate, AuditRecord, CorrelatedFinding, ModelIncident};
pub use incident::{validate_incident, IncidentReport, INCIDENT_SCHEMA_VERSION};
pub use render::{render, render_fleet, summarize_findings, Timing};
pub use respond::{respond, Action, Mode, MODE_ENV};
pub use rules::{Finding, RuleId, RulePolicy, Severity, Signals};

/// The collect → rules → correlate → respond pipeline as one stateful
/// facade: feed it one [`Signals`] per audit and ask for the final
/// [`IncidentReport`].
#[derive(Debug, Clone)]
pub struct VerdictPipeline {
    label: String,
    policy: RulePolicy,
    mode: Mode,
    records: Vec<AuditRecord>,
}

impl VerdictPipeline {
    /// A fresh pipeline. `label` names the run in the incident report.
    pub fn new(label: impl Into<String>, policy: RulePolicy, mode: Mode) -> Self {
        VerdictPipeline {
            label: label.into(),
            policy,
            mode,
            records: Vec::new(),
        }
    }

    /// Collect stage: ingest one audit of `model` (a stable fingerprint)
    /// and run the rules stage over its signals. Returns the resulting
    /// record (with findings) for inspection.
    pub fn collect(&mut self, model: impl Into<String>, signals: Signals) -> &AuditRecord {
        self.collect_in_regime(model, "full", signals)
    }

    /// [`VerdictPipeline::collect`] with an explicit oracle-regime wire
    /// string (`"full"`, `"quantized:<d>"`, `"top_k:<k>"`,
    /// `"label_only"`) recorded on the audit. The scenario defaults to
    /// `"downstream"`; use [`VerdictPipeline::collect_in_scenario`] for
    /// backbone-scenario audits.
    pub fn collect_in_regime(
        &mut self,
        model: impl Into<String>,
        regime: impl Into<String>,
        signals: Signals,
    ) -> &AuditRecord {
        self.collect_in_scenario(model, regime, "downstream", signals)
    }

    /// [`VerdictPipeline::collect_in_regime`] with an explicit workload
    /// scenario wire string (`"downstream"`, `"backbone"`) recorded on
    /// the audit.
    pub fn collect_in_scenario(
        &mut self,
        model: impl Into<String>,
        regime: impl Into<String>,
        scenario: impl Into<String>,
        signals: Signals,
    ) -> &AuditRecord {
        let findings = self.policy.evaluate(&signals);
        self.records.push(AuditRecord {
            model: model.into(),
            regime: regime.into(),
            scenario: scenario.into(),
            signals,
            findings,
        });
        self.records.last().expect("just pushed")
    }

    /// Number of audits collected so far.
    pub fn audits(&self) -> usize {
        self.records.len()
    }

    /// Correlate + respond: the final machine-readable incident report.
    pub fn report(&self) -> IncidentReport {
        IncidentReport::assemble(&self.label, &self.policy, self.mode, &self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suspicious_signals() -> Signals {
        Signals {
            score: 0.92,
            backdoored: true,
            prompted_accuracy: 0.08,
            queries: 1000,
            prompt_queries: 800,
            accuracy_queries: 100,
            probe_queries: 100,
            faults_injected: 50,
            retries: 40,
            retry_exhausted: 1,
            degraded_responses: 10,
            penalized_candidates: 2,
            cache_hits: 100,
            cache_misses: 900,
            cache_evictions: 3,
            evasive_responses: 0,
            clean_downstream_training: false,
        }
    }

    #[test]
    fn pipeline_end_to_end_strict_quarantines() {
        let mut p = VerdictPipeline::new("t", RulePolicy::default(), Mode::Strict);
        p.collect("mA", suspicious_signals());
        p.collect("mA", suspicious_signals());
        p.collect("mB", Signals::default());
        let report = p.report();
        assert_eq!(report.audits, 3);
        assert_eq!(report.incidents.len(), 2);
        let a = &report.incidents[0];
        assert_eq!(a.model, "mA");
        assert_eq!(a.audits, 2);
        assert_eq!(a.action, Action::Quarantine);
        // Every registered rule fires on the crafted signals.
        let codes: Vec<&str> = a.findings.iter().map(|f| f.finding.rule.code()).collect();
        assert_eq!(codes, ["B001", "B002", "B003", "B004", "B010", "B011"]);
        // Repeated backdoor evidence escalates.
        assert!(a.findings[0].escalated);
        assert_eq!(a.findings[0].occurrences, 2);
        let b = &report.incidents[1];
        assert!(b.findings.is_empty());
        assert_eq!(b.action, Action::None);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.flagged, 0);
    }

    #[test]
    fn learning_mode_records_identical_evidence_without_flagging() {
        let strict = {
            let mut p = VerdictPipeline::new("t", RulePolicy::default(), Mode::Strict);
            p.collect("mA", suspicious_signals());
            p.report()
        };
        let learning = {
            let mut p = VerdictPipeline::new("t", RulePolicy::default(), Mode::Learning);
            p.collect("mA", suspicious_signals());
            p.report()
        };
        // Same evidence, same findings — only the response differs.
        assert_eq!(strict.incidents[0].findings, learning.incidents[0].findings);
        assert_eq!(strict.incidents[0].action, Action::Quarantine);
        assert_eq!(learning.incidents[0].action, Action::Record);
        assert_eq!(learning.quarantined, 0);
        assert_eq!(learning.flagged, 0);
    }

    #[test]
    fn report_json_round_trips_and_validates() {
        let mut p = VerdictPipeline::new("round-trip", RulePolicy::default(), Mode::Strict);
        p.collect("mA", suspicious_signals());
        p.collect("mB", Signals::default());
        let report = p.report();
        let text = report.to_json_string();
        let value = bprom_obs::Value::parse(&text).unwrap();
        validate_incident(&value).unwrap();
        let back = IncidentReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }
}

//! Runtime monitoring over the audit journal (paper §2.iv:
//! "supports monitoring … to detect violations").
//!
//! The journal is the signal source; [`monitor`] computes the health
//! indicators an operator watches between formal audits:
//!
//! * **refusal spikes** — a consumer suddenly hitting the compliance
//!   gate often is probing (or a report regressed);
//! * **suppression pressure** — reports whose k-threshold suppresses a
//!   large share of groups are running too close to the agreed minimum
//!   (owners should be consulted before analysts start gaming filters);
//! * **repeat-query probing** — many deliveries of the *same* report to
//!   the same consumer in one day can be differencing attempts against
//!   changing data.

use std::collections::BTreeMap;

use bi_types::{ConsumerId, ReportId};

use crate::log::{AuditLog, Outcome};

/// One monitoring alert.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// Consumer exceeded the refusal threshold.
    RefusalSpike {
        consumer: ConsumerId,
        refusals: usize,
    },
    /// A delivery suppressed more than the tolerated fraction of groups.
    SuppressionPressure {
        report: ReportId,
        seq: u64,
        suppressed: usize,
        delivered: usize,
    },
    /// Same report delivered to the same consumer more than `count`
    /// times on one business date.
    RepeatProbing {
        consumer: ConsumerId,
        report: ReportId,
        count: usize,
    },
}

/// Monitoring thresholds.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Alert when a consumer accumulates this many refusals.
    pub max_refusals: usize,
    /// Alert when suppressed ≥ this fraction of (suppressed+delivered).
    pub max_suppressed_fraction: f64,
    /// Alert when the same (consumer, report, date) repeats this often.
    pub max_repeats_per_day: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            max_refusals: 3,
            max_suppressed_fraction: 0.5,
            max_repeats_per_day: 5,
        }
    }
}

/// Scans the journal and returns alerts (deterministic order: refusals,
/// suppression, probing).
pub fn monitor(log: &AuditLog, config: &MonitorConfig) -> Vec<Alert> {
    let mut alerts = Vec::new();

    // Refusal spikes.
    let mut refusals: BTreeMap<&ConsumerId, usize> = BTreeMap::new();
    for e in log.entries() {
        if matches!(e.outcome, Outcome::Refused { .. }) {
            *refusals.entry(&e.consumer).or_insert(0) += 1;
        }
    }
    for (consumer, n) in refusals {
        if n >= config.max_refusals {
            alerts.push(Alert::RefusalSpike {
                consumer: consumer.clone(),
                refusals: n,
            });
        }
    }

    // Suppression pressure.
    for e in log.entries() {
        if let Outcome::Delivered {
            rows,
            suppressed_groups,
        } = e.outcome
        {
            let total = rows + suppressed_groups;
            if total > 0
                && suppressed_groups as f64 / total as f64 >= config.max_suppressed_fraction
            {
                alerts.push(Alert::SuppressionPressure {
                    report: e.report.clone(),
                    seq: e.seq,
                    suppressed: suppressed_groups,
                    delivered: rows,
                });
            }
        }
    }

    // Repeat probing.
    let mut repeats: BTreeMap<(&ConsumerId, &ReportId, String), usize> = BTreeMap::new();
    for e in log.entries() {
        if matches!(e.outcome, Outcome::Delivered { .. }) {
            *repeats
                .entry((&e.consumer, &e.report, e.when.to_string()))
                .or_insert(0) += 1;
        }
    }
    for ((consumer, report, _), n) in repeats {
        if n >= config.max_repeats_per_day {
            alerts.push(Alert::RepeatProbing {
                consumer: consumer.clone(),
                report: report.clone(),
                count: n,
            });
        }
    }

    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_pla::Violation;
    use bi_query::plan::scan;
    use bi_types::{Date, RoleId};

    fn record(log: &mut AuditLog, consumer: &str, report: &str, outcome: Outcome) {
        log.record(
            Date::new(2008, 7, 1).unwrap(),
            ConsumerId::new(consumer),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            ReportId::new(report),
            scan("T"),
            None,
            vec![],
            outcome,
            crate::log::Provenance::default(),
        );
    }

    fn refused() -> Outcome {
        Outcome::Refused {
            violations: vec![Violation {
                kind: "attribute-access".into(),
                description: "x".into(),
                subject: "T.c".into(),
            }],
        }
    }

    #[test]
    fn refusal_spike_detected() {
        let mut log = AuditLog::new();
        for _ in 0..3 {
            record(&mut log, "mallory", "r1", refused());
        }
        record(&mut log, "ada", "r1", refused());
        let alerts = monitor(&log, &MonitorConfig::default());
        assert_eq!(
            alerts,
            vec![Alert::RefusalSpike {
                consumer: ConsumerId::new("mallory"),
                refusals: 3
            }]
        );
    }

    #[test]
    fn suppression_pressure_detected() {
        let mut log = AuditLog::new();
        record(
            &mut log,
            "ada",
            "r-tight",
            Outcome::Delivered {
                rows: 2,
                suppressed_groups: 8,
            },
        );
        record(
            &mut log,
            "ada",
            "r-fine",
            Outcome::Delivered {
                rows: 50,
                suppressed_groups: 1,
            },
        );
        let alerts = monitor(&log, &MonitorConfig::default());
        assert_eq!(alerts.len(), 1);
        match &alerts[0] {
            Alert::SuppressionPressure {
                report,
                suppressed,
                delivered,
                ..
            } => {
                assert_eq!(report.as_str(), "r-tight");
                assert_eq!((*suppressed, *delivered), (8, 2));
            }
            other => panic!("wrong alert {other:?}"),
        }
    }

    #[test]
    fn repeat_probing_detected() {
        let mut log = AuditLog::new();
        for _ in 0..5 {
            record(
                &mut log,
                "mallory",
                "r1",
                Outcome::Delivered {
                    rows: 3,
                    suppressed_groups: 0,
                },
            );
        }
        for _ in 0..4 {
            record(
                &mut log,
                "ada",
                "r1",
                Outcome::Delivered {
                    rows: 3,
                    suppressed_groups: 0,
                },
            );
        }
        let alerts = monitor(&log, &MonitorConfig::default());
        assert_eq!(alerts.len(), 1);
        assert!(matches!(
            &alerts[0],
            Alert::RepeatProbing { consumer, count: 5, .. } if consumer.as_str() == "mallory"
        ));
    }

    #[test]
    fn quiet_journal_raises_nothing() {
        let mut log = AuditLog::new();
        record(
            &mut log,
            "ada",
            "r1",
            Outcome::Delivered {
                rows: 30,
                suppressed_groups: 0,
            },
        );
        record(&mut log, "ada", "r2", refused());
        assert!(monitor(&log, &MonitorConfig::default()).is_empty());
    }

    #[test]
    fn thresholds_are_configurable() {
        let mut log = AuditLog::new();
        record(&mut log, "ada", "r1", refused());
        let strict = MonitorConfig {
            max_refusals: 1,
            ..Default::default()
        };
        assert_eq!(monitor(&log, &strict).len(), 1);
    }
}

//! MVCC time travel + write-ahead durability: the audit layer must
//! replay every journaled delivery against the exact data (and policy)
//! that served it — not whatever ETL committed since — and the whole
//! system must rebuild from its WAL after a crash, torn tail included.
//!
//! The bug class this pins down: without journaled data versions, an
//! audit recheck runs against *post-ETL* data, so verdicts silently
//! flip when rows are reloaded, filtered or restructured between
//! delivery and audit.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

use plabi::anonymize::hierarchy::CategoricalBuilder;
use plabi::exec::ExecConfig;
use plabi::prelude::*;
use plabi::report::{RenderOutcome, ReportError};
use plabi::synth::names;
use plabi::types::{Column, DataType, Schema};

/// `(columnar, threads)`: the row engine and the fused engine, each at
/// 1, 2 and 8 threads.
const ENGINES: [(bool, usize); 6] = [
    (false, 1),
    (false, 2),
    (false, 8),
    (true, 1),
    (true, 2),
    (true, 8),
];

fn today() -> Date {
    Date::new(2008, 7, 1).unwrap()
}

fn etl_pipeline() -> Pipeline {
    Pipeline::new("nightly")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        )
}

/// The standard deployment: hospital prescriptions ETL'd into the
/// warehouse, an aggregate report, a detail report, two role profiles.
fn deployment() -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 20,
        prescriptions: 90,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(today());
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.run_etl(&etl_pipeline(), Some("quality")).unwrap();
    sys.grant("a0", "analyst");
    sys.grant("u0", "auditor");
    sys.define_report(ReportSpec::new(
        "r-disease",
        "Disease counts",
        scan("FactPrescriptions").aggregate(vec!["Disease".into()], vec![AggItem::count_star("N")]),
        [RoleId::new("analyst"), RoleId::new("auditor")],
    ));
    sys.define_report(ReportSpec::new(
        "r-detail",
        "Prescription detail",
        scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease"]),
        [RoleId::new("analyst")],
    ));
    sys
}

/// A byte-comparable rendering of a replayed outcome (full table).
fn outcome_fingerprint(o: &RenderOutcome) -> String {
    match o {
        RenderOutcome::Delivered(e) => format!(
            "ok:{:?}:{:?}:{}:{:?}",
            e.table.schema(),
            e.table.rows(),
            e.suppressed_groups,
            e.applied
        ),
        RenderOutcome::Refused(vs) => format!("refused:{vs:?}"),
    }
}

fn replay_fingerprints(sys: &BiSystem) -> Vec<(u64, bool, String)> {
    sys.replay_at_delivery()
        .unwrap()
        .iter()
        .map(|r| (r.seq, r.matches_journal, outcome_fingerprint(&r.outcome)))
        .collect()
}

/// A pipeline that commits genuinely different rows: keep only
/// prescriptions after a cutoff date (the scenario generates dates
/// across 2006–2008, so every cutoff drops a real subset), then derive
/// a flag column (rebuilding row storage either way).
fn mutating_pipeline(tag: usize) -> Pipeline {
    let cutoffs = ["2006-07-01", "2007-01-01", "2007-07-01", "2008-01-01"];
    let cutoff = Value::date(cutoffs[tag % cutoffs.len()]).unwrap();
    Pipeline::new("mutate")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "f",
            EtlOp::FilterRows {
                table: "s".into(),
                pred: col("Date").gt(lit(cutoff)),
            },
        )
        .step(
            "d",
            EtlOp::Derive {
                table: "s".into(),
                column: "One".into(),
                expr: lit(1),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline invariant: whatever ETL commits *after* a delivery,
    /// replaying the journal reproduces the journaled outcome — same
    /// rows, same suppression, byte for byte — at every thread count,
    /// because the journaled data versions resolve through the MVCC
    /// history instead of reading current tables.
    #[test]
    fn prop_replay_verdicts_survive_post_delivery_etl(
        mutations in prop::collection::vec(0usize..4, 1..4),
    ) {
        let mut sys = deployment();
        sys.deliver(&ReportId::new("r-disease"), &ConsumerId::new("a0")).unwrap();
        sys.deliver(&ReportId::new("r-detail"), &ConsumerId::new("a0")).unwrap();
        // u0 holds no role on r-detail: a journaled refusal rides along.
        let _ = sys.deliver(&ReportId::new("r-detail"), &ConsumerId::new("u0"));
        let before = replay_fingerprints(&sys);
        prop_assert!(before.iter().all(|(_, m, _)| *m), "clean replay matches the journal");

        for tag in mutations {
            sys.run_etl(&mutating_pipeline(tag), Some("quality")).unwrap();
        }
        // Current data really did change under the journal's feet…
        let live = sys.warehouse().catalog().table("FactPrescriptions").unwrap();
        prop_assert!(live.schema().column("One").is_ok());
        // …yet the replay is unmoved, on both engines and every thread
        // count.
        for (columnar, threads) in ENGINES {
            sys.engine_mut().exec = ExecConfig::with_threads(threads)
                .with_pinned_threads(true)
                .with_columnar(columnar);
            let after = replay_fingerprints(&sys);
            prop_assert_eq!(&after, &before, "columnar={} threads={}", columnar, threads);
            prop_assert!(after.iter().all(|(_, m, _)| *m));
        }
        let replays = sys.replay_at_delivery().unwrap();
        prop_assert!(
            replays
                .iter()
                .all(|r| r.data_snapshot == SnapshotFidelity::Exact
                    && r.policy_snapshot == SnapshotFidelity::Exact),
            "every journaled version resolved exactly"
        );
        // A recheck of the same journal is equally unmoved (and clean:
        // nothing was delivered against a tightened policy).
        prop_assert!(sys.recheck_at_delivery().unwrap().is_empty());
    }
}

/// The deterministic red/green core of the PR: after a post-delivery
/// ETL commit changes the data, a *current-data* render diverges from
/// what was handed out — exactly what a naive recheck would compare
/// against — while the versioned replay still reproduces the journal.
#[test]
fn versioned_replay_diverges_from_current_data_after_etl() {
    let mut sys = deployment();
    let delivered = sys
        .deliver(&ReportId::new("r-detail"), &ConsumerId::new("a0"))
        .unwrap();
    let journaled_rows = delivered.table.len();

    sys.run_etl(&mutating_pipeline(0), Some("quality")).unwrap();

    // The same report today renders a different table…
    let now = sys
        .deliver(&ReportId::new("r-detail"), &ConsumerId::new("a0"))
        .unwrap();
    assert_ne!(
        now.table.len(),
        journaled_rows,
        "the mutation must actually change the data"
    );

    // …but each journal entry replays against ITS versions: the first
    // against pre-mutation rows, the second against post-mutation rows.
    let replays = sys.replay_at_delivery().unwrap();
    assert_eq!(replays.len(), 2);
    for r in &replays {
        assert!(
            r.matches_journal,
            "seq {} diverged from its journaled outcome",
            r.seq
        );
        assert_eq!(r.data_snapshot, SnapshotFidelity::Exact);
    }
    let rows_of = |o: &RenderOutcome| match o {
        RenderOutcome::Delivered(e) => e.table.len(),
        RenderOutcome::Refused(_) => 0,
    };
    assert_eq!(rows_of(&replays[0].outcome), journaled_rows);
    assert_eq!(rows_of(&replays[1].outcome), now.table.len());

    // The two entries journaled different data versions of the same
    // table — the provenance is what keeps the replays apart.
    let entries = sys.audit_log().entries();
    assert_eq!(
        entries[0].provenance.source_versions,
        vec![("FactPrescriptions".into(), 1)].into()
    );
    assert_eq!(
        entries[1].provenance.source_versions,
        vec![("FactPrescriptions".into(), 2)].into()
    );
}

/// Replay answers with the first error in journal order. The earlier
/// entry's render fails (its generalization hierarchy is gone) and the
/// later entry's check no longer compiles (its table is gone): replay
/// returns the render error on both engines and every thread count,
/// while recheck, which does not render, meets the compile error.
#[test]
fn replay_returns_the_earliest_entrys_error() {
    let mut sys = deployment();
    sys.add_pla_text(
        r#"pla "coarse" source hospital version 1 level meta-report {
  anonymize FactPrescriptions.Disease with generalize 1;
}"#,
    )
    .unwrap();
    let mut families = CategoricalBuilder::new();
    for (child, parent) in names::disease_hierarchy_edges() {
        families = families.edge(child, parent);
    }
    sys.engine_mut().hierarchies.insert(
        "FactPrescriptions.Disease".to_string(),
        families.build("Disease").unwrap(),
    );
    let generalized = sys
        .deliver(&ReportId::new("r-disease"), &ConsumerId::new("a0"))
        .unwrap();
    assert!(generalized.applied.iter().any(|a| a.contains("generalize")));

    let beds = Table::from_rows(
        "Beds",
        Schema::new(vec![Column::new("Ward", DataType::Text)]).unwrap(),
        vec![vec!["north".into()]],
    )
    .unwrap();
    sys.warehouse_mut().catalog_mut().add_table(beds).unwrap();
    sys.define_report(ReportSpec::new(
        "r-beds",
        "Beds",
        scan("Beds").project_cols(&["Ward"]),
        [RoleId::new("analyst")],
    ));
    sys.deliver(&ReportId::new("r-beds"), &ConsumerId::new("a0"))
        .unwrap();

    sys.engine_mut().hierarchies.clear();
    assert!(sys.warehouse_mut().catalog_mut().remove("Beds"));
    for (columnar, threads) in ENGINES {
        sys.engine_mut().exec = ExecConfig::with_threads(threads)
            .with_pinned_threads(true)
            .with_columnar(columnar);
        let err = sys.replay_at_delivery().unwrap_err();
        assert!(
            matches!(
                &err,
                SystemError::Report(ReportError::MissingHierarchy { attribute })
                    if attribute == "FactPrescriptions.Disease"
            ),
            "columnar={columnar} threads={threads}: {err:?}"
        );
    }
    let err = sys.recheck_at_delivery().unwrap_err();
    assert!(
        matches!(
            &err,
            SystemError::Query(plabi::query::QueryError::UnknownRelation { name }) if name == "Beds"
        ),
        "{err:?}"
    );
}

/// Aging out of the bounded histories is flagged, never silent: a
/// pre-history policy epoch and an evicted data version both mark the
/// affected recheck/replay as `FellBackToCurrent`.
#[test]
fn prehistory_fallbacks_are_flagged_not_silent() {
    // Policy half: retention 1 keeps only the newest epoch snapshot.
    let mut sys = deployment();
    sys.set_policy_history_retention(1);
    sys.deliver(&ReportId::new("r-detail"), &ConsumerId::new("a0"))
        .unwrap();
    sys.add_pla_text(
        r#"pla "tighten" source hospital version 2 level report {
  allow attribute FactPrescriptions.Patient to dba;
}"#,
    )
    .unwrap();
    let findings = sys.recheck_at_delivery().unwrap();
    assert_eq!(
        findings.len(),
        1,
        "fallback to the tightened policy flags the old delivery"
    );
    assert_eq!(
        findings[0].policy_snapshot,
        SnapshotFidelity::FellBackToCurrent
    );
    assert_eq!(findings[0].data_snapshot, SnapshotFidelity::Exact);

    // Control: with the default retention the epoch-0 snapshot is still
    // there, so the same workload rechecks clean (drift, not a bug).
    let mut control = deployment();
    control
        .deliver(&ReportId::new("r-detail"), &ConsumerId::new("a0"))
        .unwrap();
    control
        .add_pla_text(
            r#"pla "tighten" source hospital version 2 level report {
  allow attribute FactPrescriptions.Patient to dba;
}"#,
        )
        .unwrap();
    assert!(control.recheck_at_delivery().unwrap().is_empty());

    // Data half: retention 1 keeps only the live version, so a replayed
    // entry whose version was evicted falls back, flagged.
    let mut sys = deployment();
    sys.deliver(&ReportId::new("r-disease"), &ConsumerId::new("a0"))
        .unwrap();
    sys.warehouse_mut().set_version_retention(1);
    sys.run_etl(&mutating_pipeline(1), Some("quality")).unwrap();
    let replays = sys.replay_at_delivery().unwrap();
    assert_eq!(
        replays[0].data_snapshot,
        SnapshotFidelity::FellBackToCurrent
    );
}

/// Builds the reference WAL'd workload once: returns the log bytes and
/// the journal fingerprint it should recover to.
fn reference_wal() -> &'static (Vec<u8>, Vec<String>) {
    static REF: OnceLock<(Vec<u8>, Vec<String>)> = OnceLock::new();
    REF.get_or_init(|| {
        let path = temp_path("reference");
        let scenario = Scenario::generate(ScenarioConfig {
            patients: 16,
            prescriptions: 60,
            lab_tests: 0,
            ..Default::default()
        });
        let mut sys = BiSystem::new(today());
        sys.enable_wal(&path).unwrap();
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        sys.add_pla_text(
            r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
}"#,
        )
        .unwrap();
        sys.run_etl(&etl_pipeline(), Some("quality")).unwrap();
        sys.add_meta_report(
            MetaReport::new(
                "m1",
                "Prescription universe",
                scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
            )
            .approved("hospital"),
        );
        sys.grant("a0", "analyst");
        sys.grant("u0", "auditor");
        sys.define_report(ReportSpec::new(
            "r-disease",
            "Disease counts",
            scan("FactPrescriptions")
                .aggregate(vec!["Disease".into()], vec![AggItem::count_star("N")]),
            [RoleId::new("analyst"), RoleId::new("auditor")],
        ));
        sys.deliver(&ReportId::new("r-disease"), &ConsumerId::new("a0"))
            .unwrap();
        sys.run_etl(&mutating_pipeline(2), Some("quality")).unwrap();
        sys.deliver(&ReportId::new("r-disease"), &ConsumerId::new("u0"))
            .unwrap();
        // A refusal rides along: strangers hold no declared role.
        let _ = sys.deliver(&ReportId::new("r-disease"), &ConsumerId::new("nobody"));
        let journal: Vec<String> = sys
            .audit_log()
            .entries()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        drop(sys);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (bytes, journal)
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("plabi-mvcc-wal-{}-{}.wal", tag, std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash recovery: truncate the log at ANY byte offset and recover.
    /// A cut below the first (Init) record is a clean error; any longer
    /// prefix recovers a journal that is a prefix of the original, and
    /// recovery is idempotent (the healed file recovers identically).
    #[test]
    fn prop_recovery_survives_random_truncation(frac in 0.0f64..1.0) {
        let (bytes, journal) = reference_wal();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let path = temp_path(&format!("trunc-{cut}"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match BiSystem::recover(&path) {
            Ok(sys) => {
                let got: Vec<String> =
                    sys.audit_log().entries().iter().map(|e| format!("{e:?}")).collect();
                prop_assert!(got.len() <= journal.len());
                prop_assert_eq!(&got[..], &journal[..got.len()],
                    "recovered journal must be a byte-identical prefix (cut={})", cut);
                drop(sys);
                // Idempotent: the healed file recovers to the same state.
                let again = BiSystem::recover(&path).unwrap();
                let got2: Vec<String> =
                    again.audit_log().entries().iter().map(|e| format!("{e:?}")).collect();
                prop_assert_eq!(got, got2);
            }
            Err(e) => {
                // Only a cut inside the header or the Init record may
                // refuse; everything after that has a valid prefix.
                let init_end = plabi::read_wal(&path).map(|r| r.valid_len).unwrap_or(0);
                prop_assert!(
                    cut < 32 || init_end == 0,
                    "recover refused a healthy prefix (cut={}): {}", cut, e
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The full durability round trip: a recovered system serves the same
/// journal, the same versioned rechecks and replays, and keeps logging
/// — a second crash after new deliveries recovers those too.
#[test]
fn recovery_round_trips_journal_rechecks_and_replays() {
    let (bytes, journal) = reference_wal();
    let path = temp_path("roundtrip");
    std::fs::write(&path, &bytes[..]).unwrap();

    let mut rec = BiSystem::recover(&path).unwrap();
    assert!(rec.wal_enabled());
    let got: Vec<String> = rec
        .audit_log()
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    assert_eq!(
        &got, journal,
        "journal survives the restart byte-identically"
    );

    // The versioned audit story survives too: every entry replays
    // exactly, including the one journaled against the PRE-mutation
    // data version — the MVCC history was rebuilt from the log.
    let replays = rec.replay_at_delivery().unwrap();
    assert!(!replays.is_empty());
    for r in &replays {
        assert!(r.matches_journal, "seq {} diverged after recovery", r.seq);
        assert_eq!(r.data_snapshot, SnapshotFidelity::Exact);
        assert_eq!(r.policy_snapshot, SnapshotFidelity::Exact);
    }
    assert!(rec.recheck_at_delivery().unwrap().is_empty());

    // The recovered system keeps serving AND logging: a new delivery
    // lands in the journal with the next seq, and survives a second
    // crash/recover cycle.
    let before = rec.audit_log().entries().len();
    rec.deliver(&ReportId::new("r-disease"), &ConsumerId::new("a0"))
        .unwrap();
    assert_eq!(rec.audit_log().entries().len(), before + 1);
    let full: Vec<String> = rec
        .audit_log()
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    drop(rec);
    let rec2 = BiSystem::recover(&path).unwrap();
    let got2: Vec<String> = rec2
        .audit_log()
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    assert_eq!(got2, full, "post-recovery deliveries are durable");
    let _ = std::fs::remove_file(&path);
}

/// Regression: an identity reload (the same source rows loaded again,
/// Arc-sharing the live storage) keeps its data version in the live
/// warehouse, and recovery must keep it too instead of assigning the
/// freshly decoded copy a new one.
#[test]
fn recovery_survives_identity_reload() {
    let path = temp_path("identity-reload");
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 16,
        prescriptions: 60,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(today());
    sys.enable_wal(&path).unwrap();
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    let reload = Pipeline::new("dims")
        .step(
            "e",
            EtlOp::Extract {
                source: "health-agency".into(),
                table: "DrugRegistry".into(),
                as_name: "r".into(),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "r".into(),
                warehouse_table: "DimDrug".into(),
            },
        );
    sys.run_etl(&reload, Some("quality")).unwrap();
    sys.run_etl(&reload, Some("quality")).unwrap();
    assert_eq!(
        sys.warehouse().data_version("DimDrug"),
        Some(1),
        "identity reload keeps its version"
    );
    // A real change afterwards still bumps a version, live and replayed.
    sys.run_etl(&etl_pipeline(), Some("quality")).unwrap();
    sys.run_etl(&mutating_pipeline(1), Some("quality")).unwrap();
    assert_eq!(sys.warehouse().data_version("FactPrescriptions"), Some(2));
    drop(sys);

    let rec = BiSystem::recover(&path).unwrap();
    assert_eq!(rec.warehouse().data_version("DimDrug"), Some(1));
    assert_eq!(rec.warehouse().data_version("FactPrescriptions"), Some(2));
    drop(rec);
    let _ = std::fs::remove_file(&path);
}

/// Regression: one ETL run that loads the same warehouse table twice
/// makes two data versions, and the WAL must log each load with the
/// version it made. Logging the run's final version for both loads
/// made recovery refuse the log ("logged 2 replayed as 1").
#[test]
fn recovery_replays_a_table_loaded_twice_in_one_run() {
    let path = temp_path("double-load");
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 16,
        prescriptions: 60,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(today());
    sys.enable_wal(&path).unwrap();
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    let twice = Pipeline::new("twice")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l1",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        )
        .step(
            "d",
            EtlOp::Derive {
                table: "s".into(),
                column: "Batch".into(),
                expr: lit(7),
            },
        )
        .step(
            "l2",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        );
    sys.run_etl(&twice, Some("quality")).unwrap();
    assert_eq!(sys.warehouse().data_version("FactPrescriptions"), Some(2));
    let live: Vec<(u64, Table)> = (1..=2)
        .map(|v| {
            let t = sys.warehouse().table_at("FactPrescriptions", v).unwrap();
            (v, t.clone())
        })
        .collect();
    assert!(!live[0].1.schema().contains("Batch"));
    assert!(live[1].1.schema().contains("Batch"));
    drop(sys);

    let rec = BiSystem::recover(&path).unwrap();
    assert_eq!(rec.warehouse().data_version("FactPrescriptions"), Some(2));
    for (v, table) in &live {
        let got = rec.warehouse().table_at("FactPrescriptions", *v).unwrap();
        assert_eq!(got, table, "version {v} recovers its own rows");
        assert_eq!(got.schema(), table.schema());
    }
    drop(rec);
    let _ = std::fs::remove_file(&path);
}

/// The WAL frame checksum (FNV-1a 64), recomputed here so a test can
/// hand the payload decoder corrupt bytes that pass the checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rewrites every frame checksum to match its (possibly corrupted)
/// payload, walking the frames as the reader does: a 12-byte header
/// (magic + format version), then `[u32 len][u64 checksum][payload]`.
fn reseal_frames(bytes: &mut [u8]) {
    let mut pos = 12;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let start = pos + 12;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            return;
        };
        let sum = fnv1a(&bytes[start..end]);
        bytes[pos + 4..start].copy_from_slice(&sum.to_le_bytes());
        pos = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Never-panic decoding: overwrite or flip bytes ANYWHERE in the log
    /// — header, frame lengths, checksums, payloads. `read_wal` and
    /// `BiSystem::recover` each return `Ok` or a typed `WalError`. With
    /// `reseal`, every frame checksum is recomputed after the damage, so
    /// the payload decoder and the replay see the corrupt bytes instead
    /// of stopping at the first checksum mismatch.
    #[test]
    fn prop_wal_decoding_never_panics(
        edits in prop::collection::vec((0.0f64..1.0, any::<u8>(), any::<bool>()), 1..6),
        reseal in any::<bool>(),
    ) {
        let mut bytes = reference_wal().0.clone();
        for (at, byte, flip) in edits {
            let i = (((bytes.len() as f64) * at) as usize).min(bytes.len() - 1);
            if flip {
                bytes[i] ^= 1 << (byte % 8);
            } else {
                bytes[i] = byte;
            }
        }
        if reseal {
            reseal_frames(&mut bytes);
        }
        let path = temp_path(&format!("hostile-{:016x}", fnv1a(&bytes)));
        std::fs::write(&path, &bytes).unwrap();
        // Returning at all is the property; both results are typed.
        let read = plabi::read_wal(&path);
        let recovered = BiSystem::recover(&path).map(|sys| sys.audit_log().entries().len());
        let _ = std::fs::remove_file(&path);
        if let Ok(readout) = &read {
            prop_assert!(readout.valid_len <= bytes.len() as u64);
        }
        if let Err(e) = &recovered {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

/// A journaled trace id of `u64::MAX` leaves recovery no fresh id to
/// issue next: it must refuse the log, not overflow (a debug-build
/// panic, or a wrap to 0 that re-issues ids the journal holds).
#[test]
fn recovery_refuses_a_trace_id_with_no_successor() {
    use plabi::audit::{AuditEntry, Outcome, Provenance, TraceId};
    let path = temp_path("trace-max");
    {
        let mut w = plabi::WalWriter::create(&path).unwrap();
        w.append(&plabi::WalRecord::Init { today: today() })
            .unwrap();
        w.append(&plabi::WalRecord::Delivery {
            entry: AuditEntry {
                seq: 0,
                when: today(),
                consumer: ConsumerId::new("a0"),
                roles: std::sync::Arc::new([RoleId::new("analyst")].into_iter().collect()),
                report: ReportId::new("r"),
                plan: scan("T").into(),
                purpose: None,
                actions: vec![].into(),
                outcome: Outcome::Delivered {
                    rows: 1,
                    suppressed_groups: 0,
                },
                provenance: Provenance::new(1, TraceId::new(u64::MAX)),
            },
        })
        .unwrap();
    }
    let recovered = BiSystem::recover(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(recovered, Err(WalError::Replay { .. })),
        "expected a replay error, got {:?}",
        recovered.map(|s| s.audit_log().entries().len())
    );
}

/// A log written under format 1 (per-cell strings) is not readable as
/// format 2: it is refused as corrupt, not misread as torn.
#[test]
fn format_1_logs_are_refused() {
    let mut bytes = reference_wal().0.clone();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let path = temp_path("format-1");
    std::fs::write(&path, &bytes).unwrap();
    let read = plabi::read_wal(&path);
    let recovered = BiSystem::recover(&path);
    let _ = std::fs::remove_file(&path);
    assert!(matches!(read, Err(WalError::Corrupt { offset: 8, .. })));
    assert!(matches!(
        recovered,
        Err(WalError::Corrupt { offset: 8, .. })
    ));
}

/// Texts that stress the dictionary: empty, non-ASCII, and few enough
/// that cells repeat.
const TEXTS: [&str; 6] = ["", "HIV", "Flu", "é", "日本語", "🙂 x"];

/// A small deterministic generator for cell contents.
struct Cells(u64);

impl Cells {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A table of `width` columns (every type, nullable or not) and `rows`
/// rows. With `distinct`, every text cell differs from every other.
fn codec_table(idx: usize, width: usize, rows: usize, seed: u64, distinct: bool) -> Table {
    use plabi::types::{Column, DataType, Schema};
    let mut g = Cells(seed | 1);
    let cols: Vec<Column> = (0..width)
        .map(|c| {
            let dtype = match g.next() % 5 {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Bool,
                3 => DataType::Date,
                _ => DataType::Text,
            };
            if g.next().is_multiple_of(2) {
                Column::nullable(format!("c{c}"), dtype)
            } else {
                Column::new(format!("c{c}"), dtype)
            }
        })
        .collect();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|r| {
            cols.iter()
                .enumerate()
                .map(|(c, col)| {
                    let x = g.next();
                    if col.nullable && x.is_multiple_of(5) {
                        return Value::Null;
                    }
                    match col.dtype {
                        DataType::Int => Value::Int(match x % 4 {
                            0 => i64::MIN,
                            1 => i64::MAX,
                            _ => (x >> 3) as i64,
                        }),
                        DataType::Float => Value::Float(match x % 6 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => f64::NAN,
                            // A NaN with a payload (and either sign).
                            3 => f64::from_bits(0x7ff0_0000_0000_0001 | (x >> 12) | (x << 63)),
                            4 => f64::NEG_INFINITY,
                            _ => (x >> 11) as f64 / 7.0,
                        }),
                        DataType::Bool => Value::Bool(x.is_multiple_of(2)),
                        DataType::Date => Value::Date(
                            Date::new(
                                1900 + (x % 200) as i16,
                                1 + (x % 12) as u8,
                                1 + (x % 28) as u8,
                            )
                            .unwrap(),
                        ),
                        DataType::Text => {
                            let t = TEXTS[(x % TEXTS.len() as u64) as usize];
                            if distinct {
                                Value::text(format!("{t}·{r}·{c}"))
                            } else {
                                Value::text(t)
                            }
                        }
                    }
                })
                .collect()
        })
        .collect();
    Table::from_rows(format!("T{idx}"), Schema::new(cols).unwrap(), data).unwrap()
}

/// Row contents with Float cells by bit pattern, so ±0.0 and NaN
/// payloads compare exactly.
fn cell_bits(t: &Table) -> Vec<Vec<String>> {
    t.rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(x) => format!("F{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The tables a decoded record carries.
fn record_tables(rec: &plabi::WalRecord) -> Vec<&Table> {
    match rec {
        plabi::WalRecord::RegisterSource { tables, .. } => tables.iter().collect(),
        plabi::WalRecord::EtlCommit { tables } => tables.iter().map(|t| &t.table).collect(),
        _ => vec![],
    }
}

/// Byte offset of the dictionary length in the payload of a
/// `RegisterSource` record holding the single table `t`: record tag,
/// source id, table count, table name, schema, row count.
fn dictionary_offset(source: &str, t: &Table) -> usize {
    let schema: usize = t
        .schema()
        .columns()
        .iter()
        .map(|c| 4 + c.name.len() + 2)
        .sum();
    1 + (4 + source.len()) + 4 + (4 + t.name().len()) + (4 + schema) + 8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Format 2 table codec: random tables inside `RegisterSource` and
    /// `EtlCommit` records round-trip exactly; equal text cells of one
    /// decoded table share one allocation; and hostile dictionaries —
    /// a code past the end, a truncated dictionary, a length of
    /// `u32::MAX` — come back as decode errors, never panics.
    #[test]
    fn prop_table_codec_round_trips_and_rejects_bad_dictionaries(
        shapes in prop::collection::vec((1usize..6, 0usize..12, any::<u64>(), any::<bool>()), 1..4),
        etl in any::<bool>(),
    ) {
        use plabi::core::wal::EtlTable;
        use plabi::WalRecord;
        let tables: Vec<Table> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(w, r, seed, distinct))| codec_table(i, w, r, seed, distinct))
            .collect();
        let rec = if etl {
            WalRecord::EtlCommit {
                tables: tables
                    .iter()
                    .enumerate()
                    .map(|(i, t)| EtlTable {
                        table: t.clone(),
                        version: i as u64 + 1,
                        sources: vec![SourceId::new("hospital")],
                    })
                    .collect(),
            }
        } else {
            WalRecord::RegisterSource { source: SourceId::new("hospital"), tables: tables.clone() }
        };
        let back = WalRecord::decode(&rec.encode()).unwrap();
        let got = record_tables(&back);
        prop_assert_eq!(got.len(), tables.len());
        for (g, t) in got.iter().zip(&tables) {
            prop_assert_eq!(g.name(), t.name());
            prop_assert_eq!(g.schema(), t.schema());
            prop_assert_eq!(cell_bits(g), cell_bits(t));
            // One shared string per distinct text within a table.
            let texts: Vec<&std::sync::Arc<str>> = g
                .rows()
                .iter()
                .flatten()
                .filter_map(|v| match v {
                    Value::Text(s) => Some(s),
                    _ => None,
                })
                .collect();
            for a in &texts {
                for b in &texts {
                    if a == b {
                        prop_assert!(std::sync::Arc::ptr_eq(a, b), "equal text {:?} decoded twice", a);
                    }
                }
            }
        }
        if let WalRecord::EtlCommit { tables: decoded } = &back {
            let versions: Vec<u64> = decoded.iter().map(|t| t.version).collect();
            prop_assert_eq!(versions, (1..=tables.len() as u64).collect::<Vec<_>>());
        }

        // Hostile dictionaries, on the first table alone.
        let t = &tables[0];
        let payload = WalRecord::RegisterSource {
            source: SourceId::new("hospital"),
            tables: vec![t.clone()],
        }
        .encode();
        let at = dictionary_offset("hospital", t);
        let dict_len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let mut huge = payload.clone();
        huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert!(WalRecord::decode(&huge).is_err(), "dictionary length u32::MAX decoded");
        // Walk the dictionary, then the cells to the first text code.
        let mut pos = at + 4;
        for _ in 0..dict_len {
            let n = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + n;
        }
        let dict_end = pos;
        for cut in (at + 4..dict_end).step_by(3) {
            prop_assert!(WalRecord::decode(&payload[..cut]).is_err(), "dictionary cut at {} decoded", cut);
        }
        let mut first_code = None;
        while pos < payload.len() {
            let tag = payload[pos];
            if tag == 4 {
                first_code = Some(pos + 1);
                break;
            }
            pos += 1 + match tag {
                0 => 0,
                1 => 1,
                2 | 3 => 8,
                5 => 4,
                t => panic!("unexpected cell tag {t}"),
            };
        }
        if let Some(code_at) = first_code {
            for code in [dict_len, dict_len + 1, u32::MAX] {
                let mut bad = payload.clone();
                bad[code_at..code_at + 4].copy_from_slice(&code.to_le_bytes());
                prop_assert!(WalRecord::decode(&bad).is_err(), "text code {} of {} decoded", code, dict_len);
            }
        }
    }
}

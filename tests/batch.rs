//! Shared-render batch delivery: the scheduler must be *observationally
//! identical* to a serial `deliver` loop — same results, same journal
//! entries (sequence numbers, trace ids, roles, outcomes), at every
//! thread count, cold and served from the cross-batch render cache.
//! Plus the cache lifecycle: warm batches hit, ETL commits and report
//! redefinitions invalidate, and nothing stale is ever served.

use plabi::exec::{ExecConfig, Obs};
use plabi::prelude::*;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

fn today() -> Date {
    Date::new(2008, 7, 1).unwrap()
}

/// The standard deployment: hospital prescriptions ETL'd into the
/// warehouse, one approved meta-report, three reports over two role
/// profiles, a few consumers per profile, two consumers holding two
/// roles each and one roleless stranger.
fn deployment() -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 24,
        prescriptions: 120,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(today());
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
    for a in ["a0", "a1", "a2"] {
        sys.subjects_mut().grant(a, "analyst");
    }
    for u in ["u0", "u1"] {
        sys.subjects_mut().grant(u, "auditor");
    }
    for (c, second) in [("am0", "manager"), ("aa0", "auditor")] {
        sys.subjects_mut().grant(c, "analyst");
        sys.subjects_mut().grant(c, second);
    }
    sys.define_report(ReportSpec::new(
        "r-consumption",
        "Drug consumption",
        scan("FactPrescriptions").aggregate(
            vec!["Drug".into()],
            vec![AggItem::count_star("Consumption")],
        ),
        [RoleId::new("analyst")],
    ));
    sys.define_report(ReportSpec::new(
        "r-disease",
        "Disease counts",
        scan("FactPrescriptions").aggregate(vec!["Disease".into()], vec![AggItem::count_star("N")]),
        [RoleId::new("analyst"), RoleId::new("auditor")],
    ));
    sys.define_report(ReportSpec::new(
        "r-monthly",
        "Monthly volume",
        scan("FactPrescriptions").aggregate(vec!["Date".into()], vec![AggItem::count_star("N")]),
        [RoleId::new("auditor")],
    ));
    sys
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

/// A stable, byte-comparable rendering of one delivery result.
fn fingerprint(r: &Result<plabi::report::EnforcedReport, SystemError>) -> String {
    match r {
        Ok(e) => format!(
            "ok:{:?}:{:?}:{}:{:?}",
            e.table.schema(),
            e.table.rows(),
            e.suppressed_groups,
            e.applied
        ),
        Err(e) => format!("err:{e}"),
    }
}

/// The serial oracle: a fresh deployment on the row engine delivering
/// the same requests one `deliver` call at a time, `runs` times over.
/// Returns result fingerprints and the full journal (every field,
/// including seq and trace ids).
fn serial_oracle(
    requests: &[(ReportId, ConsumerId)],
    runs: usize,
) -> (Vec<String>, Vec<plabi::audit::AuditEntry>) {
    let mut sys = deployment();
    sys.engine_mut().exec = ExecConfig::serial();
    let results: Vec<String> = (0..runs)
        .flat_map(|_| requests)
        .map(|(id, c)| fingerprint(&sys.deliver(id, c)))
        .collect();
    (results, sys.audit_log().entries().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The equivalence property: for random batches mixing shared
    /// profiles, distinct profiles, refusals and unknown reports,
    /// `deliver_batch` on the fused engine returns the same results and
    /// writes the same journal — byte for byte, seq and trace included —
    /// as the serial loop on the row oracle, at 1/2/8 threads. Each
    /// batch runs twice on one system, the second time served from the
    /// render cache, against the serial loop run twice.
    #[test]
    fn prop_batch_is_byte_identical_to_serial_loop(
        picks in prop::collection::vec((0usize..4, 0usize..8), 0..12),
    ) {
        let reports = ["r-consumption", "r-disease", "r-monthly", "r-ghost"];
        let consumers = ["a0", "a1", "a2", "u0", "u1", "am0", "aa0", "stranger"];
        let requests: Vec<(ReportId, ConsumerId)> = picks
            .iter()
            .map(|&(r, c)| (ReportId::new(reports[r]), ConsumerId::new(consumers[c])))
            .collect();
        let (want_results, want_journal) = serial_oracle(&requests, 2);
        for threads in THREADS {
            let mut sys = deployment();
            sys.engine_mut().exec = ExecConfig::with_threads(threads)
                .with_pinned_threads(true)
                .with_columnar(true);
            let got: Vec<String> = (0..2)
                .flat_map(|_| sys.deliver_batch(&requests))
                .map(|r| fingerprint(&r))
                .collect();
            prop_assert_eq!(&got, &want_results, "threads={}", threads);
            prop_assert_eq!(sys.audit_log().entries(), &want_journal[..],
                "threads={}", threads);
        }
    }
}

/// Duplicate `(report, consumer)` pairs collapse into one render but
/// still journal one entry each, in request order.
#[test]
fn duplicate_pairs_share_one_render_and_journal_per_request() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let requests = vec![
        (ReportId::new("r-consumption"), ConsumerId::new("a0")),
        (ReportId::new("r-consumption"), ConsumerId::new("a0")),
        (ReportId::new("r-consumption"), ConsumerId::new("a1")),
    ];
    let results = sys.deliver_batch(&requests);
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[1]));
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[2]));
    let snap = obs.snapshot();
    // One render serves all three: a0 and a1 hold the same effective
    // role set, so the consumer identity never splits the group.
    assert_eq!(snap.counters.get("deliver.render.unique"), Some(&1));
    assert_eq!(snap.counters.get("deliver.render.shared"), Some(&2));
    assert_eq!(snap.spans.get("deliver.render").map(|s| s.count), Some(1));
    // Yet every request is journaled under its own consumer and trace.
    let entries = sys.audit_log().entries();
    assert_eq!(entries.len(), 3);
    assert_eq!(
        entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert_eq!(
        entries
            .iter()
            .map(|e| e.consumer.to_string())
            .collect::<Vec<_>>(),
        vec!["a0", "a0", "a1"],
    );
    let traces: Vec<u64> = entries.iter().map(|e| e.provenance.trace.value()).collect();
    assert_eq!(traces, vec![1, 2, 3], "trace ids follow request order");
}

/// Consumers whose held roles differ but meet the report's
/// distribution list alike share one render: `r-consumption` goes to
/// analysts only, so an analyst and an analyst+manager see the same
/// report.
#[test]
fn held_roles_that_meet_the_distribution_list_alike_share_a_render() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let requests = vec![
        (ReportId::new("r-consumption"), ConsumerId::new("a0")),
        (ReportId::new("r-consumption"), ConsumerId::new("am0")),
    ];
    let results = sys.deliver_batch(&requests);
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[1]));
    let snap = obs.snapshot();
    assert_eq!(snap.counters.get("deliver.render.unique"), Some(&1));
    assert_eq!(snap.counters.get("deliver.render.shared"), Some(&1));
    let entries = sys.audit_log().entries();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].roles, entries[1].roles);
    assert_eq!(
        entries[1]
            .roles
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        vec!["analyst"],
        "the journal records the effective roles, not the held ones"
    );
}

/// An unknown report is a refused request on every delivery API: it
/// uses up a trace id and counts as a request and an error, so later
/// trace ids do not depend on which API refused it.
#[test]
fn unknown_reports_count_alike_on_every_delivery_api() {
    let ghost = ReportId::new("r-ghost");
    let a0 = ConsumerId::new("a0");
    for document in [false, true] {
        let mut sys = deployment();
        let obs = Obs::enabled();
        sys.engine_mut().exec = ExecConfig::serial().with_obs(obs.clone());
        let refused = if document {
            sys.deliver_document(&ghost, &a0).map(|_| ())
        } else {
            sys.deliver(&ghost, &a0).map(|_| ())
        };
        assert!(matches!(refused, Err(SystemError::UnknownReport(_))));
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters.get("deliver.requests"),
            Some(&1),
            "document={document}"
        );
        assert_eq!(
            snap.counters.get("deliver.errors"),
            Some(&1),
            "document={document}"
        );
        assert!(sys.audit_log().entries().is_empty());
        sys.deliver(&ReportId::new("r-consumption"), &a0).unwrap();
        let entries = sys.audit_log().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].provenance.trace.value(),
            2,
            "document={document}"
        );
    }
}

/// Unknown reports interleaved through a batch error in place without
/// disturbing the seq/trace alignment of their neighbors.
#[test]
fn interleaved_unknown_reports_keep_journal_alignment() {
    let mut sys = deployment();
    sys.engine_mut().exec = ExecConfig::with_threads(8);
    let requests = vec![
        (ReportId::new("r-ghost"), ConsumerId::new("a0")),
        (ReportId::new("r-consumption"), ConsumerId::new("a0")),
        (ReportId::new("r-phantom"), ConsumerId::new("a1")),
        (ReportId::new("r-disease"), ConsumerId::new("u0")),
        (ReportId::new("r-ghost"), ConsumerId::new("u1")),
    ];
    let results = sys.deliver_batch(&requests);
    assert!(matches!(results[0], Err(SystemError::UnknownReport(_))));
    assert!(results[1].is_ok());
    assert!(matches!(results[2], Err(SystemError::UnknownReport(_))));
    assert!(results[3].is_ok());
    assert!(matches!(results[4], Err(SystemError::UnknownReport(_))));
    // Traces 1..=5 were assigned in request order; only the two real
    // deliveries reached the journal, keeping their own trace ids.
    let entries = sys.audit_log().entries();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].report.to_string(), "r-consumption");
    assert_eq!(entries[0].provenance.trace.value(), 2);
    assert_eq!(entries[1].report.to_string(), "r-disease");
    assert_eq!(entries[1].provenance.trace.value(), 4);
}

/// An empty batch is a no-op: no results, no journal, no renders.
#[test]
fn empty_batch_is_a_no_op() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let results = sys.deliver_batch(&[]);
    assert!(results.is_empty());
    assert!(sys.audit_log().entries().is_empty());
    let snap = obs.snapshot();
    assert_eq!(snap.counters.get("deliver.render.unique"), None);
    assert!(!snap.spans.contains_key("deliver.render"));
    assert_eq!(snap.spans.get("deliver.batch").map(|s| s.count), Some(1));
}

/// The cross-batch cache: an identical second batch renders nothing —
/// every group is a cache hit — and still journals per request.
#[test]
fn warm_batch_serves_from_render_cache() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let requests = vec![
        (ReportId::new("r-consumption"), ConsumerId::new("a0")),
        (ReportId::new("r-disease"), ConsumerId::new("u0")),
    ];
    let cold = sys.deliver_batch(&requests);
    let after_cold = obs.snapshot();
    assert_eq!(after_cold.counters.get("deliver.render.unique"), Some(&2));
    assert_eq!(after_cold.counters.get("render.cache.hit"), None);

    let warm = sys.deliver_batch(&requests);
    let after_warm = obs.snapshot();
    assert_eq!(after_warm.counters.get("render.cache.hit"), Some(&2));
    assert_eq!(
        after_warm.counters.get("deliver.render.unique"),
        Some(&2),
        "warm batch rendered nothing new"
    );
    assert_eq!(after_warm.counters.get("deliver.render.shared"), Some(&2));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(fingerprint(c), fingerprint(w));
    }
    assert_eq!(
        sys.audit_log().entries().len(),
        4,
        "cache hits still journal"
    );
}

/// No stale serves: an ETL commit bumps the source storage versions, so
/// the next batch's keys miss the cache and re-render against the fresh
/// data; a PLA mutation bumps the policy epoch with the same effect; a
/// report redefinition evicts by id and renders the *new* plan.
#[test]
fn cache_never_serves_stale_renders() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let requests = vec![(ReportId::new("r-consumption"), ConsumerId::new("a0"))];
    let _ = sys.deliver_batch(&requests);
    assert!(sys.deliver_batch(&requests)[0].is_ok());
    assert_eq!(obs.snapshot().counters.get("render.cache.hit"), Some(&1));

    // 1a. Identity ETL re-run: the Load carries the extracted rows'
    //     storage (and version) through untouched, so the key is
    //     unchanged — and the hit is *sound*: equal storage versions
    //     prove the scanned rows are identical.
    sys.run_etl(&etl_pipeline(), Some("quality")).unwrap();
    let replayed = sys.deliver_batch(&requests);
    assert!(replayed[0].is_ok());
    assert_eq!(obs.snapshot().counters.get("render.cache.hit"), Some(&2));

    // 1b. An ETL commit that rebuilds row storage (Derive adds a
    //     column) bumps the storage version: the old entry is
    //     unreachable, not served.
    let rebuilding = Pipeline::new("nightly-derive")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
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
        );
    sys.run_etl(&rebuilding, Some("quality")).unwrap();
    let before = obs.snapshot().counters.get("render.cache.hit").copied();
    let post_etl = sys.deliver_batch(&requests);
    assert!(post_etl[0].is_ok());
    assert_eq!(
        obs.snapshot().counters.get("render.cache.hit").copied(),
        before,
        "no cache hit across a storage-rebuilding ETL commit"
    );
    // The batch result equals a serial render on the same system (the
    // serial path never consults the cache — it is the stale oracle).
    let serial = sys.deliver(&requests[0].0, &requests[0].1);
    assert_eq!(fingerprint(&post_etl[0]), fingerprint(&serial));

    // 2. PLA mutation: the policy epoch is part of the key.
    sys.add_pla(PlaDocument::new("extra", "hospital", PlaLevel::MetaReport));
    let before = obs.snapshot().counters.get("render.cache.hit").copied();
    assert!(sys.deliver_batch(&requests)[0].is_ok());
    assert_eq!(
        obs.snapshot().counters.get("render.cache.hit").copied(),
        before,
        "no cache hit across a policy-epoch bump"
    );

    // 3. Redefinition: same id, different plan — evicted by id, and the
    //    next batch renders the new shape.
    let _ = sys.deliver_batch(&requests); // re-warm
    sys.define_report(ReportSpec::new(
        "r-consumption",
        "Drug consumption by disease",
        scan("FactPrescriptions").aggregate(
            vec!["Drug".into(), "Disease".into()],
            vec![AggItem::count_star("Consumption")],
        ),
        [RoleId::new("analyst")],
    ));
    let redefined = sys.deliver_batch(&requests);
    let enforced = redefined[0].as_ref().expect("new plan delivers");
    assert_eq!(
        enforced.table.schema().columns().len(),
        3,
        "redefined report renders the new plan, not the cached one"
    );
}

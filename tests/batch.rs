//! Shared-render batch delivery: the scheduler must be *observationally
//! identical* to a serial `deliver` loop — same results, same journal
//! entries (sequence numbers, trace ids, roles, outcomes), at every
//! thread count, cold and served from the cross-batch render cache.
//! Plus the cache lifecycle: warm batches hit, every mutation of what a
//! render reads starts a new revision, and nothing stale is ever served.

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

fn cache_hits(obs: &Obs) -> u64 {
    obs.snapshot()
        .counters
        .get("render.cache.hit")
        .copied()
        .unwrap_or(0)
}

/// Warms the render cache with `requests`, applies `mutate`, then
/// checks that the next batch records no cache hit and equals serial
/// `deliver` calls on the same system (the serial path never consults
/// the cache). Returns that batch.
fn assert_rerenders_after(
    sys: &mut BiSystem,
    obs: &Obs,
    requests: &[(ReportId, ConsumerId)],
    what: &str,
    mutate: impl FnOnce(&mut BiSystem),
) -> Vec<Result<plabi::report::EnforcedReport, SystemError>> {
    let _ = sys.deliver_batch(requests);
    mutate(sys);
    let before = cache_hits(obs);
    let batch = sys.deliver_batch(requests);
    assert_eq!(cache_hits(obs), before, "cache hit after {what}");
    for ((id, consumer), got) in requests.iter().zip(&batch) {
        let serial = sys.deliver(id, consumer);
        assert_eq!(fingerprint(got), fingerprint(&serial), "after {what}");
    }
    batch
}

/// No stale serves: every mutation of what a render reads starts a new
/// system revision, and the render cache keeps the renders of one
/// revision only. So after each of them the next batch re-renders and
/// matches serial delivery; without a mutation, the batch still hits.
#[test]
fn cache_never_serves_stale_renders() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let requests = vec![(ReportId::new("r-consumption"), ConsumerId::new("a0"))];
    let _ = sys.deliver_batch(&requests);
    assert!(sys.deliver_batch(&requests)[0].is_ok());
    assert_eq!(cache_hits(&obs), 1, "no mutation: the batch hits");

    // 1a. Identity ETL re-run: the Load carries the extracted rows'
    //     storage (and data version) through untouched, but an ETL run
    //     may still move source attribution (see
    //     `attribution_only_etl_run_refuses_like_serial_delivery`), so
    //     it re-renders like every other commit.
    let replayed =
        assert_rerenders_after(&mut sys, &obs, &requests, "an identity ETL run", |sys| {
            sys.run_etl(&etl_pipeline(), Some("quality")).unwrap();
        });
    assert!(replayed[0].is_ok());

    // 1b. An ETL commit that rebuilds row storage (Derive adds a
    //     column).
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
    let post_etl =
        assert_rerenders_after(&mut sys, &obs, &requests, "a rebuilding ETL run", |sys| {
            sys.run_etl(&rebuilding, Some("quality")).unwrap();
        });
    assert!(post_etl[0].is_ok());

    // 2. PLA mutations, on each of the three paths.
    let post_pla = assert_rerenders_after(&mut sys, &obs, &requests, "add_pla", |sys| {
        sys.add_pla(PlaDocument::new("extra", "hospital", PlaLevel::MetaReport));
    });
    assert!(post_pla[0].is_ok());
    assert_rerenders_after(&mut sys, &obs, &requests, "add_pla_text", |sys| {
        sys.add_pla_text(
            r#"pla "extra-text" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 3;
}"#,
        )
        .unwrap();
    });
    assert_rerenders_after(&mut sys, &obs, &requests, "add_meta_report", |sys| {
        sys.add_meta_report(
            MetaReport::new(
                "m2",
                "Drugs",
                scan("FactPrescriptions").project_cols(&["Drug"]),
            )
            .approved("hospital"),
        );
    });

    // 3. Sources, the warehouse handle and the engine handle.
    assert_rerenders_after(&mut sys, &obs, &requests, "register_source", |sys| {
        let scenario = Scenario::generate(ScenarioConfig {
            patients: 4,
            prescriptions: 8,
            lab_tests: 0,
            ..Default::default()
        });
        let hospital = scenario.sources[&SourceId::new("hospital")].clone();
        sys.register_source("clinic", hospital);
    });
    assert_rerenders_after(&mut sys, &obs, &requests, "warehouse_mut", |sys| {
        sys.warehouse_mut();
    });
    assert_rerenders_after(&mut sys, &obs, &requests, "engine_mut", |sys| {
        sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    });

    // 4. Report definitions: removing and redefining the same report,
    //    then redefining it with another plan, which the next batch
    //    must render.
    assert_rerenders_after(&mut sys, &obs, &requests, "remove_report", |sys| {
        let spec = sys
            .reports()
            .find(|r| r.id.as_str() == "r-consumption")
            .cloned()
            .unwrap();
        assert!(sys.remove_report(&spec.id));
        sys.define_report(spec);
    });
    let redefined = assert_rerenders_after(&mut sys, &obs, &requests, "define_report", |sys| {
        sys.define_report(ReportSpec::new(
            "r-consumption",
            "Drug consumption by disease",
            scan("FactPrescriptions").aggregate(
                vec!["Drug".into(), "Disease".into()],
                vec![AggItem::count_star("Consumption")],
            ),
            [RoleId::new("analyst")],
        ));
    });
    let enforced = redefined[0].as_ref().expect("new plan delivers");
    assert_eq!(
        enforced.table.schema().columns().len(),
        3,
        "redefined report renders the new plan, not the cached one"
    );

    // 5. Serial deliveries mutate nothing a render reads: the next
    //    batch hits again.
    let before = cache_hits(&obs);
    let _ = sys.deliver_batch(&requests);
    assert_eq!(cache_hits(&obs), before + 1, "no mutation: the batch hits");
}

/// An ETL run can move a table's source attribution without changing
/// its rows: reloading `FactPrescriptions` from `clinic`, which shares
/// the hospital's `Prescriptions` storage, keeps the data version and
/// only changes which source the table is attributed to. The join of
/// that table with lab data now combines clinic with laboratory, which
/// the PLA forbids, so the next batch must refuse like a serial
/// `deliver` does, not serve the render cached before the reload.
#[test]
fn attribution_only_etl_run_refuses_like_serial_delivery() {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 24,
        prescriptions: 120,
        lab_tests: 60,
        ..Default::default()
    });
    let clinic = scenario.sources[&SourceId::new("hospital")].clone();
    let mut sys = BiSystem::new(today());
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.register_source("clinic", clinic);
    sys.add_pla_text(
        r#"pla "clinic-1" source clinic version 1 level source {
  forbid join clinic with laboratory;
}"#,
    )
    .unwrap();
    let load = |source: &str, table: &str, into: &str| {
        Pipeline::new("load")
            .step(
                "e",
                EtlOp::Extract {
                    source: source.into(),
                    table: table.into(),
                    as_name: "s".into(),
                },
            )
            .step(
                "l",
                EtlOp::Load {
                    table: "s".into(),
                    warehouse_table: into.into(),
                },
            )
    };
    sys.run_etl(
        &load("hospital", "Prescriptions", "FactPrescriptions"),
        None,
    )
    .unwrap();
    sys.run_etl(&load("laboratory", "LabTests", "FactLab"), None)
        .unwrap();
    sys.subjects_mut().grant("a0", "analyst");
    sys.define_report(ReportSpec::new(
        "r-tested",
        "Tested prescriptions",
        scan("FactPrescriptions")
            .join(
                scan("FactLab"),
                vec![("Patient".into(), "Person".into())],
                "lab",
            )
            .aggregate(vec!["Drug".into()], vec![AggItem::count_star("N")]),
        [RoleId::new("analyst")],
    ));
    let requests = vec![(ReportId::new("r-tested"), ConsumerId::new("a0"))];
    assert!(sys.deliver_batch(&requests)[0].is_ok());

    sys.run_etl(&load("clinic", "Prescriptions", "FactPrescriptions"), None)
        .unwrap();
    assert_eq!(sys.warehouse().data_version("FactPrescriptions"), Some(1));
    assert_eq!(
        sys.table_source().get("FactPrescriptions"),
        Some(&SourceId::new("clinic"))
    );
    let batch = sys.deliver_batch(&requests);
    let serial = sys.deliver(&requests[0].0, &requests[0].1);
    assert!(
        serial.is_err(),
        "clinic ⋈ laboratory is forbidden: {serial:?}"
    );
    assert_eq!(fingerprint(&batch[0]), fingerprint(&serial));
}

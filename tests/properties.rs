//! Property-based tests over the framework's core invariants.

use proptest::prelude::*;

use ipa::aida::{Axis, Histogram1D, Mergeable, Tree};
use ipa::catalog::query::glob_match;
use ipa::dataset::{
    decode_dataset, encode_dataset, reassemble, split_even, split_records, AnyRecord,
    CollisionEvent, DnaRead, FourVector, Particle, TradeRecord,
};
use ipa::model::{fit_grid_equation, GridEquation};

// ---------------------------------------------------------------- data ---

fn arb_particle() -> impl Strategy<Value = Particle> {
    (
        prop_oneof![Just(5i32), Just(-5), Just(11), Just(22), Just(211)],
        -1.0f64..1.0,
        0.0f64..200.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
    )
        .prop_map(|(pdg, q, e, px, py, pz)| Particle::new(pdg, q, FourVector::new(e, px, py, pz)))
}

fn arb_event(id: u64) -> impl Strategy<Value = AnyRecord> {
    proptest::collection::vec(arb_particle(), 0..12).prop_map(move |particles| {
        AnyRecord::Event(CollisionEvent {
            event_id: id,
            run: 1,
            sqrt_s: 500.0,
            is_signal: false,
            particles,
        })
    })
}

fn arb_dna(id: u64) -> impl Strategy<Value = AnyRecord> {
    ("[ACGT]{0,120}", 0.0f32..60.0).prop_map(move |(bases, quality)| {
        AnyRecord::Dna(DnaRead {
            read_id: id,
            sample: (id % 5) as u32,
            bases: bases.into(),
            quality,
        })
    })
}

fn arb_trade(id: u64) -> impl Strategy<Value = AnyRecord> {
    ("[A-Z]{1,6}", 0.01f64..1e4, 1u32..100_000, any::<bool>()).prop_map(
        move |(symbol, price, volume, buyer)| {
            AnyRecord::Trade(TradeRecord {
                trade_id: id,
                timestamp_ms: id * 3 + 1,
                symbol: symbol.into(),
                price,
                volume,
                buyer_initiated: buyer,
            })
        },
    )
}

fn arb_records() -> impl Strategy<Value = Vec<AnyRecord>> {
    prop_oneof![
        proptest::collection::vec(any::<u64>(), 0..60).prop_flat_map(|ids| ids
            .into_iter()
            .enumerate()
            .map(|(i, _)| arb_event(i as u64))
            .collect::<Vec<_>>()),
        proptest::collection::vec(any::<u64>(), 0..60).prop_flat_map(|ids| ids
            .into_iter()
            .enumerate()
            .map(|(i, _)| arb_dna(i as u64))
            .collect::<Vec<_>>()),
        proptest::collection::vec(any::<u64>(), 0..60).prop_flat_map(|ids| ids
            .into_iter()
            .enumerate()
            .map(|(i, _)| arb_trade(i as u64))
            .collect::<Vec<_>>()),
    ]
}

proptest! {
    // ------------------------------------------------------- splitter ---

    /// Splitting is an exact, order-preserving partition for both
    /// strategies and any part count.
    #[test]
    fn split_is_exact_partition(records in arb_records(), n in 1usize..40) {
        let (even, _) = split_even(&records, n).unwrap();
        prop_assert_eq!(even.len(), n);
        prop_assert_eq!(reassemble(&even), records.clone());

        let (byte, plan) = split_records(&records, n).unwrap();
        prop_assert_eq!(byte.len(), n);
        prop_assert_eq!(reassemble(&byte), records.clone());
        let total_from_plan: u64 = plan.ranges.iter().map(|r| r.1).sum();
        prop_assert_eq!(total_from_plan, records.len() as u64);
    }

    /// Record-count split balances to ±1 record.
    #[test]
    fn split_even_is_balanced(records in arb_records(), n in 1usize..20) {
        let (parts, _) = split_even(&records, n).unwrap();
        let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
        let max = lens.iter().max().unwrap();
        let min = lens.iter().min().unwrap();
        prop_assert!(max - min <= 1, "{lens:?}");
    }

    // ---------------------------------------------------------- codec ---

    /// Binary encode/decode round-trips every record domain exactly.
    #[test]
    fn codec_round_trips(records in arb_records()) {
        let bytes = encode_dataset(&records);
        let back = decode_dataset(&bytes).unwrap();
        prop_assert_eq!(back, records);
    }

    /// Any truncation of a non-empty encoding fails loudly, never panics
    /// or returns wrong data.
    #[test]
    fn codec_rejects_truncation(records in arb_records(), frac in 0.0f64..1.0) {
        prop_assume!(!records.is_empty());
        let bytes = encode_dataset(&records);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_dataset(&bytes[..cut]).is_err());
    }

    // ----------------------------------------------------- histograms ---

    /// Merging any 2-way split of fills equals filling once (counts exact,
    /// weights to float tolerance) — the invariant the whole result plane
    /// rests on.
    #[test]
    fn histogram_merge_equals_sequential(
        fills in proptest::collection::vec((-50.0f64..150.0, 0.1f64..5.0), 0..300),
        mask in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let mut whole = Histogram1D::new("t", 37, 0.0, 100.0);
        let mut a = whole.clone_empty();
        let mut b = whole.clone_empty();
        for (i, &(x, w)) in fills.iter().enumerate() {
            whole.fill(x, w);
            if *mask.get(i).unwrap_or(&false) { a.fill(x, w) } else { b.fill(x, w) }
        }
        a.merge(&b).unwrap();
        prop_assert_eq!(a.all_entries(), whole.all_entries());
        for i in 0..37 {
            prop_assert_eq!(a.bin_entries(i), whole.bin_entries(i));
            prop_assert!((a.bin_height(i) - whole.bin_height(i)).abs() < 1e-9);
        }
    }

    /// Merge is commutative on counts and heights.
    #[test]
    fn histogram_merge_commutes(
        fa in proptest::collection::vec(-10.0f64..110.0, 0..100),
        fb in proptest::collection::vec(-10.0f64..110.0, 0..100),
    ) {
        let mut a1 = Histogram1D::new("t", 11, 0.0, 100.0);
        let mut b1 = a1.clone_empty();
        for &x in &fa { a1.fill1(x); }
        for &x in &fb { b1.fill1(x); }
        let mut ab = a1.clone();
        ab.merge(&b1).unwrap();
        let mut ba = b1.clone();
        ba.merge(&a1).unwrap();
        prop_assert_eq!(ab.all_entries(), ba.all_entries());
        for i in 0..11 {
            prop_assert!((ab.bin_height(i) - ba.bin_height(i)).abs() < 1e-9);
        }
    }

    /// Tree merge is associative on entry counts for disjoint and shared
    /// paths alike.
    #[test]
    fn tree_merge_associates(
        fills in proptest::collection::vec((0usize..3, 0.0f64..100.0), 0..120)
    ) {
        let paths = ["/a/x", "/a/y", "/b/z"];
        let mk = |idx: usize| {
            let mut t = Tree::new();
            for p in paths { t.put(p, Histogram1D::new("h", 10, 0.0, 100.0)).unwrap(); }
            for (i, &(pi, x)) in fills.iter().enumerate() {
                if i % 3 == idx {
                    if let ipa::aida::AidaObject::H1(h) = t.get_mut(paths[pi]).unwrap() {
                        h.fill1(x);
                    }
                }
            }
            t
        };
        let (a, b, c) = (mk(0), mk(1), mk(2));
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.total_entries(), right.total_entries());
    }

    // ----------------------------------------------------------- axis ---

    /// Every coordinate inside the axis lands in a bin whose edges contain
    /// it.
    #[test]
    fn axis_coord_bin_consistency(
        nbins in 1usize..200,
        lo in -1e3f64..1e3,
        width in 1e-3f64..1e3,
        frac in 0.0f64..1.0,
    ) {
        let hi = lo + width;
        let axis = Axis::fixed(nbins, lo, hi);
        let x = lo + frac * width * 0.999_999;
        let idx = axis.coord_to_index(x);
        prop_assert!(idx >= 0, "in-range coord must not under/overflow");
        let i = idx as usize;
        prop_assert!(x >= axis.bin_lower_edge(i) - 1e-9 * width);
        prop_assert!(x < axis.bin_upper_edge(i) + 1e-9 * width);
    }

    // ----------------------------------------------------------- glob ---

    /// A literal pattern (no wildcards) matches exactly itself,
    /// case-insensitively; adding a `*` prefix/suffix still matches.
    #[test]
    fn glob_literal_and_star(text in "[a-z0-9_./-]{0,24}") {
        prop_assert!(glob_match(&text, &text));
        prop_assert!(glob_match(&text.to_uppercase(), &text));
        let suffixed = format!("{text}*");
        let prefixed = format!("*{text}");
        prop_assert!(glob_match(&suffixed, &text));
        prop_assert!(glob_match(&prefixed, &text));
        prop_assert!(glob_match("*", &text));
    }

    // ------------------------------------------------------------ fit ---

    /// Least squares recovers arbitrary grid-equation coefficients from
    /// noiseless samples of that equation.
    #[test]
    fn fit_recovers_random_grid_equation(
        a in 0.01f64..10.0,
        c in 0.0f64..500.0,
        d in 0.0f64..500.0,
        b in 0.01f64..20.0,
    ) {
        let truth = GridEquation { a_s_per_mb: a, c_s: c, d_s: d, b_s_per_mb: b };
        let mut samples = Vec::new();
        for &x in &[1.0, 7.0, 40.0, 200.0, 800.0] {
            for &n in &[1usize, 2, 5, 9, 17] {
                samples.push((x, n, truth.total_s(x, n)));
            }
        }
        let fit = fit_grid_equation(&samples).unwrap();
        let scale = 1.0 + a.abs() + c.abs() + d.abs() + b.abs();
        prop_assert!((fit.a_s_per_mb - a).abs() < 1e-6 * scale);
        prop_assert!((fit.c_s - c).abs() < 1e-5 * scale);
        prop_assert!((fit.d_s - d).abs() < 1e-5 * scale);
        prop_assert!((fit.b_s_per_mb - b).abs() < 1e-6 * scale);
    }

    // -------------------------------------------------------- simgrid ---

    /// Simulated session times are monotone: more data never takes less
    /// time; more nodes never increase the analysis phase.
    #[test]
    fn simulation_monotonicity(mb in 0.0f64..2000.0, n in 1usize..64) {
        let cal = ipa::simgrid::PaperCalibration::paper2006();
        let base = ipa::simgrid::simulate_session(mb, n, &cal);
        let more_data = ipa::simgrid::simulate_session(mb + 50.0, n, &cal);
        prop_assert!(more_data.total_s >= base.total_s);
        let more_nodes = ipa::simgrid::simulate_session(mb, n * 2, &cal);
        prop_assert!(more_nodes.analysis_s <= base.analysis_s + 1e-9);
    }
}

proptest! {
    // ----------------------------------------------------- streaming ---

    /// The streaming writer produces byte-identical output to the bulk
    /// encoder, and the streaming reader inverts it, for all domains.
    #[test]
    fn stream_io_round_trips(records in arb_records()) {
        use ipa::dataset::{StreamReader, StreamWriter, DatasetKind};
        let kind = records
            .first()
            .map(|r| match r {
                AnyRecord::Event(_) => DatasetKind::Event,
                AnyRecord::Dna(_) => DatasetKind::Dna,
                AnyRecord::Trade(_) => DatasetKind::Trade,
            })
            .unwrap_or(DatasetKind::Event);
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, kind, records.len() as u64).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        prop_assert_eq!(&out, &encode_dataset(&records));

        let reader = StreamReader::new(&out[..]).unwrap();
        let back: Result<Vec<AnyRecord>, _> = reader.collect();
        prop_assert_eq!(back.unwrap(), records);
    }
}

// ------------------------------------------------- failure recovery ---

proptest! {
    // Full sessions with live engine threads are expensive; a handful of
    // randomized cases per run is plenty to keep the invariant honest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Killing an engine mid-run — at an arbitrary point, with an
    /// arbitrary retry budget — never double-counts: the part is
    /// invalidated and requeued (to the same engine if the budget allows
    /// a retry, otherwise to a survivor) and the finished run matches a
    /// failure-free one exactly, record for record.
    #[test]
    fn kill_and_requeue_never_double_counts(
        events in 200u64..800,
        engines in 2usize..5,
        fail_after in 0u64..400,
        retries in 0u32..3,
    ) {
        use std::time::Duration;
        use ipa::catalog::Metadata;
        use ipa::core::{AnalysisCode, IpaConfig, ManagerNode};
        use ipa::dataset::{generate_dataset, DatasetId, EventGeneratorConfig};
        use ipa::simgrid::{SecurityDomain, VoPolicy};

        let sec = SecurityDomain::new("prop", 9).with_policy(VoPolicy::new("vo", 32));
        let m = ManagerNode::new(
            "prop-site",
            sec.clone(),
            IpaConfig {
                publish_every: 50,
                max_part_retries: retries,
                ..Default::default()
            },
        );
        m.publish_dataset(
            "/d",
            generate_dataset(
                "ds",
                "ds",
                &ipa::dataset::GeneratorConfig::Event(EventGeneratorConfig {
                    events,
                    ..Default::default()
                }),
            ),
            Metadata::new(),
        )
        .unwrap();
        let proxy = sec.issue_proxy("/CN=prop", "vo", 0.0, 1e6);
        let mut s = m.create_session(&proxy, 0.0, engines).unwrap();
        s.select_dataset(&DatasetId::new("ds")).unwrap();
        s.load_code(AnalysisCode::Native("higgs-search".into())).unwrap();
        s.inject_failure(0, fail_after);
        s.run().unwrap();
        let st = s.wait_finished(Duration::from_secs(60)).unwrap();

        prop_assert_eq!(st.records_processed, events);
        prop_assert_eq!(st.parts_done, st.parts_total);
        // The injected fault fires at most once (a retried engine has its
        // fault consumed), so at most one failure record exists.
        prop_assert!(s.failures().len() <= 1, "{:?}", s.failures());
        let tree = s.results().unwrap();
        prop_assert_eq!(
            tree.get("/higgs/n_btags").unwrap().entries(),
            events,
            "exactly-once processing after kill-and-requeue"
        );
        s.close();
    }
}

// ------------------------------------------------------ query algebra ---

fn arb_meta() -> impl Strategy<Value = ipa::catalog::Metadata> {
    proptest::collection::btree_map(
        "[a-c]",
        prop_oneof![
            (-10i64..10).prop_map(|n| ipa::catalog::MetaValue::Num(n as f64)),
            any::<bool>().prop_map(ipa::catalog::MetaValue::Bool),
            "[a-c]{0,3}".prop_map(ipa::catalog::MetaValue::Str),
        ],
        0..4,
    )
}

fn arb_query_text() -> impl Strategy<Value = String> {
    // Small comparisons over the same tiny key/value space as arb_meta.
    let atom = (
        "[a-c]",
        prop_oneof![Just("=="), Just("!="), Just("<"), Just(">="), Just("~")],
        prop_oneof![
            (-10i64..10).prop_map(|n| n.to_string()),
            "[a-c]{0,3}".prop_map(|s| format!("\"{s}\"")),
        ],
    )
        .prop_map(|(k, op, v)| format!("{k} {op} {v}"));
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) and ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) or ({b})")),
            inner.prop_map(|a| format!("not ({a})")),
        ]
    })
}

proptest! {
    /// De Morgan over the query language: `not (A and B)` ≡
    /// `(not A) or (not B)` for arbitrary queries and metadata.
    #[test]
    fn query_de_morgan(a in arb_query_text(), b in arb_query_text(), m in arb_meta()) {
        use ipa::catalog::parse_query;
        let lhs = parse_query(&format!("not (({a}) and ({b}))")).unwrap();
        let rhs = parse_query(&format!("(not ({a})) or (not ({b}))")).unwrap();
        prop_assert_eq!(lhs.eval(&m), rhs.eval(&m), "a={} b={} m={:?}", a, b, m);
    }

    /// Double negation is the identity.
    #[test]
    fn query_double_negation(a in arb_query_text(), m in arb_meta()) {
        use ipa::catalog::parse_query;
        let plain = parse_query(&a).unwrap();
        let doubled = parse_query(&format!("not (not ({a}))")).unwrap();
        prop_assert_eq!(plain.eval(&m), doubled.eval(&m));
    }

    /// Parsing is total on generated queries and the AST survives a
    /// serde round trip with identical semantics.
    #[test]
    fn query_ast_serde_semantics(a in arb_query_text(), m in arb_meta()) {
        use ipa::catalog::parse_query;
        let q = parse_query(&a).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: ipa::catalog::Query = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(q.eval(&m), back.eval(&m));
    }
}

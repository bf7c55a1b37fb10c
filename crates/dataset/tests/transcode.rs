//! The columnar transcode's contract, property-tested:
//!
//! * `RecordFields::for_each_field` — the one-walk path the transcode uses —
//!   yields exactly `field_names().map(|n| field(n))`, f64s bit for bit and
//!   `Missing` in the same places, for every record kind;
//! * transcoding a `RecordBatch` view equals transcoding a copy of it, so
//!   staging parts as views changes no column;
//! * a part's lazily built chunks (`PartColumns`) hold, row for row, what
//!   transcoding each chunk's record range directly gives.

use ipa_dataset::{
    generate_dataset, AnyRecord, CollisionEvent, ColumnBatch, DnaGeneratorConfig,
    EventGeneratorConfig, FieldValue, FourVector, GeneratorConfig, PartColumns, Particle,
    RecordBatch, RecordFields, TradeGeneratorConfig, COLUMN_CHUNK,
};
use proptest::prelude::*;

/// `FieldValue` equality with f64s compared by bit pattern (so a wrong
/// sign of zero or a NaN payload cannot hide behind `==`).
fn same_bits(a: &FieldValue, b: &FieldValue) -> bool {
    match (a, b) {
        (FieldValue::Num(x), FieldValue::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_walk_matches_lookup(rec: &AnyRecord) -> Result<(), TestCaseError> {
    let mut walked = Vec::new();
    rec.for_each_field(|v| walked.push(v));
    let names = rec.field_names();
    prop_assert_eq!(walked.len(), names.len());
    for (name, got) in names.iter().zip(&walked) {
        let want = rec.field(name).expect("listed field resolves");
        prop_assert!(
            same_bits(got, &want),
            "{} of record {}: walk {:?}, lookup {:?}",
            name,
            rec.id(),
            got,
            want
        );
    }
    Ok(())
}

fn assert_columns_bit_equal(a: &ColumnBatch, b: &ColumnBatch) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.kind(), b.kind());
    prop_assert_eq!(a.len(), b.len());
    for col in 0..a.names().len() {
        prop_assert_eq!(a.column(col).validity(), b.column(col).validity());
        for row in 0..a.len() {
            prop_assert!(same_bits(&a.field_at(col, row), &b.field_at(col, row)));
        }
    }
    Ok(())
}

/// Any mix of b-tagged and other particles, including none at all.
fn arb_particle() -> impl Strategy<Value = Particle> {
    (
        prop_oneof![Just(5i32), Just(-5), Just(11), Just(22), Just(211)],
        prop_oneof![Just(0.0f64), Just(1.0), Just(-1.0 / 3.0)],
        0.0f64..250.0,
        -120.0f64..120.0,
        -120.0f64..120.0,
        -120.0f64..120.0,
    )
        .prop_map(|(pdg, q, e, px, py, pz)| Particle::new(pdg, q, FourVector::new(e, px, py, pz)))
}

fn arb_event() -> impl Strategy<Value = AnyRecord> {
    (
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec(arb_particle(), 0..9),
    )
        .prop_map(|(event_id, is_signal, particles)| {
            AnyRecord::Event(CollisionEvent {
                event_id,
                run: 7,
                sqrt_s: 500.0,
                is_signal,
                particles,
            })
        })
}

fn b_tags(rec: &AnyRecord) -> usize {
    match rec {
        AnyRecord::Event(e) => e.particles.iter().filter(|p| p.is_b_tagged()).count(),
        _ => 0,
    }
}

fn generated(kind: u8, n: u64, seed: u64) -> RecordBatch {
    let config = match kind {
        0 => GeneratorConfig::Event(EventGeneratorConfig {
            events: n,
            seed,
            ..Default::default()
        }),
        1 => GeneratorConfig::Dna(DnaGeneratorConfig {
            reads: n,
            seed,
            ..Default::default()
        }),
        _ => GeneratorConfig::Trade(TradeGeneratorConfig {
            trades: n,
            seed,
            ..Default::default()
        }),
    };
    generate_dataset("g", "g", &config).records
}

#[test]
fn hand_built_corner_events_walk_like_they_look_up() {
    let b = |px: f64| {
        Particle::new(
            5,
            -1.0 / 3.0,
            FourVector::from_mass_momentum(4.8, px, 3.0, 1.0),
        )
    };
    let photon = Particle::new(22, 0.0, FourVector::new(12.0, 3.0, 4.0, 0.0));
    let corners = [
        vec![],                                 // no particles: lead_pt and bb_mass Missing
        vec![photon],                           // no b-tag
        vec![b(40.0), photon],                  // one b-tag: bb_mass still Missing
        vec![b(40.0), b(-35.0)],                // a pair
        vec![b(1.0), photon, b(50.0), b(45.0)], // three: the two leading ones pair up
    ];
    for (i, particles) in corners.into_iter().enumerate() {
        let rec = AnyRecord::Event(CollisionEvent {
            event_id: i as u64,
            run: 1,
            sqrt_s: 500.0,
            is_signal: false,
            particles,
        });
        assert_walk_matches_lookup(&rec).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn walk_equals_lookup_on_arbitrary_events(events in proptest::collection::vec(arb_event(), 1..40)) {
        for rec in &events {
            assert_walk_matches_lookup(rec)?;
        }
        // The strategy must reach the corners the contract names.
        let batch = ColumnBatch::from_records(&events).expect("events transcode");
        let lead = batch.column_index("lead_pt").expect("events have lead_pt");
        for (row, rec) in events.iter().enumerate() {
            let AnyRecord::Event(e) = rec else { unreachable!() };
            prop_assert_eq!(batch.column(lead).is_valid(row), !e.particles.is_empty());
            prop_assert_eq!(
                batch.field("bb_mass", row) != Some(FieldValue::Missing),
                b_tags(rec) >= 2
            );
        }
    }

    #[test]
    fn walk_equals_lookup_on_every_generator(kind in 0u8..3, n in 1u64..120, seed in any::<u64>()) {
        for rec in generated(kind, n, seed).iter() {
            assert_walk_matches_lookup(rec)?;
        }
    }

    #[test]
    fn a_view_transcodes_like_its_copy(
        kind in 0u8..3,
        n in 1u64..200,
        seed in any::<u64>(),
        cut in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let records = generated(kind, n, seed);
        let (a, b) = ((cut.0 * n as f64) as usize, (cut.1 * n as f64) as usize);
        let view = records.slice(a.min(b)..a.max(b));
        let copy: Vec<AnyRecord> = view.to_vec();
        let from_view = ColumnBatch::from_records(&view);
        let from_copy = ColumnBatch::from_records(&copy);
        match (from_view, from_copy) {
            (Some(v), Some(c)) => assert_columns_bit_equal(&v, &c)?,
            (None, None) => prop_assert!(view.is_empty()),
            _ => prop_assert!(false, "view and copy disagree on whether they transcode"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_row_reads_the_transcode_of_its_own_chunk(
        kind in 0u8..3,
        // Up to two chunk edges, with lengths just around them.
        n in prop_oneof![1u64..300, 8_000u64..8_400, 16_300u64..16_700],
        seed in any::<u64>(),
        probe in proptest::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let part = generated(kind, n, seed);
        let cols = PartColumns::new(part.clone());
        prop_assert_eq!(cols.chunks(), part.len().div_ceil(COLUMN_CHUNK));
        for p in probe {
            let row = (p * n as f64) as usize;
            let (c0, chunk) = cols.chunk_for(row);
            let c1 = (c0 + COLUMN_CHUNK).min(part.len());
            prop_assert!(c0 <= row && row < c1 && c0 % COLUMN_CHUNK == 0);
            prop_assert!(chunk.records.same_view(&part.slice(c0..c1)));
            let direct = ColumnBatch::from_records(&part[c0..c1]).expect("one kind transcodes");
            assert_columns_bit_equal(chunk.columns.as_ref().expect("built"), &direct)?;
        }
    }
}

#[test]
fn generated_events_cover_zero_one_and_two_b_tags() {
    // The generator-driven property above only means something if the
    // generator reaches every b-tag class; pin that here.
    let records = generated(0, 2_000, 7);
    let mut seen = [false; 3];
    for rec in records.iter() {
        seen[b_tags(rec).min(2)] = true;
    }
    assert_eq!(seen, [true; 3]);
}

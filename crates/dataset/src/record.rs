//! The uniform record model.
//!
//! Analysis engines iterate records and hand each one to user code. The
//! scripting layer accesses record contents by *field name* — this is what
//! makes the framework "not specific to any particular science application"
//! (paper §6) while still supporting rich, domain-specific observables.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dna::DnaRead;
use crate::event::CollisionEvent;
use crate::trade::TradeRecord;

/// A dynamically-typed field value handed to analysis scripts.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Numeric field.
    Num(f64),
    /// Integer field (kept distinct so ids don't lose precision).
    Int(i64),
    /// Boolean field.
    Bool(bool),
    /// String field. Shared, not owned: looking up a string field is a
    /// refcount bump, never an allocation.
    Str(Arc<str>),
    /// A field that exists but is absent for this record
    /// (e.g. `bb_mass` in an event with fewer than two b-tags).
    Missing,
}

impl FieldValue {
    /// Numeric view (ints and bools widen; strings/missing are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Num(x) => Some(*x),
            FieldValue::Int(i) => Some(*i as f64),
            FieldValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }
}

/// Named-field access over a record. Field name vocabulary is per-domain and
/// documented on each implementation.
pub trait RecordFields {
    /// Look up a field by name; `None` means the name is unknown for this
    /// record type (a script error), while `Some(FieldValue::Missing)` means
    /// the field is understood but absent on this record.
    fn field(&self, name: &str) -> Option<FieldValue>;

    /// The field names this record type understands.
    fn field_names(&self) -> &'static [&'static str];

    /// Hand `emit` the value of every field, in [`RecordFields::field_names`]
    /// order — exactly `field_names().map(|n| field(n))`, which is what the
    /// default does. Whole-record consumers (the columnar transcode) call
    /// this so a record type can derive all its fields in one pass instead
    /// of once per name.
    fn for_each_field(&self, mut emit: impl FnMut(FieldValue)) {
        for name in self.field_names() {
            emit(
                self.field(name)
                    .expect("field_names() entries resolve on their own record type"),
            );
        }
    }
}

/// Any record the framework can analyze.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyRecord {
    /// Collider-physics event.
    Event(CollisionEvent),
    /// DNA sequencing read.
    Dna(DnaRead),
    /// Stock trade.
    Trade(TradeRecord),
}

impl AnyRecord {
    /// Sequential id of the record within its dataset.
    pub fn id(&self) -> u64 {
        match self {
            AnyRecord::Event(e) => e.event_id,
            AnyRecord::Dna(d) => d.read_id,
            AnyRecord::Trade(t) => t.trade_id,
        }
    }

    /// Short kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyRecord::Event(_) => "event",
            AnyRecord::Dna(_) => "dna",
            AnyRecord::Trade(_) => "trade",
        }
    }
}

impl RecordFields for CollisionEvent {
    /// Fields: `event_id`, `run`, `sqrt_s`, `n_particles`, `n_charged`,
    /// `visible_energy`, `missing_pt`, `n_btags`, `bb_mass` (missing when
    /// fewer than two b-tags), `is_signal`, `lead_pt`.
    fn field(&self, name: &str) -> Option<FieldValue> {
        Some(match name {
            "event_id" => FieldValue::Int(self.event_id as i64),
            "run" => FieldValue::Int(self.run as i64),
            "sqrt_s" => FieldValue::Num(self.sqrt_s),
            "n_particles" => FieldValue::Int(self.particles.len() as i64),
            "n_charged" => FieldValue::Int(self.charged_multiplicity() as i64),
            "visible_energy" => FieldValue::Num(self.visible_energy()),
            "missing_pt" => FieldValue::Num(self.missing_pt()),
            "n_btags" => {
                FieldValue::Int(self.particles.iter().filter(|p| p.is_b_tagged()).count() as i64)
            }
            "bb_mass" => match self.leading_bb_mass() {
                Some(m) => FieldValue::Num(m),
                None => FieldValue::Missing,
            },
            "is_signal" => FieldValue::Bool(self.is_signal),
            "lead_pt" => {
                let lead = self
                    .particles
                    .iter()
                    .map(|p| p.p4.pt())
                    .fold(f64::NAN, f64::max);
                if lead.is_nan() {
                    FieldValue::Missing
                } else {
                    FieldValue::Num(lead)
                }
            }
            _ => return None,
        })
    }

    fn field_names(&self) -> &'static [&'static str] {
        &[
            "event_id",
            "run",
            "sqrt_s",
            "n_particles",
            "n_charged",
            "visible_energy",
            "missing_pt",
            "n_btags",
            "bb_mass",
            "is_signal",
            "lead_pt",
        ]
    }

    /// One walk over the particles derives every per-particle aggregate.
    /// Each accumulator sees the same operations in the same order as the
    /// by-name path (`charged_multiplicity`, `visible_energy`, `missing_pt`
    /// and the folds in [`RecordFields::field`]), so every value is
    /// bit-identical to `field(name)`.
    fn for_each_field(&self, mut emit: impl FnMut(FieldValue)) {
        let mut n_charged = 0i64;
        // `Iterator::sum`'s own starting value, whatever its sign of zero.
        let mut visible_energy: f64 = std::iter::empty::<f64>().sum();
        let (mut sum_px, mut sum_py) = (0.0, 0.0);
        let mut n_btags = 0i64;
        let mut lead_pt = f64::NAN;
        for p in &self.particles {
            n_charged += i64::from(p.charge != 0.0);
            visible_energy += p.p4.e;
            sum_px += p.p4.px;
            sum_py += p.p4.py;
            n_btags += i64::from(p.is_b_tagged());
            lead_pt = f64::max(lead_pt, p.p4.pt());
        }
        emit(FieldValue::Int(self.event_id as i64));
        emit(FieldValue::Int(self.run as i64));
        emit(FieldValue::Num(self.sqrt_s));
        emit(FieldValue::Int(self.particles.len() as i64));
        emit(FieldValue::Int(n_charged));
        emit(FieldValue::Num(visible_energy));
        emit(FieldValue::Num((sum_px * sum_px + sum_py * sum_py).sqrt()));
        emit(FieldValue::Int(n_btags));
        // Fewer than two b-tags have no pair mass: skip the search for them.
        let bb_mass = if n_btags >= 2 {
            self.leading_bb_mass()
        } else {
            None
        };
        emit(bb_mass.map_or(FieldValue::Missing, FieldValue::Num));
        emit(FieldValue::Bool(self.is_signal));
        emit(if lead_pt.is_nan() {
            FieldValue::Missing
        } else {
            FieldValue::Num(lead_pt)
        });
    }
}

impl RecordFields for DnaRead {
    /// Fields: `read_id`, `sample`, `length`, `gc_content`, `quality`,
    /// `bases`.
    fn field(&self, name: &str) -> Option<FieldValue> {
        Some(match name {
            "read_id" => FieldValue::Int(self.read_id as i64),
            "sample" => FieldValue::Int(self.sample as i64),
            "length" => FieldValue::Int(self.len() as i64),
            "gc_content" => FieldValue::Num(self.gc_content()),
            "quality" => FieldValue::Num(self.quality as f64),
            "bases" => FieldValue::Str(self.bases.clone()),
            _ => return None,
        })
    }

    fn field_names(&self) -> &'static [&'static str] {
        &[
            "read_id",
            "sample",
            "length",
            "gc_content",
            "quality",
            "bases",
        ]
    }
}

impl RecordFields for TradeRecord {
    /// Fields: `trade_id`, `timestamp_ms`, `symbol`, `price`, `volume`,
    /// `notional`, `signed_volume`, `buyer_initiated`.
    fn field(&self, name: &str) -> Option<FieldValue> {
        Some(match name {
            "trade_id" => FieldValue::Int(self.trade_id as i64),
            "timestamp_ms" => FieldValue::Int(self.timestamp_ms as i64),
            "symbol" => FieldValue::Str(self.symbol.clone()),
            "price" => FieldValue::Num(self.price),
            "volume" => FieldValue::Int(self.volume as i64),
            "notional" => FieldValue::Num(self.notional()),
            "signed_volume" => FieldValue::Int(self.signed_volume()),
            "buyer_initiated" => FieldValue::Bool(self.buyer_initiated),
            _ => return None,
        })
    }

    fn field_names(&self) -> &'static [&'static str] {
        &[
            "trade_id",
            "timestamp_ms",
            "symbol",
            "price",
            "volume",
            "notional",
            "signed_volume",
            "buyer_initiated",
        ]
    }
}

impl RecordFields for AnyRecord {
    fn field(&self, name: &str) -> Option<FieldValue> {
        match self {
            AnyRecord::Event(e) => e.field(name),
            AnyRecord::Dna(d) => d.field(name),
            AnyRecord::Trade(t) => t.field(name),
        }
    }

    fn field_names(&self) -> &'static [&'static str] {
        match self {
            AnyRecord::Event(e) => e.field_names(),
            AnyRecord::Dna(d) => d.field_names(),
            AnyRecord::Trade(t) => t.field_names(),
        }
    }

    fn for_each_field(&self, emit: impl FnMut(FieldValue)) {
        match self {
            AnyRecord::Event(e) => e.for_each_field(emit),
            AnyRecord::Dna(d) => d.for_each_field(emit),
            AnyRecord::Trade(t) => t.for_each_field(emit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FourVector, Particle};

    fn sample_event() -> CollisionEvent {
        CollisionEvent {
            event_id: 42,
            run: 3,
            sqrt_s: 500.0,
            is_signal: true,
            particles: vec![
                Particle::new(
                    5,
                    -1.0 / 3.0,
                    FourVector::from_mass_momentum(4.8, 40.0, 0.0, 5.0),
                ),
                Particle::new(
                    -5,
                    1.0 / 3.0,
                    FourVector::from_mass_momentum(4.8, -35.0, 8.0, -5.0),
                ),
                Particle::new(22, 0.0, FourVector::new(12.0, 0.0, 12.0, 0.0)),
            ],
        }
    }

    #[test]
    fn event_fields_resolve() {
        let ev = sample_event();
        assert_eq!(ev.field("event_id"), Some(FieldValue::Int(42)));
        assert_eq!(ev.field("n_particles"), Some(FieldValue::Int(3)));
        assert_eq!(ev.field("n_btags"), Some(FieldValue::Int(2)));
        assert!(matches!(ev.field("bb_mass"), Some(FieldValue::Num(m)) if m > 0.0));
        assert_eq!(ev.field("is_signal"), Some(FieldValue::Bool(true)));
        assert_eq!(ev.field("no_such_field"), None);
    }

    #[test]
    fn missing_vs_unknown_fields() {
        let mut ev = sample_event();
        ev.particles.truncate(1); // only one b-tag left
        assert_eq!(ev.field("bb_mass"), Some(FieldValue::Missing));
        assert_eq!(ev.field("bogus"), None);
        ev.particles.clear();
        assert_eq!(ev.field("lead_pt"), Some(FieldValue::Missing));
    }

    #[test]
    fn any_record_dispatch() {
        let r = AnyRecord::Event(sample_event());
        assert_eq!(r.kind(), "event");
        assert_eq!(r.id(), 42);
        assert!(r.field_names().contains(&"bb_mass"));

        let d = AnyRecord::Dna(DnaRead {
            read_id: 7,
            sample: 1,
            bases: "GGCC".into(),
            quality: 33.0,
        });
        assert_eq!(d.id(), 7);
        assert_eq!(d.field("gc_content"), Some(FieldValue::Num(1.0)));

        let t = AnyRecord::Trade(TradeRecord {
            trade_id: 9,
            timestamp_ms: 5,
            symbol: "X".into(),
            price: 2.0,
            volume: 3,
            buyer_initiated: true,
        });
        assert_eq!(t.field("notional"), Some(FieldValue::Num(6.0)));
        assert_eq!(t.field("signed_volume"), Some(FieldValue::Int(3)));
    }

    #[test]
    fn field_value_numeric_views() {
        assert_eq!(FieldValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(FieldValue::Bool(false).as_f64(), Some(0.0));
        assert_eq!(FieldValue::Str("x".into()).as_f64(), None);
        assert_eq!(FieldValue::Missing.as_f64(), None);
    }
}

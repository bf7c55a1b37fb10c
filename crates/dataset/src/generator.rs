//! Synthetic dataset generators.
//!
//! The paper analyzed 471 MB of simulated Linear-Collider physics data that
//! is not publicly available; these generators produce statistically
//! controlled substitutes with the same record-based structure, so the whole
//! split → analyze → merge pipeline is exercised on realistic content:
//!
//! * [`EventGeneratorConfig`] — collider events with a Higgs-like resonance
//!   (two b-tagged jets whose invariant mass peaks at `higgs_mass`) over a
//!   smooth combinatorial background, so the paper's "look for Higgs bosons"
//!   analysis finds a genuine peak,
//! * [`DnaGeneratorConfig`] — variable-length reads with per-sample GC bias
//!   and an implanted motif,
//! * [`TradeGeneratorConfig`] — geometric-Brownian-motion price paths over a
//!   set of symbols.
//!
//! All generators are fully deterministic given a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::dna::DnaRead;
use crate::event::{CollisionEvent, FourVector, Particle};
use crate::record::AnyRecord;
use crate::trade::TradeRecord;

/// Draw a standard-normal deviate via Box–Muller (keeps `rand_distr` out of
/// the dependency tree).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Random unit vector, isotropic.
fn unit_vector(rng: &mut StdRng) -> (f64, f64, f64) {
    let cos_theta: f64 = rng.random_range(-1.0..1.0);
    let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
    let phi: f64 = rng.random_range(0.0..std::f64::consts::TAU);
    (sin_theta * phi.cos(), sin_theta * phi.sin(), cos_theta)
}

/// Lorentz-boost `v` by velocity `beta` (3-vector, |beta| < 1).
fn boost(v: FourVector, beta: (f64, f64, f64)) -> FourVector {
    let b2 = beta.0 * beta.0 + beta.1 * beta.1 + beta.2 * beta.2;
    if b2 <= 0.0 {
        return v;
    }
    let gamma = 1.0 / (1.0 - b2).sqrt();
    let bp = beta.0 * v.px + beta.1 * v.py + beta.2 * v.pz;
    let coef = (gamma - 1.0) * bp / b2 + gamma * v.e;
    FourVector {
        e: gamma * (v.e + bp),
        px: v.px + coef * beta.0,
        py: v.py + coef * beta.1,
        pz: v.pz + coef * beta.2,
    }
}

/// Configuration for the collider-event generator.
#[derive(Debug, Clone)]
pub struct EventGeneratorConfig {
    /// Number of events.
    pub events: u64,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of events containing a Higgs-like decay.
    pub signal_fraction: f64,
    /// Resonance mass in GeV (2006-era Linear-Collider benchmark: 120).
    pub higgs_mass: f64,
    /// Relative detector resolution on the resonance mass.
    pub resolution: f64,
    /// Centre-of-mass energy in GeV.
    pub sqrt_s: f64,
    /// Mean number of background particles per event.
    pub mean_multiplicity: f64,
    /// Probability that a background particle carries a (mis)tagged b id.
    pub fake_btag_rate: f64,
}

impl Default for EventGeneratorConfig {
    fn default() -> Self {
        EventGeneratorConfig {
            events: 10_000,
            seed: 20060814, // ICPP'06 conference date
            signal_fraction: 0.12,
            higgs_mass: 120.0,
            resolution: 0.035,
            sqrt_s: 500.0,
            mean_multiplicity: 18.0,
            fake_btag_rate: 0.06,
        }
    }
}

impl EventGeneratorConfig {
    /// Rough events needed for a target encoded size: one event with the
    /// default multiplicity encodes to ~`25 + 44·(mean_multiplicity + 2·
    /// signal_fraction)` bytes. Used by benches to build size-controlled
    /// datasets ("analyze 471 MB") without trial and error.
    pub fn events_for_target_mb(&self, mb: f64) -> u64 {
        let per_event = 25.0 + 44.0 * (self.mean_multiplicity + 2.0 * self.signal_fraction);
        ((mb * 1.0e6) / per_event).max(1.0) as u64
    }

    /// Generate the configured number of events.
    pub fn generate(&self) -> Vec<AnyRecord> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.events)
            .map(|i| AnyRecord::Event(self.one_event(i, &mut rng)))
            .collect()
    }

    fn one_event(&self, event_id: u64, rng: &mut StdRng) -> CollisionEvent {
        let is_signal = rng.random::<f64>() < self.signal_fraction;
        let mut particles = Vec::new();

        if is_signal {
            // Smeared resonance mass.
            let m = (self.higgs_mass * (1.0 + self.resolution * gauss(rng))).max(1.0);
            // Parent momentum: recoiling against a Z in e+e- → ZH; take a
            // modest momentum with spread.
            let p_mag = (60.0 + 20.0 * gauss(rng)).abs();
            let dir = unit_vector(rng);
            let parent_e = (m * m + p_mag * p_mag).sqrt();
            let beta = (
                p_mag * dir.0 / parent_e,
                p_mag * dir.1 / parent_e,
                p_mag * dir.2 / parent_e,
            );
            // Back-to-back massless b quarks in the parent rest frame.
            let axis = unit_vector(rng);
            let half = m / 2.0;
            let d1 = FourVector::new(half, half * axis.0, half * axis.1, half * axis.2);
            let d2 = FourVector::new(half, -half * axis.0, -half * axis.1, -half * axis.2);
            particles.push(Particle::new(5, -1.0 / 3.0, boost(d1, beta)));
            particles.push(Particle::new(-5, 1.0 / 3.0, boost(d2, beta)));
        }

        // Smooth multi-particle background (also present in signal events).
        let n_bg = {
            // Poisson via inversion would be overkill; a clamped Gaussian
            // around the mean multiplicity is adequate for load shaping.
            let n = self.mean_multiplicity + self.mean_multiplicity.sqrt() * gauss(rng);
            n.max(2.0).round() as usize
        };
        // Exact capacity: staged parts are views into these very buffers,
        // so growth slack here would be walked (and kept) by every session.
        particles.reserve_exact(n_bg);
        for _ in 0..n_bg {
            // Exponential energy spectrum.
            let e = -18.0 * rng.random::<f64>().max(1e-12).ln();
            let dir = unit_vector(rng);
            let p4 = FourVector::new(e, e * dir.0, e * dir.1, e * dir.2);
            let (pdg, charge) = if rng.random::<f64>() < self.fake_btag_rate {
                (if rng.random::<bool>() { 5 } else { -5 }, 1.0 / 3.0)
            } else if rng.random::<f64>() < 0.6 {
                (211 * if rng.random::<bool>() { 1 } else { -1 }, 1.0)
            } else {
                (22, 0.0)
            };
            particles.push(Particle::new(pdg, charge, p4));
        }

        CollisionEvent {
            event_id,
            run: 1,
            sqrt_s: self.sqrt_s,
            is_signal,
            particles,
        }
    }
}

/// Configuration for the DNA read generator.
#[derive(Debug, Clone)]
pub struct DnaGeneratorConfig {
    /// Number of reads.
    pub reads: u64,
    /// RNG seed.
    pub seed: u64,
    /// Mean read length in bases.
    pub mean_length: f64,
    /// Standard deviation of read length.
    pub sd_length: f64,
    /// Number of distinct samples/lanes.
    pub samples: u32,
    /// Motif implanted in a fraction of reads.
    pub motif: String,
    /// Fraction of reads carrying the motif.
    pub motif_rate: f64,
}

impl Default for DnaGeneratorConfig {
    fn default() -> Self {
        DnaGeneratorConfig {
            reads: 20_000,
            seed: 42,
            mean_length: 150.0,
            sd_length: 30.0,
            samples: 4,
            motif: "GATTACA".to_string(),
            motif_rate: 0.2,
        }
    }
}

impl DnaGeneratorConfig {
    /// Generate the configured number of reads.
    pub fn generate(&self) -> Vec<AnyRecord> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];
        (0..self.reads)
            .map(|read_id| {
                let sample = rng.random_range(0..self.samples.max(1));
                // Per-sample GC bias between 0.35 and 0.65.
                let gc_bias = 0.35 + 0.30 * (sample as f64 / self.samples.max(1) as f64);
                let len = (self.mean_length + self.sd_length * gauss(&mut rng))
                    .round()
                    .clamp(20.0, 10_000.0) as usize;
                let mut bases = Vec::with_capacity(len);
                for _ in 0..len {
                    let b = if rng.random::<f64>() < gc_bias {
                        if rng.random::<bool>() {
                            b'G'
                        } else {
                            b'C'
                        }
                    } else if rng.random::<bool>() {
                        b'A'
                    } else {
                        b'T'
                    };
                    bases.push(b);
                }
                // Implant the motif at a random position in some reads.
                if rng.random::<f64>() < self.motif_rate && len > self.motif.len() {
                    let pos = rng.random_range(0..=len - self.motif.len());
                    bases[pos..pos + self.motif.len()].copy_from_slice(self.motif.as_bytes());
                }
                debug_assert!(bases.iter().all(|b| BASES.contains(b)));
                AnyRecord::Dna(DnaRead {
                    read_id,
                    sample,
                    bases: String::from_utf8(bases)
                        .expect("ACGT is valid UTF-8")
                        .into(),
                    quality: (35.0 + 5.0 * gauss(&mut rng)).clamp(2.0, 60.0) as f32,
                })
            })
            .collect()
    }
}

/// Configuration for the trading-record generator.
#[derive(Debug, Clone)]
pub struct TradeGeneratorConfig {
    /// Number of trades.
    pub trades: u64,
    /// RNG seed.
    pub seed: u64,
    /// Ticker symbols to trade.
    pub symbols: Vec<String>,
    /// Initial price for every symbol.
    pub initial_price: f64,
    /// Per-trade GBM volatility.
    pub volatility: f64,
    /// Mean inter-trade gap in milliseconds.
    pub mean_gap_ms: f64,
}

impl Default for TradeGeneratorConfig {
    fn default() -> Self {
        TradeGeneratorConfig {
            trades: 50_000,
            seed: 7,
            symbols: ["TXC", "SLAC", "OSG", "EGEE", "GGF"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            initial_price: 100.0,
            volatility: 0.0008,
            mean_gap_ms: 120.0,
        }
    }
}

impl TradeGeneratorConfig {
    /// Generate the configured number of trades.
    pub fn generate(&self) -> Vec<AnyRecord> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let nsym = self.symbols.len().max(1);
        // Intern symbols once; each trade then shares the buffer.
        let symbols: Vec<std::sync::Arc<str>> =
            self.symbols.iter().map(|s| s.as_str().into()).collect();
        let mut prices = vec![self.initial_price; nsym];
        let mut t_ms = 0u64;
        (0..self.trades)
            .map(|trade_id| {
                let s = rng.random_range(0..nsym);
                // Geometric Brownian step.
                prices[s] *= (self.volatility * gauss(&mut rng)).exp();
                t_ms += (-self.mean_gap_ms * rng.random::<f64>().max(1e-12).ln()) as u64 + 1;
                let volume = (10.0 * (-rng.random::<f64>().max(1e-12).ln()) * 10.0) as u32 + 1;
                AnyRecord::Trade(TradeRecord {
                    trade_id,
                    timestamp_ms: t_ms,
                    symbol: symbols.get(s).cloned().unwrap_or_else(|| "SYM".into()),
                    price: prices[s],
                    volume,
                    buyer_initiated: rng.random::<bool>(),
                })
            })
            .collect()
    }
}

/// Any generator configuration.
#[derive(Debug, Clone)]
pub enum GeneratorConfig {
    /// Collider events.
    Event(EventGeneratorConfig),
    /// DNA reads.
    Dna(DnaGeneratorConfig),
    /// Stock trades.
    Trade(TradeGeneratorConfig),
}

impl GeneratorConfig {
    /// Run the generator.
    pub fn generate(&self) -> Vec<AnyRecord> {
        match self {
            GeneratorConfig::Event(c) => c.generate(),
            GeneratorConfig::Dna(c) => c.generate(),
            GeneratorConfig::Trade(c) => c.generate(),
        }
    }
}

/// Generate a complete [`Dataset`] with descriptor.
pub fn generate_dataset(
    id: impl Into<String>,
    name: impl Into<String>,
    config: &GeneratorConfig,
) -> Dataset {
    Dataset::from_records(id, name, config.generate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFields;

    #[test]
    fn event_generation_is_deterministic() {
        let cfg = EventGeneratorConfig {
            events: 100,
            ..Default::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let other = EventGeneratorConfig {
            seed: 1,
            ..cfg.clone()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn signal_events_peak_at_higgs_mass() {
        let cfg = EventGeneratorConfig {
            events: 2000,
            signal_fraction: 1.0,
            ..Default::default()
        };
        let recs = cfg.generate();
        let mut masses = Vec::new();
        for r in &recs {
            if let AnyRecord::Event(e) = r {
                if let Some(m) = e.leading_bb_mass() {
                    masses.push(m);
                }
            }
        }
        assert!(masses.len() > 1500, "most signal events must yield a pair");
        // The *median* sits near the Higgs mass even with combinatoric tails.
        masses.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = masses[masses.len() / 2];
        assert!(
            (median - cfg.higgs_mass).abs() < 12.0,
            "median {median} too far from {}",
            cfg.higgs_mass
        );
    }

    #[test]
    fn background_only_has_no_narrow_peak() {
        let cfg = EventGeneratorConfig {
            events: 1500,
            signal_fraction: 0.0,
            ..Default::default()
        };
        let recs = cfg.generate();
        let mut in_window = 0usize;
        let mut with_pair = 0usize;
        for r in &recs {
            if let AnyRecord::Event(e) = r {
                assert!(!e.is_signal);
                if let Some(m) = e.leading_bb_mass() {
                    with_pair += 1;
                    if (m - cfg.higgs_mass).abs() < cfg.higgs_mass * 2.0 * cfg.resolution {
                        in_window += 1;
                    }
                }
            }
        }
        if with_pair > 0 {
            // The narrow window holds only a small fraction of background pairs.
            assert!(
                (in_window as f64) < 0.2 * with_pair as f64,
                "background looks peaked: {in_window}/{with_pair}"
            );
        }
    }

    #[test]
    fn signal_pair_mass_matches_generated_resonance() {
        // With zero resolution the two b quarks reconstruct exactly.
        let cfg = EventGeneratorConfig {
            events: 50,
            signal_fraction: 1.0,
            resolution: 0.0,
            fake_btag_rate: 0.0,
            ..Default::default()
        };
        for r in cfg.generate() {
            if let AnyRecord::Event(e) = r {
                let m = e.leading_bb_mass().expect("two b quarks present");
                assert!(
                    (m - cfg.higgs_mass).abs() < 1e-6,
                    "boost must preserve invariant mass, got {m}"
                );
            }
        }
    }

    #[test]
    fn dna_generation_properties() {
        let cfg = DnaGeneratorConfig {
            reads: 500,
            ..Default::default()
        };
        let recs = cfg.generate();
        assert_eq!(recs.len(), 500);
        let mut motif_reads = 0;
        for r in &recs {
            if let AnyRecord::Dna(d) = r {
                assert!(d.bases.bytes().all(|b| b"ACGT".contains(&b)));
                assert!(d.len() >= 20);
                if d.count_motif(&cfg.motif) > 0 {
                    motif_reads += 1;
                }
            }
        }
        // ~20% implanted plus random occurrences.
        assert!(motif_reads > 50, "motif reads: {motif_reads}");
        assert_eq!(recs, cfg.generate());
    }

    #[test]
    fn trade_generation_properties() {
        let cfg = TradeGeneratorConfig {
            trades: 1000,
            ..Default::default()
        };
        let recs = cfg.generate();
        let mut last_ts = 0;
        for r in &recs {
            if let AnyRecord::Trade(t) = r {
                assert!(t.price > 0.0);
                assert!(t.volume >= 1);
                assert!(t.timestamp_ms > last_ts, "timestamps strictly increase");
                last_ts = t.timestamp_ms;
                assert!(cfg.symbols.iter().any(|s| s.as_str() == &*t.symbol));
            }
        }
    }

    #[test]
    fn events_for_target_mb_is_within_20_percent() {
        let cfg = EventGeneratorConfig::default();
        for mb in [1.0, 5.0, 20.0] {
            let n = cfg.events_for_target_mb(mb);
            let ds = crate::dataset::Dataset::from_records(
                "t",
                "t",
                EventGeneratorConfig {
                    events: n,
                    ..cfg.clone()
                }
                .generate(),
            );
            let got = ds.descriptor.size_mb();
            assert!(
                (got - mb).abs() < 0.2 * mb,
                "target {mb} MB, got {got:.2} MB ({n} events)"
            );
        }
    }

    #[test]
    fn generate_dataset_builds_descriptor() {
        let ds = generate_dataset(
            "lc-mini",
            "Mini LC sample",
            &GeneratorConfig::Event(EventGeneratorConfig {
                events: 50,
                ..Default::default()
            }),
        );
        assert_eq!(ds.descriptor.records, 50);
        assert!(ds.descriptor.size_bytes > 0);
        // Field access works end to end on generated data.
        assert!(ds.records[0].field("n_particles").is_some());
    }
}

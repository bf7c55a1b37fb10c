//! Analysis code: scripts and native analyzers.
//!
//! The paper stages user code in two flavours — PNUTS scripts and compiled
//! Java classes (§3.5). Here those are [`AnalysisCode::Script`] (IPAScript,
//! interpreted) and [`AnalysisCode::Native`] (a named entry in the site's
//! [`NativeRegistry`] of compiled analyzers). Both run behind the same
//! [`Analyzer`] trait inside an engine, filling an AIDA tree through the
//! [`Host`](ipa_script::Host) interface.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use ipa_dataset::{AnyRecord, ColumnBatch, RecordBatch, RecordFields};
use ipa_script::{
    compile, engine_for, run_fused, BatchKernel, Host, RecordRef, ScriptBackend, ScriptEngine,
    ScriptFusion,
};

use crate::error::CoreError;

/// A unit of user analysis logic, driven record by record.
pub trait Analyzer: Send {
    /// Called once before the first record (book plots here).
    fn init(&mut self, host: &mut dyn Host) -> Result<(), String>;
    /// Called for every record.
    fn process(&mut self, record: &AnyRecord, host: &mut dyn Host) -> Result<(), String>;
    /// Called for `batch[index]` when the caller holds the records as a
    /// shared [`RecordBatch`] — the engine hot path. The default delegates to
    /// [`Analyzer::process`]; script analyzers override it to hand the
    /// record to user code as a shared handle instead of a deep copy.
    fn process_indexed(
        &mut self,
        batch: &RecordBatch,
        index: usize,
        host: &mut dyn Host,
    ) -> Result<(), String> {
        self.process(&batch[index], host)
    }
    /// Drive a contiguous `range` of `batch` in one call — the engine's
    /// publish-batch granularity. `columns` is the columnar transcode of
    /// the *whole* batch when the data plane staged one
    /// ([`ipa_dataset::DataLayout::Columnar`]); analyzers that can
    /// vectorize override this and fall back to the row loop otherwise.
    ///
    /// Returns how many records were fully processed and the error that
    /// stopped the batch, if any. The count must be record-exact even on
    /// error: engines use it for progress accounting, `RunN` budgets, and
    /// `FailAfter` injection, which must not drift between layouts.
    fn process_batch(
        &mut self,
        batch: &RecordBatch,
        columns: Option<&Arc<ColumnBatch>>,
        range: Range<usize>,
        host: &mut dyn Host,
    ) -> (usize, Option<String>) {
        let _ = columns;
        let mut processed = 0;
        for i in range {
            if let Err(e) = self.process_indexed(batch, i, host) {
                return (processed, Some(e));
            }
            processed += 1;
        }
        (processed, None)
    }
    /// Called after the last record of the part.
    fn end(&mut self, host: &mut dyn Host) -> Result<(), String> {
        let _ = host;
        Ok(())
    }
}

/// Factory producing fresh analyzer instances (engines re-instantiate on
/// rewind and reload).
pub type AnalyzerFactory = Arc<dyn Fn() -> Box<dyn Analyzer> + Send + Sync>;

/// Analysis code as shipped from the client to the engines.
///
/// Serializable so the session journal can persist the loaded code and
/// recovery can re-ship it to fresh engines.
#[derive(Clone, serde::Serialize, serde::Deserialize, PartialEq, Eq)]
pub enum AnalysisCode {
    /// IPAScript source text (the PNUTS path).
    Script(String),
    /// Name of a registered native analyzer (the compiled-class path).
    Native(String),
}

impl std::fmt::Debug for AnalysisCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisCode::Script(s) => write!(f, "Script({} bytes)", s.len()),
            AnalysisCode::Native(n) => write!(f, "Native({n})"),
        }
    }
}

impl AnalysisCode {
    /// Size of the staged payload in bytes (the paper's Table 1 reports a
    /// 15 kB bytecode stage; scripts are typically far smaller).
    pub fn staged_bytes(&self) -> usize {
        match self {
            AnalysisCode::Script(s) => s.len(),
            AnalysisCode::Native(n) => n.len(),
        }
    }
}

/// Registry of named native analyzers installed at the site.
#[derive(Clone, Default)]
pub struct NativeRegistry {
    factories: HashMap<String, AnalyzerFactory>,
}

impl NativeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        NativeRegistry::default()
    }

    /// Register a factory under `name` (replaces any previous entry).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Analyzer> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Arc::new(factory));
    }

    /// Instantiate a registered analyzer.
    pub fn instantiate(&self, name: &str) -> Result<Box<dyn Analyzer>, CoreError> {
        self.factories
            .get(name)
            .map(|f| f())
            .ok_or_else(|| CoreError::Code(format!("no native analyzer '{name}' registered")))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// Build an [`Analyzer`] from shipped code (compiles scripts up front so
/// syntax and resolution errors surface at load time, like the paper's
/// class loader). `backend` selects the script execution backend and
/// `fusion` the compile-pipeline fusion level; native code ignores both.
///
/// At [`ScriptFusion::Kernel`] on the VM backend the analyze body is also
/// lowered to a [`BatchKernel`] when it is fill-only (`let`s, guards and
/// fills, with helper calls inlined and constant `for` loops unrolled);
/// the tree-walk stays kernel-free so it remains a pure
/// per-record oracle for differential tests.
pub fn instantiate_code(
    code: &AnalysisCode,
    registry: &NativeRegistry,
    backend: ScriptBackend,
    fusion: ScriptFusion,
) -> Result<Box<dyn Analyzer>, CoreError> {
    match code {
        AnalysisCode::Script(src) => {
            let program = compile(src).map_err(|e| CoreError::Code(e.to_string()))?;
            if !program.has_process() {
                return Err(CoreError::Code(
                    "script must define fn process(record)".to_string(),
                ));
            }
            let engine = engine_for(&program, backend, fusion)
                .map_err(|e| CoreError::Code(e.to_string()))?;
            let kernel = (fusion == ScriptFusion::Kernel && backend == ScriptBackend::Vm)
                .then(|| BatchKernel::compile(&program))
                .flatten();
            Ok(Box::new(ScriptAnalyzer { engine, kernel }))
        }
        AnalysisCode::Native(name) => registry.instantiate(name),
    }
}

/// [`Analyzer`] over an IPAScript engine (tree-walk or bytecode VM), plus
/// an optional vectorized batch kernel for the canonical analyze shape.
pub struct ScriptAnalyzer {
    engine: Box<dyn ScriptEngine>,
    kernel: Option<BatchKernel>,
}

impl Analyzer for ScriptAnalyzer {
    fn init(&mut self, host: &mut dyn Host) -> Result<(), String> {
        self.engine.run_init(host).map_err(|e| e.to_string())
    }

    fn process(&mut self, record: &AnyRecord, host: &mut dyn Host) -> Result<(), String> {
        // Borrowed-record path: one copy into its own Arc. Engines use
        // `process_indexed`, which shares the batch instead.
        self.engine
            .process(host, RecordRef::one(Arc::new(record.clone())))
            .map_err(|e| e.to_string())
    }

    fn process_indexed(
        &mut self,
        batch: &RecordBatch,
        index: usize,
        host: &mut dyn Host,
    ) -> Result<(), String> {
        // Hot path: the script sees `batch[index]` through an Arc handle —
        // no record data is copied, however large the event.
        self.engine
            .process(host, RecordRef::batch(batch, index))
            .map_err(|e| e.to_string())
    }

    fn process_batch(
        &mut self,
        batch: &RecordBatch,
        columns: Option<&Arc<ColumnBatch>>,
        range: Range<usize>,
        host: &mut dyn Host,
    ) -> (usize, Option<String>) {
        // `run_fused` binds the columnar transcode (field reads become two
        // array reads in the VM), runs the batch kernel over the eligible
        // prefix when one compiled, and falls back to the per-record loop
        // for the rest — record-exact progress either way.
        let (done, err) = run_fused(
            self.engine.as_mut(),
            self.kernel.as_mut(),
            batch,
            columns,
            range,
            host,
        );
        (done, err.map(|e| e.to_string()))
    }

    fn end(&mut self, host: &mut dyn Host) -> Result<(), String> {
        self.engine.run_end(host).map_err(|e| e.to_string())
    }
}

// ------------------------------------------------------------------------
// Built-in native analyzers: the paper's Higgs search plus one analyzer per
// additional motivating domain.
// ------------------------------------------------------------------------

/// The paper's reference workload: "a Java algorithm that looks for Higgs
/// Bosons in simulated Linear Collider data". Books the candidate-mass
/// spectrum plus control plots and fills them from b-tagged pairs.
#[derive(Debug, Clone)]
pub struct HiggsSearchAnalyzer {
    /// Histogram binning for the mass spectrum.
    pub mass_bins: usize,
    /// Spectrum lower edge, GeV.
    pub mass_lo: f64,
    /// Spectrum upper edge, GeV.
    pub mass_hi: f64,
}

impl Default for HiggsSearchAnalyzer {
    fn default() -> Self {
        HiggsSearchAnalyzer {
            mass_bins: 60,
            mass_lo: 0.0,
            mass_hi: 240.0,
        }
    }
}

impl Analyzer for HiggsSearchAnalyzer {
    fn init(&mut self, host: &mut dyn Host) -> Result<(), String> {
        host.book_h1("/higgs/bb_mass", self.mass_bins, self.mass_lo, self.mass_hi)?;
        host.book_h1("/higgs/n_btags", 10, 0.0, 10.0)?;
        host.book_h1("/higgs/visible_energy", 60, 0.0, 600.0)?;
        host.book_h2(
            "/higgs/mass_vs_mult",
            30,
            0.0,
            60.0,
            30,
            self.mass_lo,
            self.mass_hi,
        )?;
        Ok(())
    }

    fn process(&mut self, record: &AnyRecord, host: &mut dyn Host) -> Result<(), String> {
        let AnyRecord::Event(ev) = record else {
            return Err("HiggsSearchAnalyzer needs collider events".to_string());
        };
        let n_btags = ev.particles.iter().filter(|p| p.is_b_tagged()).count();
        host.fill1("/higgs/n_btags", n_btags as f64, 1.0)?;
        host.fill1("/higgs/visible_energy", ev.visible_energy(), 1.0)?;
        if let Some(m) = ev.leading_bb_mass() {
            host.fill1("/higgs/bb_mass", m, 1.0)?;
            host.fill2("/higgs/mass_vs_mult", ev.particles.len() as f64, m, 1.0)?;
        }
        Ok(())
    }

    fn process_batch(
        &mut self,
        batch: &RecordBatch,
        columns: Option<&Arc<ColumnBatch>>,
        range: Range<usize>,
        host: &mut dyn Host,
    ) -> (usize, Option<String>) {
        // Columnar fast path: the transcode already materialized the
        // derived fields (`n_btags`, `visible_energy`, `bb_mass`), so the
        // per-record particle sorts are gone and each histogram takes one
        // bulk fill over a column slice. Per-histogram fill order is record
        // order on both paths, so merged trees stay bit-identical.
        let fast = columns.and_then(|c| {
            if c.kind() != "event" || c.len() != batch.len() {
                return None;
            }
            let col = |name: &str| c.column_index(name).map(|i| c.column(i));
            let n_btags = col("n_btags")?;
            let visible = col("visible_energy")?;
            let bb_mass = col("bb_mass")?;
            let n_particles = col("n_particles")?;
            if !(n_btags.all_valid() && visible.all_valid() && n_particles.all_valid()) {
                return None;
            }
            Some((
                n_btags.i64s()?,
                visible.f64s()?,
                bb_mass,
                n_particles.i64s()?,
            ))
        });
        let Some((n_btags, visible, bb_mass, n_particles)) = fast else {
            // Row layout (or a foreign/stale transcode): the reference loop.
            let mut processed = 0;
            for i in range {
                if let Err(e) = self.process(&batch[i], host) {
                    return (processed, Some(e));
                }
                processed += 1;
            }
            return (processed, None);
        };

        let mut xs: Vec<f64> = Vec::with_capacity(range.len());
        xs.extend(n_btags[range.clone()].iter().map(|&b| b as f64));
        if let Err(e) = host.fill1_slice("/higgs/n_btags", &xs, 1.0) {
            return (0, Some(e));
        }
        if let Err(e) = host.fill1_slice("/higgs/visible_energy", &visible[range.clone()], 1.0) {
            return (0, Some(e));
        }
        // Gather the rows where bb_mass is present (≥ 2 b-tags).
        let masses = bb_mass.f64s().unwrap_or(&[]);
        let mut ms: Vec<f64> = Vec::new();
        let mut mult: Vec<f64> = Vec::new();
        for i in range.clone() {
            if bb_mass.is_valid(i) {
                ms.push(masses[i]);
                mult.push(n_particles[i] as f64);
            }
        }
        if let Err(e) = host.fill1_slice("/higgs/bb_mass", &ms, 1.0) {
            return (0, Some(e));
        }
        if let Err(e) = host.fill2_slice("/higgs/mass_vs_mult", &mult, &ms, 1.0) {
            return (0, Some(e));
        }
        (range.len(), None)
    }
}

/// DNA domain: motif frequency and GC-content profiling.
#[derive(Debug, Clone)]
pub struct DnaMotifAnalyzer {
    /// Motif searched in every read.
    pub motif: String,
}

impl Default for DnaMotifAnalyzer {
    fn default() -> Self {
        DnaMotifAnalyzer {
            motif: "GATTACA".to_string(),
        }
    }
}

impl Analyzer for DnaMotifAnalyzer {
    fn init(&mut self, host: &mut dyn Host) -> Result<(), String> {
        host.book_h1("/dna/gc_content", 50, 0.0, 1.0)?;
        host.book_h1("/dna/motif_hits", 10, 0.0, 10.0)?;
        host.book_profile("/dna/gc_by_sample", 8, 0.0, 8.0)?;
        Ok(())
    }

    fn process(&mut self, record: &AnyRecord, host: &mut dyn Host) -> Result<(), String> {
        let AnyRecord::Dna(read) = record else {
            return Err("DnaMotifAnalyzer needs DNA reads".to_string());
        };
        host.fill1("/dna/gc_content", read.gc_content(), 1.0)?;
        host.fill1("/dna/motif_hits", read.count_motif(&self.motif) as f64, 1.0)?;
        host.fill_profile(
            "/dna/gc_by_sample",
            read.sample as f64,
            read.gc_content(),
            1.0,
        )?;
        Ok(())
    }
}

/// Trading domain: volume-weighted prices and trade-size spectrum.
#[derive(Debug, Clone, Default)]
pub struct TradeVwapAnalyzer;

impl Analyzer for TradeVwapAnalyzer {
    fn init(&mut self, host: &mut dyn Host) -> Result<(), String> {
        host.book_h1("/trade/price", 100, 0.0, 200.0)?;
        host.book_h1("/trade/volume", 60, 0.0, 300.0)?;
        host.book_profile("/trade/price_by_hour", 24, 0.0, 24.0)?;
        Ok(())
    }

    fn process(&mut self, record: &AnyRecord, host: &mut dyn Host) -> Result<(), String> {
        let AnyRecord::Trade(t) = record else {
            return Err("TradeVwapAnalyzer needs trade records".to_string());
        };
        // Weight price entries by volume → histogram mean is the VWAP.
        host.fill1("/trade/price", t.price, t.volume as f64)?;
        host.fill1("/trade/volume", t.volume as f64, 1.0)?;
        let hour = (t.timestamp_ms as f64 / 3.6e6) % 24.0;
        host.fill_profile("/trade/price_by_hour", hour, t.price, 1.0)?;
        Ok(())
    }
}

/// The registry a stock site ships with: one analyzer per domain.
pub fn builtin_registry() -> NativeRegistry {
    let mut r = NativeRegistry::new();
    r.register("higgs-search", || {
        Box::new(HiggsSearchAnalyzer::default()) as Box<dyn Analyzer>
    });
    r.register("dna-motif", || {
        Box::new(DnaMotifAnalyzer::default()) as Box<dyn Analyzer>
    });
    r.register("trade-vwap", || {
        Box::new(TradeVwapAnalyzer) as Box<dyn Analyzer>
    });
    r
}

/// Convenience: apply an analyzer to a record slice against a host
/// (single-threaded reference path used in tests to validate the parallel
/// engines produce identical results).
///
/// The slice is copied once into a shared batch and driven through
/// [`Analyzer::process_batch`] — the engines' exact path — instead of the
/// borrowed [`Analyzer::process`], which would deep-copy every record into
/// its own `Arc` for script analyzers.
pub fn run_analyzer_serial(
    analyzer: &mut dyn Analyzer,
    records: &[AnyRecord],
    host: &mut dyn Host,
) -> Result<(), String> {
    let batch = RecordBatch::new(records.to_vec());
    run_analyzer_batch(analyzer, &batch, None, host)
}

/// Like [`run_analyzer_serial`] but over an already-shared batch with an
/// optional columnar transcode — zero record copies.
pub fn run_analyzer_batch(
    analyzer: &mut dyn Analyzer,
    batch: &RecordBatch,
    columns: Option<&Arc<ColumnBatch>>,
    host: &mut dyn Host,
) -> Result<(), String> {
    analyzer.init(host)?;
    let (_, err) = analyzer.process_batch(batch, columns, 0..batch.len(), host);
    if let Some(e) = err {
        return Err(e);
    }
    analyzer.end(host)
}

/// A generic "count field values" analyzer usable on any record kind:
/// histograms one named numeric field. Demonstrates the framework's
/// domain neutrality without writing a script.
#[derive(Debug, Clone)]
pub struct FieldHistogramAnalyzer {
    /// Field to histogram.
    pub field: String,
    /// Output path.
    pub path: String,
    /// Binning.
    pub bins: usize,
    /// Lower edge.
    pub lo: f64,
    /// Upper edge.
    pub hi: f64,
}

impl Analyzer for FieldHistogramAnalyzer {
    fn init(&mut self, host: &mut dyn Host) -> Result<(), String> {
        host.book_h1(&self.path, self.bins, self.lo, self.hi)
    }

    fn process(&mut self, record: &AnyRecord, host: &mut dyn Host) -> Result<(), String> {
        match record.field(&self.field) {
            Some(v) => {
                if let Some(x) = v.as_f64() {
                    host.fill1(&self.path, x, 1.0)?;
                }
                Ok(())
            }
            None => Err(format!(
                "record kind '{}' has no field '{}'",
                record.kind(),
                self.field
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_dataset::{DnaGeneratorConfig, EventGeneratorConfig, TradeGeneratorConfig};
    use ipa_script::AidaHost;

    #[test]
    fn higgs_analyzer_finds_the_peak() {
        let recs = EventGeneratorConfig {
            events: 3000,
            signal_fraction: 0.5,
            ..Default::default()
        }
        .generate();
        let mut host = AidaHost::new();
        run_analyzer_serial(&mut HiggsSearchAnalyzer::default(), &recs, &mut host).unwrap();
        let h = host.tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
        assert!(h.entries() > 1000);
        // The tallest bin must sit near 120 GeV.
        let (mut best_bin, mut best) = (0, 0.0);
        for i in 0..h.axis().bins() {
            if h.bin_height(i) > best {
                best = h.bin_height(i);
                best_bin = i;
            }
        }
        let peak = h.axis().bin_center(best_bin);
        assert!((peak - 120.0).abs() < 10.0, "peak at {peak} GeV");
    }

    #[test]
    fn higgs_analyzer_rejects_wrong_domain() {
        let recs = DnaGeneratorConfig {
            reads: 1,
            ..Default::default()
        }
        .generate();
        let mut host = AidaHost::new();
        let err =
            run_analyzer_serial(&mut HiggsSearchAnalyzer::default(), &recs, &mut host).unwrap_err();
        assert!(err.contains("collider events"));
    }

    #[test]
    fn dna_analyzer_counts_motifs() {
        let recs = DnaGeneratorConfig {
            reads: 400,
            motif_rate: 0.5,
            ..Default::default()
        }
        .generate();
        let mut host = AidaHost::new();
        run_analyzer_serial(&mut DnaMotifAnalyzer::default(), &recs, &mut host).unwrap();
        let hits = host.tree.get("/dna/motif_hits").unwrap().as_h1().unwrap();
        assert_eq!(hits.all_entries(), 400);
        // At least ~half the reads carry the motif → bin 0 is not everything.
        assert!(hits.bin_height(0) < 300.0);
    }

    #[test]
    fn trade_analyzer_vwap() {
        let recs = TradeGeneratorConfig {
            trades: 500,
            ..Default::default()
        }
        .generate();
        let mut host = AidaHost::new();
        run_analyzer_serial(&mut TradeVwapAnalyzer, &recs, &mut host).unwrap();
        let h = host.tree.get("/trade/price").unwrap().as_h1().unwrap();
        // VWAP should sit near the initial price of 100.
        assert!((h.mean() - 100.0).abs() < 15.0, "vwap = {}", h.mean());
    }

    #[test]
    fn registry_instantiates_and_rejects_unknown() {
        let r = builtin_registry();
        assert_eq!(r.names(), vec!["dna-motif", "higgs-search", "trade-vwap"]);
        assert!(r.instantiate("higgs-search").is_ok());
        assert!(matches!(r.instantiate("nope"), Err(CoreError::Code(_))));
    }

    #[test]
    fn script_code_compiles_or_errors_at_load() {
        let reg = NativeRegistry::new();
        let good = AnalysisCode::Script(
            "fn init() { h1(\"/x\", 10, 0.0, 1.0); } fn process(e) { }".to_string(),
        );
        for backend in [ScriptBackend::Interp, ScriptBackend::Vm] {
            let fusion = ScriptFusion::from_env();
            assert!(
                instantiate_code(&good, &reg, backend, fusion).is_ok(),
                "{backend}"
            );

            let syntax_err = AnalysisCode::Script("fn process( {".to_string());
            assert!(matches!(
                instantiate_code(&syntax_err, &reg, backend, fusion),
                Err(CoreError::Code(_))
            ));

            let no_process = AnalysisCode::Script("fn init() { }".to_string());
            assert!(matches!(
                instantiate_code(&no_process, &reg, backend, fusion),
                Err(CoreError::Code(m)) if m.contains("process")
            ));
        }
    }

    #[test]
    fn script_and_native_agree_on_the_same_records() {
        let recs = EventGeneratorConfig {
            events: 500,
            ..Default::default()
        }
        .generate();
        let mut native_host = AidaHost::new();
        run_analyzer_serial(&mut HiggsSearchAnalyzer::default(), &recs, &mut native_host).unwrap();

        let script = r#"
            fn init() { h1("/higgs/bb_mass", 60, 0.0, 240.0); }
            fn process(e) {
                let m = e.bb_mass;
                if m != null { fill("/higgs/bb_mass", m); }
            }
        "#;
        let reg = NativeRegistry::new();
        let mut analyzer = instantiate_code(
            &AnalysisCode::Script(script.into()),
            &reg,
            ScriptBackend::from_env(),
            ScriptFusion::from_env(),
        )
        .unwrap();
        let mut script_host = AidaHost::new();
        run_analyzer_serial(analyzer.as_mut(), &recs, &mut script_host).unwrap();

        let native_h = native_host
            .tree
            .get("/higgs/bb_mass")
            .unwrap()
            .as_h1()
            .unwrap();
        let script_h = script_host
            .tree
            .get("/higgs/bb_mass")
            .unwrap()
            .as_h1()
            .unwrap();
        assert_eq!(native_h.all_entries(), script_h.all_entries());
        for i in 0..60 {
            assert_eq!(native_h.bin_entries(i), script_h.bin_entries(i), "bin {i}");
        }
    }

    #[test]
    fn field_histogram_analyzer_is_domain_neutral() {
        let trades = TradeGeneratorConfig {
            trades: 100,
            ..Default::default()
        }
        .generate();
        let mut host = AidaHost::new();
        let mut a = FieldHistogramAnalyzer {
            field: "volume".into(),
            path: "/any/volume".into(),
            bins: 20,
            lo: 0.0,
            hi: 400.0,
        };
        run_analyzer_serial(&mut a, &trades, &mut host).unwrap();
        assert_eq!(host.tree.get("/any/volume").unwrap().entries(), 100);

        let mut bad = FieldHistogramAnalyzer {
            field: "bb_mass".into(),
            path: "/any/x".into(),
            bins: 10,
            lo: 0.0,
            hi: 1.0,
        };
        let mut host2 = AidaHost::new();
        assert!(run_analyzer_serial(&mut bad, &trades, &mut host2).is_err());
    }

    #[test]
    fn staged_bytes_reports_payload_size() {
        assert_eq!(AnalysisCode::Script("abc".into()).staged_bytes(), 3);
        assert!(AnalysisCode::Native("higgs-search".into()).staged_bytes() > 0);
    }

    #[test]
    fn batch_path_shares_records_without_cloning() {
        // Regression for the per-record deep clone: driving a script
        // through `process_batch` must hand it the batch's own records —
        // the one the script keeps is the batch's last, at its address.
        let batch = RecordBatch::new(
            TradeGeneratorConfig {
                trades: 50,
                ..Default::default()
            }
            .generate(),
        );
        let script = "let keep = null;\n\
                      fn init() { h1(\"/p\", 20, 0.0, 200.0); }\n\
                      fn process(t) { keep = t; fill(\"/p\", t.price); }";
        let program = compile(script).unwrap();
        for backend in [ScriptBackend::Interp, ScriptBackend::Vm] {
            let mut analyzer = ScriptAnalyzer {
                engine: engine_for(&program, backend, ScriptFusion::from_env()).unwrap(),
                kernel: None,
            };
            let mut host = AidaHost::new();
            analyzer.init(&mut host).unwrap();
            let (done, err) = analyzer.process_batch(&batch, None, 0..batch.len(), &mut host);
            assert_eq!((done, err), (50, None));
            assert_eq!(host.tree.get("/p").unwrap().entries(), 50);
            match analyzer.engine.global("keep") {
                Some(ipa_script::Value::Record(kept)) => {
                    assert!(std::ptr::eq(kept.get(), &batch[49]), "{backend}")
                }
                other => panic!("{backend}: script kept {other:?}"),
            }
        }
    }

    #[test]
    fn columnar_batch_matches_row_for_native_and_script() {
        let batch = RecordBatch::new(
            EventGeneratorConfig {
                events: 800,
                signal_fraction: 0.4,
                ..Default::default()
            }
            .generate(),
        );
        let columns = Arc::new(ipa_dataset::ColumnBatch::from_records(&batch).unwrap());

        // Native: the vectorized Higgs path against the row reference.
        let mut row_host = AidaHost::new();
        run_analyzer_batch(
            &mut HiggsSearchAnalyzer::default(),
            &batch,
            None,
            &mut row_host,
        )
        .unwrap();
        let mut col_host = AidaHost::new();
        run_analyzer_batch(
            &mut HiggsSearchAnalyzer::default(),
            &batch,
            Some(&columns),
            &mut col_host,
        )
        .unwrap();
        assert_eq!(row_host.tree, col_host.tree);
        assert!(row_host.tree.total_entries() > 0);

        // Script: column-bound VM field reads against the row reference.
        let script = r#"
            fn init() { h1("/s/mass", 60, 0.0, 240.0); h1("/s/vis", 60, 0.0, 600.0); }
            fn process(e) {
                fill("/s/vis", e.visible_energy);
                let m = e.bb_mass;
                if m != null { fill("/s/mass", m); }
            }
        "#;
        let reg = NativeRegistry::new();
        let reg2 = &reg;
        let make = |backend, fusion| {
            instantiate_code(&AnalysisCode::Script(script.into()), reg2, backend, fusion).unwrap()
        };
        for backend in [ScriptBackend::Interp, ScriptBackend::Vm] {
            for fusion in [ScriptFusion::Off, ScriptFusion::Super, ScriptFusion::Kernel] {
                let mut row = make(backend, fusion);
                let mut row_host = AidaHost::new();
                run_analyzer_batch(row.as_mut(), &batch, None, &mut row_host).unwrap();

                let mut col = make(backend, fusion);
                let mut col_host = AidaHost::new();
                run_analyzer_batch(col.as_mut(), &batch, Some(&columns), &mut col_host).unwrap();

                assert_eq!(row_host.tree, col_host.tree, "{backend}/{fusion}");
                assert!(row_host.tree.total_entries() > 0);
            }
        }
    }

    #[test]
    fn process_batch_reports_exact_progress_on_error() {
        // Mixed-domain batch: the Higgs analyzer dies on the first DNA
        // read, and the (processed, error) contract must count exactly the
        // events that preceded it — engines key FailAfter/RunN off this.
        let mut records = EventGeneratorConfig {
            events: 7,
            ..Default::default()
        }
        .generate();
        records.extend(
            DnaGeneratorConfig {
                reads: 3,
                ..Default::default()
            }
            .generate(),
        );
        let batch = RecordBatch::new(records);
        let mut host = AidaHost::new();
        let mut a = HiggsSearchAnalyzer::default();
        a.init(&mut host).unwrap();
        let (done, err) = a.process_batch(&batch, None, 0..batch.len(), &mut host);
        assert_eq!(done, 7);
        assert!(err.unwrap().contains("collider events"));
    }
}

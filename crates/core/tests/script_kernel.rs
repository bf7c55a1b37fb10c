//! The edit-reload-rerun script — helper functions called from a `for`
//! loop over a global cut array — through the batch kernel, end to end.
//!
//! The benchmark harness reruns seven variants of this script (they
//! differ in the last cut) on warm sessions. Every variant must lower to
//! a [`BatchKernel`], and a session running it at the configured fusion
//! level must merge to the very tree a `script_fusion = off` session
//! merges to — also when an engine is killed mid-part and the run is
//! rewound mid-flight. CI runs this file under
//! `IPA_SCRIPT_FUSION=off|super|kernel`.

use std::time::Duration;

use ipa_core::{AnalysisCode, IpaConfig, ManagerNode};
use ipa_dataset::{DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_script::{BatchKernel, ScriptFusion};
use ipa_simgrid::{SecurityDomain, VoPolicy};

const VARIANTS: usize = 7;
const EVENTS: u64 = 6_000;
const ENGINES: usize = 2;

/// `vm_script(variant)` of `benchmark/src/rig.rs`, character for
/// character.
fn vm_script(variant: usize) -> String {
    let last_cut = 160.0 + 10.0 * (variant % VARIANTS) as f64;
    format!(
        r#"
    let cuts = [40.0, 80.0, 120.0, {last_cut:.1}];
    fn passes(x, cut) {{ return x > cut; }}
    fn balanced(energy, missing) {{ return missing < 0.5 * energy; }}
    fn init() {{
        h1("/higgs/bb_mass", 60, 0.0, 240.0);
        h1("/higgs/n_btags", 8, 0.0, 8.0);
        h1("/higgs/cut_flow", 4, 0.0, 4.0);
    }}
    fn process(e) {{
        fill("/higgs/n_btags", e.n_btags);
        let m = e.bb_mass;
        if m != null {{ fill("/higgs/bb_mass", m); }}
        let energy = e.visible_energy;
        let missing = e.missing_pt;
        for i in 0..4 {{
            if passes(energy, cuts[i]) && balanced(energy, missing) {{
                fill("/higgs/cut_flow", i);
            }}
        }}
    }}
    "#
    )
}

/// One 2-engine session over the whole dataset; `chaos` kills engine 1
/// part-way through a part and rewinds the run after a few publishes.
/// Returns the merged tree's `Debug` rendering (every bin, every
/// running sum).
fn merged_tree(script: &str, config: IpaConfig, chaos: bool) -> String {
    let sec = SecurityDomain::new("kernel-site", 5).with_policy(VoPolicy::new("ilc", 16));
    let manager = ManagerNode::new("kernel.example.org", sec.clone(), config);
    let ds = ipa_dataset::generate_dataset(
        "lc-kernel",
        "cut-flow events",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events: EVENTS,
            ..Default::default()
        }),
    );
    manager
        .publish_dataset("/lc", ds, ipa_catalog::Metadata::new())
        .unwrap();
    let proxy = sec.issue_proxy("/CN=kernel", "ilc", 0.0, 7200.0);
    let mut s = manager.create_session(&proxy, 0.0, ENGINES).unwrap();
    s.select_dataset(&DatasetId::new("lc-kernel")).unwrap();
    s.load_code(AnalysisCode::Script(script.to_string()))
        .unwrap();
    if chaos {
        s.inject_failure(1, 700);
        s.run().unwrap();
        for _ in 0..5 {
            s.poll().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        s.rewind().unwrap();
    }
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(st.records_processed, EVENTS);
    assert_eq!(st.parts_done, st.parts_total);
    let tree = s.results().unwrap();
    assert_eq!(tree.get("/higgs/n_btags").unwrap().entries(), EVENTS);
    assert!(tree.get("/higgs/cut_flow").unwrap().entries() > 0);
    let rendered = format!("{tree:?}");
    s.close();
    rendered
}

#[test]
fn every_rerun_variant_is_kernel_eligible_and_merges_as_the_unfused_vm_does() {
    let config = |fusion: Option<ScriptFusion>| {
        let mut c = IpaConfig {
            engines_per_session: ENGINES,
            publish_every: 250,
            ..Default::default()
        };
        if let Some(fusion) = fusion {
            c.script_fusion = fusion;
        }
        c
    };
    for variant in 0..VARIANTS {
        let script = vm_script(variant);
        let program = ipa_script::compile(&script).unwrap();
        assert!(
            BatchKernel::compile(&program).is_some(),
            "variant {variant} fell out of the batch kernel"
        );
        for chaos in [false, true] {
            let unfused = merged_tree(&script, config(Some(ScriptFusion::Off)), chaos);
            let configured = merged_tree(&script, config(None), chaos);
            assert!(
                configured == unfused,
                "variant {variant}, chaos {chaos}: merged trees differ"
            );
        }
    }
    // The variants really are different analyses: the last cut moves.
    let first = merged_tree(&vm_script(0), config(None), false);
    let last = merged_tree(&vm_script(VARIANTS - 1), config(None), false);
    assert_ne!(first, last);
}

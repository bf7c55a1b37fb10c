//! The harness may name only the part of the public API that README.md
//! ("API allow-list") permits, so that ROADMAP items 2, 3 and 5 can retire
//! knobs, `*Stats` structs and journal internals without editing the
//! benchmark. This test reads the harness sources (not the stand-ins, which
//! replace third-party crates and know nothing of the ipa API) and fails on
//! any name from the deny-list.

use std::path::Path;

/// Identifiers the harness must not mention.
const DENIED_WORDS: &[&str] = &[
    // execution ladder and layout knobs (ROADMAP item 2)
    "ScriptBackend",
    "ScriptFusion",
    "DataLayout",
    "SchedulerPolicy",
    "engine_for",
    "instantiate_code",
    "run_fused",
    "BatchKernel",
    // journal internals (ROADMAP item 5): events come from `decode_events`
    "JournalEvent",
    "PartUpdate",
    // every `IpaConfig` field except `publish_every`, `journal`,
    // `journal_dir` and the two `replay` takes as arguments
    "engines_per_session",
    "byte_balanced_split",
    "min_proxy_remaining_s",
    "max_part_retries",
    "scheduler",
    "oversub",
    "straggler_factor",
    "speed_factors",
    "checkpoint_every",
    "stage_chunk_bytes",
    "stage_retries",
    "stage_overlap",
    "stage_queue_depth",
    "split_cache",
    "script_backend",
    "script_fusion",
    "data_layout",
    "journal_fsync",
    "compact_every",
    "engine_pool",
    "pool_size",
    "pool_lease_timeout_ms",
    "gateway_workers",
];

/// `SessionStatus` fields the harness must not read (ROADMAP item 3).
const DENIED_FIELDS: &[&str] = &[".sched", ".staging", ".results"];

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whole-word occurrences of `word` in `text`.
fn has_word(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_word_char) && !after.is_some_and(is_word_char)
    })
}

/// `.field` read as a field: not a longer name, not a method call.
fn reads_field(text: &str, field: &str) -> bool {
    text.match_indices(field).any(|(at, _)| {
        let after = text[at + field.len()..].chars().next();
        !after.is_some_and(|c| is_word_char(c) || c == '(')
    })
}

/// An identifier that ends in `Stats` (the four ad-hoc statistics structs
/// and whatever joins them).
fn names_stats_struct(text: &str) -> bool {
    text.match_indices("Stats").any(|(at, _)| {
        let after = text[at + "Stats".len()..].chars().next();
        let before = text[..at].chars().next_back();
        !after.is_some_and(is_word_char) && before.is_some_and(is_word_char)
    })
}

fn violations(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (number, line) in source.lines().enumerate() {
        // Comments may explain what is avoided; only code is held to it.
        let code = line.split("//").next().unwrap_or("");
        for word in DENIED_WORDS {
            if has_word(code, word) {
                found.push(format!("line {}: `{word}`", number + 1));
            }
        }
        for field in DENIED_FIELDS {
            if reads_field(code, field) {
                found.push(format!("line {}: field `{field}`", number + 1));
            }
        }
        if names_stats_struct(code) {
            found.push(format!("line {}: a `*Stats` struct", number + 1));
        }
    }
    found
}

#[test]
fn harness_sources_stay_inside_the_allow_list() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).expect("benchmark/src is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path).expect("source is UTF-8");
            let found = violations(&source);
            assert!(found.is_empty(), "{}: {found:?}", path.display());
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} source files found");
}

#[test]
fn the_scanner_sees_what_it_should() {
    assert_eq!(violations("let x = status.sched.parts_stolen;").len(), 1);
    assert_eq!(violations("let t = session.results()?;").len(), 0);
    assert_eq!(
        violations("let t = status.results.result_version;").len(),
        1
    );
    assert_eq!(violations("use ipa_core::StagingStats;").len(), 1);
    assert_eq!(
        violations("let stats = 1; // SchedStats is avoided").len(),
        0
    );
    assert_eq!(
        violations("IpaConfig { pool_size: 4, ..Default::default() }").len(),
        1
    );
    assert_eq!(
        violations("IpaConfig { journal: true, ..Default::default() }").len(),
        0
    );
    assert_eq!(violations("let e = JournalEvent::RunStarted;").len(), 1);
    assert_eq!(violations("fn rescheduler() {}").len(), 0);
}

//! Structure-aware fuzz target for the scenario config parser.
//!
//! `ScenarioConfig::from_json` feeds `suit-cli scenario --config` and
//! `POST /v1/scenario`, and shares the fleet parser's totality
//! contract: any input — byte soup, truncations, single-byte mutations
//! of valid documents, or documents with hostile counts
//! (`"cache_banks": 1e308`, `"reads": -3`, `"offset_steps": 1e18`) —
//! must come back as a structured `Err` string, never a panic, and
//! never an allocation proportional to a hostile count (every bound is
//! checked in `validate()` *before* the runners size anything from it).
//! Accepted documents must validate, and unknown keys must be rejected
//! so config typos fail loudly.
//!
//! CI drives the `total` property with `SUIT_CHECK_CASES=100000` as the
//! fuzz-smoke gate; corpus seeds in `tests/corpus/` replay first.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker};
use suit::scenarios::{ScenarioConfig, ScroogeConfig, SramScenarioConfig};

/// A randomized field value: valid-looking, hostile, or junk.
fn field_value() -> Gen<String> {
    gen::one_of(vec![
        gen::u64_in(0..=16).map(|n| n.to_string()),
        gen::from_slice(&[
            "1e308",
            "-3",
            "1e18",
            "0.5",
            "-120.5",
            "1000000000000000000000",
            "-0.0",
            "NaN",
            "null",
            "true",
            "\"sram\"",
            "\"scrooge\"",
            "\"502.gcc\"",
            "\"zzz\"",
            "[]",
            "[-100, -150]",
            "[1e999]",
            "{}",
        ])
        .map(str::to_string),
    ])
}

/// A JSON object assembled from random (mostly known, sometimes
/// unknown) keys and random values — the structured half of the
/// input stream.
fn structured_doc() -> Gen<String> {
    let key = gen::from_slice(&[
        "scenario",
        "cache_banks",
        "rob_banks",
        "sigma_mv",
        "offsets_mv",
        "reads",
        "audit_len",
        "cores",
        "seed",
        "racks",
        "domains_per_rack",
        "epoch_insts",
        "workload",
        "offset_min_mv",
        "offset_steps",
        "freq_min",
        "freq_steps",
        "refine_rounds",
        "energy_price",
        "sdc_cost",
        "horizon_hours",
        "cache_bankz", // typo: must be rejected as an unknown key
        "__proto__",
    ])
    .map(str::to_string);
    gen::pair(&key, &field_value()).vec_up_to(8).map(|fields| {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    })
}

/// A definitely-valid document of either scenario (the mutation base).
fn valid_doc() -> Gen<String> {
    let sram = gen::pair(&gen::usize_in(1..=4), &gen::u64_in(1..=99)).map(|(banks, seed)| {
        format!(
            "{{\"scenario\": \"sram\", \"cache_banks\": {banks}, \"rob_banks\": 1, \
             \"reads\": 128, \"offsets_mv\": [-100, -160], \"audit_len\": 100, \
             \"seed\": {seed}}}"
        )
    });
    let scrooge = gen::pair(&gen::usize_in(2..=5), &gen::u64_in(1..=99)).map(|(steps, seed)| {
        format!(
            "{{\"scenario\": \"scrooge\", \"racks\": 1, \"offset_steps\": {steps}, \
             \"freq_steps\": 3, \"refine_rounds\": 1, \"audit_len\": 100, \
             \"epoch_insts\": 100000, \"seed\": {seed}}}"
        )
    });
    gen::one_of(vec![sram, scrooge])
}

/// A valid document cut off at an arbitrary byte (char-boundary safe:
/// the documents above are pure ASCII).
fn truncated_doc() -> Gen<String> {
    gen::pair(&valid_doc(), &gen::usize_in(0..=255)).map(|(mut s, cut)| {
        s.truncate(cut % (s.len() + 1));
        s
    })
}

/// A valid document with one byte overwritten.
fn mutated_doc() -> Gen<String> {
    gen::pair(
        &valid_doc(),
        &gen::pair(&gen::usize_in(0..=255), &gen::byte()),
    )
    .map(|(s, (pos, b))| {
        let mut bytes = s.into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= b | 1;
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// The full parser input stream.
fn doc_stream() -> Gen<String> {
    gen::one_of(vec![
        gen::bytes_up_to(200).map(|b| String::from_utf8_lossy(&b).into_owned()),
        structured_doc(),
        valid_doc(),
        truncated_doc(),
        mutated_doc(),
    ])
}

/// Totality: the discriminated parser never panics, and whatever it
/// accepts revalidates cleanly (parse and validate can never disagree).
#[test]
fn scenario_config_parser_is_total() {
    Checker::new("scenario_fuzz::total")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(
            &doc_stream(),
            |doc: &String| match ScenarioConfig::from_json(doc) {
                Ok(ScenarioConfig::Sram(cfg)) => cfg
                    .validate()
                    .map_err(|e| format!("accepted sram config fails validate(): {e}")),
                Ok(ScenarioConfig::Scrooge(cfg)) => cfg
                    .validate()
                    .map_err(|e| format!("accepted scrooge config fails validate(): {e}")),
                Err(e) => {
                    if e.is_empty() {
                        Err("rejection carried an empty error message".to_string())
                    } else {
                        Ok(())
                    }
                }
            },
        );
}

/// The undirected per-type parsers (what `suit-cli scenario` calls: no
/// discriminator required) are total over the same stream.
#[test]
fn per_type_parsers_are_total() {
    Checker::new("scenario_fuzz::per_type")
        .cases_from_env_or(10_000)
        .corpus(corpus_dir!())
        .check(&doc_stream(), |doc: &String| {
            if let Ok(cfg) = SramScenarioConfig::from_json(doc) {
                cfg.validate()
                    .map_err(|e| format!("accepted sram config fails validate(): {e}"))?;
            }
            if let Ok(cfg) = ScroogeConfig::from_json(doc) {
                cfg.validate()
                    .map_err(|e| format!("accepted scrooge config fails validate(): {e}"))?;
            }
            Ok(())
        });
}

/// The hostile shapes the contract calls out, pinned explicitly.
#[test]
fn hostile_counts_are_rejected_before_allocation() {
    for doc in [
        r#"{"scenario": "sram", "cache_banks": 1e308}"#,
        r#"{"scenario": "sram", "cache_banks": 99999999}"#,
        r#"{"scenario": "sram", "reads": -3}"#,
        r#"{"scenario": "sram", "reads": 0.5}"#,
        // 2^32 + 1: bounded before narrowing, never wrapped to 1.
        r#"{"scenario": "sram", "reads": 4294967297}"#,
        r#"{"scenario": "sram", "offsets_mv": []}"#,
        r#"{"scenario": "sram", "offsets_mv": [1e999]}"#,
        r#"{"scenario": "sram", "audit_len": 1e18}"#,
        r#"{"scenario": "scrooge", "offset_steps": 1e18}"#,
        r#"{"scenario": "scrooge", "offset_steps": 1}"#,
        r#"{"scenario": "scrooge", "freq_min": -1}"#,
        r#"{"scenario": "scrooge", "epoch_insts": 1e18}"#,
        r#"{"scenario": "scrooge", "workload": "zzz"}"#,
        r#"{"scenario": "scrooge", "racks": 1, "domains_per_rack": 1, "cores_per_domain": 257}"#,
        r#"{"scenario": "scrooge", "cache_bankz": 2}"#,
        r#"{"scenario": "warp"}"#,
        r#"{"seed": 1}"#,
        "{",
        "",
        "[]",
        "null",
    ] {
        let err = ScenarioConfig::from_json(doc).expect_err(doc);
        assert!(!err.is_empty(), "empty error for {doc}");
    }
}

/// A round-trip sanity anchor: the documented example parses and the
/// parsed values land where they should.
#[test]
fn canonical_documents_parse() {
    let sram = ScenarioConfig::from_json(
        r#"{"scenario": "sram", "cache_banks": 8, "rob_banks": 4,
            "sigma_mv": 12.0, "offsets_mv": [-100, -140, -180],
            "reads": 4096, "audit_len": 2000, "cores": 2, "seed": 7}"#,
    )
    .expect("canonical sram doc is valid");
    let ScenarioConfig::Sram(cfg) = sram else {
        panic!("discriminator routed wrongly");
    };
    assert_eq!(cfg.cache_banks, 8);
    assert_eq!(cfg.offsets_mv, vec![-100.0, -140.0, -180.0]);
    assert_eq!(cfg.seed, 7);

    let scrooge = ScenarioConfig::from_json(
        r#"{"scenario": "scrooge", "racks": 2, "domains_per_rack": 2,
            "offset_min_mv": -180, "offset_steps": 13, "freq_min": 0.7,
            "freq_steps": 7, "refine_rounds": 3, "energy_price": 80,
            "sdc_cost": 500, "workload": "502.gcc", "seed": 7}"#,
    )
    .expect("canonical scrooge doc is valid");
    let ScenarioConfig::Scrooge(cfg) = scrooge else {
        panic!("discriminator routed wrongly");
    };
    assert_eq!(cfg.offset_steps, 13);
    assert_eq!(cfg.workload, "502.gcc");
    assert_eq!(cfg.energy_price, 80.0);
}

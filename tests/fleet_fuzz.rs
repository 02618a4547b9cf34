//! Structure-aware fuzz target for the fleet-scenario config parser.
//!
//! `FleetConfig::from_json` feeds `suit-cli fleet --config` and shares
//! the `SUITTRC` readers' totality contract: any input — byte soup,
//! truncations, single-byte mutations of valid documents, or documents
//! with hostile counts (`"racks": 1e308`, `"epochs": -3`,
//! `"epoch_insts": 1e18`) — must come back as a structured `Err`
//! string, never a panic, and never an allocation proportional to a
//! hostile count (bounds are checked with checked arithmetic *before*
//! anything is sized from them). Accepted documents must validate, and
//! unknown keys must be rejected so config typos fail loudly.
//!
//! CI drives the `total` property with `SUIT_CHECK_CASES=100000` as the
//! fuzz-smoke gate; corpus seeds in `tests/corpus/` replay first.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker};
use suit::sim::fleet::FleetConfig;

/// A randomized field value: valid-looking, hostile, or junk.
fn field_value() -> Gen<String> {
    gen::one_of(vec![
        gen::u64_in(0..=8).map(|n| n.to_string()),
        gen::from_slice(&[
            "1e308",
            "-3",
            "1e18",
            "0.5",
            "1000000000000000000000",
            "-0.0",
            "NaN",
            "null",
            "true",
            "\"502.gcc\"",
            "\"zzz\"",
            "[]",
            "[1800, 900]",
            "[\"502.gcc\", \"557.xz\"]",
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
        "cpu",
        "strategy",
        "offset",
        "racks",
        "domains_per_rack",
        "cores_per_domain",
        "epochs",
        "epoch_insts",
        "seed",
        "utilization",
        "deployment_years",
        "workloads",
        "rack_fan_rpm",
        "rack_age_years",
        "rakcs", // typo: must be rejected as an unknown key
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

/// A definitely-valid document (the mutation base).
fn valid_doc() -> Gen<String> {
    let nums = gen::pair(&gen::usize_in(1..=3), &gen::usize_in(1..=3));
    gen::pair(&nums, &gen::u64_in(1..=99)).map(|((racks, dpr), seed)| {
        format!(
            "{{\"racks\": {racks}, \"domains_per_rack\": {dpr}, \"epochs\": 2, \
             \"epoch_insts\": 1000000, \"seed\": {seed}, \"workloads\": [\"557.xz\"]}}"
        )
    })
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

/// Totality: the parser never panics, and whatever it accepts
/// revalidates cleanly (parse and validate can never disagree).
#[test]
fn fleet_config_parser_is_total() {
    Checker::new("fleet_fuzz::total")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&doc_stream(), |doc: &String| {
            match FleetConfig::from_json(doc) {
                Ok(cfg) => cfg
                    .validate()
                    .map_err(|e| format!("accepted config fails validate(): {e}")),
                Err(e) => {
                    if e.is_empty() {
                        Err("rejection carried an empty error message".to_string())
                    } else {
                        Ok(())
                    }
                }
            }
        });
}

/// The hostile shapes the contract calls out, pinned explicitly.
#[test]
fn hostile_counts_are_rejected_before_allocation() {
    for doc in [
        r#"{"racks": 1e308}"#,
        r#"{"racks": 4096, "domains_per_rack": 4096, "cores_per_domain": 4096}"#,
        // One domain past MAX_DOMAIN_CORES, far under the fleet total.
        r#"{"racks": 1, "domains_per_rack": 1, "cores_per_domain": 257}"#,
        r#"{"epochs": -3}"#,
        r#"{"epoch_insts": 1e18}"#,
        r#"{"epochs": 100000, "epoch_insts": 1000000000000}"#,
        r#"{"seed": 0.5}"#,
        r#"{"utilization": 1e308}"#,
        r#"{"workloads": []}"#,
        r#"{"rack_fan_rpm": [1]}"#,
        r#"{"rakcs": 2}"#,
        "{",
        "",
        "[]",
        "null",
    ] {
        let err = FleetConfig::from_json(doc).expect_err(doc);
        assert!(!err.is_empty(), "empty error for {doc}");
    }
}

/// A round-trip sanity anchor: the documented example parses and the
/// parsed values land where they should.
#[test]
fn canonical_document_parses() {
    let cfg = FleetConfig::from_json(
        r#"{"racks": 2, "domains_per_rack": 8, "cores_per_domain": 4,
            "epochs": 3, "epoch_insts": 5000000, "utilization": 0.75,
            "workloads": ["502.gcc", "Nginx"], "rack_fan_rpm": [1800, 600],
            "rack_age_years": [0.5, 5.0], "cpu": "c", "strategy": "fv",
            "offset": 97, "seed": 7}"#,
    )
    .expect("canonical doc is valid");
    assert_eq!(cfg.racks, 2);
    assert_eq!(cfg.domains_per_rack, 8);
    assert_eq!(cfg.rack_fan_rpm, vec![1800.0, 600.0]);
    assert_eq!(cfg.workloads, vec!["502.gcc", "Nginx"]);
}

//! Structure-aware fuzz targets for the `SUITTRC2` container decoder.
//!
//! The decoder sits on the service's unauthenticated upload path
//! (`POST /v1/trace`), so its totality contract is load-bearing: any byte
//! stream — raw soup, a valid container, a truncation, a bit flip, or a
//! container whose trailing index/trailer region was overwritten — must
//! come back as a typed [`suit::store::StoreError`], never a panic, and
//! never an allocation the physical input size cannot justify.
//!
//! Three properties pin this:
//!
//! 1. `total` — full-load ([`suit::store::read_all`]) and streaming
//!    ([`suit::store::open_bytes`] + drain) decoding are total over the
//!    structured input stream, and *agree*: both accept with identical
//!    metadata and bursts, or both reject;
//! 2. `roundtrip` — a constructed (meta, bursts, chunk size) triple
//!    fails to pack exactly when its cumulative span overflows u64;
//!    otherwise it packs deterministically and decodes back to exactly
//!    the input;
//! 3. `seek` — on a valid container, seeking to any virtual time lands on
//!    the same burst boundary that skipping burst-by-burst from the start
//!    reaches.
//!
//! CI drives property 1 with `SUIT_CHECK_CASES=100000` as the fuzz-smoke
//! gate. Committed corpus seeds in `tests/corpus/` pin the interesting
//! shapes (a rejected corruption, a surviving valid container, a trace
//! whose virtual time overflows u64) and are replayed before random
//! exploration on every run.
//!
//! Burst fields span their full ranges — gap `0..=u64::MAX`, events
//! `1..=u32::MAX`, within `0..=u32::MAX` — with a uniformly drawn bit
//! width, so every varint length up to the 10-byte maximum is encoded,
//! and top-half gaps make virtual-time overflow a common shape.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker, Source};
use suit::isa::Opcode;
use suit::store;
use suit::trace::event::Burst;
use suit::trace::io::TraceMeta;

/// Every opcode the trace format can carry (bursts are built over the
/// faultable set only — `Burst::new` enforces it).
fn faultable() -> Vec<Opcode> {
    Opcode::ALL
        .iter()
        .copied()
        .filter(|o| o.is_faultable())
        .collect()
}

/// A value in `0..=hi` whose bit width is uniform over `0..=` that of
/// `hi`, so short and maximal varints are drawn alike; shrinks toward 0.
fn any_width(hi: u64) -> Gen<u64> {
    gen::u32_in(0..=64 - hi.leading_zeros()).bind(move |bits| {
        let top = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
        gen::u64_in(0..=top.min(hi))
    })
}

/// One structurally valid burst over the full field ranges.
fn burst() -> Gen<Burst> {
    let ops = faultable();
    let n = ops.len();
    // Any two top-half gaps overflow u64 between them.
    let gap = gen::one_of(vec![
        any_width(u64::MAX),
        gen::u64_in(u64::MAX / 2..=u64::MAX),
    ]);
    let events = any_width(u64::from(u32::MAX) - 1).map(|e| e as u32 + 1);
    let within = any_width(u64::from(u32::MAX)).map(|w| w as u32);
    gen::pair(
        &gen::pair(&gap, &events),
        &gen::pair(&within, &gen::usize_in(0..=n - 1)),
    )
    .map(move |((gap, events), (within, oi))| Burst::new(gap, events, within, ops[oi]))
}

/// The cumulative virtual span of `bursts`, or `None` if it overflows
/// u64 — exactly the traces `pack` must refuse.
fn span(bursts: &[Burst]) -> Option<u64> {
    bursts.iter().try_fold(0u64, |v, b| b.checked_end(v))
}

/// The longest prefix of `bursts` that `pack` accepts.
fn packable(bursts: &[Burst]) -> &[Burst] {
    let mut n = bursts.len();
    while span(&bursts[..n]).is_none() {
        n -= 1;
    }
    &bursts[..n]
}

/// A full construction triple: metadata, burst list, chunk size. Chunk
/// sizes stay tiny so short burst lists still span several chunks and a
/// non-trivial index.
fn construction() -> Gen<(TraceMeta, Vec<Burst>, usize)> {
    let meta = gen::pair(
        &gen::from_slice(&["502.gcc", "aes-ni", ""]),
        &gen::pair(&gen::f64_in(0.2, 4.0), &gen::u64_in(1..=u64::MAX / 2)),
    )
    .map(|(name, (ipc, total))| TraceMeta {
        name: name.into(),
        ipc,
        total_insts: total,
    });
    gen::pair(
        &gen::pair(&meta, &burst().vec_up_to(64)),
        &gen::usize_in(1..=8),
    )
    .map(|((meta, bursts), chunk_bursts)| (meta, bursts, chunk_bursts))
}

/// A valid container's bytes (overflowing constructions cut back to
/// their packable prefix).
fn valid_container() -> Gen<Vec<u8>> {
    construction().map(|(meta, bursts, chunk_bursts)| {
        store::pack_to_vec(&meta, packable(&bursts).iter().copied(), chunk_bursts)
            .expect("a packable prefix cannot fail to pack")
    })
}

/// A valid container cut off at an arbitrary byte.
fn truncated_container() -> Gen<Vec<u8>> {
    gen::pair(&valid_container(), &gen::usize_in(0..=4095)).map(|(mut bytes, cut)| {
        bytes.truncate(cut % (bytes.len() + 1));
        bytes
    })
}

/// A valid container with one byte overwritten — hits chunk payloads,
/// the index records, the trailer and the header alike.
fn flipped_container() -> Gen<Vec<u8>> {
    gen::pair(
        &valid_container(),
        &gen::pair(&gen::usize_in(0..=4095), &gen::byte()),
    )
    .map(|(mut bytes, (pos, b))| {
        let at = pos % bytes.len();
        bytes[at] ^= b | 1; // always changes the byte
        bytes
    })
}

/// A valid container whose index/trailer region (the last up-to-64
/// bytes) is overwritten wholesale — the shape that exercises the
/// open-time size-equation and index-CRC validation hardest.
fn smashed_tail_container() -> Gen<Vec<u8>> {
    gen::pair(&valid_container(), &gen::bytes_up_to(64)).map(|(mut bytes, tail)| {
        let len = bytes.len();
        let start = len.saturating_sub(tail.len());
        bytes[start..].copy_from_slice(&tail[..len - start]);
        bytes
    })
}

/// The full decoder input stream: raw soup first (shrinks toward the
/// simplest), then the structured shapes.
fn container_stream() -> Gen<Vec<u8>> {
    gen::one_of(vec![
        gen::bytes_up_to(300),
        valid_container(),
        truncated_container(),
        flipped_container(),
        smashed_tail_container(),
    ])
}

/// Streaming decode: drain the iterator, then surface any deferred error
/// through `finish`.
fn decode_streaming(input: &[u8]) -> Result<(TraceMeta, Vec<Burst>), store::StoreError> {
    let reader = store::open_bytes(input)?;
    let mut it = reader.bursts();
    let out: Vec<Burst> = it.by_ref().collect();
    let reader = it.finish()?;
    Ok((reader.meta().clone(), out))
}

/// Property 1: both decode paths are total and agree.
fn decoder_is_total_and_consistent(input: &[u8]) -> Result<(), String> {
    let full = store::read_all(input);
    let streamed = decode_streaming(input);
    match (full, streamed) {
        (Ok(f), Ok(s)) if f == s => Ok(()),
        (Ok(f), Ok(s)) => Err(format!(
            "full-load and streaming decode disagree: {} vs {} bursts",
            f.1.len(),
            s.1.len()
        )),
        (Err(_), Err(_)) => Ok(()),
        (f, s) => Err(format!(
            "one decode path accepted what the other rejected: full={:?} streamed={:?}",
            f.map(|(_, b)| b.len()),
            s.map(|(_, b)| b.len())
        )),
    }
}

#[test]
fn decoder_is_total_over_container_streams() {
    Checker::new("store_fuzz::total")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&container_stream(), |input: &Vec<u8>| {
            decoder_is_total_and_consistent(input)
        });
}

/// Property 2: pack refuses exactly the overflowing traces; on the rest,
/// pack ∘ decode is the identity and packing is deterministic.
#[test]
fn constructed_containers_roundtrip_exactly() {
    Checker::new("store_fuzz::roundtrip")
        .cases_from_env_or(5_000)
        .corpus(corpus_dir!())
        .check(
            &construction(),
            |(meta, bursts, chunk_bursts): &(TraceMeta, Vec<Burst>, usize)| {
                let packed = store::pack_to_vec(meta, bursts.iter().copied(), *chunk_bursts);
                let bytes = match (span(bursts), packed) {
                    (Some(_), Ok(bytes)) => bytes,
                    (None, Err(store::StoreError::Invalid(_))) => return Ok(()),
                    (None, other) => {
                        return Err(format!(
                            "pack of an overflowing trace returned {:?}, not Invalid",
                            other.map(|b| b.len())
                        ))
                    }
                    (Some(_), Err(e)) => return Err(format!("pack failed: {e}")),
                };
                let again = store::pack_to_vec(meta, bursts.iter().copied(), *chunk_bursts)
                    .map_err(|e| format!("re-pack failed: {e}"))?;
                if bytes != again {
                    return Err("packing is not deterministic".into());
                }
                let (m, b) = store::read_all(&bytes).map_err(|e| format!("decode failed: {e}"))?;
                if &m != meta {
                    return Err(format!("metadata drifted: {m:?} != {meta:?}"));
                }
                if &b != bursts {
                    return Err(format!(
                        "bursts drifted: {} decoded vs {} packed",
                        b.len(),
                        bursts.len()
                    ));
                }
                Ok(())
            },
        );
}

/// Property 3: seeking lands where skipping from the start lands.
#[test]
fn seek_agrees_with_skip_from_start() {
    let case = gen::pair(&construction(), &gen::u64_in(0..=u64::MAX));
    Checker::new("store_fuzz::seek")
        .cases_from_env_or(2_000)
        .corpus(corpus_dir!())
        .check(
            &case,
            |((meta, bursts, chunk_bursts), raw_target): &((TraceMeta, Vec<Burst>, usize), u64)| {
                let bursts = packable(bursts);
                let bytes = store::pack_to_vec(meta, bursts.iter().copied(), *chunk_bursts)
                    .map_err(|e| format!("pack failed: {e}"))?;

                // Skip-from-start oracle: walk bursts accumulating
                // their total (gap + events + internal-gap) length; the
                // cursor must stop on the first burst whose end passes
                // the target.
                let mut vtime = 0u64;
                let mut expect = None;
                // Keep targets inside (and slightly past) the trace.
                let total = span(bursts).expect("packable prefix");
                let target = total.checked_add(2).map_or(*raw_target, |m| raw_target % m);
                for (i, b) in bursts.iter().enumerate() {
                    let end = vtime + b.total_insts();
                    if expect.is_none() && end > target {
                        expect = Some((i, vtime));
                    }
                    vtime = end;
                }

                let mut reader =
                    store::open_bytes(&bytes).map_err(|e| format!("open failed: {e}"))?;
                let start = reader
                    .seek_to_vtime(target)
                    .map_err(|e| format!("seek failed: {e}"))?;
                let landed = reader
                    .next_burst()
                    .map_err(|e| format!("read failed: {e}"))?;

                match (expect, landed) {
                    (Some((i, s)), Some(b)) if b == bursts[i] && start == s => Ok(()),
                    (None, None) if start == total => Ok(()),
                    (want, got) => Err(format!(
                        "seek({target}) landed at vtime {start} / burst {got:?}, expected \
                         {want:?} of {} bursts (total {total})",
                        bursts.len()
                    )),
                }
            },
        );
}

/// The committed corpus seeds must keep generating the shapes they were
/// committed to pin — if the generator drifts, this fails loudly instead
/// of the seeds silently degenerating into byte soup.
#[test]
fn committed_corpus_seeds_cover_the_advertised_shapes() {
    let sample = |seed: u64| container_stream().sample(&mut Source::fresh(seed));

    let valid = sample(VALID_CONTAINER_SEED);
    assert!(
        store::read_all(&valid).is_ok(),
        "seed {VALID_CONTAINER_SEED:#x} no longer generates a decodable container"
    );

    let corrupt = sample(CORRUPT_CONTAINER_SEED);
    assert!(
        corrupt.len() >= 8 && &corrupt[..8] == b"SUITTRC2" && store::read_all(&corrupt).is_err(),
        "seed {CORRUPT_CONTAINER_SEED:#x} no longer generates a well-magicked corrupt container"
    );

    let (_, bursts, _) = construction().sample(&mut Source::fresh(OVERFLOW_TRACE_SEED));
    assert!(
        span(&bursts).is_none() && bursts.iter().all(|b| b.checked_end(0).is_some()),
        "seed {OVERFLOW_TRACE_SEED:#x} no longer generates bursts that each fit in u64 \
         but overflow it together"
    );
}

/// Seeds committed under `tests/corpus/` for the shapes above.
const VALID_CONTAINER_SEED: u64 = 0x6;
const CORRUPT_CONTAINER_SEED: u64 = 0x0;
const OVERFLOW_TRACE_SEED: u64 = 0x3;

/// Maintenance tool, not part of the suite: scans seeds and prints the
/// first one generating each corpus shape. Run with
/// `cargo test -p suit --test store_fuzz find_corpus_seeds -- --ignored --nocapture`
/// after changing the generator, then update the constants and the
/// committed `.seed` files.
#[test]
#[ignore]
fn find_corpus_seeds() {
    let g = container_stream();
    let mut valid = None;
    let mut corrupt = None;
    for seed in 0..200_000u64 {
        let input = g.sample(&mut Source::fresh(seed));
        if valid.is_none() && store::read_all(&input).is_ok() {
            valid = Some(seed);
        }
        if corrupt.is_none()
            && input.len() >= 8
            && &input[..8] == b"SUITTRC2"
            && store::read_all(&input).is_err()
        {
            corrupt = Some(seed);
        }
        if valid.is_some() && corrupt.is_some() {
            break;
        }
    }
    println!("valid container seed:   {valid:?}");
    println!("corrupt container seed: {corrupt:?}");
    let overflow = (0..200_000u64).find(|&seed| {
        let (_, bursts, _) = construction().sample(&mut Source::fresh(seed));
        span(&bursts).is_none() && bursts.iter().all(|b| b.checked_end(0).is_some())
    });
    println!("overflow trace seed:    {overflow:?}");
}

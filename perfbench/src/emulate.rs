//! `emulate`: the work of the `#DO` handler — AES-128-GCM seal and open
//! of TLS-sized records, and decode + emulate over a stream of trapped
//! faultable-instruction encodings drawn from the workloads' opcode mixes.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use suit_emu::aes::{bitsliced, reference, Aes128Key};
use suit_emu::gcm::{gcm_decrypt, gcm_encrypt, ghash_mul_clmul};
use suit_emu::{emulate, EmuOperands, EmuResult};
use suit_isa::decode::{decode, AesVariant, DecodeError, Decoded};
use suit_isa::encode::{EncodeSpec, Rm, SIMD_FORMS};
use suit_isa::{Opcode, Vec128};
use suit_rng::{Rng, SuitRng};
use suit_trace::profile;

use crate::common::{
    median, ms, peak_rss_mb, repeat, setup_sample, timed, warm_up, Ctx, Digest, Outcome, WARM_UP_S,
};
use crate::spans::{self, maybe, Tracer};

/// Record sizes in bytes, up to the 16 KiB TLS maximum (full records
/// twice as often), largest first; every repetition seals and opens each
/// entry twice. An odd count keeps the median inside one size.
const RECORD_SIZES: [usize; 11] = [
    16384, 16384, 12288, 8192, 4096, 2048, 1460, 1024, 512, 256, 64,
];
const RECORDS_PER_REP: usize = 2 * RECORD_SIZES.len();
/// Traps per work item of the shared queue.
const TRAP_CHUNK: usize = 250;
const SESSION_KEYS: usize = 4;
/// Trapped instructions per repetition from each of the 25 workloads of
/// `profile::all()`; each one's opcodes are drawn by the weights of its
/// `OpcodeMix` (Table 1 proportions for SPEC, AESENC 10 : VPCLMULQDQ 1 :
/// VXOR 2 for Nginx and VLC). IMUL is hardened rather than trapped, so
/// the stream has none.
const TRAPS_PER_WORKLOAD: usize = 200;
const CLASSES: [Class; 3] = [Class::Aes, Class::Clmul, Class::Simd];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Aes,
    Clmul,
    Simd,
}

impl Class {
    fn of(op: Opcode) -> Class {
        match op {
            Opcode::Aesenc => Class::Aes,
            Opcode::Vpclmulqdq => Class::Clmul,
            _ => Class::Simd,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Aes => "emu.emulate.aes",
            Class::Clmul => "emu.emulate.clmul",
            Class::Simd => "emu.emulate.simd",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Class::Aes => "emu.emulate_ns.aes",
            Class::Clmul => "emu.emulate_ns.clmul",
            Class::Simd => "emu.emulate_ns.simd",
        }
    }
}

struct Record {
    key: usize,
    iv: [u8; 12],
    aad: [u8; 13],
    plaintext: Vec<u8>,
}

struct Trap {
    class: Class,
    spec: EncodeSpec,
    bytes: Vec<u8>,
    a: Vec128,
    b: Vec128,
}

struct Inputs {
    key_bytes: Vec<[u8; 16]>,
    records: Vec<Record>,
    traps: Vec<Trap>,
}

/// Seeded inputs: the record sizes, their order and the traps per
/// workload are fixed; the seed chooses keys, nonces, contents, opcodes
/// (by each workload's mix), encodings, operands and the traps' order.
fn inputs(seed: u64) -> Inputs {
    let root = SuitRng::seed_from_u64(seed);
    let mut rng = root.fork(1);
    let key_bytes = (0..SESSION_KEYS)
        .map(|_| rng.u128().to_le_bytes())
        .collect();
    let records: Vec<Record> = (0..RECORDS_PER_REP)
        .map(|i| {
            let mut iv = [0u8; 12];
            iv.iter_mut().for_each(|b| *b = rng.u8());
            let mut aad = [0u8; 13];
            aad.iter_mut().for_each(|b| *b = rng.u8());
            let plaintext = (0..RECORD_SIZES[i / 2]).map(|_| rng.u8()).collect();
            Record {
                key: rng.gen_range(0..SESSION_KEYS as u64) as usize,
                iv,
                aad,
                plaintext,
            }
        })
        .collect();

    let mut rng = root.fork(2);
    let mut traps: Vec<Trap> = profile::all()
        .iter()
        .flat_map(|p| std::iter::repeat_n(p.opcode_mix.weights(), TRAPS_PER_WORKLOAD))
        .map(|weights| {
            let op = pick(&weights, &mut rng);
            let spec = encoding(op, &mut rng);
            Trap {
                class: Class::of(op),
                spec,
                bytes: spec.encode(),
                a: Vec128::from_u128(rng.u128()),
                b: Vec128::from_u128(rng.u128()),
            }
        })
        .collect();
    rng.shuffle(&mut traps);
    Inputs {
        key_bytes,
        records,
        traps,
    }
}

type Form = (u8, u8, Opcode, Option<AesVariant>, bool);

/// Indexes of the [`SIMD_FORMS`] rows that `pick` accepts.
fn forms(pick: impl Fn(&Form) -> bool) -> Vec<usize> {
    (0..SIMD_FORMS.len())
        .filter(|&i| pick(&SIMD_FORMS[i]))
        .collect()
}

/// An opcode drawn by `weights`.
fn pick(weights: &[(Opcode, f64)], rng: &mut SuitRng) -> Opcode {
    let total: f64 = weights.iter().map(|w| w.1).sum();
    let mut x = rng.gen_range(0.0..total);
    for &(op, w) in weights {
        if x < w {
            return op;
        }
        x -= w;
    }
    weights[weights.len() - 1].0
}

/// One valid encoding of `op`.
fn encoding(op: Opcode, rng: &mut SuitRng) -> EncodeSpec {
    let reg = rng.gen_range(0..16u64) as u8;
    let rm = match rng.gen_range(0..4u64) {
        0 => Rm::Reg(rng.gen_range(0..16u64) as u8),
        1 => Rm::Disp8(rng.gen_range(0..4u64) as u8, rng.u8()),
        2 => Rm::Rip(rng.u32()),
        _ => Rm::Sib,
    };
    // AESENC proper: the handler computes the middle encryption round.
    let forms = forms(|f| f.2 == op && (op != Opcode::Aesenc || f.3 == Some(AesVariant::Enc)));
    EncodeSpec::Simd {
        form: forms[rng.gen_range(0..forms.len() as u64) as usize],
        vex: rng.bool(),
        reg,
        rm,
        vvvv: rng.gen_range(0..16u64) as u8,
        imm8: rng.u8(),
    }
}

type Handled = (Result<Decoded, DecodeError>, Option<EmuResult>);

/// The handler's work for one trap: decode the bytes, then emulate.
fn handle(t: &Trap) -> Handled {
    let d = decode(&t.bytes);
    let r = d.ok().and_then(|d| {
        emulate(
            d.opcode,
            EmuOperands::with_imm(t.a, t.b, d.imm8.unwrap_or(0)),
        )
        .ok()
    });
    (d, r)
}

type Sealed = (Vec<u8>, Vec128, Option<Vec<u8>>);

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx.seed);
    let keys = expand_keys(&inp.key_bytes);
    if let Some(tr) = ctx.tracer() {
        return traced(tr, &inp, &keys);
    }

    let mut setups = Vec::new();
    let mut record_ms = Vec::new();
    let mut record_p50_ms = Vec::new();
    let mut first: Option<(Vec<Sealed>, Vec<Handled>)> = None;
    warm_up(WARM_UP_S, || drop(rep(None, &inp, &keys, &mut Vec::new())));
    let reps = repeat(ctx.seconds, 3, |_| {
        setups.push(setup_sample(200, || {
            black_box(expand_keys(&inp.key_bytes));
        }));
        let mut times = Vec::new();
        let (outputs, s) = timed(|| rep(None, &inp, &keys, &mut times));
        record_p50_ms.push(median(&times));
        record_ms.extend(times);
        check(&mut out, &inp, &outputs);
        first.get_or_insert(outputs);
        s
    });
    let rss = peak_rss_mb();
    out.set_common(&reps, &setups, &record_p50_ms, rss);
    out.latency("record_p50_ms", Some("record_p99_ms"), &record_ms);
    check_nist(&mut out);
    out.digest = digest(&first.expect("at least one repetition"));
    out
}

fn expand_keys(bytes: &[[u8; 16]]) -> Vec<Aes128Key> {
    bytes.iter().map(|k| Aes128Key::expand(*k)).collect()
}

/// Threads sharing a repetition's records and traps, as two cores taking
/// `#DO` traps at once would.
const LANES: usize = 2;

/// One repetition: every record sealed and opened, every trap handled.
/// [`LANES`] threads take work items off one shared queue — the records
/// largest first, then the traps in chunks of [`TRAP_CHUNK`] — so a
/// thread the host stalls for a while does not hold up the other's work.
fn rep(
    tr: Option<&Tracer>,
    inp: &Inputs,
    keys: &[Aes128Key],
    record_ms: &mut Vec<f64>,
) -> (Vec<Sealed>, Vec<Handled>) {
    let next = AtomicUsize::new(0);
    let lanes: Vec<LaneOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|_| s.spawn(|| lane_work(tr, inp, keys, &next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("emulate lane panicked"))
            .collect()
    });
    let (mut sealed, mut handled) = (Vec::new(), Vec::new());
    for (s, h) in lanes {
        sealed.extend(s);
        handled.extend(h);
    }
    sealed.sort_by_key(|r| r.0);
    handled.sort_by_key(|h| h.0);
    record_ms.extend(sealed.iter().map(|r| r.2));
    (
        sealed.into_iter().map(|r| r.1).collect(),
        handled.into_iter().map(|h| h.1).collect(),
    )
}

type LaneOut = (Vec<(usize, Sealed, f64)>, Vec<(usize, Handled)>);

/// One lane's share of a repetition, with each record's latency in ms.
fn lane_work(tr: Option<&Tracer>, inp: &Inputs, keys: &[Aes128Key], next: &AtomicUsize) -> LaneOut {
    let (mut sealed, mut handled) = (Vec::new(), Vec::new());
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = inp.records.get(k) {
            let key = &keys[r.key];
            let t = std::time::Instant::now();
            let out = maybe(tr, "bench.record", k as u64, || {
                let (ct, tag) = maybe(tr, "emu.gcm.seal", k as u64, || {
                    gcm_encrypt(key, &r.iv, &r.aad, &r.plaintext)
                });
                let opened = maybe(tr, "emu.gcm.open", k as u64, || {
                    gcm_decrypt(key, &r.iv, &r.aad, &ct, tag)
                });
                (ct, tag, opened)
            });
            sealed.push((k, out, ms(t.elapsed())));
            continue;
        }
        let start = (k - inp.records.len()) * TRAP_CHUNK;
        if start >= inp.traps.len() {
            return (sealed, handled);
        }
        let chunk = start..(start + TRAP_CHUNK).min(inp.traps.len());
        match tr {
            None => handled.extend(chunk.map(|i| (i, handle(&inp.traps[i])))),
            Some(tr) => handled.extend(traced_traps(tr, &inp.traps, chunk, k as u64)),
        }
    }
}

/// Decodes a chunk of traps in one span, then emulates them class by
/// class (one span per class) — the same calls as [`handle`], grouped so
/// each layer's cost per instruction can be read off its span.
fn traced_traps(
    tr: &Tracer,
    traps: &[Trap],
    chunk: std::ops::Range<usize>,
    op: u64,
) -> Vec<(usize, Handled)> {
    let mine: Vec<usize> = chunk.collect();
    let decoded: Vec<_> = tr.span("isa.decode", op, || {
        mine.iter().map(|&i| decode(&traps[i].bytes)).collect()
    });
    let mut results: Vec<Option<EmuResult>> = vec![None; mine.len()];
    for class in CLASSES {
        tr.span(class.span(), op, || {
            for (k, &i) in mine.iter().enumerate() {
                let t = &traps[i];
                if let (true, Ok(d)) = (t.class == class, decoded[k]) {
                    results[k] = emulate(
                        d.opcode,
                        EmuOperands::with_imm(t.a, t.b, d.imm8.unwrap_or(0)),
                    )
                    .ok();
                }
            }
        });
    }
    mine.iter()
        .copied()
        .zip(decoded.into_iter().zip(results))
        .collect()
}

/// Output checks for one repetition: every record opens to its plaintext,
/// every encoding decodes as specified and emulates, and every emulated
/// `AESENC` equals the reference round.
fn check(out: &mut Outcome, inp: &Inputs, (sealed, handled): &(Vec<Sealed>, Vec<Handled>)) {
    for (i, (r, (_, _, opened))) in inp.records.iter().zip(sealed).enumerate() {
        out.check(opened.as_deref() == Some(&r.plaintext[..]), || {
            format!("record {i} did not open to its plaintext")
        });
    }
    for (i, (t, (d, res))) in inp.traps.iter().zip(handled).enumerate() {
        let ok = *d == Ok(t.spec.expected())
            && match (t.class, res) {
                (Class::Aes, Some(r)) => r.value == reference::aesenc(t.a, t.b),
                (_, r) => r.is_some(),
            };
        out.check(ok, || {
            format!("trap {i} ({:?}) decoded or emulated wrongly", t.class)
        });
    }
}

/// NIST GCM test case 3 (AES-128, 96-bit IV, four-block plaintext).
fn check_nist(out: &mut Outcome) {
    let key = Aes128Key::expand(
        hex("feffe9928665731c6d6a8f9467308308")
            .try_into()
            .expect("16"),
    );
    let iv: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().expect("12");
    let pt = hex(concat!(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72",
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    ));
    let ct = hex(concat!(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e",
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    ));
    let tag = hex("4d5c2af327cd64a62cf35abd2ba6fab4");
    let (got_ct, got_tag) = gcm_encrypt(&key, &iv, &[], &pt);
    let opened = gcm_decrypt(&key, &iv, &[], &got_ct, got_tag);
    out.check(
        got_ct == ct && got_tag.to_bytes()[..] == tag[..] && opened.as_deref() == Some(&pt[..]),
        || "NIST GCM test case 3 failed".into(),
    );
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

fn digest((sealed, handled): &(Vec<Sealed>, Vec<Handled>)) -> String {
    let mut d = Digest::new();
    for (ct, tag, _) in sealed {
        d.add(ct);
        d.add(&tag.to_bytes());
    }
    for (dec, res) in handled {
        d.add(format!("{dec:?}{res:?}").as_bytes());
    }
    d.hex()
}

/// The traced run: a warm-up and an untraced repetition for the overhead
/// baseline, a traced repetition, then the AES and GHASH kernels on
/// their own.
fn traced(tr: &Tracer, inp: &Inputs, keys: &[Aes128Key]) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Vec::new();
    rep(None, inp, keys, &mut scratch);
    let (reference, untraced_s) = timed(|| rep(None, inp, keys, &mut scratch));
    let (outputs, traced_s) = timed(|| rep(Some(tr), inp, keys, &mut scratch));
    out.check(digest(&outputs) == digest(&reference), || {
        "traced repetition differs from the untraced one".into()
    });
    check(&mut out, inp, &outputs);
    out.layers
        .insert("bench.trace_overhead_s", traced_s - untraced_s);

    let all = tr.spans();
    let gcm_ns = spans::total(&all, "emu.gcm.seal").0 + spans::total(&all, "emu.gcm.open").0;
    let gcm_bytes: usize = inp.records.iter().map(|r| 2 * r.plaintext.len()).sum();
    out.layers.insert(
        "emu.gcm_mb_per_s",
        gcm_bytes as f64 / 1e6 / (gcm_ns as f64 / 1e9),
    );
    out.layers.insert(
        "isa.decode_ns",
        spans::total(&all, "isa.decode").0 as f64 / inp.traps.len() as f64,
    );
    for class in CLASSES {
        let n = inp.traps.iter().filter(|t| t.class == class).count();
        out.layers.insert(
            class.metric(),
            spans::total(&all, class.span()).0 as f64 / n as f64,
        );
    }

    // Kernel throughput, each kernel on its own.
    const CALLS: usize = 20_000;
    let key = &keys[0];
    let blocks4 = [
        Vec128::from_u128(1),
        Vec128::from_u128(2),
        Vec128::from_u128(3),
        Vec128::from_u128(4),
    ];
    let (_, s) = timed(|| {
        tr.span("emu.aes_x4", 0, || {
            let mut b = blocks4;
            for _ in 0..CALLS {
                b = bitsliced::encrypt128_x4(key, black_box(b));
            }
            black_box(b)
        })
    });
    out.layers
        .insert("emu.aes_x4_blocks_per_s", (4 * CALLS) as f64 / s);
    let (_, s) = timed(|| {
        tr.span("emu.aes_x8", 0, || {
            let mut b = [Vec128::from_u128(5); 8];
            for _ in 0..CALLS / 2 {
                b = bitsliced::encrypt128_x8(key, black_box(b));
            }
            black_box(b)
        })
    });
    out.layers
        .insert("emu.aes_x8_blocks_per_s", (8 * (CALLS / 2)) as f64 / s);
    let (_, s) = timed(|| {
        tr.span("emu.ghash", 0, || {
            let h = Vec128::from_u128(0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e);
            let mut y = Vec128::from_u128(7);
            for _ in 0..CALLS {
                y = ghash_mul_clmul(black_box(y), h);
            }
            black_box(y)
        })
    });
    out.layers
        .insert("emu.ghash_ns_per_block", s * 1e9 / CALLS as f64);
    out.digest = digest(&reference);
    out
}

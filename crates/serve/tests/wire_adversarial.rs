//! Adversarial-corpus property suite for the JSON wire codec.
//!
//! The unit properties inside `wire.rs` cover round-tripping and
//! printable-ASCII garbage; this suite feeds the codec the *curated*
//! hostility of `hms_faults::corpus::adversarial_json` — truncation,
//! invalid UTF-8, pathological nesting, out-of-range numbers, NUL
//! bytes, duplicate keys — plus unrestricted byte soup. The contract
//! under all of it is total: `decode` returns `Ok` or a typed
//! `WireError`, never panics, and anything it accepts re-encodes
//! deterministically and round-trips.

use hms_faults::adversarial_json;
use hms_serve::wire::{decode, Json};
use hms_stats::proptest_lite::{check, Config};
use hms_stats::rng::Rng;

/// f64-bit-exact equality (`PartialEq` on `Json::Num` treats `-0.0 ==
/// 0.0`; the wire contract is stricter).
fn bit_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| bit_eq(a, b))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && bit_eq(va, vb))
        }
        _ => a == b,
    }
}

#[test]
fn decoder_is_total_over_the_adversarial_corpus() {
    // One corpus document per proptest case, so a failure prints the
    // case seed that regenerates exactly that document.
    check(
        "wire_adversarial_corpus",
        &Config::with_cases(512),
        |rng| {
            let doc = adversarial_json(rng.next_u64(), 1).remove(0);
            (String::from_utf8_lossy(&doc).into_owned(), doc)
        },
        |(text, raw)| {
            // Invalid UTF-8 never reaches `decode` in production (the
            // HTTP layer hands the body over as bytes and the API layer
            // rejects non-UTF-8 first); lossy replacement still probes
            // the decoder with the replacement-character shrapnel.
            if let Ok(exact) = std::str::from_utf8(raw) {
                let _ = decode(exact); // must return, not panic
            }
            match decode(text) {
                // Accepted documents must re-encode round-trip — a
                // parse that mangles the value is worse than an error.
                Ok(v) => {
                    let encoded = v.encode();
                    let back = decode(&encoded)
                        .map_err(|e| format!("re-decode of {encoded:?} failed: {e}"))?;
                    if !bit_eq(&v, &back) {
                        return Err(format!("round-trip drift: {v:?} -> {back:?}"));
                    }
                    if v.encode() != encoded {
                        return Err(format!("encoding of {v:?} is not deterministic"));
                    }
                    Ok(())
                }
                // A typed error is a documented outcome for every
                // family in the corpus.
                Err(_) => Ok(()),
            }
        },
    );
}

#[test]
fn decoder_is_total_over_raw_byte_soup() {
    // Unrestricted bytes — including NUL, lone surrogate escapes and
    // invalid UTF-8 after lossy conversion — beyond what the curated
    // corpus families construct.
    check(
        "wire_byte_soup",
        &Config::with_cases(512),
        |rng| {
            let n = rng.gen_range(0u64..200) as usize;
            let bytes: Vec<u8> = (0..n).map(|_| rng.gen_range(0u64..256) as u8).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        },
        |s| {
            let _ = decode(s); // total: Ok or WireError, never a panic
            Ok(())
        },
    );
}

#[test]
fn nesting_bombs_error_before_the_stack_does() {
    // The deep_nesting family caps at 256 levels; go far past it to pin
    // the decoder's recursion guard rather than the corpus's politeness.
    for depth in [1usize << 10, 1 << 14] {
        let mut doc = String::with_capacity(depth * 2 + 1);
        for _ in 0..depth {
            doc.push('[');
        }
        doc.push('0');
        for _ in 0..depth {
            doc.push(']');
        }
        assert!(
            decode(&doc).is_err(),
            "depth {depth} should exceed the decoder's depth cap"
        );
    }
}

#[test]
fn corpus_is_replayable_from_its_seed() {
    // The chaos gate in scripts/ci.sh pins seeds; the corpus must obey.
    let mut rng = Rng::seed_from_u64(0x0ADC_00DE);
    let seed = rng.next_u64();
    assert_eq!(adversarial_json(seed, 32), adversarial_json(seed, 32));
}

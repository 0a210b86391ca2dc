//! Property-based tests for the log-linear histogram: the JSON
//! serialization must be a lossless round-trip (the bench-report schema
//! diffs distributions across commits, so a bucket lost in transit would
//! silently corrupt the perf trajectory), and `merge` must commute with
//! recording — merged percentile queries answer exactly as if every
//! sample had been recorded into one histogram. The JSON codec's strings
//! must round-trip whatever they hold, and its syntax errors must keep
//! pointing at the same byte.

use proptest::prelude::*;

use emx_obs::json::Value;
use emx_obs::Histogram;

fn record_all(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Samples spanning the interesting octaves: exact small buckets, the
/// first quantized octave, and values near the top of the u64 range.
fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u64..4, any::<u64>()).prop_map(|(octave, raw)| match octave {
            0 => raw % 16,
            1 => 16 + raw % 4080,
            2 => 4096 + raw % 10_000_000_000,
            _ => u64::MAX - raw % 1000,
        }),
        0..200,
    )
}

proptest! {
    #[test]
    fn json_round_trip_preserves_everything(samples in samples_strategy()) {
        let h = record_all(&samples);
        let text = h.to_json().to_string();
        let doc = Value::parse(&text).expect("serializer emits valid JSON");
        let back = Histogram::from_json(&doc).expect("round-trip parses");
        prop_assert_eq!(&back, &h);
        prop_assert_eq!(back.count(), h.count());
        prop_assert_eq!(back.min(), h.min());
        prop_assert_eq!(back.max(), h.max());
        prop_assert_eq!(back.mean(), h.mean());
        for p in [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(back.percentile(p), h.percentile(p));
        }
    }

    #[test]
    fn merge_matches_recording_all_samples_in_one(
        a in samples_strategy(),
        b in samples_strategy(),
    ) {
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));

        let mut all: Vec<u64> = a.clone();
        all.extend_from_slice(&b);
        let direct = record_all(&all);

        prop_assert_eq!(&merged, &direct);
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            prop_assert_eq!(merged.percentile(p), direct.percentile(p));
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(samples in samples_strategy()) {
        let h = record_all(&samples);
        let mut prev = h.percentile(0.0);
        for p in 1..=100u32 {
            let cur = h.percentile(f64::from(p));
            prop_assert!(cur >= prev, "p{} = {} < p{} = {}", p, cur, p - 1, prev);
            prev = cur;
        }
        if h.count() > 0 {
            prop_assert_eq!(h.percentile(0.0), h.min());
            prop_assert_eq!(h.percentile(100.0), h.max());
        }
    }

    #[test]
    fn bucket_list_counts_sum_to_total(samples in samples_strategy()) {
        let h = record_all(&samples);
        let total: u64 = h.buckets().map(|(_, n)| n).sum();
        prop_assert_eq!(total, h.count());
        // Bucket lower bounds are strictly increasing and never above max.
        let lows: Vec<u64> = h.buckets().map(|(low, _)| low).collect();
        prop_assert!(lows.windows(2).all(|w| w[0] < w[1]));
        if let Some(&last) = lows.last() {
            prop_assert!(last <= h.max());
        }
    }
}

/// Characters that stress the string codec: the two that must be
/// escaped, every control character, the `/` that may be, and 2-, 3- and
/// 4-byte UTF-8 sequences, so multi-byte text lands right next to escapes.
fn string_strategy() -> impl Strategy<Value = String> {
    let mut pool: Vec<char> = vec!['"', '\\', '/', 'a', ' ', '\u{7f}'];
    pool.extend((0u8..0x20).map(char::from));
    pool.extend("éß\u{7ff}€中\u{fffd}\u{ffff}😀\u{10ffff}".chars());
    let any_scalar = any::<u32>().prop_map(|n| char::from_u32(n % 0x11_0000).unwrap_or('\u{e000}'));
    proptest::collection::vec(
        (0u8..4, select(pool), any_scalar)
            .prop_map(|(pick, c, scalar)| if pick == 0 { scalar } else { c }),
        0..48,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// `s` with every character written as a `\u` escape, astral ones as a
/// UTF-16 surrogate pair.
fn all_unicode_escapes(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04X}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #[test]
    fn strings_round_trip_through_the_writer(s in string_strategy()) {
        let text = Value::Str(s.clone()).to_string();
        let back = Value::parse(&text).expect("writer emits valid JSON");
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
        // The same string as an object key and next to other values.
        let mut doc = Value::object();
        doc.set(&s, Value::from(vec![Value::from(s.as_str()), Value::from(1u64)]));
        let text = doc.to_string();
        prop_assert_eq!(Value::parse(&text).expect("writer emits valid JSON"), doc);
    }

    #[test]
    fn unicode_escapes_decode_to_the_same_string(s in string_strategy()) {
        let text = all_unicode_escapes(&s);
        let back = Value::parse(&text).expect("escaped string parses");
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }
}

/// Byte offsets of string syntax errors, pinned: the reported offset is
/// part of every `emx.*` reader's error message.
#[test]
fn string_error_offsets_are_pinned() {
    let cases: [(&str, usize, &str); 12] = [
        ("\"", 1, "unterminated string"),
        ("\"abc", 4, "unterminated string"),
        ("\"é中😀", 10, "unterminated string"),
        ("[\"a\\\"", 5, "unterminated string"),
        ("{\"k\": \"v", 8, "unterminated string"),
        ("{\"k", 3, "unterminated string"),
        ("\"\\", 2, "bad escape"),
        ("\"\\x\"", 2, "bad escape"),
        ("\"ab\\q\"", 4, "bad escape"),
        ("\"é\\é\"", 4, "bad escape"),
        ("[\"ok\", \"\\'\"]", 9, "bad escape"),
        ("{\"a\\0\": 1}", 4, "bad escape"),
    ];
    for (text, offset, message) in cases {
        let err = Value::parse(text).expect_err(text);
        assert_eq!(
            (err.offset, err.message.as_str()),
            (offset, message),
            "{text:?}"
        );
    }
}

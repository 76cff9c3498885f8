//! `escape_json_into`, which scans eight bytes at a time, against the
//! char-at-a-time escaper it replaced, kept here as the reference: every
//! ASCII byte and a set of multi-byte chars at every offset of short
//! strings (the word path and the byte-at-a-time tail), random strings,
//! and a 1,000-type synthetic ODL export.

use proptest::prelude::*;
use std::fmt::Write as _;
use sws_trace::export::{escape_json, escape_json_into};

/// The escaper `escape_json_into` replaced, char by char.
fn reference(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `escape_json_into` appends to what `out` already holds.
fn escaped(s: &str) -> String {
    let mut out = String::from("<");
    escape_json_into(&mut out, s);
    out.split_off(1)
}

const MULTI_BYTE: [char; 9] = [
    '\u{80}',
    'é',
    '\u{7ff}',
    '\u{800}',
    '€',
    '\u{ffff}',
    '\u{10000}',
    '😀',
    '\u{10ffff}',
];

/// Every probe char: all of ASCII, then chars of two to four bytes.
fn probes() -> Vec<char> {
    (0u8..0x80).map(char::from).chain(MULTI_BYTE).collect()
}

#[test]
fn every_char_at_every_offset_matches_the_reference() {
    // Bytes next to the escaped ones (0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f),
    // where a lane's borrow could leak into the next lane's match.
    let near_misses: Vec<char> = " !#[]^_~\u{7f}aé".chars().collect();
    let plain = ['a'];
    let mut checked = 0;
    for filler in [&plain[..], &near_misses[..]] {
        for probe in probes() {
            for len in 0..=40usize {
                for offset in 0..16.min(len) {
                    let s: String = (0..len)
                        .map(|i| {
                            if i == offset {
                                probe
                            } else {
                                filler[i % filler.len()]
                            }
                        })
                        .collect();
                    assert_eq!(escaped(&s), reference(&s), "{s:?}");
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(escaped(""), "");
    assert!(checked > 100_000, "{checked}");
}

#[test]
fn runs_of_escaped_bytes_match_the_reference() {
    for probe in probes() {
        for second in ['"', '\\', '\n', '\u{1f}', '\u{0}'] {
            for len in 0..=24usize {
                let s: String = (0..len)
                    .map(|i| if i % 3 == 0 { probe } else { second })
                    .collect();
                assert_eq!(escaped(&s), reference(&s), "{s:?}");
            }
        }
    }
}

#[test]
fn the_wrapper_is_the_same_escaper() {
    for s in [
        "",
        "plain",
        "a\"b\\c\nd\re\tf\u{1}g\u{7f}é😀",
        "\u{0}\u{1f} \u{20}",
    ] {
        assert_eq!(escape_json(s), reference(s), "{s:?}");
    }
}

#[test]
fn a_synthetic_odl_export_matches_the_reference() {
    let g = sws_corpus::synthetic::SyntheticSpec::sized(1_000, 31).generate();
    let odl = sws_odl::print_schema(&sws_model::graph_to_schema(&g));
    assert!(odl.len() > 100_000, "{}", odl.len());
    assert_eq!(escaped(&odl), reference(&odl));
    assert_eq!(escape_json(&odl), reference(&odl));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random strings over every probe char match the reference.
    #[test]
    fn random_strings_match_the_reference(
        chars in prop::collection::vec(prop::sample::select(probes()), 0..80)
    ) {
        let s: String = chars.into_iter().collect();
        prop_assert_eq!(escaped(&s), reference(&s));
    }
}

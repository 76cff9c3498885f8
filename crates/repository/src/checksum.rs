//! Content checksums for the on-disk session format.
//!
//! The hash is a streaming variant of the SplitMix64 mixing function the
//! corpus generator already uses as its PRNG (zero-dependency by design):
//! each 8-byte word of input is absorbed into the state through the
//! finalizer, and the length is folded in last so prefixes of a buffer
//! never collide with the buffer itself.
//!
//! This is a *corruption* check (torn writes, bit rot, truncation), not a
//! cryptographic MAC: 64 bits is plenty to make accidental damage
//! detectable, which is all the repository promises.

/// Domain-separation seed for repository checksums ("SWSREPO1").
const SEED: u64 = 0x5357_5352_4550_4f31;

/// SplitMix64 finalizer: the avalanche permutation.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checksum a byte string.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] over bytes that arrive in pieces: any split of a buffer
/// into [`Checksum::update`] calls finishes to `checksum(buffer)`.
#[derive(Debug)]
pub struct Checksum {
    state: u64,
    len: u64,
    /// The bytes of a word not yet absorbed; `tail[..tail_len]` is live.
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    pub fn new() -> Checksum {
        Checksum {
            state: SEED,
            len: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    /// Absorb the next bytes of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.absorb(self.tail);
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.absorb(word.try_into().expect("chunks_exact yields 8 bytes"));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The checksum of every byte passed to [`Checksum::update`]. A final
    /// partial word is zero-padded.
    pub fn finish(mut self) -> u64 {
        if self.tail_len > 0 {
            let mut word = [0u8; 8];
            word[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            self.absorb(word);
        }
        mix(self.state ^ self.len)
    }

    fn absorb(&mut self, word: [u8; 8]) {
        self.state = mix(self
            .state
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from_le_bytes(word)));
    }
}

/// Render a checksum in the canonical 16-digit lowercase-hex form used by
/// the `MANIFEST` and the op log.
pub fn to_hex(sum: u64) -> String {
    format!("{sum:016x}")
}

/// Parse a canonical 16-digit lowercase-hex checksum field.
pub fn from_hex(field: &str) -> Option<u64> {
    if field.len() != 16 || !field.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(field, 16).ok()
}

/// True when `field` has the exact shape of a rendered checksum. Used to
/// distinguish checksummed v1 op-log lines from legacy v0 lines (whose
/// first field is a concept-kind tag, never 16 hex digits).
pub fn looks_like_hex(field: &str) -> bool {
    field.len() == 16
        && field
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(checksum(b"hello"), checksum(b"hello"));
        assert_ne!(checksum(b"hello"), checksum(b"hellp"));
        assert_ne!(checksum(b"hello"), checksum(b"hell"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        // Zero padding must not collide across lengths.
        assert_ne!(checksum(b"ab\0"), checksum(b"ab"));
    }

    /// `buf` split at every cut in `cuts` (ascending), fed piece by piece.
    fn streamed(buf: &[u8], cuts: &[usize]) -> u64 {
        let mut sum = Checksum::new();
        let mut at = 0;
        for &cut in cuts {
            sum.update(&buf[at..cut]);
            at = cut;
        }
        sum.update(&buf[at..]);
        sum.finish()
    }

    fn bytes(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    /// The whole-buffer loop `checksum` ran before it was streamed, kept
    /// as the reference: the values are on disk and on the wire.
    fn reference(bytes: &[u8]) -> u64 {
        let mut state = SEED;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            state = mix(state
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from_le_bytes(word)));
        }
        mix(state ^ bytes.len() as u64)
    }

    #[test]
    fn values_are_unchanged() {
        for len in 0..=100 {
            let buf = bytes(len, 3);
            assert_eq!(checksum(&buf), reference(&buf), "len {len}");
        }
    }

    #[test]
    fn empty_input_streams_like_the_empty_buffer() {
        assert_eq!(Checksum::new().finish(), checksum(b""));
        let mut sum = Checksum::new();
        sum.update(b"");
        sum.update(b"");
        assert_eq!(sum.finish(), checksum(b""));
        assert_eq!(streamed(b"abc", &[0, 0, 3, 3]), checksum(b"abc"));
    }

    /// Every way of cutting a buffer of up to 40 bytes into two or three
    /// pieces, and into equal pieces of every width.
    #[test]
    fn every_split_of_short_buffers_matches() {
        for len in 0..=40 {
            let buf = bytes(len, len as u8);
            let whole = checksum(&buf);
            for a in 0..=len {
                assert_eq!(streamed(&buf, &[a]), whole, "len {len}, cut {a}");
                for b in a..=len {
                    assert_eq!(streamed(&buf, &[a, b]), whole, "len {len}, cuts {a},{b}");
                }
            }
            for width in 1..=len.max(1) {
                let cuts: Vec<usize> = (width..len).step_by(width).collect();
                assert_eq!(streamed(&buf, &cuts), whole, "len {len}, width {width}");
            }
        }
    }

    /// Pieces of 1–7 bytes, so nearly every update starts or ends inside
    /// a word.
    #[test]
    fn short_pieces_straddling_words_match() {
        let buf = bytes(1000, 7);
        let whole = checksum(&buf);
        for width in 1..=7 {
            for offset in 0..8 {
                let cuts: Vec<usize> = (offset..buf.len()).step_by(width).collect();
                assert_eq!(
                    streamed(&buf, &cuts),
                    whole,
                    "width {width}, offset {offset}"
                );
            }
        }
        let mut sum = Checksum::new();
        let mut at = 0;
        for piece in (1..=7).cycle() {
            let end = (at + piece).min(buf.len());
            sum.update(&buf[at..end]);
            at = end;
            if at == buf.len() {
                break;
            }
        }
        assert_eq!(sum.finish(), whole);
    }

    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn random_splits_of_random_buffers_match(
                buf in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300),
                cuts in prop::collection::vec(0usize..301, 0..12),
            ) {
                let mut cuts: Vec<usize> =
                    cuts.iter().map(|c| c % (buf.len() + 1)).collect();
                cuts.sort_unstable();
                prop_assert_eq!(streamed(&buf, &cuts), checksum(&buf));
            }
        }
    }

    #[test]
    fn hex_round_trip() {
        let sum = checksum(b"wagon_wheel\tadd_type_definition(X)");
        let hex = to_hex(sum);
        assert_eq!(hex.len(), 16);
        assert!(looks_like_hex(&hex));
        assert_eq!(from_hex(&hex), Some(sum));
    }

    #[test]
    fn tags_never_look_like_checksums() {
        for tag in [
            "wagon_wheel",
            "generalization",
            "aggregation",
            "instance_of",
        ] {
            assert!(!looks_like_hex(tag));
        }
        assert!(!looks_like_hex("0123456789ABCDEF")); // uppercase rejected
        assert!(!looks_like_hex("0123456789abcde")); // short
    }
}

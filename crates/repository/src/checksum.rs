//! Content checksums for the on-disk session format and the daemon's
//! self-verifying lines.
//!
//! The hash is a streaming variant of the SplitMix64 mixing function the
//! corpus generator already uses as its PRNG (zero-dependency by design):
//! each 8-byte little-endian word of input is absorbed into a lane's
//! state through the finalizer, and the length is folded in last so
//! prefixes of a buffer never collide with the buffer itself.
//!
//! [`Checksum`] is generic over a lane count `L`: word *i* feeds lane
//! *i mod L*, lane *j* starts at `seed + j`, and at the end the lanes
//! fold in order into one state. Two forms are in use:
//!
//! - **One lane, [`checksum`]** — the op log, `# batch` headers, the
//!   MANIFEST and snapshots. Its values are on disk and never change.
//! - **[`LINE_LANES`] lanes, [`line_checksum`]** — the `checksum` field
//!   of every response line and crash report. Each word waits only on
//!   the lane's previous word, eight words back, so the multiply chains
//!   of a long line overlap instead of running one after another
//!   (`docs/serve.md` specifies it for clients).
//!
//! This is a *corruption* check (torn writes, bit rot, truncation), not a
//! cryptographic MAC: 64 bits is plenty to make accidental damage
//! detectable, which is all the repository promises.

use std::sync::atomic::{compiler_fence, Ordering};

/// Domain-separation seed for repository checksums ("SWSREPO1").
const SEED: u64 = 0x5357_5352_4550_4f31;

/// Domain-separation seed for line checksums ("SWSLINE1").
const LINE_SEED: u64 = 0x5357_534c_494e_4531;

/// The lane count of the line form.
pub const LINE_LANES: usize = 8;

/// The SplitMix64 increment, added with each word.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: the avalanche permutation.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One lane's absorb step.
fn absorb(lane: u64, word: &[u8]) -> u64 {
    let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
    mix(lane.wrapping_add(GAMMA).wrapping_add(word))
}

/// Checksum a byte string with the one-lane disk form.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// Checksum a byte string with the [`LINE_LANES`]-lane line form.
pub fn line_checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::line();
    sum.update(bytes);
    sum.finish()
}

/// A checksum over bytes that arrive in pieces: any split of a buffer
/// into [`Checksum::update`] calls finishes to the whole buffer's sum.
#[derive(Debug)]
pub struct Checksum<const L: usize = 1> {
    lanes: [u64; L],
    len: u64,
    /// The bytes of a block of `L` words not yet absorbed;
    /// `tail.as_flattened()[..tail_len]` is live. A block always starts
    /// at lane 0.
    tail: [[u8; 8]; L],
    tail_len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    /// The disk form, [`checksum`].
    pub fn new() -> Checksum {
        Checksum::seeded(SEED)
    }
}

impl Checksum<LINE_LANES> {
    /// The line form, [`line_checksum`].
    pub fn line() -> Checksum<LINE_LANES> {
        Checksum::seeded(LINE_SEED)
    }
}

impl<const L: usize> Checksum<L> {
    fn seeded(seed: u64) -> Checksum<L> {
        Checksum {
            lanes: std::array::from_fn(|j| seed.wrapping_add(j as u64)),
            len: 0,
            tail: [[0; 8]; L],
            tail_len: 0,
        }
    }

    /// Absorb the next bytes of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let block = 8 * L;
        if self.tail_len > 0 {
            let take = bytes.len().min(block - self.tail_len);
            let tail = self.tail.as_flattened_mut();
            tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < block {
                return;
            }
            let full = self.tail;
            self.absorb_blocks(full.as_flattened());
            self.tail_len = 0;
        }
        let (whole, rest) = bytes.split_at(bytes.len() - bytes.len() % block);
        self.absorb_blocks(whole);
        self.tail.as_flattened_mut()[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Absorb whole blocks of `L` words. The lanes stay in locals across
    /// the loop, so the `L` multiply chains run side by side: each word
    /// waits only on the word `L` back. The loop shape is deliberate (the
    /// `checksum/line620k` row of `bench_serve` guards it):
    /// - one word per step: a block-shaped body is vectorized with
    ///   emulated 64-bit multiplies and runs about 1.5 times slower;
    /// - the fence, which emits no instruction, keeps the loop vectorizer
    ///   off the same loop;
    /// - not inlined, so every caller runs the same machine code.
    #[inline(never)]
    fn absorb_blocks(&mut self, blocks: &[u8]) {
        let mut lanes = self.lanes;
        for (i, word) in blocks.chunks_exact(8).enumerate() {
            let lane = &mut lanes[i % L];
            *lane = absorb(*lane, word);
            compiler_fence(Ordering::SeqCst);
        }
        self.lanes = lanes;
    }

    /// The checksum of every byte passed to [`Checksum::update`]. The
    /// words of a final partial block feed their lanes, the last one
    /// zero-padded; then the lanes fold in order (`s = lane₀`, then
    /// `s = mix(s + laneⱼ)`) and the length goes in last.
    pub fn finish(self) -> u64 {
        let mut lanes = self.lanes;
        let tail = &self.tail.as_flattened()[..self.tail_len];
        for (lane, chunk) in lanes.iter_mut().zip(tail.chunks(8)) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            *lane = absorb(*lane, &word);
        }
        let folded = lanes[1..]
            .iter()
            .fold(lanes[0], |s, &lane| mix(s.wrapping_add(lane)));
        mix(folded ^ self.len)
    }
}

/// Render a checksum in the canonical 16-digit lowercase-hex form used by
/// the `MANIFEST` and the op log.
pub fn to_hex(sum: u64) -> String {
    let mut hex = String::with_capacity(16);
    push_hex(&mut hex, sum);
    hex
}

/// Append the [`to_hex`] form of `sum` to `out`, without `core::fmt`.
pub fn push_hex(out: &mut String, sum: u64) {
    for shift in (0..16).rev().map(|digit| 4 * digit) {
        out.push(char::from(
            b"0123456789abcdef"[(sum >> shift) as usize & 15],
        ));
    }
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

    /// `buf` split at every cut in `cuts` (ascending), fed piece by piece
    /// into `fresh()`.
    fn streamed<const L: usize>(fresh: fn() -> Checksum<L>, buf: &[u8], cuts: &[usize]) -> u64 {
        let mut sum = fresh();
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

    /// The line form as one whole-buffer loop, written from its
    /// specification in `docs/serve.md`.
    fn line_reference(bytes: &[u8]) -> u64 {
        let mut lanes = [0u64; 8];
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = LINE_SEED.wrapping_add(j as u64);
        }
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            lanes[i % 8] = mix(lanes[i % 8]
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from_le_bytes(word)));
        }
        let mut state = lanes[0];
        for lane in &lanes[1..] {
            state = mix(state.wrapping_add(*lane));
        }
        mix(state ^ bytes.len() as u64)
    }

    #[test]
    fn line_values_match_the_reference() {
        for len in 0..=200 {
            let buf = bytes(len, 3);
            assert_eq!(line_checksum(&buf), line_reference(&buf), "len {len}");
        }
    }

    /// Both formats pinned by value: changing either must fail here.
    #[test]
    fn known_answers() {
        let buf = bytes(100, 3);
        assert_eq!(to_hex(checksum(b"")), "d63434c4b4572f4a");
        assert_eq!(to_hex(checksum(&buf)), "9660582056ea2459");
        assert_eq!(to_hex(line_checksum(b"")), "2ce627530c729c63");
        assert_eq!(to_hex(line_checksum(&buf)), "ceb6a356f3d94c43");
    }

    #[test]
    fn deterministic_and_sensitive() {
        for sum in [checksum, line_checksum] {
            assert_eq!(sum(b"hello"), sum(b"hello"));
            assert_ne!(sum(b"hello"), sum(b"hellp"));
            assert_ne!(sum(b"hello"), sum(b"hell"));
            assert_ne!(sum(b""), sum(b"\0"));
            // Zero padding must not collide across lengths.
            assert_ne!(sum(b"ab\0"), sum(b"ab"));
        }
        // Words that swap lanes change the line sum.
        let buf = bytes(128, 9);
        let mut swapped = buf.clone();
        swapped[..8].copy_from_slice(&buf[8..16]);
        swapped[8..16].copy_from_slice(&buf[..8]);
        assert_ne!(line_checksum(&buf), line_checksum(&swapped));
    }

    #[test]
    fn empty_input_streams_like_the_empty_buffer() {
        assert_eq!(Checksum::new().finish(), checksum(b""));
        assert_eq!(Checksum::line().finish(), line_checksum(b""));
        let mut sum = Checksum::new();
        sum.update(b"");
        sum.update(b"");
        assert_eq!(sum.finish(), checksum(b""));
        assert_eq!(
            streamed(Checksum::new, b"abc", &[0, 0, 3, 3]),
            checksum(b"abc")
        );
        assert_eq!(
            streamed(Checksum::line, b"abc", &[0, 0, 3, 3]),
            line_checksum(b"abc")
        );
    }

    /// Every way of cutting a buffer of up to two blocks and a word into
    /// two or three pieces, and into equal pieces of every width.
    fn every_split_matches<const L: usize>(fresh: fn() -> Checksum<L>) {
        for len in 0..=(16 * L + 8).max(40) {
            let buf = bytes(len, len as u8);
            let whole = streamed(fresh, &buf, &[]);
            for a in 0..=len {
                assert_eq!(streamed(fresh, &buf, &[a]), whole, "len {len}, cut {a}");
                for b in a..=len {
                    assert_eq!(
                        streamed(fresh, &buf, &[a, b]),
                        whole,
                        "len {len}, cuts {a},{b}"
                    );
                }
            }
            for width in 1..=len.max(1) {
                let cuts: Vec<usize> = (width..len).step_by(width).collect();
                assert_eq!(
                    streamed(fresh, &buf, &cuts),
                    whole,
                    "len {len}, width {width}"
                );
            }
        }
    }

    #[test]
    fn every_split_of_short_buffers_matches() {
        every_split_matches(Checksum::new);
        every_split_matches(Checksum::line);
    }

    /// Pieces of 1–7 bytes, so nearly every update starts or ends inside
    /// a word.
    fn straddling_pieces_match<const L: usize>(fresh: fn() -> Checksum<L>) {
        let buf = bytes(1000, 7);
        let whole = streamed(fresh, &buf, &[]);
        for width in 1..=7 {
            for offset in 0..8 {
                let cuts: Vec<usize> = (offset..buf.len()).step_by(width).collect();
                assert_eq!(
                    streamed(fresh, &buf, &cuts),
                    whole,
                    "width {width}, offset {offset}"
                );
            }
        }
        let mut sum = fresh();
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

    #[test]
    fn short_pieces_straddling_words_match() {
        straddling_pieces_match(Checksum::new);
        straddling_pieces_match(Checksum::line);
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
                prop_assert_eq!(streamed(Checksum::new, &buf, &cuts), checksum(&buf));
                prop_assert_eq!(streamed(Checksum::line, &buf, &cuts), line_checksum(&buf));
            }
        }
    }

    #[test]
    fn hex_round_trip() {
        let sum = checksum(b"wagon_wheel\tadd_type_definition(X)");
        let hex = to_hex(sum);
        assert_eq!(hex, format!("{sum:016x}"));
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

//! LZSS compression for dataset-size accounting.
//!
//! Figure 2 of the paper reports the gzip-compressed storage footprint of
//! each chain's crawled blocks (121 GB EOS / 0.56 GB Tezos / 76.4 GB XRP).
//! The sandbox's offline crate set has no DEFLATE implementation, so we ship
//! a real LZSS codec (32 KiB sliding window, greedy longest match) and use
//! it to measure compressed sizes of the exact bytes the crawler received.
//! LZSS compresses JSON a little less aggressively than DEFLATE (no entropy
//! stage); the root README's archive section notes what that means for the
//! Figure 2 numbers.
//!
//! Matching uses zlib-style hash chains: `head[h]` holds the newest
//! position whose 3-byte prefix hashes to `h`, and `prev` links each
//! position to the next older one with the same hash. A search walks the
//! chain newest first, skips hash collisions by comparing the prefix
//! itself, stops at the first position outside the window, and probes at
//! most [`MAX_CANDIDATES`] true prefix matches. That is exactly the probe
//! order of per-prefix position lists, so the output does not depend on
//! the table sizes, which scale with the input.
//!
//! Format: a stream of groups, each led by a flag byte (LSB first; bit set =
//! match). A literal is one raw byte. A match is three bytes:
//! `offset_hi, offset_lo, len - MIN_MATCH` with `offset` in `1..=32768`
//! (stored as `offset - 1`) and `len` in `3..=258`.

#[cfg(test)]
mod reference;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// Cap on prefix-matching probes per position; bounds worst-case time.
const MAX_CANDIDATES: usize = 32;
/// `head` table size bounds, in bits of hash.
const MIN_HASH_BITS: u32 = 8;
const MAX_HASH_BITS: u32 = 15;

/// Hash of the 3-byte prefix at `i` into `bits` bits.
fn hash3(input: &[u8], i: usize, bits: u32) -> usize {
    let v = u32::from(input[i]) << 16 | u32::from(input[i + 1]) << 8 | u32::from(input[i + 2]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
}

/// Length of the common run of `input[p..]` and `input[i..]`, at most
/// `max`, given that the first [`MIN_MATCH`] bytes already agree.
fn match_len(input: &[u8], p: usize, i: usize, max: usize) -> usize {
    let (a, b) = (&input[p..p + max], &input[i..i + max]);
    let mut l = MIN_MATCH;
    while l + 8 <= max {
        let word = |s: &[u8]| u64::from_le_bytes(s[l..l + 8].try_into().expect("8 bytes"));
        let diff = word(a) ^ word(b);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Hash chains over the 3-byte prefixes seen so far. Links hold
/// position + 1, so 0 ends a chain.
struct Chains {
    head: Vec<u32>,
    /// A ring of at most one window: a link is only followed from an
    /// in-window position, whose slot no newer position has reused yet.
    prev: Vec<u32>,
    bits: u32,
}

impl Chains {
    fn new(n: usize) -> Self {
        let bits = n
            .next_power_of_two()
            .trailing_zeros()
            .clamp(MIN_HASH_BITS, MAX_HASH_BITS);
        Chains {
            head: vec![0; 1 << bits],
            prev: vec![0; n.next_power_of_two().min(WINDOW)],
            bits,
        }
    }

    /// Link position `i` in as the newest of its prefix's chain.
    fn insert(&mut self, input: &[u8], i: usize) {
        if i + MIN_MATCH <= input.len() {
            let h = hash3(input, i, self.bits);
            let ring = self.prev.len() - 1;
            self.prev[i & ring] = self.head[h];
            self.head[h] = i as u32 + 1;
        }
    }

    /// Link to the newest position hashing like the prefix at `i`.
    fn newest(&self, input: &[u8], i: usize) -> u32 {
        self.head[hash3(input, i, self.bits)]
    }

    /// Link to the next older position after `p` on its chain.
    fn older(&self, p: usize) -> u32 {
        self.prev[p & (self.prev.len() - 1)]
    }
}

/// Compress `input`; output is self-delimiting given its length.
///
/// Inputs must be shorter than 4 GiB (chain positions are `u32`).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    assert!(n < u32::MAX as usize, "lzss input of {n} bytes exceeds 4 GiB");
    let mut out = Vec::with_capacity(n / 2 + 16);
    let mut chains = Chains::new(n);
    let mut i = 0;

    let mut flags_pos = usize::MAX; // index of current flag byte in `out`
    let mut flag_bit = 8; // 8 == need a fresh flag byte

    macro_rules! emit {
        ($is_match:expr, $bytes:expr) => {{
            if flag_bit == 8 {
                flags_pos = out.len();
                out.push(0u8);
                flag_bit = 0;
            }
            if $is_match {
                out[flags_pos] |= 1 << flag_bit;
            }
            flag_bit += 1;
            out.extend_from_slice($bytes);
        }};
    }

    while i < n {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= n {
            let max_here = MAX_MATCH.min(n - i);
            let mut link = chains.newest(input, i);
            let mut probes = 0;
            while link != 0 {
                let p = link as usize - 1;
                if i - p > WINDOW {
                    break; // older candidates only get further away
                }
                link = chains.older(p);
                if input[p..p + MIN_MATCH] != input[i..i + MIN_MATCH] {
                    continue; // hash collision: not a candidate
                }
                // Only a candidate that also agrees at `best_len` can win.
                if input[p + best_len] == input[i + best_len] {
                    let l = match_len(input, p, i, max_here);
                    if l > best_len {
                        best_len = l;
                        best_off = i - p;
                        if l == max_here {
                            break;
                        }
                    }
                }
                probes += 1;
                if probes == MAX_CANDIDATES {
                    break;
                }
            }
        }

        if best_len >= MIN_MATCH {
            let off = best_off - 1;
            let enc = [(off >> 8) as u8, (off & 0xff) as u8, (best_len - MIN_MATCH) as u8];
            emit!(true, &enc);
            // Index every position covered by the match.
            for pos in i..i + best_len {
                chains.insert(input, pos);
            }
            i += best_len;
        } else {
            emit!(false, &input[i..=i]);
            chains.insert(input, i);
            i += 1;
        }
    }
    out
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, LzssError> {
    let mut out = Vec::with_capacity(data.len() * 3);
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        if i >= data.len() {
            // An encoder never emits a flag byte without at least one item.
            return Err(LzssError::Truncated);
        }
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 3 > data.len() {
                    return Err(LzssError::Truncated);
                }
                let off = ((data[i] as usize) << 8 | data[i + 1] as usize) + 1;
                let len = data[i + 2] as usize + MIN_MATCH;
                i += 3;
                if off > out.len() {
                    return Err(LzssError::BadOffset { offset: off, have: out.len() });
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                out.push(data[i]);
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Convenience: compressed length only.
pub fn compressed_len(input: &[u8]) -> usize {
    compress(input).len()
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzssError {
    Truncated,
    BadOffset { offset: usize, have: usize },
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "lzss stream truncated"),
            LzssError::BadOffset { offset, have } => {
                write!(f, "lzss back-reference {offset} exceeds output {have}")
            }
        }
    }
}

impl std::error::Error for LzssError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcabcabcabcabcabc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip("καλημέρα κόσμε".as_bytes());
    }

    #[test]
    fn roundtrip_json_like() {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!(
                r#"{{"block_num":{i},"producer":"eosio.prods","transactions":[{{"account":"eosio.token","name":"transfer"}}]}}"#
            ));
        }
        let data = s.as_bytes();
        let c = compress(data);
        assert!(c.len() < data.len() / 3, "JSON should compress well: {} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        // Worst case: every byte is a literal, plus one flag byte per 8.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_matches_cross_group_boundaries() {
        let mut data = Vec::new();
        for _ in 0..10 {
            data.extend_from_slice(b"0123456789abcdef");
        }
        data.extend_from_slice(&vec![b'z'; 1000]);
        roundtrip(&data);
    }

    #[test]
    fn detects_truncation() {
        let c = compress(b"hello hello hello hello");
        assert!(matches!(decompress(&c[..c.len() - 1]), Err(LzssError::Truncated) | Ok(_)));
        // A flag byte claiming a match with no data must error.
        assert_eq!(decompress(&[0x01]), Err(LzssError::Truncated));
    }

    /// Build a test input of one of the shapes the matcher must handle.
    fn shaped_input(seed: u64, shape: u8, len: usize) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match shape {
            // Uniform random bytes: mostly literals, rare short matches.
            0 => (0..len).map(|_| rng.gen::<u8>()).collect(),
            // A 4-letter alphabet: long, colliding candidate chains.
            1 => (0..len)
                .map(|_| b"ACGT"[rng.gen_range(0..4usize)])
                .collect(),
            // Single-byte runs, many longer than MAX_MATCH.
            2 => {
                let mut v = Vec::with_capacity(len);
                while v.len() < len {
                    let run = rng.gen_range(1..2000usize).min(len - v.len());
                    let b = rng.gen::<u8>();
                    v.extend(std::iter::repeat_n(b, run));
                }
                v
            }
            // JSON-like records with mutated numbers: far matches that
            // reach back across the window edge.
            _ => {
                let mut s = String::with_capacity(len + 128);
                while s.len() < len {
                    let n: u32 = rng.gen_range(0..100_000);
                    s.push_str(&format!(
                        r#"{{"block_num":{n},"producer":"eosio","ok":true}}"#
                    ));
                }
                s.truncate(len);
                s.into_bytes()
            }
        }
    }

    #[test]
    fn edge_inputs_equal_reference() {
        // Every input of length 0..=3 over a 3-letter alphabet.
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
        for len in 1..=3 {
            for code in 0..3usize.pow(len) {
                inputs.push(
                    (0..len)
                        .map(|k| b"ab\0"[code / 3usize.pow(k) % 3])
                        .collect(),
                );
            }
        }
        // Single-byte runs around and far beyond MAX_MATCH.
        for run in [MAX_MATCH - 1, MAX_MATCH, MAX_MATCH + 1, 1000, WINDOW + 5] {
            inputs.push(vec![b'z'; run]);
        }
        // A repeat placed exactly at, and just beyond, the window edge.
        for gap in [WINDOW - MIN_MATCH, WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut v = shaped_input(gap as u64, 0, gap);
            v.splice(0..0, *b"needle");
            v.extend_from_slice(b"needle");
            inputs.push(v);
        }
        for data in inputs {
            let c = compress(&data);
            assert_eq!(
                c,
                reference::compress(&data),
                "differs on {} bytes",
                data.len()
            );
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    proptest::proptest! {
        #[test]
        fn compress_equals_reference(
            seed in proptest::prelude::any::<u64>(),
            shape in 0u8..4,
            len in 0usize..70_000,
        ) {
            let data = shaped_input(seed, shape, len);
            let c = compress(&data);
            proptest::prop_assert!(c == reference::compress(&data), "shape {shape}, {len} bytes");
            proptest::prop_assert_eq!(decompress(&c).expect("decompress"), data);
        }
    }

    #[test]
    fn detects_bad_offset() {
        // Flag says match; offset 1 with empty output is invalid.
        let bad = [0x01, 0x00, 0x00, 0x00];
        assert!(matches!(decompress(&bad), Err(LzssError::BadOffset { .. })));
    }
}

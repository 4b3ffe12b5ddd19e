//! Reference LZSS compressor: the original `HashMap`-of-`Vec`s matcher,
//! kept only as a test oracle for [`super::compress`] (the fast
//! head/prev-chain version must equal it byte for byte). Self-contained
//! so integration tests can include it with `#[path]`.

use std::collections::HashMap;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const MAX_CANDIDATES: usize = 32;

/// Compress `input` exactly as the original matcher did.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Positions of each 3-byte prefix, most recent last.
    let mut chains: HashMap<[u8; 3], Vec<usize>> = HashMap::new();
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

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let key = [input[i], input[i + 1], input[i + 2]];
            if let Some(positions) = chains.get(&key) {
                for &p in positions.iter().rev().take(MAX_CANDIDATES) {
                    if i - p > WINDOW {
                        break; // older candidates only get further away
                    }
                    let max_here = MAX_MATCH.min(input.len() - i);
                    let mut l = 0;
                    while l < max_here && input[p + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - p;
                        if l == max_here {
                            break;
                        }
                    }
                }
            }
        }

        if best_len >= MIN_MATCH {
            let off = best_off - 1;
            let enc = [(off >> 8) as u8, (off & 0xff) as u8, (best_len - MIN_MATCH) as u8];
            emit!(true, &enc);
            // Index every position covered by the match.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let key = [input[i], input[i + 1], input[i + 2]];
                    let v = chains.entry(key).or_default();
                    v.push(i);
                    if v.len() > 4 * MAX_CANDIDATES {
                        v.drain(..2 * MAX_CANDIDATES);
                    }
                }
                i += 1;
            }
        } else {
            emit!(false, &input[i..=i]);
            if i + MIN_MATCH <= input.len() {
                let key = [input[i], input[i + 1], input[i + 2]];
                let v = chains.entry(key).or_default();
                v.push(i);
                if v.len() > 4 * MAX_CANDIDATES {
                    v.drain(..2 * MAX_CANDIDATES);
                }
            }
            i += 1;
        }
    }
    out
}

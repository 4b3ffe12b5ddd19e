//! Base58 over a caller-chosen alphabet, for the chains' address text:
//! Tezos renders with Bitcoin's alphabet, XRP with Ripple's.
//!
//! Payloads are big-endian numbers of at most 16 bytes. As in
//! base58check, each leading zero byte becomes one leading zero digit.
//! Both chains encode the same payload: a 64-bit account id plus a 2-byte
//! checksum ([`id_payload`] / [`id_from_payload`]).

use crate::ids::fnv1a64;
use std::fmt;

/// 58^10, the largest power of 58 that fits a `u64`: encoding peels
/// chunks of ten digits off the `u128` so the digit loop divides `u64`s.
const CHUNK: u64 = 430_804_206_899_405_824;
/// Longest encoding of a 16-byte payload (22 digits) plus slack.
const MAX_DIGITS: usize = 40;
/// Marks a byte outside the alphabet in [`Alphabet`]'s decode table.
const INVALID: u8 = u8::MAX;

/// A base58 alphabet with its decode table.
pub struct Alphabet {
    digits: [u8; 58],
    values: [u8; 256],
}

impl Alphabet {
    pub const fn new(digits: &[u8; 58]) -> Self {
        let mut values = [INVALID; 256];
        let mut i = 0;
        while i < 58 {
            values[digits[i] as usize] = i as u8;
            i += 1;
        }
        Alphabet { digits: *digits, values }
    }

    /// Write `payload` (at most 16 bytes) to `out`, allocating nothing.
    pub fn write(&self, payload: &[u8], out: &mut impl fmt::Write) -> fmt::Result {
        assert!(payload.len() <= 16, "base58 payload of {} bytes exceeds 16", payload.len());
        let mut n = payload.iter().fold(0u128, |n, &b| n << 8 | u128::from(b));
        let (mut buf, mut start) = ([0u8; MAX_DIGITS], MAX_DIGITS);
        let mut push = |digit: u64| {
            start -= 1;
            buf[start] = self.digits[digit as usize];
        };
        while n >= u128::from(CHUNK) {
            let mut chunk = (n % u128::from(CHUNK)) as u64;
            n /= u128::from(CHUNK);
            for _ in 0..10 {
                push(chunk % 58);
                chunk /= 58;
            }
        }
        let mut top = n as u64;
        loop {
            push(top % 58);
            top /= 58;
            if top == 0 {
                break;
            }
        }
        for _ in payload.iter().take_while(|&&b| b == 0) {
            push(0);
        }
        out.write_str(std::str::from_utf8(&buf[start..]).expect("base58 alphabets are ASCII"))
    }

    /// Decode `s` into exactly `N` bytes; `None` on a byte outside the
    /// alphabet, a value that overflows 128 bits, or any other length.
    pub fn decode<const N: usize>(&self, s: &str) -> Option<[u8; N]> {
        let (mut n, mut leading) = (0u128, 0usize);
        for c in s.bytes() {
            let v = self.values[usize::from(c)];
            if v == INVALID {
                return None;
            }
            if n == 0 && v == 0 {
                leading += 1; // zero digits count only before the first other one
                continue;
            }
            n = n.checked_mul(58)?.checked_add(u128::from(v))?;
        }
        let len = (128 - n.leading_zeros() as usize).div_ceil(8);
        if leading + len != N {
            return None;
        }
        let mut out = [0u8; N];
        out[leading..].copy_from_slice(&n.to_be_bytes()[16 - len..]);
        Some(out)
    }
}

/// The payload an account id renders as: 8 big-endian id bytes plus the
/// low 2 bytes of their FNV-1a hash, big-endian.
pub fn id_payload(id: u64) -> [u8; 10] {
    let idb = id.to_be_bytes();
    let mut p = [0u8; 10];
    p[..8].copy_from_slice(&idb);
    p[8..].copy_from_slice(&((fnv1a64(&idb) & 0xffff) as u16).to_be_bytes());
    p
}

/// The id inside an [`id_payload`], or `None` when the checksum fails.
pub fn id_from_payload(p: &[u8; 10]) -> Option<u64> {
    let id = u64::from_be_bytes(p[..8].try_into().expect("8 id bytes"));
    (id_payload(id) == *p).then_some(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    const BITCOIN: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";
    const RIPPLE: &[u8; 58] = b"rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz";

    /// The original encoder, one `u128` division per digit: the oracle.
    fn reference_encode(digits: &[u8; 58], payload: &[u8]) -> String {
        let mut n: u128 = 0;
        for &b in payload {
            n = (n << 8) | b as u128;
        }
        let mut out = Vec::new();
        loop {
            out.push(digits[(n % 58) as usize]);
            n /= 58;
            if n == 0 {
                break;
            }
        }
        for &b in payload {
            if b == 0 {
                out.push(digits[0]);
            } else {
                break;
            }
        }
        out.reverse();
        String::from_utf8(out).expect("ASCII")
    }

    /// The original decoder, a linear alphabet search per digit, followed
    /// by the callers' length check.
    fn reference_decode<const N: usize>(digits: &[u8; 58], s: &str) -> Option<[u8; N]> {
        let mut n: u128 = 0;
        let mut leading = 0usize;
        let mut seen_nonzero = false;
        for c in s.bytes() {
            let v = digits.iter().position(|&b| b == c)? as u128;
            if !seen_nonzero {
                if v == 0 {
                    leading += 1;
                    continue;
                }
                seen_nonzero = true;
            }
            n = n.checked_mul(58)?.checked_add(v)?;
        }
        let mut bytes = Vec::new();
        while n > 0 {
            bytes.push((n & 0xff) as u8);
            n >>= 8;
        }
        bytes.extend(std::iter::repeat_n(0, leading));
        bytes.reverse();
        bytes.try_into().ok()
    }

    fn encode(alphabet: &Alphabet, payload: &[u8]) -> String {
        let mut out = String::new();
        alphabet.write(payload, &mut out).expect("writing to a String cannot fail");
        out
    }

    #[test]
    fn a_million_account_ids_match_the_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(58);
        for (digits, ids) in [(BITCOIN, 500_000), (RIPPLE, 500_000)] {
            let alphabet = Alphabet::new(digits);
            for k in 0..ids {
                // Every 16th id is small, so leading zero bytes show up.
                let id = if k % 16 == 0 {
                    rng.gen_range(0..1u64 << 20)
                } else {
                    rng.gen()
                };
                let payload = id_payload(id);
                let text = encode(&alphabet, &payload);
                assert_eq!(text, reference_encode(digits, &payload), "id {id}");
                let back = alphabet.decode::<10>(&text).expect("decodes");
                assert_eq!(id_from_payload(&back), Some(id));
            }
        }
    }

    #[test]
    fn edge_payloads_match_the_reference() {
        let payloads: [&[u8]; 8] = [
            &[],
            &[0],
            &[0, 0, 0],
            &[0, 0, 1],
            &[57],
            &[58],
            &[0xff; 16],
            &[0, 0, 0, 0, 0, 0, 0, 0, 0x12, 0x34],
        ];
        for digits in [BITCOIN, RIPPLE] {
            let alphabet = Alphabet::new(digits);
            for p in payloads {
                assert_eq!(encode(&alphabet, p), reference_encode(digits, p), "{p:?}");
            }
        }
    }

    #[test]
    fn decode_matches_the_reference_on_arbitrary_text() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(85);
        // Alphabet bytes of both alphabets plus bytes in neither.
        let pool = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyzrp0OIl+";
        for digits in [BITCOIN, RIPPLE] {
            let alphabet = Alphabet::new(digits);
            for _ in 0..20_000 {
                // A valid encoding of a payload with 0-9 leading zero
                // bytes, kept, changed in one place, or cut by one char.
                let mut p: [u8; 10] = std::array::from_fn(|_| rng.gen());
                p[..rng.gen_range(0..10usize)].fill(0);
                let mut text = encode(&alphabet, &p).into_bytes();
                let at = rng.gen_range(0..text.len());
                match rng.gen_range(0..3u8) {
                    0 => {}
                    1 => text[at] = pool[rng.gen_range(0..pool.len())],
                    _ => drop(text.remove(at)),
                }
                let s = String::from_utf8(text).expect("ASCII");
                assert_eq!(alphabet.decode::<10>(&s), reference_decode(digits, &s), "{s:?}");
                // Short random text: hits every length check of N = 3.
                let s: String =
                    (0..rng.gen_range(0..6usize)).map(|_| pool[rng.gen_range(0..pool.len())] as char).collect();
                assert_eq!(alphabet.decode::<3>(&s), reference_decode(digits, &s), "{s:?}");
            }
            // Past 128 bits: both overflow to `None`.
            let long = format!("1{}", "z".repeat(30));
            assert_eq!(alphabet.decode::<16>(&long), reference_decode(digits, &long));
        }
    }

    #[test]
    fn checksum_rejects_a_changed_payload() {
        let mut p = id_payload(123_456_789);
        assert_eq!(id_from_payload(&p), Some(123_456_789));
        p[3] ^= 1;
        assert_eq!(id_from_payload(&p), None);
    }
}

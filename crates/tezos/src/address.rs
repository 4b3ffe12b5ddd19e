//! Tezos addresses: implicit (`tz1…`) and originated (`KT1…`) accounts.
//!
//! §2.3.2: implicit accounts are key-pair derived and can bake/receive
//! stakes; originated accounts are created by implicit ones, can act as
//! smart contracts, and delegate to bakers. We keep a 64-bit internal id and
//! render it base58check-style with the production prefixes so addresses
//! look and parse like mainnet's.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use txstat_types::base58::{self, Alphabet};

/// Bitcoin's base58 alphabet, which Tezos uses.
static BASE58: Alphabet =
    Alphabet::new(b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz");

/// Address class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AddrKind {
    /// tz1 — key-pair account; can bake and be a delegate.
    Implicit,
    /// KT1 — originated account / smart contract.
    Originated,
}

/// A Tezos address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(into = "String", try_from = "String")]
pub struct Address {
    pub kind: AddrKind,
    pub id: u64,
}

impl Address {
    pub const fn implicit(id: u64) -> Self {
        Address { kind: AddrKind::Implicit, id }
    }

    pub const fn originated(id: u64) -> Self {
        Address { kind: AddrKind::Originated, id }
    }

    pub fn is_implicit(&self) -> bool {
        self.kind == AddrKind::Implicit
    }

    fn prefix(&self) -> &'static str {
        match self.kind {
            AddrKind::Implicit => "tz1",
            AddrKind::Originated => "KT1",
        }
    }
}

/// Address parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressError {
    BadPrefix,
    BadEncoding,
    BadChecksum,
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressError::BadPrefix => write!(f, "address must start with tz1 or KT1"),
            AddressError::BadEncoding => write!(f, "invalid base58 payload"),
            AddressError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for AddressError {}

impl txstat_types::colcodec::ColKey for Address {
    /// Wire column form: a one-byte kind tag (0 = implicit, 1 = originated)
    /// plus the 64-bit internal id.
    fn encode_key(&self, w: &mut txstat_types::colcodec::ColWriter) {
        w.byte(match self.kind {
            AddrKind::Implicit => 0,
            AddrKind::Originated => 1,
        });
        w.u64(self.id);
    }

    fn decode_key(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        let kind = match r.byte()? {
            0 => AddrKind::Implicit,
            1 => AddrKind::Originated,
            other => return Err(r.invalid(format!("bad address kind tag {other}"))),
        };
        Ok(Address { kind, id: r.u64()? })
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())?;
        BASE58.write(&base58::id_payload(self.id), f)
    }
}

impl FromStr for Address {
    type Err = AddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = if let Some(r) = s.strip_prefix("tz1") {
            (AddrKind::Implicit, r)
        } else if let Some(r) = s.strip_prefix("KT1") {
            (AddrKind::Originated, r)
        } else {
            return Err(AddressError::BadPrefix);
        };
        let payload = BASE58.decode::<10>(rest).ok_or(AddressError::BadEncoding)?;
        let id = base58::id_from_payload(&payload).ok_or(AddressError::BadChecksum)?;
        Ok(Address { kind, id })
    }
}

impl From<Address> for String {
    fn from(a: Address) -> String {
        a.to_string()
    }
}

impl TryFrom<String> for Address {
    type Error = AddressError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        s.parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_and_prefixes() {
        let a = Address::implicit(42);
        let s = a.to_string();
        assert!(s.starts_with("tz1"), "{s}");
        assert_eq!(s.parse::<Address>().unwrap(), a);

        let k = Address::originated(7_000_000);
        let ks = k.to_string();
        assert!(ks.starts_with("KT1"), "{ks}");
        assert_eq!(ks.parse::<Address>().unwrap(), k);
    }

    #[test]
    fn checksum_detects_corruption() {
        let s = Address::implicit(123456789).to_string();
        // Flip one payload character to another alphabet character.
        let mut chars: Vec<char> = s.chars().collect();
        let last = chars.len() - 1;
        chars[last] = if chars[last] == '2' { '3' } else { '2' };
        let corrupted: String = chars.into_iter().collect();
        assert!(matches!(
            corrupted.parse::<Address>(),
            Err(AddressError::BadChecksum) | Err(AddressError::BadEncoding)
        ));
    }

    #[test]
    fn rejects_bad_prefix() {
        assert_eq!("xyz9aaaa".parse::<Address>(), Err(AddressError::BadPrefix));
        assert_eq!(
            "tz10O".parse::<Address>(), // 'O' and '0' are not base58
            Err(AddressError::BadEncoding)
        );
    }

    #[test]
    fn serde_as_string() {
        let a = Address::implicit(99);
        let j = serde_json::to_string(&a).unwrap();
        let back: Address = serde_json::from_str(&j).unwrap();
        assert_eq!(back, a);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(id in any::<u64>(), originated in any::<bool>()) {
            let a = if originated { Address::originated(id) } else { Address::implicit(id) };
            let s = a.to_string();
            prop_assert_eq!(s.parse::<Address>().unwrap(), a);
        }
    }
}

//! XRP ledger account addresses (`r…`).
//!
//! §2.3.3: accounts are identified by addresses derived from key pairs, plus
//! a handful of "special addresses" not derived from any key (funds sent
//! there are permanently lost). We keep a 64-bit id and render it
//! base58check-style with the `r` prefix using the *Ripple* base58 alphabet
//! (which differs from Bitcoin's — it starts `rpshnaf…`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use txstat_types::base58::{self, Alphabet};

/// Ripple's base58 alphabet.
static RIPPLE_B58: Alphabet =
    Alphabet::new(b"rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz");

/// A ledger account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(into = "String", try_from = "String")]
pub struct AccountId(pub u64);

impl AccountId {
    /// ACCOUNT_ZERO — the canonical special address (base of `rrrrr…`);
    /// funds sent here are unrecoverable.
    pub const ACCOUNT_ZERO: AccountId = AccountId(0);

    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Special addresses have no key pair; we reserve ids < 16.
    pub fn is_special(self) -> bool {
        self.0 < 16
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
            AddressError::BadPrefix => write!(f, "address must start with r"),
            AddressError::BadEncoding => write!(f, "invalid base58 payload"),
            AddressError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for AddressError {}

impl txstat_types::colcodec::ColKey for AccountId {
    /// Wire column form: the raw 64-bit id.
    fn encode_key(&self, w: &mut txstat_types::colcodec::ColWriter) {
        w.u64(self.0);
    }

    fn decode_key(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        Ok(AccountId(r.u64()?))
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("r")?;
        RIPPLE_B58.write(&base58::id_payload(self.0), f)
    }
}

impl FromStr for AccountId {
    type Err = AddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s.strip_prefix('r').ok_or(AddressError::BadPrefix)?;
        let payload = RIPPLE_B58.decode::<10>(rest).ok_or(AddressError::BadEncoding)?;
        let id = base58::id_from_payload(&payload).ok_or(AddressError::BadChecksum)?;
        Ok(AccountId(id))
    }
}

impl From<AccountId> for String {
    fn from(a: AccountId) -> String {
        a.to_string()
    }
}

impl TryFrom<String> for AccountId {
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
    fn renders_with_r_prefix() {
        let a = AccountId(424242);
        let s = a.to_string();
        assert!(s.starts_with('r'), "{s}");
        assert_eq!(s.parse::<AccountId>().unwrap(), a);
    }

    #[test]
    fn account_zero_is_special() {
        assert!(AccountId::ACCOUNT_ZERO.is_special());
        assert!(!AccountId(1000).is_special());
        let s = AccountId::ACCOUNT_ZERO.to_string();
        // Payload is 8 zero bytes + checksum of zeros → leading 'r's preserved.
        assert!(s.starts_with("rrrr"), "{s}");
        assert_eq!(s.parse::<AccountId>().unwrap(), AccountId::ACCOUNT_ZERO);
    }

    #[test]
    fn rejects_corruption() {
        let s = AccountId(987654321).to_string();
        let mut chars: Vec<char> = s.chars().collect();
        let last = chars.len() - 1;
        chars[last] = if chars[last] == 'z' { 'y' } else { 'z' };
        let corrupted: String = chars.into_iter().collect();
        assert!(corrupted.parse::<AccountId>().is_err());
        assert_eq!(
            "xnotanaddr".parse::<AccountId>(),
            Err(AddressError::BadPrefix)
        );
        // '0', 'O', 'I', 'l' are not in the ripple alphabet.
        assert_eq!("r0O".parse::<AccountId>(), Err(AddressError::BadEncoding));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(id in any::<u64>()) {
            let a = AccountId(id);
            prop_assert_eq!(a.to_string().parse::<AccountId>().unwrap(), a);
        }
    }
}

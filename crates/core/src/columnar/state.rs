//! Decode-time hardening shared by the columnar accumulators: the id
//! bounds checks every [`super::WireState`] decoder runs before a decoded
//! state may be merged, finalized, or folded further.

/// Bound-check an id-indexed vector against the interner that issued its
/// ids: a wire state referencing ids the interner never assigned would
/// panic resolution/merge instead of erroring. The decoder wraps the
/// message into a typed `ColError`.
pub(crate) fn check_idvec<T>(
    v: &super::tables::IdVec<T>,
    interned: usize,
    what: &str,
) -> Result<(), String> {
    if v.slot_count() > interned {
        return Err(format!(
            "{what}: {} id slots but only {interned} interned keys",
            v.slot_count()
        ));
    }
    Ok(())
}

/// Bound-check both id columns of a pair table (`u32::MAX` = unbounded,
/// for pair sides that carry raw values rather than interned ids).
pub(crate) fn check_pairs(
    t: &super::tables::PairTable,
    bound_a: u32,
    bound_b: u32,
    what: &str,
) -> Result<(), String> {
    for (a, b, _) in t.iter() {
        if (bound_a != u32::MAX && a >= bound_a) || (bound_b != u32::MAX && b >= bound_b) {
            return Err(format!("{what}: pair ({a}, {b}) outside interned id range"));
        }
    }
    Ok(())
}

/// Bound-check a sparse series table's encoded keys (`0` = "no key",
/// `id + 1` otherwise).
pub(crate) fn check_series(
    s: &super::SeriesTable,
    interned: u32,
    what: &str,
) -> Result<(), String> {
    for (enc, _bucket) in s.encoded_keys() {
        if enc > interned {
            return Err(format!("{what}: encoded key {enc} outside interned id range"));
        }
    }
    Ok(())
}

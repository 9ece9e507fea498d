//! Identifier types shared across the model.

use std::fmt;

/// A database object (the paper equates objects with pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u64);

impl ObjId {
    /// The 4-byte form in which the simulator stores object ids: the
    /// transaction arena, the lock table and the [`ObjMap`](crate::ObjMap)
    /// index keep ids this wide, and widen them back with
    /// `ObjId::from(u32)`. [`Params::validate`](crate::Params::validate)
    /// bounds `db_size` by [`Params::MAX_DB_SIZE`](crate::Params::MAX_DB_SIZE),
    /// so every id of a validated run fits.
    ///
    /// # Panics
    /// Panics if the id does not fit in 32 bits.
    #[inline]
    #[must_use]
    pub fn narrow(self) -> u32 {
        u32::try_from(self.0).expect("object id fits in 32 bits (db_size ≤ 2^32 − 1)")
    }
}

impl From<u32> for ObjId {
    /// Widen a stored 4-byte id (see [`ObjId::narrow`]).
    #[inline]
    fn from(stored: u32) -> ObjId {
        ObjId(u64::from(stored))
    }
}

/// A transaction. Identifiers are unique across the whole run (a restarted
/// transaction keeps its id; a *new* transaction from the same terminal gets
/// a fresh one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A terminal (the source of transactions; `num_terms` of them exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "term{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ObjId(3).to_string(), "obj3");
        assert_eq!(TxnId(9).to_string(), "txn9");
        assert_eq!(TermId(1).to_string(), "term1");
    }

    #[test]
    fn ordering_and_hashing_work() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ObjId(1));
        s.insert(ObjId(1));
        assert_eq!(s.len(), 1);
        assert!(TxnId(1) < TxnId(2));
    }
}

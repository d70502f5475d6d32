//! Keyed wrappers around the register wire protocol.

use sbft_core::messages::{ClientEvent, Msg};

/// A key of the store. Applications hash richer keys down to this.
pub type Key = u64;

/// A register-protocol message scoped to one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvMsg<T> {
    /// The key whose register this message belongs to.
    pub key: Key,
    /// The underlying register-protocol message.
    pub inner: Msg<T>,
}

impl<T> KvMsg<T> {
    /// Wrap a register message under a key.
    pub fn new(key: Key, inner: Msg<T>) -> Self {
        Self { key, inner }
    }
}

/// A client event scoped to one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvEvent<T> {
    /// The key the operation targeted.
    pub key: Key,
    /// The underlying client event.
    pub inner: ClientEvent<T>,
}

impl<T> From<KvEvent<T>> for ClientEvent<T> {
    fn from(ev: KvEvent<T>) -> Self {
        ev.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_round_trip() {
        let m: KvMsg<u64> = KvMsg::new(7, Msg::GetTs);
        assert_eq!(m.key, 7);
        assert_eq!(m.clone(), m);
    }
}

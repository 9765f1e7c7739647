//! HMAC-SHA256 (RFC 2104).
//!
//! Besides message authentication, the study uses HMAC as a deterministic
//! PRF: per-entity key material and per-event randomness are derived as
//! `HMAC(seed, label)`, which keeps every simulation run reproducible.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// Compute HMAC-SHA256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    hmac_sha256_parts(key, &[data])
}

/// HMAC-SHA256 under `key` of the concatenation of `parts`, streamed
/// into the hash so the message is never assembled in memory.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        let mut h = Sha256::new();
        h.update(key);
        k[..32].copy_from_slice(&h.finalize());
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    for part in parts {
        inner.update(part);
    }
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// A deterministic byte stream derived from a seed via HMAC in counter
/// mode: block *i* is `HMAC(seed, label || i_be)`. Used wherever the
/// simulation needs "randomness" attributable to a stable identity.
pub struct Prf {
    seed: Vec<u8>,
    label: Vec<u8>,
    counter: u64,
    buffer: [u8; 32],
    used: usize,
}

impl Prf {
    /// Create a PRF stream for (`seed`, `label`).
    pub fn new(seed: &[u8], label: &[u8]) -> Prf {
        Prf {
            seed: seed.to_vec(),
            label: label.to_vec(),
            counter: 0,
            buffer: [0; 32],
            used: 32,
        }
    }

    /// Fill `out` with the next bytes of the stream.
    pub fn fill(&mut self, out: &mut [u8]) {
        for byte in out {
            if self.used == 32 {
                let mut msg = self.label.clone();
                msg.extend_from_slice(&self.counter.to_be_bytes());
                self.buffer = hmac_sha256(&self.seed, &msg);
                self.counter += 1;
                self.used = 0;
            }
            *byte = self.buffer[self.used];
            self.used += 1;
        }
    }

    /// Next 8 bytes of the stream as a `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_equal_the_concatenated_message() {
        let data = b"what do ya want for nothing?";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(
                hmac_sha256_parts(b"Jefe", &[a, b, &[]]),
                hmac_sha256(b"Jefe", data)
            );
        }
        assert_eq!(hmac_sha256_parts(b"k", &[]), hmac_sha256(b"k", b""));
    }

    #[test]
    fn prf_is_deterministic_and_label_separated() {
        let mut a = Prf::new(b"seed", b"label-1");
        let mut b = Prf::new(b"seed", b"label-1");
        let mut c = Prf::new(b"seed", b"label-2");
        let (mut x, mut y, mut z) = ([0u8; 100], [0u8; 100], [0u8; 100]);
        a.fill(&mut x);
        b.fill(&mut y);
        c.fill(&mut z);
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn prf_chunking_is_stream_stable() {
        let mut a = Prf::new(b"s", b"l");
        let mut one = [0u8; 96];
        a.fill(&mut one);
        let mut b = Prf::new(b"s", b"l");
        let mut parts = [0u8; 96];
        for chunk in parts.chunks_mut(7) {
            b.fill(chunk);
        }
        assert_eq!(one, parts);
    }
}

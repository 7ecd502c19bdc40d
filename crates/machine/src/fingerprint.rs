//! Stable content fingerprints for machine specifications.
//!
//! The sweep-engine cache (in `xtsim-core`) keys results by the *content* of
//! the machine being simulated, not by preset name: an `xt4()` whose NIC
//! eager threshold was tweaked must hash differently from the stock preset.
//! Specs are serialized to canonical JSON (object keys sorted, integral
//! floats printed with a trailing `.0`) and hashed with FNV-1a, so the
//! fingerprint is independent of struct field order and stable across
//! processes and runs — there is no randomized hasher state anywhere in the
//! path.

use crate::spec::{ExecMode, MachineSpec};

/// FNV-1a offset basis (the standard 64-bit one).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, distinct basis so callers can derive a 128-bit digest from two
/// independent 64-bit passes.
pub const FNV_OFFSET_BASIS_ALT: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, starting from `basis`.
pub fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit hex digest of `text`: two independent FNV-1a passes concatenated,
/// run side by side in one walk over the bytes.
pub fn hex_digest(text: &str) -> String {
    let (mut a, mut b) = (FNV_OFFSET_BASIS, FNV_OFFSET_BASIS_ALT);
    for &byte in text.as_bytes() {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    format!("{a:016x}{b:016x}")
}

impl MachineSpec {
    /// Content fingerprint over the canonical JSON encoding of every spec
    /// field. Two specs compare equal here iff every parameter matches.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("MachineSpec serializes");
        fnv1a64(json.as_bytes(), FNV_OFFSET_BASIS)
    }
}

impl ExecMode {
    /// Content fingerprint of the execution mode (folds the mode label).
    pub fn fingerprint(self) -> u64 {
        fnv1a64(self.label().as_bytes(), FNV_OFFSET_BASIS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn presets_have_distinct_fingerprints() {
        let specs = [
            presets::xt3_single(),
            presets::xt3_dual(),
            presets::xt4(),
            presets::xt4_quad(),
        ];
        for (i, a) in specs.iter().enumerate() {
            for b in specs.iter().skip(i + 1) {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{} vs {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn clone_preserves_fingerprint_and_field_change_breaks_it() {
        let m = presets::xt4();
        assert_eq!(m.fingerprint(), m.clone().fingerprint());
        let mut tweaked = m.clone();
        tweaked.nic.eager_threshold_bytes += 1;
        assert_ne!(m.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vector: FNV-1a("a") with the standard basis.
        assert_eq!(fnv1a64(b"a", FNV_OFFSET_BASIS), 0xaf63dc4c8601ec8c);
        assert_eq!(hex_digest("").len(), 32);
    }

    #[test]
    fn hex_digest_is_two_fnv_passes() {
        let key = serde_json::to_string(&presets::xt4()).unwrap();
        for text in ["", "a", "{\"seed\":7}", "caf\u{e9} \u{1f600}", key.as_str()] {
            let two_passes = format!(
                "{:016x}{:016x}",
                fnv1a64(text.as_bytes(), FNV_OFFSET_BASIS),
                fnv1a64(text.as_bytes(), FNV_OFFSET_BASIS_ALT)
            );
            assert_eq!(hex_digest(text), two_passes, "{text:?}");
        }
    }

    #[test]
    fn modes_differ() {
        assert_ne!(ExecMode::SN.fingerprint(), ExecMode::VN.fingerprint());
    }
}

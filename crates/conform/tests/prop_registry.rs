//! Hostile-input property for the golden registry `conform --registry`
//! reads: arbitrary text and damaged copies of the committed
//! `conform/golden.json` parse to `Ok` or `Err`, never a panic.

use essio_conform::GoldenRegistry;
use proptest::prelude::*;

const GOLDEN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../conform/golden.json"
));

/// Bytes JSON is made of, so arbitrary text reaches past the first token.
const JSON_BYTES: &[u8] = b"{}[]\":,0123456789-+.eE \ntruefalsnull\\u";

/// Text of up to 512 characters, about half drawn from [`JSON_BYTES`].
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<bool>(), any::<u8>()), 0..512).prop_map(|v| {
        let bytes: Vec<u8> = v
            .into_iter()
            .map(|(json, b)| {
                if json {
                    JSON_BYTES[b as usize % JSON_BYTES.len()]
                } else {
                    b
                }
            })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Apply 1–4 edits `(kind, position, byte)` to `data`: kind 0 flips the
/// bits of `byte` at the position, 1 overwrites it, 2 truncates there.
fn mutate(mut data: Vec<u8>, edits: &[(u8, u32, u8)]) -> String {
    for &(kind, at, byte) in edits {
        if data.is_empty() {
            break;
        }
        let i = at as usize % data.len();
        match kind {
            0 => data[i] ^= byte,
            1 => data[i] = byte,
            _ => data.truncate(i),
        }
    }
    String::from_utf8_lossy(&data).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn registry_parse_never_panics_on_arbitrary_text(s in text()) {
        let _ = GoldenRegistry::from_json(&s);
    }

    #[test]
    fn registry_parse_never_panics_on_a_mutated_golden(
        edits in prop::collection::vec((0u8..3, any::<u32>(), 1u8..=255), 1..=4),
    ) {
        let _ = GoldenRegistry::from_json(&mutate(GOLDEN.as_bytes().to_vec(), &edits));
    }
}

#[test]
fn the_committed_golden_parses() {
    assert!(GoldenRegistry::from_json(GOLDEN).is_ok());
}

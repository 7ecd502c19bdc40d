//! The writer against the algorithm it replaced. `to_string` and
//! `to_string_pretty` must produce, byte for byte, what the old writer
//! produced (a `format!` per float, a `to_string` per int, strings pushed
//! char by char) for random strings with quotes, backslashes, control and
//! non-BMP characters, for ints, and for integral, exponent-range, signed
//! zero and subnormal floats.

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde::Value;

/// The writer before numbers and string runs went straight into the
/// output buffer: the oracle.
fn oracle(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => oracle_float(out, *f),
        Value::Str(s) => oracle_string(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                oracle_indent(out, indent, depth + 1);
                oracle(out, e, indent, depth + 1);
            }
            oracle_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                oracle_indent(out, indent, depth + 1);
                oracle_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                oracle(out, e, indent, depth + 1);
            }
            oracle_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn oracle_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn oracle_float(out: &mut String, f: f64) {
    if f.is_nan() || f.is_infinite() {
        out.push_str("null");
    } else {
        let s = format!("{f}");
        out.push_str(&s);
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    }
}

fn oracle_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Both writers on `v`, compact and pretty.
fn assert_same_bytes(v: &Value) {
    for indent in [None, Some(2)] {
        let mut want = String::new();
        oracle(&mut want, v, indent, 0);
        let got = match indent {
            None => serde_json::to_string(v),
            Some(_) => serde_json::to_string_pretty(v),
        }
        .unwrap();
        assert_eq!(got, want, "indent {indent:?}");
    }
}

/// Characters the writer treats differently: the quote, the backslash, the
/// named escapes, other control characters, DEL, two- and three-byte UTF-8
/// and non-BMP characters.
const SPECIAL: [char; 12] =
    ['"', '\\', '\n', '\r', '\t', '\0', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '\u{1d11e}', '\u{1f600}'];

/// Floats whose shortest form is integral, very large, very small, a signed
/// zero or subnormal.
const EDGE_FLOATS: [f64; 20] = [
    0.0,
    -0.0,
    1.0,
    -2.0,
    1e15,
    1e16,
    1e21,
    1e22,
    1.5e300,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    5e-324,
    // The largest subnormal, negated.
    -f64::from_bits(0x000f_ffff_ffff_ffff),
    1e-7,
    123_456_789_012_345_680.0,
    3.854_002_000_000_000_4,
    0.1,
    f64::NAN,
    f64::NEG_INFINITY,
];

fn string_from(draws: &[u32]) -> String {
    draws
        .iter()
        .map(|&d| match d % 4 {
            0 => SPECIAL[(d / 4) as usize % SPECIAL.len()],
            1 => char::from_u32(d / 4 % 0x20).expect("control character"),
            2 => char::from_u32(0x20 + d / 4 % 0x5f).expect("printable ASCII"),
            _ => char::from_u32(d / 4 % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn float_from(bits: u64) -> f64 {
    match bits % 3 {
        0 => EDGE_FLOATS[(bits / 3) as usize % EDGE_FLOATS.len()],
        // Any bit pattern: NaN, infinities, subnormals, huge exponents.
        1 => f64::from_bits(bits),
        _ => (bits >> 11) as f64 * if bits & 4 == 0 { 1.0 } else { -1.0 },
    }
}

type Atom = (u8, u64, Vec<u32>);

/// An object holding the atoms as an array and as keyed fields, with one
/// nested level per atom of kind 3.
fn value_from(atoms: &[Atom]) -> Value {
    let leaf = |(kind, bits, draws): &Atom| match kind % 4 {
        0 => Value::Str(string_from(draws)),
        1 => Value::Int(*bits as i64),
        2 => Value::Float(float_from(*bits)),
        _ => {
            let inner = vec![
                Value::Int(*bits as i64),
                Value::Float(float_from(bits.rotate_left(17))),
                Value::Str(string_from(draws)),
                Value::Bool(bits & 1 == 1),
                Value::Null,
                Value::Array(Vec::new()),
                Value::Object(BTreeMap::new()),
            ];
            let mut m = BTreeMap::new();
            m.insert(string_from(draws), Value::Array(inner));
            Value::Object(m)
        }
    };
    let fields: BTreeMap<String, Value> = atoms
        .iter()
        .enumerate()
        .map(|(i, a)| (format!("{}{i}", string_from(&a.2)), leaf(a)))
        .collect();
    let mut top = BTreeMap::new();
    top.insert("array".to_string(), Value::Array(atoms.iter().map(leaf).collect()));
    top.insert("fields".to_string(), Value::Object(fields));
    Value::Object(top)
}

#[test]
fn edge_numbers_and_escapes_match_the_old_writer() {
    let mut values: Vec<Value> = EDGE_FLOATS.iter().map(|&f| Value::Float(f)).collect();
    values.extend([i64::MIN, -1, 0, 1, i64::MAX].map(Value::Int));
    values.push(Value::Str(SPECIAL.iter().collect()));
    values.push(Value::Str((0u32..0x20).filter_map(char::from_u32).collect()));
    values.push(Value::Str(String::new()));
    for v in &values {
        assert_same_bytes(v);
    }
    assert_same_bytes(&Value::Array(values));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_the_old_algorithm(
        atoms in prop::collection::vec(
            (0u8..4, any::<u64>(), prop::collection::vec(any::<u32>(), 0..24)),
            0..16,
        )
    ) {
        assert_same_bytes(&value_from(&atoms));
    }
}

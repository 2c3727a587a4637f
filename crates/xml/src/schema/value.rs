//! Lexical validation of simple-type values.
//!
//! Character-by-character validation of built-in type lexical spaces plus
//! facet checking — exactly the string-crunching work the paper identifies
//! as the core of XML content processing. All checks are traced as per-byte
//! ALU work; enumeration compares and patterns add loads of the schema's
//! STATIC-resident facet data.

use super::types::{BuiltinType, Facets};
use aon_trace::{br, site, Probe};

/// Validate `value` against a built-in type's lexical space.
pub fn check_builtin<P: Probe>(ty: BuiltinType, value: &[u8], p: &mut P) -> bool {
    match ty {
        BuiltinType::String | BuiltinType::Token | BuiltinType::AnyUri => {
            // Any byte sequence (URI checked loosely: no spaces).
            if ty == BuiltinType::AnyUri {
                let mut ok = true;
                for &b in value {
                    p.alu(1);
                    if br!(p, 0x3381_4625, b == b' ') {
                        ok = false;
                        break;
                    }
                }
                ok
            } else {
                p.alu(1);
                true
            }
        }
        BuiltinType::Integer => parse_int(value, p).is_some(),
        BuiltinType::NonNegativeInteger => parse_int(value, p).is_some_and(|v| v >= 0),
        BuiltinType::PositiveInteger => parse_int(value, p).is_some_and(|v| v > 0),
        BuiltinType::Decimal => check_decimal(value, p),
        BuiltinType::Boolean => {
            p.alu(2);
            matches!(trim(value), b"true" | b"false" | b"1" | b"0")
        }
        BuiltinType::Date => check_date(value, p),
    }
}

/// Validate facets. `numeric_value` is pre-parsed when the base is numeric.
pub fn check_facets<P: Probe>(facets: &Facets, value: &[u8], p: &mut P) -> bool {
    let v = trim(value);
    if let Some(len) = facets.length {
        p.alu(1);
        if br!(p, 0x3de5_33c5, v.len() as u32 != len) {
            return false;
        }
    }
    if let Some(min) = facets.min_length {
        p.alu(1);
        if br!(p, 0x3aa8_06fb, (v.len() as u32) < min) {
            return false;
        }
    }
    if let Some(max) = facets.max_length {
        p.alu(1);
        if br!(p, 0x3cd6_8f29, v.len() as u32 > max) {
            return false;
        }
    }
    if !facets.enumeration.is_empty() {
        // Compare against each enum literal until a hit (schema literals
        // live in STATIC and are warm).
        let mut hit = false;
        for lit in &facets.enumeration {
            p.alu((v.len().min(lit.len()).max(1) as u32).div_ceil(4) + 1);
            if br!(p, 0x4697_68df, lit.as_slice() == v) {
                hit = true;
                break;
            }
        }
        if !hit {
            return false;
        }
    }
    if let Some(pat) = &facets.pattern {
        if !br!(p, 0x4492_e672, pat.matches(v, p)) {
            return false;
        }
    }
    if facets.min_inclusive.is_some() || facets.max_inclusive.is_some() {
        let Some(n) = parse_int(v, p) else {
            return false;
        };
        if let Some(min) = facets.min_inclusive {
            p.alu(1);
            if br!(p, 0x47a2_be63, n < min) {
                return false;
            }
        }
        if let Some(max) = facets.max_inclusive {
            p.alu(1);
            if br!(p, 0x4336_c4e9, n > max) {
                return false;
            }
        }
    }
    true
}

/// Strip XML whitespace from both ends (the `collapse` whitespace facet of
/// most built-ins, simplified).
pub fn trim(value: &[u8]) -> &[u8] {
    let mut start = 0;
    let mut end = value.len();
    while start < end && value[start].is_ascii_whitespace() {
        start += 1;
    }
    while end > start && value[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    &value[start..end]
}

/// Traced integer parse: sign + per-digit multiply-accumulate.
pub fn parse_int<P: Probe>(value: &[u8], p: &mut P) -> Option<i64> {
    let v = trim(value);
    p.alu(2);
    if v.is_empty() {
        p.branch(site!(0x4f0e_faa6), false);
        return None;
    }
    let (neg, digits) = match v[0] {
        b'-' => (true, &v[1..]),
        b'+' => (false, &v[1..]),
        _ => (false, v),
    };
    if digits.is_empty() {
        return None;
    }
    let mut acc: i64 = 0;
    for &b in digits {
        p.alu(3); // range check + mul + add
        if !br!(p, 0x10eb_50c1, b.is_ascii_digit()) {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_add((b - b'0') as i64)?;
    }
    Some(if neg { -acc } else { acc })
}

fn check_decimal<P: Probe>(value: &[u8], p: &mut P) -> bool {
    let v = trim(value);
    p.alu(2);
    if v.is_empty() {
        return false;
    }
    let body = match v[0] {
        b'-' | b'+' => &v[1..],
        _ => v,
    };
    if body.is_empty() {
        return false;
    }
    let mut seen_dot = false;
    let mut seen_digit = false;
    for &b in body {
        p.alu(2);
        if br!(p, 0x19b6_dbcf, b == b'.') {
            if seen_dot {
                return false;
            }
            seen_dot = true;
        } else if br!(p, 0x1fbd_37c5, b.is_ascii_digit()) {
            seen_digit = true;
        } else {
            return false;
        }
    }
    seen_digit
}

fn check_date<P: Probe>(value: &[u8], p: &mut P) -> bool {
    // CCYY-MM-DD with basic range checks.
    let v = trim(value);
    p.alu(2);
    if v.len() != 10 || v[4] != b'-' || v[7] != b'-' {
        p.branch(site!(0x2478_410c), false);
        return false;
    }
    for (i, &b) in v.iter().enumerate() {
        p.alu(1);
        if i == 4 || i == 7 {
            continue;
        }
        if !br!(p, 0x1b4d_62ed, b.is_ascii_digit()) {
            return false;
        }
    }
    let month = (v[5] - b'0') * 10 + (v[6] - b'0');
    let day = (v[8] - b'0') * 10 + (v[9] - b'0');
    p.alu(4);
    (1..=12).contains(&month) && (1..=31).contains(&day)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::NullProbe;

    fn np() -> NullProbe {
        NullProbe
    }

    #[test]
    fn integers() {
        assert!(check_builtin(BuiltinType::Integer, b"42", &mut np()));
        assert!(check_builtin(BuiltinType::Integer, b"-7", &mut np()));
        assert!(check_builtin(BuiltinType::Integer, b" 13 ", &mut np()));
        assert!(!check_builtin(BuiltinType::Integer, b"", &mut np()));
        assert!(!check_builtin(BuiltinType::Integer, b"1.5", &mut np()));
        assert!(!check_builtin(BuiltinType::Integer, b"x", &mut np()));
        assert!(!check_builtin(BuiltinType::Integer, b"-", &mut np()));
    }

    #[test]
    fn integer_subtypes() {
        assert!(check_builtin(BuiltinType::NonNegativeInteger, b"0", &mut np()));
        assert!(!check_builtin(BuiltinType::NonNegativeInteger, b"-1", &mut np()));
        assert!(check_builtin(BuiltinType::PositiveInteger, b"1", &mut np()));
        assert!(!check_builtin(BuiltinType::PositiveInteger, b"0", &mut np()));
    }

    #[test]
    fn decimals() {
        assert!(check_builtin(BuiltinType::Decimal, b"3.14", &mut np()));
        assert!(check_builtin(BuiltinType::Decimal, b"-0.5", &mut np()));
        assert!(check_builtin(BuiltinType::Decimal, b"10", &mut np()));
        assert!(!check_builtin(BuiltinType::Decimal, b"1.2.3", &mut np()));
        assert!(!check_builtin(BuiltinType::Decimal, b".", &mut np()));
        assert!(!check_builtin(BuiltinType::Decimal, b"1e5", &mut np()));
    }

    #[test]
    fn booleans() {
        for ok in [&b"true"[..], b"false", b"1", b"0", b" true "] {
            assert!(check_builtin(BuiltinType::Boolean, ok, &mut np()));
        }
        assert!(!check_builtin(BuiltinType::Boolean, b"TRUE", &mut np()));
        assert!(!check_builtin(BuiltinType::Boolean, b"yes", &mut np()));
    }

    #[test]
    fn dates() {
        assert!(check_builtin(BuiltinType::Date, b"2007-03-14", &mut np()));
        assert!(!check_builtin(BuiltinType::Date, b"2007-13-14", &mut np()));
        assert!(!check_builtin(BuiltinType::Date, b"2007-00-14", &mut np()));
        assert!(!check_builtin(BuiltinType::Date, b"2007-3-14", &mut np()));
        assert!(!check_builtin(BuiltinType::Date, b"20070314", &mut np()));
    }

    #[test]
    fn any_uri() {
        assert!(check_builtin(BuiltinType::AnyUri, b"http://example.com/a?b=c", &mut np()));
        assert!(!check_builtin(BuiltinType::AnyUri, b"has space", &mut np()));
    }

    #[test]
    fn length_facets() {
        let f = Facets { min_length: Some(2), max_length: Some(4), ..Default::default() };
        assert!(!check_facets(&f, b"a", &mut np()));
        assert!(check_facets(&f, b"ab", &mut np()));
        assert!(check_facets(&f, b"abcd", &mut np()));
        assert!(!check_facets(&f, b"abcde", &mut np()));
    }

    #[test]
    fn range_facets() {
        let f = Facets { min_inclusive: Some(1), max_inclusive: Some(10), ..Default::default() };
        assert!(check_facets(&f, b"1", &mut np()));
        assert!(check_facets(&f, b"10", &mut np()));
        assert!(!check_facets(&f, b"0", &mut np()));
        assert!(!check_facets(&f, b"11", &mut np()));
        assert!(!check_facets(&f, b"abc", &mut np()));
    }

    #[test]
    fn trim_works() {
        assert_eq!(trim(b"  x "), b"x");
        assert_eq!(trim(b""), b"");
        assert_eq!(trim(b"   "), b"");
        assert_eq!(trim(b"ab"), b"ab");
    }

    #[test]
    fn parse_int_overflow_is_none() {
        assert_eq!(parse_int(b"99999999999999999999999999", &mut np()), None);
    }
}

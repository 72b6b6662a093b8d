//! Attribute values.
//!
//! GraphQL (He & Singh) annotates nodes, edges, and graphs with *tuples*:
//! lists of name/value pairs. The grammar of the paper (Appendix 4.A)
//! admits integer, float, and string literals; we additionally support
//! booleans since predicates produce them and `where` clauses may want to
//! store them.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A scalar attribute value.
///
/// `Value` implements a *total* order (floats are ordered with
/// [`f64::total_cmp`]) so that values can be used as index keys in the
/// relational substrate and hashed in feasible-mate tables.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer literal, e.g. `year=2006`.
    Int(i64),
    /// 64-bit float literal.
    Float(f64),
    /// String literal, e.g. `name="A"`.
    Str(String),
    /// Boolean (result of predicate evaluation).
    Bool(bool),
}

impl Value {
    /// Returns the string contents if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as a float, coercing integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Truthiness used by `where` clauses: `Bool(b)` is `b`, any other
    /// value is an error at a higher level; this helper is lenient and
    /// treats non-zero numbers as true (SQL-ish), which the engine uses
    /// only after type checking.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
        }
    }

    /// Numeric comparison with int/float coercion; falls back to the
    /// total order for same-typed values and returns `None` for
    /// incomparable mixes (e.g. string vs int), mirroring the paper's
    /// implicit dynamic typing.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(float_cmp(*a, *b)),
            (Int(a), Float(b)) => Some(cmp_i64_f64(*a, *b)),
            (Float(a), Int(b)) => Some(cmp_i64_f64(*b, *a).reverse()),
            _ => None,
        }
    }

    /// Arithmetic addition with numeric coercion; string `+` concatenates.
    ///
    /// Integer arithmetic is *checked*: on i64 overflow the result is
    /// promoted to `Float` (approximate but correctly ordered) rather
    /// than silently wrapped, so predicates and composition-accumulated
    /// attributes never see a sign-flipped value.
    pub fn add(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.checked_add(*b).map_or(Float(*a as f64 + *b as f64), Int)),
            (Str(a), Str(b)) => Some(Str(format!("{a}{b}"))),
            _ => Some(Float(self.as_float()? + other.as_float()?)),
        }
    }

    /// Arithmetic subtraction with numeric coercion; overflow promotes
    /// to `Float` (see [`Value::add`]).
    pub fn sub(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.checked_sub(*b).map_or(Float(*a as f64 - *b as f64), Int)),
            _ => Some(Float(self.as_float()? - other.as_float()?)),
        }
    }

    /// Arithmetic multiplication with numeric coercion; overflow
    /// promotes to `Float` (see [`Value::add`]).
    pub fn mul(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.checked_mul(*b).map_or(Float(*a as f64 * *b as f64), Int)),
            _ => Some(Float(self.as_float()? * other.as_float()?)),
        }
    }

    /// Arithmetic division; integer division by zero yields `None`, and
    /// the single overflowing case (`i64::MIN / -1`) promotes to `Float`
    /// (see [`Value::add`]).
    pub fn div(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => {
                if *b == 0 {
                    None
                } else {
                    Some(a.checked_div(*b).map_or(Float(*a as f64 / *b as f64), Int))
                }
            }
            _ => Some(Float(self.as_float()? / other.as_float()?)),
        }
    }
}

/// IEEE comparison where possible (so `-0.0 == 0.0`), total order as the
/// NaN fallback so `Value` can still implement `Ord`.
fn float_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
}

/// Exact comparison of an `i64` against an `f64`, without rounding the
/// integer through a lossy `as f64` cast.
///
/// For |i| ≥ 2^53 the cast collapses distinct integers onto the same
/// float, which made `Int(2^53) == Float(2^53) == Int(2^53 + 1)` while
/// `Int(2^53) < Int(2^53 + 1)` — an intransitive `Eq`/`Ord` that
/// corrupts B-tree keys and sort order. Here the float is split into
/// integral and fractional parts instead, so every comparison is exact.
///
/// NaN placement follows [`f64::total_cmp`] (used by `float_cmp` for
/// float/float NaN pairs): negative NaN sorts below every real, positive
/// NaN above, keeping the merged numeric order transitive.
fn cmp_i64_f64(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    // All i64 lie strictly inside (-2^63 - 1, 2^63); floats at or beyond
    // those bounds (incl. ±inf) compare without looking at digits. Both
    // bounds are exactly representable, and -2^63 itself IS i64::MIN.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0; // 2^63
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    // b ∈ [-2^63, 2^63): trunc(b) fits in i64 exactly.
    let t = b.trunc() as i64;
    match a.cmp(&t) {
        Ordering::Equal => {
            let frac = b - b.trunc();
            // frac carries b's sub-integer part; sign decides the order.
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        ord => ord,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across types: bools < ints/floats (merged numerically)
    /// < strings. Needed so `Value` can key B-tree indexes.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match self.compare(other) {
            Some(ord) => ord,
            None => rank(self).cmp(&rank(other)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Int(i) == Float(f) only when f represents i exactly, and then
        // (i as f64) == f bit-for-bit (after -0.0 normalization), so
        // hashing all numerics through the f64 bit pattern stays
        // consistent with Eq. Distinct huge ints that round to the same
        // float merely collide, which is harmless.
        match self {
            Value::Bool(b) => {
                state.write_u8(0);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(1);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Float(f) => {
                state.write_u8(1);
                // Normalize -0.0 to 0.0 for hashing consistency with Eq.
                let f = if *f == 0.0 { 0.0 } else { *f };
                state.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn cross_type_ordering_is_total() {
        let mut vs = [
            Value::Str("z".into()),
            Value::Int(-1),
            Value::Bool(true),
            Value::Float(0.5),
            Value::Str("a".into()),
            Value::Bool(false),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Bool(false));
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(-1));
        assert_eq!(vs[3], Value::Float(0.5));
        assert_eq!(vs[4], Value::Str("a".into()));
        assert_eq!(vs[5], Value::Str("z".into()));
    }

    #[test]
    fn arithmetic_coercion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)),
            Some(Value::Float(2.5))
        );
        assert_eq!(
            Value::Str("ab".into()).add(&Value::Str("c".into())),
            Some(Value::Str("abc".into()))
        );
        assert_eq!(Value::Int(1).div(&Value::Int(0)), None);
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Some(Value::Int(3)));
        assert_eq!(Value::Int(6).mul(&Value::Int(7)), Some(Value::Int(42)));
        assert_eq!(Value::Int(6).sub(&Value::Int(7)), Some(Value::Int(-1)));
    }

    /// Pre-fix, `Int` was compared to `Float` via a lossy `as f64` cast:
    /// `Int(2^53 + 1)` compared `Equal` to `Float(2^53)` even though
    /// `Int(2^53)` also equals `Float(2^53)` — intransitive.
    #[test]
    fn large_int_float_comparison_is_exact() {
        const P53: i64 = 1 << 53; // 9007199254740992; 2^53 + 1 rounds to it
        assert_eq!(Value::Int(P53), Value::Float(P53 as f64));
        assert!(Value::Int(P53 + 1) > Value::Float(P53 as f64));
        assert!(Value::Float(P53 as f64) < Value::Int(P53 + 1));
        // i64::MAX as f64 rounds UP to 2^63; the exact comparison knows
        // the integer is smaller.
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(i64::MIN + 1) > Value::Float(i64::MIN as f64));
        // Fractional parts order correctly around an exact integer.
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Int(4) > Value::Float(3.5));
        assert!(Value::Int(-3) > Value::Float(-3.5));
        assert_eq!(Value::Int(0), Value::Float(-0.0));
        // Infinities and NaN bracket every integer (total_cmp placement).
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
    }

    /// Pre-fix, i64 arithmetic wrapped: `i64::MAX + 1` yielded
    /// `Int(i64::MIN)` inside predicates. Now overflow promotes to
    /// `Float`, which stays on the correct side of the number line.
    #[test]
    fn integer_overflow_promotes_to_float() {
        let max = Value::Int(i64::MAX);
        let sum = max.add(&Value::Int(1)).unwrap();
        assert_eq!(sum, Value::Float(i64::MAX as f64 + 1.0));
        assert!(sum > max, "overflowed sum must not wrap negative");
        // i64::MIN - 1 rounds back to -2^63 as a float; the point is it
        // stays negative instead of wrapping to +i64::MAX.
        let diff = Value::Int(i64::MIN).sub(&Value::Int(1)).unwrap();
        assert_eq!(diff, Value::Float(-9_223_372_036_854_775_808.0));
        assert!(diff < Value::Int(0));
        let prod = Value::Int(i64::MAX).mul(&Value::Int(2)).unwrap();
        assert!(prod > Value::Int(i64::MAX));
        let quot = Value::Int(i64::MIN).div(&Value::Int(-1)).unwrap();
        assert_eq!(quot, Value::Float(9_223_372_036_854_775_808.0));
        // Non-overflowing arithmetic still returns exact ints.
        assert_eq!(
            Value::Int(i64::MAX).add(&Value::Int(-1)),
            Some(Value::Int(i64::MAX - 1))
        );
    }

    #[test]
    fn incomparable_types_return_none() {
        assert_eq!(Value::Int(1).compare(&Value::Str("1".into())), None);
        assert!(Value::Int(1) != Value::Str("1".into()));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Int(2).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Str(String::new()).is_truthy());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Str("x".into()).to_string(), "\"x\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}

//! Printable constants.
//!
//! The paper assumes "a function associating to each printable object
//! label the appropriate set of constants (e.g., characters, strings,
//! numbers, booleans, but also drawings, graphics, sound, etc)". This
//! module supplies those constant domains:
//!
//! * [`Value`] — the constants themselves. `Eq + Ord + Hash` so instances
//!   can enforce the paper's printable-node uniqueness invariant
//!   (`print(n1) = print(n2) ⇒ n1 = n2`);
//! * [`ValueType`] — the domain tags a scheme attaches to each printable
//!   label (`String`, `Number`, `Date`, `Longstring`, `Bitmap`, ...).
//!
//! Dates get real calendar arithmetic ([`Date::to_days`]) because the
//! paper's method example `D` (Figure 23) computes the number of days
//! elapsed between two dates.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The domain of constants a printable label ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValueType {
    /// Character strings (the paper's `String` and `Longstring`).
    Str,
    /// Integers (the paper's `Number` where counts are stored).
    Int,
    /// Reals (e.g. frequencies).
    Real,
    /// Booleans.
    Bool,
    /// Calendar dates (the paper's `Date`).
    Date,
    /// Raw binary payloads (the paper's `Bitmap` / `Bitstream`).
    Bytes,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Str => "string",
            ValueType::Int => "int",
            ValueType::Real => "real",
            ValueType::Bool => "bool",
            ValueType::Date => "date",
            ValueType::Bytes => "bytes",
        };
        f.write_str(name)
    }
}

/// A calendar date (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Date {
    /// Year (astronomical numbering; 1990 is 1990).
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31.
    pub day: u8,
}

const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

impl Date {
    /// Construct a date, validating month and day ranges.
    ///
    /// # Panics
    /// Panics on an impossible calendar date; dates come from schema
    /// designers and test fixtures, so this is a programming error.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range for {year}-{month}: {day}"
        );
        Date { year, month, day }
    }

    /// Days since the civil epoch 1970-01-01 (negative before it).
    ///
    /// Uses Howard Hinnant's `days_from_civil` algorithm.
    pub fn to_days(self) -> i64 {
        let year = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if year >= 0 { year } else { year - 399 } / 400;
        let yoe = year - era * 400; // [0, 399]
        let month = i64::from(self.month);
        let day = i64::from(self.day);
        let doy = (153 * (if month > 2 { month - 3 } else { month + 9 }) + 2) / 5 + day - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`Date::to_days`].
    pub fn from_days(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let year = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let day = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let month = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
        Date {
            year: (year + i64::from(month <= 2)) as i32,
            month,
            day,
        }
    }

    /// Signed number of days from `self` to `other`.
    pub fn days_until(self, other: Date) -> i64 {
        other.to_days() - self.to_days()
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("validated month"),
    }
}

impl fmt::Display for Date {
    /// Renders in the paper's figure style: `Jan 12, 1990`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}, {}",
            MONTH_NAMES[(self.month - 1) as usize],
            self.day,
            self.year
        )
    }
}

/// A totally ordered, hashable wrapper for `f64` (NaN is rejected at
/// construction, so `Eq`/`Ord` are sound).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Real(f64);

impl Real {
    /// Wrap a finite float.
    ///
    /// # Panics
    /// Panics if `value` is NaN — NaN has no place in a printable
    /// constant domain (equality of printable values is load-bearing).
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "printable real values cannot be NaN");
        Real(value)
    }

    /// The wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for Real {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits() || self.0 == other.0
    }
}
impl Eq for Real {}

impl PartialOrd for Real {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Real {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("NaN rejected at construction")
    }
}
impl std::hash::Hash for Real {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalize -0.0 and 0.0 to hash identically, matching ==.
        let bits = if self.0 == 0.0 {
            0u64
        } else {
            self.0.to_bits()
        };
        bits.hash(state);
    }
}

/// A printable constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// A character string.
    Str(Arc<str>),
    /// An integer.
    Int(i64),
    /// A finite real.
    Real(Real),
    /// A boolean.
    Bool(bool),
    /// A calendar date.
    Date(Date),
    /// Raw bytes (bitmaps, bit streams).
    Bytes(Bytes),
}

impl Value {
    /// Shorthand string constructor.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Shorthand integer constructor.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Shorthand real constructor (panics on NaN).
    pub fn real(r: f64) -> Self {
        Value::Real(Real::new(r))
    }

    /// Shorthand date constructor (panics on invalid dates).
    pub fn date(year: i32, month: u8, day: u8) -> Self {
        Value::Date(Date::new(year, month, day))
    }

    /// Shorthand bytes constructor.
    pub fn bytes(data: impl Into<Bytes>) -> Self {
        Value::Bytes(data.into())
    }

    /// The domain this constant belongs to.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Str(_) => ValueType::Str,
            Value::Int(_) => ValueType::Int,
            Value::Real(_) => ValueType::Real,
            Value::Bool(_) => ValueType::Bool,
            Value::Date(_) => ValueType::Date,
            Value::Bytes(_) => ValueType::Bytes,
        }
    }

    /// Borrow as `&str` when this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract the date when this is a date value.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{}", r.get()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Bytes(b) => {
                write!(f, "0x")?;
                for byte in b.iter().take(8) {
                    write!(f, "{byte:02x}")?;
                }
                if b.len() > 8 {
                    write!(f, "… ({} bytes)", b.len())?;
                }
                Ok(())
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<Date> for Value {
    fn from(d: Date) -> Self {
        Value::Date(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_display_matches_paper_style() {
        assert_eq!(Date::new(1990, 1, 12).to_string(), "Jan 12, 1990");
        assert_eq!(Date::new(1990, 1, 14).to_string(), "Jan 14, 1990");
    }

    #[test]
    fn date_day_arithmetic() {
        let epoch = Date::new(1970, 1, 1);
        assert_eq!(epoch.to_days(), 0);
        assert_eq!(Date::new(1970, 1, 2).to_days(), 1);
        assert_eq!(Date::new(1969, 12, 31).to_days(), -1);
        // The paper's Elapsed example: Jan 12 -> Jan 14, 1990 is 2 days.
        assert_eq!(Date::new(1990, 1, 12).days_until(Date::new(1990, 1, 14)), 2);
    }

    #[test]
    fn date_roundtrip_over_a_wide_range() {
        for days in (-200_000..200_000).step_by(997) {
            let date = Date::from_days(days);
            assert_eq!(date.to_days(), days, "roundtrip failed for {date}");
        }
    }

    #[test]
    fn leap_years() {
        assert_eq!(Date::new(2000, 2, 29).days_until(Date::new(2000, 3, 1)), 1);
        assert_eq!(Date::new(1900, 2, 28).days_until(Date::new(1900, 3, 1)), 1);
        // 1900 not leap
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn invalid_date_rejected() {
        Date::new(1990, 2, 30);
    }

    #[test]
    fn values_equal_by_content() {
        assert_eq!(Value::str("Rock"), Value::str("Rock"));
        assert_ne!(Value::str("Rock"), Value::str("Jazz"));
        assert_ne!(Value::int(1), Value::str("1"));
    }

    #[test]
    fn real_total_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::real(1.5));
        assert!(set.contains(&Value::real(1.5)));
        assert!(!set.contains(&Value::real(2.5)));
        assert_eq!(Value::real(0.0), Value::real(-0.0));
        let mut with_zero = HashSet::new();
        with_zero.insert(Value::real(0.0));
        assert!(with_zero.contains(&Value::real(-0.0)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Value::real(f64::NAN);
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::str("x").value_type(), ValueType::Str);
        assert_eq!(Value::int(3).value_type(), ValueType::Int);
        assert_eq!(Value::date(1990, 1, 12).value_type(), ValueType::Date);
        assert_eq!(Value::bytes(vec![1, 2]).value_type(), ValueType::Bytes);
        assert_eq!(Value::from(true).value_type(), ValueType::Bool);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::str("Pinkfloyd").to_string(), "Pinkfloyd");
        assert_eq!(Value::int(15000).to_string(), "15000");
        assert_eq!(Value::bytes(vec![0x01, 0x02]).to_string(), "0x0102");
        let long = Value::bytes(vec![0u8; 12]);
        assert!(long.to_string().contains("(12 bytes)"));
    }

    #[test]
    fn serde_roundtrip() {
        let values = vec![
            Value::str("a"),
            Value::int(-3),
            Value::real(2.75),
            Value::from(false),
            Value::date(1990, 12, 31),
            Value::bytes(vec![1, 2, 3]),
        ];
        let json = serde_json::to_string(&values).unwrap();
        let back: Vec<Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, values);
    }
}

//! Minimal, offline stand-in for the `serde` crate.
//!
//! This workspace builds without network access, so instead of the real
//! serde it vendors a small self-consistent subset: a [`Serialize`]
//! trait producing a JSON-like [`Value`] tree, a marker [`Deserialize`]
//! trait, and derive macros for both (re-exported from `serde_derive`).
//! The sibling `serde_json` crate renders [`Value`] as JSON text.
//!
//! Only the surface the workspace actually uses is implemented; it is
//! not a general-purpose serialization framework.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree produced by [`Serialize::to_value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point (NaN/inf render as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object with insertion-ordered keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in a [`Value::Map`] (`None` for other variants
    /// or a missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The unsigned-integer payload: [`Value::UInt`] directly, or a
    /// non-negative [`Value::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The key/value entries, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Builds the value tree for `self`.
    fn to_value(&self) -> Value;
}

/// Marker trait mirroring serde's `Deserialize`. The workspace never
/// deserializes, so this carries no behavior; the derive only records
/// the intent in the type system.
pub trait Deserialize {}

macro_rules! impl_ser_uint {
    ($($t:ty),+) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value {
                    Value::UInt(*self as u64)
                }
            }
            impl Deserialize for $t {}
        )+
    };
}

macro_rules! impl_ser_int {
    ($($t:ty),+) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value {
                    Value::Int(*self as i64)
                }
            }
            impl Deserialize for $t {}
        )+
    };
}

impl_ser_uint!(u8, u16, u32, u64, usize);
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}
impl Deserialize for f32 {}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {}

macro_rules! impl_ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {}
    };
}

impl_ser_tuple!(A: 0);
impl_ser_tuple!(A: 0, B: 1);
impl_ser_tuple!(A: 0, B: 1, C: 2);
impl_ser_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3u32.to_value(), Value::UInt(3));
        assert_eq!((-3i32).to_value(), Value::Int(-3));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".into()));
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(1u32).to_value(), Value::UInt(1));
    }

    #[test]
    fn containers_nest() {
        let v = vec![(1u32, 2u32)];
        assert_eq!(
            v.to_value(),
            Value::Seq(vec![Value::Seq(vec![Value::UInt(1), Value::UInt(2)])])
        );
        let arr = [1.5f64; 2];
        assert_eq!(
            arr.to_value(),
            Value::Seq(vec![Value::Float(1.5), Value::Float(1.5)])
        );
    }
}

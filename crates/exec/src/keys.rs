//! Dense ids for key tuples read straight out of column slots: the hash
//! table under the columnar grouped aggregate and hash join.
//!
//! A key is one slot of each of a set of key columns. [`KeyIndex`] maps
//! each distinct key to a dense id (`0, 1, 2, …` in first-seen order)
//! without materializing a row or an owned key per lookup: slots are
//! hashed and compared in place, and a key is copied out only the first
//! time it is seen. Key equality is `Value`'s `Eq` — the same equality the
//! row interpreter's `BTreeMap`/`HashMap` keys use — so `Int(1)` and
//! `Float(1.0)` are one key, and NULL is a key like any other (callers that
//! need SQL's "NULL never matches" check [`any_null`] first).
//!
//! When the key is a single column that is `Int` typed in every batch, the
//! index keys on the machine word instead: the caller makes that choice
//! from the column types with [`KeyIndex::int_keyable`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use dt_common::{ColumnVec, Value};

/// A small multiplicative hasher (the FxHash mix): key hashing is on the
/// per-row path, and the keys are engine values, not attacker-chosen.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// End of a [`KeyIndex::Generic`] hash chain.
const NONE: u32 = u32::MAX;

/// Run `f` on slot `i` of `col` as a `Value`, borrowing it from generic
/// columns and building it on the stack for typed ones (no allocation).
#[inline]
fn with_slot<R>(col: &ColumnVec, i: usize, f: impl FnOnce(&Value) -> R) -> R {
    match col {
        ColumnVec::Generic(values) => f(&values[i]),
        typed if typed.is_null(i) => f(&Value::Null),
        ColumnVec::Int { data, .. } => f(&Value::Int(data[i])),
        ColumnVec::Float { data, .. } => f(&Value::Float(data[i])),
    }
}

/// True when slot `i` of any key column is NULL.
#[inline]
pub(crate) fn any_null(cols: &[&ColumnVec], i: usize) -> bool {
    cols.iter().any(|c| c.is_null(i))
}

/// Distinct key tuples → dense ids. See the module docs.
pub(crate) enum KeyIndex {
    /// One `Int` key column: the word is the key; NULL gets its own id.
    Int {
        map: FxMap<i64, u32>,
        null: Option<u32>,
        keys: Vec<Value>,
    },
    /// Any other key: slots hash in place. `heads` maps a hash to the
    /// newest id with that hash and `next` chains to older ones; ids
    /// sharing a hash are told apart by comparing the stored key.
    Generic {
        heads: FxMap<u64, u32>,
        next: Vec<u32>,
        keys: Vec<Vec<Value>>,
    },
}

impl KeyIndex {
    /// An empty index; `int` picks the word-keyed form, which every key
    /// column slice later passed in must then satisfy
    /// ([`KeyIndex::int_keyable`]).
    pub(crate) fn new(int: bool) -> Self {
        if int {
            KeyIndex::Int {
                map: FxMap::default(),
                null: None,
                keys: Vec::new(),
            }
        } else {
            KeyIndex::Generic {
                heads: FxMap::default(),
                next: Vec::new(),
                keys: Vec::new(),
            }
        }
    }

    /// Can keys read from `cols` use the word-keyed form? Only a single
    /// `Int` typed column can.
    pub(crate) fn int_keyable(cols: &[&ColumnVec]) -> bool {
        cols.len() == 1 && matches!(cols[0], ColumnVec::Int { .. })
    }

    /// The id of the key at slot `i` of `cols`, if it has been seen.
    #[inline]
    pub(crate) fn find(&self, cols: &[&ColumnVec], i: usize) -> Option<u32> {
        match self {
            KeyIndex::Int { map, null, .. } => match cols[0] {
                ColumnVec::Int { data, validity } => {
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        *null
                    } else {
                        map.get(&data[i]).copied()
                    }
                }
                _ => unreachable!("Int key index over a non-Int column"),
            },
            KeyIndex::Generic { heads, next, keys } => {
                let mut id = *heads.get(&slot_hash(cols, i))?;
                while id != NONE {
                    if slots_equal(cols, i, &keys[id as usize]) {
                        return Some(id);
                    }
                    id = next[id as usize];
                }
                None
            }
        }
    }

    /// The id of the key at slot `i` of `cols`, assigning the next id when
    /// the key is new.
    #[inline]
    pub(crate) fn find_or_insert(&mut self, cols: &[&ColumnVec], i: usize) -> u32 {
        match self {
            KeyIndex::Int { map, null, keys } => match cols[0] {
                ColumnVec::Int { data, validity } => {
                    let next = keys.len() as u32;
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        *null.get_or_insert_with(|| {
                            keys.push(Value::Null);
                            next
                        })
                    } else {
                        *map.entry(data[i]).or_insert_with(|| {
                            keys.push(Value::Int(data[i]));
                            next
                        })
                    }
                }
                _ => unreachable!("Int key index over a non-Int column"),
            },
            KeyIndex::Generic { heads, next, keys } => {
                let head = heads.entry(slot_hash(cols, i)).or_insert(NONE);
                let mut id = *head;
                while id != NONE {
                    if slots_equal(cols, i, &keys[id as usize]) {
                        return id;
                    }
                    id = next[id as usize];
                }
                let id = keys.len() as u32;
                keys.push(cols.iter().map(|c| c.get(i)).collect());
                next.push(*head);
                *head = id;
                id
            }
        }
    }

    /// The key tuple of every id, indexed by id.
    pub(crate) fn into_keys(self) -> Vec<Vec<Value>> {
        match self {
            KeyIndex::Int { keys, .. } => keys.into_iter().map(|k| vec![k]).collect(),
            KeyIndex::Generic { keys, .. } => keys,
        }
    }
}

/// Hash of the key at slot `i`, consistent with `Value`'s `Eq` (it is
/// `Value`'s own `Hash`, fed slot by slot).
#[inline]
fn slot_hash(cols: &[&ColumnVec], i: usize) -> u64 {
    let mut h = FxHasher::default();
    for c in cols {
        with_slot(c, i, |v| v.hash(&mut h));
    }
    h.finish()
}

#[inline]
fn slots_equal(cols: &[&ColumnVec], i: usize, key: &[Value]) -> bool {
    cols.iter()
        .zip(key)
        .all(|(c, k)| with_slot(c, i, |v| v == k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: Vec<Value>) -> ColumnVec {
        ColumnVec::from_values(vals)
    }

    #[test]
    fn int_columns_key_on_the_word_and_null_is_a_key() {
        let c = col(vec![
            Value::Int(3),
            Value::Null,
            Value::Int(3),
            Value::Int(-1),
        ]);
        let cols = [&c];
        assert!(KeyIndex::int_keyable(&cols));
        let mut idx = KeyIndex::new(true);
        let ids: Vec<u32> = (0..4).map(|i| idx.find_or_insert(&cols, i)).collect();
        assert_eq!(ids, vec![0, 1, 0, 2]);
        assert_eq!(idx.find(&cols, 1), Some(1));
        assert_eq!(
            idx.into_keys(),
            vec![vec![Value::Int(3)], vec![Value::Null], vec![Value::Int(-1)]]
        );
    }

    #[test]
    fn generic_keys_follow_value_equality() {
        // Int(1) and Float(1.0) are equal Values, so one key.
        let a = col(vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Str("x".into()),
        ]);
        let b = col(vec![
            Value::Str("p".into()),
            Value::Str("p".into()),
            Value::Null,
        ]);
        let cols = [&a, &b];
        assert!(!KeyIndex::int_keyable(&cols));
        let mut idx = KeyIndex::new(false);
        let ids: Vec<u32> = (0..3).map(|i| idx.find_or_insert(&cols, i)).collect();
        assert_eq!(ids, vec![0, 0, 1]);
        // A probe column of another type finds the same key.
        let probe_a = col(vec![Value::Float(1.0)]);
        let probe_b = col(vec![Value::Str("p".into())]);
        assert_eq!(idx.find(&[&probe_a, &probe_b], 0), Some(0));
        assert_eq!(idx.find(&[&probe_b, &probe_a], 0), None);
        assert_eq!(idx.into_keys().len(), 2);
    }

    #[test]
    fn single_column_keys_follow_value_equality() {
        let a = col(vec![
            Value::Str("x".into()),
            Value::Null,
            Value::Int(2),
            Value::Float(2.0),
            Value::Str("x".into()),
        ]);
        let mut idx = KeyIndex::new(false);
        let ids: Vec<u32> = (0..5).map(|i| idx.find_or_insert(&[&a], i)).collect();
        assert_eq!(ids, vec![0, 1, 2, 2, 0]);
        let probe = col(vec![Value::Float(2.0), Value::Int(3)]);
        assert_eq!(idx.find(&[&probe], 0), Some(2));
        assert_eq!(idx.find(&[&probe], 1), None);
        assert_eq!(
            idx.into_keys(),
            vec![
                vec![Value::Str("x".into())],
                vec![Value::Null],
                vec![Value::Int(2)]
            ]
        );
    }

    #[test]
    fn only_a_single_int_column_is_word_keyable() {
        let ints = col(vec![Value::Int(1)]);
        let floats = col(vec![Value::Float(1.5)]);
        assert!(KeyIndex::int_keyable(&[&ints]));
        assert!(!KeyIndex::int_keyable(&[&floats]));
        assert!(!KeyIndex::int_keyable(&[&ints, &ints]));
        assert!(!KeyIndex::int_keyable(&[]));
    }
}

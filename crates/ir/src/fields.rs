//! Header field identifiers (`field_id` in the paper's Fig. 3 grammar).
//!
//! A field names a slice of packet or metadata state: `hdr.ipv4.dst_addr`,
//! `meta.egress_port`, a header validity bit `hdr.ipv4.$valid`, a register
//! cell modeled per §4 as `REG:counters-POS:0`, or a summary auxiliary
//! variable `@ppl2.hdr.tcp.src_port`. Fields are interned into dense ids so
//! that symbolic and concrete states are flat vectors/maps keyed by `u32`.

use meissa_testkit::json::{Json, ToJson};
use std::collections::HashMap;

/// A dense handle for an interned field name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FieldId(pub u32);

impl ToJson for FieldId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0 as u128)
    }
}

/// The interning table mapping field names to ids and widths.
#[derive(Clone, Default, Debug)]
pub struct FieldTable {
    names: Vec<String>,
    widths: Vec<u16>,
    by_name: HashMap<String, FieldId>,
}

impl FieldTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a field, returning its id.
    ///
    /// # Panics
    /// Panics if the field exists with a different width — widths are fixed
    /// by header declarations and a mismatch is a frontend bug.
    pub fn intern(&mut self, name: &str, width: u16) -> FieldId {
        if let Some(&id) = self.by_name.get(name) {
            assert_eq!(
                self.widths[id.0 as usize], width,
                "field {name} re-interned with different width"
            );
            return id;
        }
        let id = FieldId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.widths.push(width);
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<FieldId> {
        self.by_name.get(name).copied()
    }

    /// The name of a field.
    pub fn name(&self, id: FieldId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The width of a field in bits.
    pub fn width(&self, id: FieldId) -> u16 {
        self.widths[id.0 as usize]
    }

    /// Number of interned fields.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no fields are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all field ids.
    pub fn iter(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.names.len() as u32).map(FieldId)
    }

    /// True if the field is a header validity bit (`….$valid`).
    pub fn is_validity(&self, id: FieldId) -> bool {
        self.name(id).ends_with(".$valid")
    }

    /// True if the field is a summary auxiliary variable (`@…`), which must
    /// never appear in a test template's input constraints.
    pub fn is_auxiliary(&self, id: FieldId) -> bool {
        self.name(id).starts_with('@')
    }
}

impl ToJson for FieldTable {
    fn to_json(&self) -> Json {
        // `by_name` is derived from `names`, so only names/widths persist.
        Json::Obj(vec![
            ("names".into(), self.names.to_json()),
            ("widths".into(), self.widths.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = FieldTable::new();
        let a = t.intern("hdr.ipv4.dst_addr", 32);
        let b = t.intern("hdr.ipv4.dst_addr", 32);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a), "hdr.ipv4.dst_addr");
        assert_eq!(t.width(a), 32);
    }

    #[test]
    fn distinct_fields_get_distinct_ids() {
        let mut t = FieldTable::new();
        let a = t.intern("hdr.tcp.src_port", 16);
        let b = t.intern("hdr.tcp.dst_port", 16);
        assert_ne!(a, b);
        assert_eq!(t.get("hdr.tcp.src_port"), Some(a));
        assert_eq!(t.get("nonexistent"), None);
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn width_conflict_panics() {
        let mut t = FieldTable::new();
        t.intern("meta.port", 9);
        t.intern("meta.port", 16);
    }

    #[test]
    fn classifies_special_fields() {
        let mut t = FieldTable::new();
        let v = t.intern("hdr.ipv4.$valid", 1);
        let aux = t.intern("@ppl1.hdr.tcp.src_port", 16);
        let plain = t.intern("hdr.tcp.src_port", 16);
        assert!(t.is_validity(v));
        assert!(!t.is_validity(plain));
        assert!(t.is_auxiliary(aux));
        assert!(!t.is_auxiliary(plain));
    }
}

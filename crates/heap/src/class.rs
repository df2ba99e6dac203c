//! The class table.
//!
//! Objects do not point to their class directly; their header stores a
//! *class index* into the VM-global class table, exactly as in Spur.
//! The concolic constraint model (`AbstractClass` in Fig. 3 of the
//! paper) mirrors this: class identity constraints are expressed over
//! class indices.

use std::borrow::Cow;
use std::sync::OnceLock;

use crate::format::ObjectFormat;

/// An index into the class table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClassIndex(pub u32);

impl ClassIndex {
    /// Reserved invalid index; never appears in a live header.
    pub const INVALID: ClassIndex = ClassIndex(0);
    /// The (virtual) class of tagged SmallIntegers.
    pub const SMALL_INTEGER: ClassIndex = ClassIndex(1);
    /// `UndefinedObject`, the class of `nil`.
    pub const UNDEFINED_OBJECT: ClassIndex = ClassIndex(2);
    /// The class of `false`.
    pub const FALSE: ClassIndex = ClassIndex(3);
    /// The class of `true`.
    pub const TRUE: ClassIndex = ClassIndex(4);
    /// Boxed 64-bit floats.
    pub const FLOAT: ClassIndex = ClassIndex(5);
    /// Pointer-indexable arrays.
    pub const ARRAY: ClassIndex = ClassIndex(6);
    /// Byte-indexable arrays.
    pub const BYTE_ARRAY: ClassIndex = ClassIndex(7);
    /// Byte strings.
    pub const STRING: ClassIndex = ClassIndex(8);
    /// Interned symbols (selectors).
    pub const SYMBOL: ClassIndex = ClassIndex(9);
    /// Compiled methods.
    pub const COMPILED_METHOD: ClassIndex = ClassIndex(10);
    /// Plain fixed-slot objects.
    pub const OBJECT: ClassIndex = ClassIndex(11);
    /// Handles into the simulated external (FFI) memory.
    pub const EXTERNAL_ADDRESS: ClassIndex = ClassIndex(12);
    /// Word-indexable arrays.
    pub const WORD_ARRAY: ClassIndex = ClassIndex(13);
    /// Reified stack-frame contexts (unsupported by the prototype,
    /// kept so the curation step has something real to exclude).
    pub const CONTEXT: ClassIndex = ClassIndex(14);
    /// Association objects used by literal-variable bytecodes.
    pub const ASSOCIATION: ClassIndex = ClassIndex(15);
    /// First index available for user-defined classes.
    pub const FIRST_USER: ClassIndex = ClassIndex(16);

    /// Raw numeric value of this index.
    pub fn value(self) -> u32 {
        self.0
    }
}

/// Metadata the VM keeps per class: its instance format and the fixed
/// slot count instances carry before any indexable part.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassDescription {
    /// Human-readable name, used in reports and disassembly. Borrowed
    /// for the well-known classes so building a table allocates no
    /// strings; user classes may own theirs.
    pub name: Cow<'static, str>,
    /// Body layout of instances.
    pub instance_format: ObjectFormat,
    /// Number of fixed (named) pointer slots of instances.
    pub fixed_slots: u32,
}

/// The VM-global class table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassTable {
    entries: Vec<Option<ClassDescription>>,
}

impl ClassTable {
    /// Builds the table pre-populated with the well-known classes.
    ///
    /// A fresh table is built for every [`crate::ObjectMemory`], which
    /// the differential campaign creates once per materialized model —
    /// so this clones a process-wide template (one `Vec` copy of
    /// borrowed-name descriptions) instead of re-deriving the entries
    /// each time.
    pub fn with_well_known_classes() -> ClassTable {
        static TEMPLATE: OnceLock<ClassTable> = OnceLock::new();
        TEMPLATE.get_or_init(Self::build_well_known).clone()
    }

    fn build_well_known() -> ClassTable {
        let mut table = ClassTable { entries: vec![None] };
        let mut put = |idx: ClassIndex, name: &'static str, fmt: ObjectFormat, fixed: u32| {
            let i = idx.0 as usize;
            // `entries` grows monotonically; well-known indices are dense.
            assert_eq!(i, table_len(&table.entries));
            table.entries.push(Some(ClassDescription {
                name: Cow::Borrowed(name),
                instance_format: fmt,
                fixed_slots: fixed,
            }));
        };
        put(ClassIndex::SMALL_INTEGER, "SmallInteger", ObjectFormat::ZeroSized, 0);
        put(ClassIndex::UNDEFINED_OBJECT, "UndefinedObject", ObjectFormat::ZeroSized, 0);
        put(ClassIndex::FALSE, "False", ObjectFormat::ZeroSized, 0);
        put(ClassIndex::TRUE, "True", ObjectFormat::ZeroSized, 0);
        put(ClassIndex::FLOAT, "Float", ObjectFormat::BoxedFloat64, 0);
        put(ClassIndex::ARRAY, "Array", ObjectFormat::Indexable, 0);
        put(ClassIndex::BYTE_ARRAY, "ByteArray", ObjectFormat::Bytes, 0);
        put(ClassIndex::STRING, "String", ObjectFormat::Bytes, 0);
        put(ClassIndex::SYMBOL, "Symbol", ObjectFormat::Bytes, 0);
        put(ClassIndex::COMPILED_METHOD, "CompiledMethod", ObjectFormat::CompiledMethod, 0);
        put(ClassIndex::OBJECT, "Object", ObjectFormat::Fixed, 0);
        put(ClassIndex::EXTERNAL_ADDRESS, "ExternalAddress", ObjectFormat::ExternalAddress, 0);
        put(ClassIndex::WORD_ARRAY, "WordArray", ObjectFormat::Words, 0);
        put(ClassIndex::CONTEXT, "Context", ObjectFormat::Fixed, 4);
        put(ClassIndex::ASSOCIATION, "Association", ObjectFormat::Fixed, 2);
        table
    }

    /// Registers a user class and returns its fresh index.
    pub fn add_class(&mut self, desc: ClassDescription) -> ClassIndex {
        let idx = ClassIndex(self.entries.len() as u32);
        self.entries.push(Some(desc));
        idx
    }

    /// Drops entries back to the first `len` — used by heap snapshot
    /// restore to forget classes registered after a seal. `len` must
    /// not exceed the current length (the table otherwise only grows).
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.entries.len());
        self.entries.truncate(len);
    }

    /// Appends `src`'s entries from index `from` on — how a heap
    /// mirror picks up the classes its source registered after their
    /// shared seal, when this table holds `src`'s first `from` entries.
    pub(crate) fn extend_from(&mut self, src: &ClassTable, from: usize) {
        debug_assert_eq!(self.entries.len(), from);
        self.entries.extend_from_slice(&src.entries[from..]);
    }

    /// Looks up a class description; `None` for unknown indices.
    pub fn get(&self, idx: ClassIndex) -> Option<&ClassDescription> {
        self.entries.get(idx.0 as usize).and_then(|e| e.as_ref())
    }

    /// Number of live entries (including the reserved slot 0).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: the table is never empty (slot 0 is reserved).
    pub fn is_empty(&self) -> bool {
        false
    }
}

fn table_len(entries: &[Option<ClassDescription>]) -> usize {
    entries.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_classes_are_resolvable() {
        let t = ClassTable::with_well_known_classes();
        assert_eq!(t.get(ClassIndex::FLOAT).unwrap().name, "Float");
        assert_eq!(
            t.get(ClassIndex::ARRAY).unwrap().instance_format,
            ObjectFormat::Indexable
        );
        assert_eq!(
            t.get(ClassIndex::BYTE_ARRAY).unwrap().instance_format,
            ObjectFormat::Bytes
        );
        assert!(t.get(ClassIndex::INVALID).is_none());
    }

    #[test]
    fn user_classes_get_fresh_indices() {
        let mut t = ClassTable::with_well_known_classes();
        let a = t.add_class(ClassDescription {
            name: "Point".into(),
            instance_format: ObjectFormat::Fixed,
            fixed_slots: 2,
        });
        let b = t.add_class(ClassDescription {
            name: "Rect".into(),
            instance_format: ObjectFormat::Fixed,
            fixed_slots: 2,
        });
        assert!(a.value() >= ClassIndex::FIRST_USER.value());
        assert_ne!(a, b);
        assert_eq!(t.get(a).unwrap().name, "Point");
    }

    #[test]
    fn unknown_index_is_none() {
        let t = ClassTable::with_well_known_classes();
        assert!(t.get(ClassIndex(9999)).is_none());
    }
}

//! Compiled-method objects.
//!
//! A method lives in the heap as a `CompiledMethod`-format object:
//!
//! ```text
//! slot 0            header (tagged SmallInteger: args/temps/literals/primitive)
//! slot 1            bytecode byte count (tagged SmallInteger)
//! slot 2..2+L       literal oops
//! remaining words   bytecode bytes, packed 4 per word little-endian
//! ```
//!
//! This mirrors Pharo's layout where literal pointers and trailing raw
//! bytecodes share one object, which is why the interpreter can reach
//! everything from the single method oop stored in a stack frame.

use igjit_heap::{ClassIndex, HeapError, HeapResult, ObjectFormat, ObjectMemory, Oop};

use crate::decode::encode;
use crate::instr::Instruction;

/// Decoded method header fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MethodHeader {
    /// Number of declared arguments.
    pub num_args: u8,
    /// Number of non-argument temporaries.
    pub num_temps: u8,
    /// Number of literal slots.
    pub num_literals: u8,
    /// Native-method (primitive) id; 0 means none.
    pub primitive: u16,
}

impl MethodHeader {
    /// The most temporaries (arguments included) a frame can have: the
    /// widest `num_args` plus the widest `num_temps` a header packs.
    pub const MAX_FRAME_TEMPS: u32 = 0x0f + 0x3f;

    /// Packs the header into its tagged-SmallInteger encoding.
    pub fn pack(self) -> i64 {
        i64::from(self.num_args & 0x0f)
            | (i64::from(self.num_temps & 0x3f) << 4)
            | (i64::from(self.num_literals) << 10)
            | (i64::from(self.primitive & 0x0fff) << 18)
    }

    /// Unpacks a header from its tagged-SmallInteger encoding.
    pub fn unpack(value: i64) -> MethodHeader {
        MethodHeader {
            num_args: (value & 0x0f) as u8,
            num_temps: ((value >> 4) & 0x3f) as u8,
            num_literals: ((value >> 10) & 0xff) as u8,
            primitive: ((value >> 18) & 0x0fff) as u16,
        }
    }
}

/// A read-only view over a compiled method stored in the heap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompiledMethod {
    oop: Oop,
}

const FIXED_SLOTS: u32 = 2; // header + bytecode length

impl CompiledMethod {
    /// Wraps a method oop. The oop is trusted; accessors re-validate.
    pub fn new(oop: Oop) -> CompiledMethod {
        CompiledMethod { oop }
    }

    /// The underlying heap oop.
    pub fn oop(self) -> Oop {
        self.oop
    }

    /// Reads and unpacks the header.
    pub fn header(self, mem: &ObjectMemory) -> HeapResult<MethodHeader> {
        let h = mem.fetch_pointer(self.oop, 0)?;
        if !h.is_small_int() {
            return Err(HeapError::WrongFormat { oop: self.oop });
        }
        Ok(MethodHeader::unpack(h.small_int_value()))
    }

    /// Number of bytecode bytes.
    pub fn bytecode_len(self, mem: &ObjectMemory) -> HeapResult<u32> {
        let n = mem.fetch_pointer(self.oop, 1)?;
        if !n.is_small_int() {
            return Err(HeapError::WrongFormat { oop: self.oop });
        }
        Ok(n.small_int_value() as u32)
    }

    /// Reads literal `index` (0-based).
    pub fn literal(self, mem: &ObjectMemory, index: u32) -> HeapResult<Oop> {
        let header = self.header(mem)?;
        if index >= u32::from(header.num_literals) {
            let size = u32::from(header.num_literals);
            return Err(HeapError::OutOfBoundsSlot { oop: self.oop, index, size });
        }
        mem.fetch_pointer(self.oop, FIXED_SLOTS + index)
    }

    /// Reads the bytecode byte at `pc`.
    pub fn bytecode_at(self, mem: &ObjectMemory, pc: u32) -> HeapResult<u8> {
        let len = self.bytecode_len(mem)?;
        if pc >= len {
            return Err(HeapError::OutOfBoundsSlot { oop: self.oop, index: pc, size: len });
        }
        let header = self.header(mem)?;
        let first_word = FIXED_SLOTS + u32::from(header.num_literals) + pc / 4;
        let word = mem.fetch_pointer(self.oop, first_word)?.0;
        Ok((word >> (8 * (pc % 4))) as u8)
    }

    /// Copies out the full bytecode vector.
    pub fn bytecodes(self, mem: &ObjectMemory) -> HeapResult<Vec<u8>> {
        let len = self.bytecode_len(mem)?;
        (0..len).map(|pc| self.bytecode_at(mem, pc)).collect()
    }
}

/// Assembles a compiled method and installs it into a heap.
#[derive(Clone, Debug, Default)]
pub struct MethodBuilder {
    num_args: u8,
    num_temps: u8,
    primitive: u16,
    literals: Vec<Oop>,
    bytes: Vec<u8>,
}

impl MethodBuilder {
    /// Starts a method with `num_args` arguments and `num_temps`
    /// additional temporaries.
    pub fn new(num_args: u8, num_temps: u8) -> MethodBuilder {
        MethodBuilder { num_args, num_temps, ..MethodBuilder::default() }
    }

    /// Declares a native-method (primitive) id for this method.
    pub fn primitive(&mut self, id: u16) -> &mut Self {
        self.primitive = id;
        self
    }

    /// Adds a literal, returning its index (deduplicates exact oops).
    pub fn add_literal(&mut self, oop: Oop) -> u8 {
        if let Some(i) = self.literals.iter().position(|&l| l == oop) {
            return i as u8;
        }
        let i = self.literals.len();
        assert!(i < 256, "too many literals");
        self.literals.push(oop);
        i as u8
    }

    /// Appends one instruction.
    pub fn emit(&mut self, instr: Instruction) -> &mut Self {
        encode(instr, &mut self.bytes);
        self
    }

    /// Appends raw bytes (used by tests exercising the decoder).
    pub fn emit_raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Emits the shortest push of a SmallInteger constant, spilling to
    /// a literal when the value fits neither a special push nor an i8.
    pub fn push_small_int(&mut self, value: i64) -> &mut Self {
        match value {
            0 => self.emit(Instruction::PushZero),
            1 => self.emit(Instruction::PushOne),
            -1 => self.emit(Instruction::PushMinusOne),
            2 => self.emit(Instruction::PushTwo),
            v if (-128..=127).contains(&v) => self.emit(Instruction::PushInteger(v as i8)),
            v => {
                let lit = self.add_literal(Oop::from_small_int(v));
                if lit < 16 {
                    self.emit(Instruction::PushLiteralConstant(lit))
                } else {
                    self.emit(Instruction::PushLiteralLong(lit))
                }
            }
        }
    }

    /// Emits a push of an arbitrary literal oop.
    pub fn push_literal(&mut self, oop: Oop) -> &mut Self {
        let lit = self.add_literal(oop);
        if lit < 16 {
            self.emit(Instruction::PushLiteralConstant(lit))
        } else {
            self.emit(Instruction::PushLiteralLong(lit))
        }
    }

    /// Current bytecode length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether no bytecode was emitted yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Allocates the method object in `mem`.
    pub fn install(&self, mem: &mut ObjectMemory) -> HeapResult<Oop> {
        let header = MethodHeader {
            num_args: self.num_args,
            num_temps: self.num_temps,
            num_literals: self.literals.len() as u8,
            primitive: self.primitive,
        };
        let byte_words = (self.bytes.len() as u32).div_ceil(4);
        let slots = FIXED_SLOTS + self.literals.len() as u32 + byte_words;
        let oop = mem.allocate(ClassIndex::COMPILED_METHOD, ObjectFormat::CompiledMethod, slots)?;
        mem.store_pointer(oop, 0, Oop::from_small_int(header.pack()))?;
        mem.store_pointer(oop, 1, Oop::from_small_int(self.bytes.len() as i64))?;
        for (i, &lit) in self.literals.iter().enumerate() {
            mem.store_pointer(oop, FIXED_SLOTS + i as u32, lit)?;
        }
        for (i, chunk) in self.bytes.chunks(4).enumerate() {
            let mut word: u32 = 0;
            for (j, &b) in chunk.iter().enumerate() {
                word |= u32::from(b) << (8 * j);
            }
            mem.store_pointer(
                oop,
                FIXED_SLOTS + self.literals.len() as u32 + i as u32,
                Oop(word),
            )?;
        }
        Ok(oop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_pack_unpack_roundtrip() {
        let h = MethodHeader { num_args: 3, num_temps: 17, num_literals: 200, primitive: 4095 };
        assert_eq!(MethodHeader::unpack(h.pack()), h);
        let zero = MethodHeader { num_args: 0, num_temps: 0, num_literals: 0, primitive: 0 };
        assert_eq!(MethodHeader::unpack(0), zero);
    }

    #[test]
    fn build_and_read_back_method() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(2, 1);
        let lit = b.add_literal(Oop::from_small_int(777));
        b.emit(Instruction::PushLiteralConstant(lit));
        b.emit(Instruction::PushTemp(0));
        b.emit(Instruction::Add);
        b.emit(Instruction::ReturnTop);
        let m = CompiledMethod::new(b.install(&mut mem).unwrap());

        let h = m.header(&mem).unwrap();
        assert_eq!(h.num_args, 2);
        assert_eq!(h.num_temps, 1);
        assert_eq!(h.num_literals, 1);
        assert_eq!(m.literal(&mem, 0).unwrap().small_int_value(), 777);
        assert_eq!(m.bytecodes(&mem).unwrap(), vec![0x18, 0x0C, 0x40, 0x74]);
    }

    #[test]
    fn literal_bounds_are_checked() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        b.emit(Instruction::ReturnNil);
        let m = CompiledMethod::new(b.install(&mut mem).unwrap());
        assert!(m.literal(&mem, 0).is_err());
        assert!(m.bytecode_at(&mem, 1).is_err());
        assert_eq!(m.bytecode_at(&mem, 0).unwrap(), 0x73);
    }

    #[test]
    fn literals_are_deduplicated() {
        let mut b = MethodBuilder::new(0, 0);
        let a = b.add_literal(Oop::from_small_int(5));
        let c = b.add_literal(Oop::from_small_int(5));
        let d = b.add_literal(Oop::from_small_int(6));
        assert_eq!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn push_small_int_picks_shortest_form() {
        let mut mem = ObjectMemory::new();
        let mut b = MethodBuilder::new(0, 0);
        b.push_small_int(0);
        b.push_small_int(100);
        b.push_small_int(100_000);
        let m = CompiledMethod::new(b.install(&mut mem).unwrap());
        let bytes = m.bytecodes(&mem).unwrap();
        assert_eq!(bytes[0], 0x34); // PushZero
        assert_eq!(bytes[1], 0x98); // PushInteger
        assert_eq!(bytes[3], 0x18); // PushLiteralConstant(0)
        assert_eq!(m.literal(&mem, 0).unwrap().small_int_value(), 100_000);
    }

    proptest! {
        #[test]
        fn prop_bytecode_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64),
                                         nlits in 0u8..8) {
            let mut mem = ObjectMemory::new();
            let mut b = MethodBuilder::new(1, 2);
            for i in 0..nlits {
                b.add_literal(Oop::from_small_int(i64::from(i) + 1000));
            }
            b.emit_raw(&data);
            let m = CompiledMethod::new(b.install(&mut mem).unwrap());
            prop_assert_eq!(m.bytecodes(&mem).unwrap(), data);
            prop_assert_eq!(m.header(&mem).unwrap().num_literals, nlits);
        }
    }
}

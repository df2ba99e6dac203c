//! `ObjectMemory::mirror_from`: a twin cloned at a seal catches up with
//! its source by copying only what the source changed, and the copy is
//! indistinguishable from the source — before and after both roll back
//! to the seal. Mirroring between memories that do not share the sealed
//! image is an error, never a panic or a silent mix of two images.

use igjit_heap::{ClassDescription, HeapError, ObjectFormat, ObjectMemory, Oop, HEADER_WORDS};
use proptest::prelude::*;

/// One random mutation of `mem`: an allocation (array, bytes, words or
/// a float), a checked store into an object (pointer, byte or word), a
/// raw body write, an external write or a class registration. Failed
/// stores (wrong format, out of bounds) are part of the mix and change
/// nothing. `objs` holds every object the stores may target and grows
/// with each allocation.
fn mutate(mem: &mut ObjectMemory, objs: &mut Vec<Oop>, op: u8, x: u16, y: u16) {
    let target = objs[usize::from(x) % objs.len()];
    let small = Oop::from_small_int(i64::from(y));
    match op % 10 {
        0 => objs.push(mem.instantiate_array(&vec![small; usize::from(x % 6)]).unwrap()),
        1 => objs.push(mem.allocate(igjit_heap::ClassIndex::BYTE_ARRAY, ObjectFormat::Bytes, u32::from(x % 11)).unwrap()),
        2 => objs.push(mem.allocate(igjit_heap::ClassIndex::WORD_ARRAY, ObjectFormat::Words, u32::from(x % 5)).unwrap()),
        3 => objs.push(mem.instantiate_float(f64::from(x) / f64::from(y | 1)).unwrap()),
        4 => {
            let _ = mem.store_pointer(target, u32::from(y % 8), small);
        }
        5 => {
            let _ = mem.store_byte(target, u32::from(y % 12), y as u8);
        }
        6 => {
            let _ = mem.store_word(target, u32::from(y % 6), u32::from(y) * 0x1_0001);
        }
        7 => {
            // Raw machine-code-style write into a pointer body, with a
            // tagged value so the object stays well formed.
            if mem.format_of(target).is_ok_and(|f| f.has_pointer_slots()) {
                let slots = mem.slot_count(target).unwrap();
                if slots > 0 {
                    let addr = target.address() + 4 * (HEADER_WORDS + u32::from(y) % slots);
                    mem.write_word_raw(addr, small.0).unwrap();
                }
            }
        }
        8 => mem.external_mut().write_uint(u32::from(x % 60), 4, u32::from(y)).unwrap(),
        _ => {
            mem.add_class(ClassDescription {
                name: format!("Mirrored{x}").into(),
                instance_format: ObjectFormat::Fixed,
                fixed_slots: u32::from(y % 4),
            });
        }
    }
}

/// The objects a memory starts with: the canonical three, plus (when
/// `populate`) an array, a byte object and a word object allocated
/// before the seal, so stores also land below the sealed frontier.
fn starting_objects(mem: &mut ObjectMemory, populate: bool) -> Vec<Oop> {
    let mut objs = vec![mem.nil(), mem.true_object(), mem.false_object()];
    if populate {
        objs.push(mem.instantiate_array(&[Oop::from_small_int(7); 8]).unwrap());
        objs.push(mem.instantiate_bytes(igjit_heap::ClassIndex::BYTE_ARRAY, &[3; 13]).unwrap());
        objs.push(mem.allocate(igjit_heap::ClassIndex::WORD_ARRAY, ObjectFormat::Words, 6).unwrap());
    }
    objs
}

proptest! {
    /// Rounds of: mutate the source, mirror it onto the twin (which
    /// must then equal it), roll both back to the seal (both must then
    /// equal the sealed image — a fresh memory for a blank seal).
    #[test]
    fn mirror_equals_source_and_both_restore_to_the_seal(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u8..10, any::<u16>(), any::<u16>()), 0..40),
            1..4,
        ),
        populate in any::<bool>(),
    ) {
        let mut src = ObjectMemory::new();
        let objs = starting_objects(&mut src, populate);
        let sealed_image = src.clone();
        if !populate {
            prop_assert_eq!(&sealed_image, &ObjectMemory::new());
        }
        let blank = src.seal();
        let mut twin = src.clone();
        for ops in &rounds {
            let mut objs = objs.clone();
            for &(op, x, y) in ops {
                mutate(&mut src, &mut objs, op, x, y);
            }
            twin.mirror_from(&src).unwrap();
            prop_assert_eq!(&twin, &src);
            src.restore(&blank).unwrap();
            twin.restore(&blank).unwrap();
            prop_assert_eq!(&src, &sealed_image);
            prop_assert_eq!(&twin, &sealed_image);
        }
    }

    /// A twin that is not at the source's sealed image is refused with
    /// an error and left as it was: one sealed separately (even from
    /// identical contents), one cloned before the seal, one the source
    /// re-sealed away from, and one that changed since its seal.
    #[test]
    fn mismatched_twins_are_errors(
        ops in proptest::collection::vec((0u8..10, any::<u16>(), any::<u16>()), 1..24),
        populate in any::<bool>(),
    ) {
        let mut src = ObjectMemory::new();
        let objs = starting_objects(&mut src, populate);
        let mut unsealed = src.clone();
        let mut separate = src.clone();
        separate.seal();
        src.seal();
        let mut changed = src.clone();
        let mut resealed_from = src.clone();
        for &(op, x, y) in &ops {
            mutate(&mut src, &mut objs.clone(), op, x, y);
        }

        let before = separate.clone();
        prop_assert_eq!(separate.mirror_from(&src), Err(HeapError::NotAtSharedSeal));
        prop_assert_eq!(&separate, &before);

        let before = unsealed.clone();
        prop_assert_eq!(unsealed.mirror_from(&src), Err(HeapError::NotSealed));
        prop_assert_eq!(&unsealed, &before);

        let mut source_unsealed = src.clone();
        source_unsealed.unseal();
        let mut twin = resealed_from.clone();
        prop_assert_eq!(twin.mirror_from(&source_unsealed), Err(HeapError::NotSealed));

        resealed_from.seal();
        let before = resealed_from.clone();
        let mut stale_twin = before.clone();
        src.seal();
        prop_assert_eq!(stale_twin.mirror_from(&src), Err(HeapError::NotAtSharedSeal));
        prop_assert_eq!(&stale_twin, &before);

        // A twin that moved off its seal: any write (even one storing
        // the value already there), allocation or registration counts.
        let mut source = changed.clone();
        let mut twin_objs = objs.clone();
        let pristine = changed.clone();
        for &(op, x, y) in &ops {
            mutate(&mut changed, &mut twin_objs, op, x, y);
        }
        mutate(&mut source, &mut objs.clone(), 0, 1, 1);
        let moved = changed != pristine;
        let before = changed.clone();
        let got = changed.mirror_from(&source);
        if moved {
            prop_assert_eq!(got, Err(HeapError::NotAtSharedSeal));
            prop_assert_eq!(&changed, &before);
        } else if got.is_ok() {
            prop_assert_eq!(&changed, &source);
        }
    }
}

//! A corpus section's entry count is only a claim until its entries
//! decode. A checksum-valid crafted section may claim as many entries
//! as it has bytes, and each entry may occupy hundreds of bytes in
//! memory, so the decoder must not reserve memory for the claim: the
//! decode has to fail with a `WireError` having allocated no more than
//! the input's own size. (The sections now decode mid-sweep, on the
//! first pipeline miss, so such a file must not be able to balloon a
//! running campaign.)
//!
//! This binary installs an allocator that records the largest single
//! allocation, so it holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use igjit_corpus::{encode_section, from_bytes, Encoder, Image, OutcomeKey, Section};
use igjit_difftest::InstructionOutcome;
use igjit_machine::Isa;

struct LargestAllocation;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; recording a size in an
// atomic neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's guarantees for
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

#[test]
fn crafted_entry_count_decodes_to_an_error_without_a_large_reservation() {
    // One MiB of zeros after a count of one entry per byte: plausible
    // to the length check, but a zero byte is no valid outcome key.
    const CLAIMED: usize = 1 << 20;
    let mut e = Encoder::new();
    e.usize(CLAIMED);
    e.raw(&vec![0u8; CLAIMED]);
    let payload = e.into_bytes();
    let entry = std::mem::size_of::<(OutcomeKey, InstructionOutcome)>();
    assert!(entry >= 64, "an outcome entry is large in memory ({entry} bytes)");

    // Through the wire layer directly…
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = from_bytes::<Vec<(OutcomeKey, InstructionOutcome)>>(&payload);
    assert!(decoded.is_err(), "a zero byte is no valid outcome key");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= payload.len(),
        "decoding reserved {largest} bytes for a {}-byte payload (the claim alone \
         would be {} bytes)",
        payload.len(),
        CLAIMED * entry
    );

    // …and through a checksum-valid file, as a campaign would meet it.
    let fp = igjit_corpus::fingerprints(false, &[Isa::X86ish]);
    let empty = encode_section::<u8, u8>([]);
    let file = Image::default().rebuild(&fp, [Some(empty.clone()), Some(empty), Some(payload)]);
    let (image, mut stats) = Image::parse(file.bytes().to_vec(), &fp);
    assert_eq!(stats.outcomes, CLAIMED, "the load itself reads only the count");
    assert!(stats.warnings.is_empty(), "{:?}", stats.warnings);
    LARGEST.store(0, Ordering::Relaxed);
    let corpus = image.decode_all(&mut stats);
    assert!(LARGEST.load(Ordering::Relaxed) <= file.bytes().len());
    assert!(corpus.outcomes.is_empty());
    assert_eq!(stats.outcomes, 0);
    assert_eq!(stats.warnings, vec![Section::Outcomes.decode_warning()]);
}

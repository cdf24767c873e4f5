//! The encoding rules, pinned where they live: every container impl must
//! round-trip, must not leak insertion order, and must write exactly the
//! bytes the hand-written version-1 encoders wrote (the references below
//! are spelled out in raw [`Enc`] primitives).

use super::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use vksim_testkit::prop::{check, u32_in, u64_in, vec_of, TestResult};
use vksim_testkit::{prop_assert, prop_assert_eq};

/// Records the largest single allocation any test thread asks for, so the
/// reservation cap can be observed instead of trusted.
struct LargestRequest;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to `System` unchanged; the only addition is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

fn bytes_of<T: Snap>(value: &T) -> Vec<u8> {
    let mut e = Enc::new();
    value.save(&mut e);
    e.into_bytes()
}

fn decode<T: Snap>(bytes: &[u8]) -> Result<T, String> {
    let mut d = Dec::new(bytes);
    let value = T::load(&mut d).map_err(|e| e.to_string())?;
    d.finish().map_err(|e| e.to_string())?;
    Ok(value)
}

/// (c) then (a): `value` encodes to exactly `reference`, and decodes back
/// to itself with nothing left over.
fn pinned_round_trip<T: Snap + PartialEq + Debug>(value: &T, reference: Enc) -> TestResult {
    let bytes = bytes_of(value);
    prop_assert_eq!(
        bytes,
        reference.into_bytes(),
        "{value:?} does not encode as the version-1 convention says"
    );
    prop_assert_eq!(&decode::<T>(&bytes)?, value);
    Ok(())
}

#[test]
fn scalars_strings_options_and_boxes_match_the_primitives() {
    check(
        &(u64_in(0, u64::MAX), u32_in(0, u32::MAX)),
        |&(wide, narrow)| {
            let float = f64::from_bits(wide); // every bit pattern, NaNs included
            let value = (
                (wide, narrow, narrow as u16, narrow as u8),
                (wide as i64, wide as usize, narrow & 1 == 1),
                Box::new(Some(narrow)),
                None::<u64>,
                format!("warp μ{narrow}"),
            );
            let mut e = Enc::new();
            e.u64(wide);
            e.u32(narrow);
            e.u16(narrow as u16);
            e.u8(narrow as u8);
            e.i64(wide as i64);
            e.usize(wide as usize);
            e.bool(narrow & 1 == 1);
            e.opt_u32(Some(narrow));
            e.opt_u64(None);
            e.str(&format!("warp μ{narrow}"));
            pinned_round_trip(&value, e)?;
            // Floats travel as bit patterns; compare them that way.
            let mut e = Enc::new();
            e.f64(float);
            e.f32(f32::from_bits(narrow));
            let bytes = bytes_of(&(float, f32::from_bits(narrow)));
            prop_assert_eq!(&bytes, &e.into_bytes());
            let (f, g) = decode::<(f64, f32)>(&bytes)?;
            prop_assert_eq!((f.to_bits(), g.to_bits()), (wide, narrow));
            prop_assert!(bytes_of(&()).is_empty(), "() occupies no bytes");
            Ok(())
        },
    );
}

#[test]
fn sequences_arrays_and_tuples_match_the_primitives() {
    let elems = vec_of((u64_in(0, u64::MAX), u32_in(0, 9)), 0, 12);
    check(&elems, |items| {
        // Length prefix, then elements; tuples concatenate.
        let reference = || {
            let mut e = Enc::new();
            e.seq(items.len());
            for &(a, b) in items {
                e.u64(a);
                e.u32(b);
            }
            e
        };
        pinned_round_trip(items, reference())?;
        pinned_round_trip(&VecDeque::from(items.clone()), reference())?;
        // Nested sequences nest their prefixes; arrays carry none.
        let nested: Vec<Vec<u32>> = items.iter().map(|&(_, b)| vec![b; b as usize]).collect();
        let mut e = Enc::new();
        e.seq(nested.len());
        for inner in &nested {
            e.seq(inner.len());
            inner.iter().for_each(|&v| e.u32(v));
        }
        pinned_round_trip(&nested, e)?;
        let array: [Option<u32>; 4] = std::array::from_fn(|i| items.get(i).map(|&(_, b)| b));
        let mut e = Enc::new();
        array.iter().for_each(|&slot| e.opt_u32(slot));
        pinned_round_trip(&array, e)?;
        let wide = (true, 1u32, 2u32, 3u64, 4u8, 5.5f32);
        let mut e = Enc::new();
        e.bool(true);
        e.u32(1);
        e.u32(2);
        e.u64(3);
        e.u8(4);
        e.f32(5.5);
        pinned_round_trip(&wide, e)
    });
}

#[test]
fn unordered_containers_are_written_sorted_whatever_the_insertion_order() {
    let entries = vec_of((u32_in(0, 40), u64_in(0, u64::MAX)), 0, 24);
    check(&entries, |entries| {
        // Last write wins per key, as in a map.
        let sorted: BTreeMap<u32, u64> = entries.iter().copied().collect();
        let keys: BTreeSet<u32> = sorted.keys().copied().collect();
        let map_reference = || {
            let mut e = Enc::new();
            e.seq(sorted.len());
            for (&k, &v) in &sorted {
                e.u32(k);
                e.u64(v);
            }
            e
        };
        let set_reference = || {
            let mut e = Enc::new();
            e.seq(keys.len());
            keys.iter().for_each(|&k| e.u32(k));
            e
        };
        pinned_round_trip(&sorted, map_reference())?;
        pinned_round_trip(&keys, set_reference())?;
        // (b) Build the hashed containers forwards and backwards.
        let forward: HashMap<u32, u64> = sorted.iter().map(|(&k, &v)| (k, v)).collect();
        let backward: HashMap<u32, u64> = sorted.iter().rev().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(bytes_of(&forward), bytes_of(&backward));
        pinned_round_trip(&forward, map_reference())?;
        let forward: HashSet<u32> = keys.iter().copied().collect();
        let backward: HashSet<u32> = keys.iter().rev().copied().collect();
        prop_assert_eq!(bytes_of(&forward), bytes_of(&backward));
        pinned_round_trip(&forward, set_reference())?;
        // A key-only map (`HashMap<K, ()>`) is its sorted keys.
        let seen: HashMap<u32, ()> = keys.iter().map(|&k| (k, ())).collect();
        pinned_round_trip(&seen, set_reference())?;
        // A min-heap is its contents ascending, duplicates and all.
        let mut ascending: Vec<(u64, u32)> = entries.iter().map(|&(k, v)| (v, k)).collect();
        ascending.sort_unstable();
        let forward: BinaryHeap<Reverse<(u64, u32)>> =
            ascending.iter().copied().map(Reverse).collect();
        let mut backward = BinaryHeap::new();
        ascending
            .iter()
            .rev()
            .for_each(|&item| backward.push(Reverse(item)));
        let mut e = Enc::new();
        e.seq(ascending.len());
        for &(v, k) in &ascending {
            e.u64(v);
            e.u32(k);
        }
        let reference = e.into_bytes();
        prop_assert_eq!(&bytes_of(&forward), &reference);
        prop_assert_eq!(&bytes_of(&backward), &reference);
        let mut reloaded = decode::<BinaryHeap<Reverse<(u64, u32)>>>(&reference)?;
        let popped: Vec<(u64, u32)> = std::iter::from_fn(|| reloaded.pop().map(|r| r.0)).collect();
        prop_assert_eq!(popped, ascending);
        Ok(())
    });
}

#[derive(Debug, PartialEq)]
enum Probe {
    Unit,
    Payload(u32),
}

impl Snap for Probe {
    fn save(&self, e: &mut Enc) {
        match *self {
            Probe::Unit => e.u8(0),
            Probe::Payload(v) => {
                e.u8(1);
                e.u32(v);
            }
        }
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match d.u8()? {
            0 => Probe::Unit,
            1 => Probe::Payload(d.u32()?),
            t => return Err(SnapError::bad_tag::<Self>(t)),
        })
    }
}

#[test]
fn tag_errors_name_the_type() {
    let malformed = |err: Result<_, String>| err.expect_err("tag 7 is not a variant");
    let option = malformed(decode::<Option<u32>>(&[7]).map(|_| ()));
    assert!(
        option.contains("Option<u32>") && option.contains("tag 7"),
        "{option}"
    );
    let nested = malformed(decode::<Vec<Option<Box<Probe>>>>(&bytes_of(&vec![7u8])).map(|_| ()));
    assert!(
        nested.contains("Probe") && nested.contains("tag 7"),
        "{nested}"
    );
    let variant = malformed(decode::<Probe>(&[7]).map(|_| ()));
    assert!(
        variant.contains("Probe") && variant.contains("tag 7"),
        "{variant}"
    );
    assert_eq!(decode::<Probe>(&[1, 9, 0, 0, 0]), Ok(Probe::Payload(9)));
    assert_eq!(decode::<Probe>(&[0]), Ok(Probe::Unit));
}

#[test]
fn an_inflated_length_reserves_for_decoded_elements_not_claimed_ones() {
    // One length prefix claiming a million 1 KiB elements, backed by a
    // megabyte of payload so `Dec::seq`'s bytes-remaining bound lets it
    // through: an uncapped `with_capacity` would ask for a gibibyte.
    const CLAIMED: usize = 1 << 20;
    let mut bytes = bytes_of(&(CLAIMED as u64));
    bytes.resize(8 + CLAIMED, 0xff);
    let err = decode::<Vec<[u64; 128]>>(&bytes).expect_err("the payload runs out");
    assert!(err.contains("truncated"), "{err}");
    let err = decode::<HashMap<u64, [u64; 128]>>(&bytes).expect_err("the payload runs out");
    assert!(err.contains("truncated"), "{err}");
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest <= 8 * CLAIMED,
        "decoding reserved {largest} bytes for a {} byte payload",
        bytes.len()
    );
}

struct Slice {
    sets: Vec<u32>,
    hits: u64,
    ways: u32,
}

crate::snap_state!(Slice {
    sets: with(Snap::save, |sets, d| load_fixed(sets, d)),
    // A restore closure may consult a skipped field by name.
    hits: with(Snap::save, |hits, d| {
        *hits = u64::load(d)? * u64::from(*ways);
        Ok(())
    }),
} skip { ways });

struct Machine {
    slices: Vec<Slice>,
    victim: Option<Slice>,
    cycle: u64,
}

crate::snap_state!(Machine {
    slices: with(
        |slices, e| save_each(slices, e, Slice::save),
        |slices, d| restore_each(slices, d, Slice::restore)
    ),
    victim: with(
        |victim, e| save_opt(victim, e, Slice::save),
        |victim, d| restore_opt(victim, d, Slice::restore)
    ),
    cycle,
} skip {});

fn slice(sets: usize, ways: u32) -> Slice {
    Slice {
        sets: vec![0; sets],
        hits: 0,
        ways,
    }
}

#[test]
fn state_restores_in_place_and_refuses_another_configurations_shape() {
    let mut saved = Machine {
        slices: vec![slice(2, 1), slice(2, 1)],
        victim: Some(slice(1, 1)),
        cycle: 77,
    };
    saved.slices[1].sets = vec![5, 6];
    saved.slices[1].hits = 10;
    let mut e = Enc::new();
    saved.save(&mut e);
    let bytes = e.into_bytes();
    // Reference: count, then per slice (set count, sets, hits); presence
    // byte, the victim; the cycle.
    let mut e = Enc::new();
    e.seq(2);
    for (sets, hits) in [([0u32, 0], 0u64), ([5, 6], 10)] {
        e.seq(2);
        sets.iter().for_each(|&s| e.u32(s));
        e.u64(hits);
    }
    e.u8(1);
    e.seq(1);
    e.u32(0);
    e.u64(0);
    e.u64(77);
    assert_eq!(bytes, e.into_bytes());

    let fresh = |slices: usize, sets: usize, victim: bool| Machine {
        slices: (0..slices).map(|_| slice(sets, 3)).collect(),
        victim: victim.then(|| slice(1, 3)),
        cycle: 0,
    };
    let mut same = fresh(2, 2, true);
    same.restore(&mut Dec::new(&bytes)).expect("same shape");
    assert_eq!(same.cycle, 77);
    assert_eq!(same.slices[1].sets, vec![5, 6]);
    assert_eq!(same.slices[1].ways, 3, "skipped fields keep what was built");
    assert_eq!(same.slices[1].hits, 30);

    let refusal = |mut machine: Machine| {
        machine
            .restore(&mut Dec::new(&bytes))
            .expect_err("another configuration's snapshot")
            .to_string()
    };
    let err = refusal(fresh(3, 2, true));
    assert!(
        err.contains("has 2") && err.contains("Slice") && err.contains("builds 3"),
        "{err}"
    );
    let err = refusal(fresh(2, 4, true));
    assert!(
        err.contains("has 2") && err.contains("u32") && err.contains("builds 4"),
        "{err}"
    );
    let err = refusal(fresh(2, 2, false));
    assert!(
        err.contains("Slice presence mismatch") && err.contains("has one"),
        "{err}"
    );
}

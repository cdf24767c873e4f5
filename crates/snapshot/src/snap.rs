//! The [`Snap`] trait, its container impls and the two field-list macros:
//! the one place the machine-state encoding rules live.
//!
//! The convention (unchanged since format version 1): integers are
//! fixed-width little-endian, `usize` travels as `u64`, an `Option` is a
//! 0/1 byte then the value, a sequence is a `u64` length then its
//! elements, tuples and fixed-size arrays are their elements concatenated
//! with no prefix, hash maps and hash sets are written sorted by key and a
//! min-heap as its sorted contents — so identical state always encodes to
//! identical bytes.

use crate::{Dec, Enc, SnapError};
use std::any::type_name;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

/// A value that writes itself into a snapshot and reads itself back.
///
/// Structs get their impl from [`snap_struct!`](crate::snap_struct);
/// payload enums write theirs by hand because their tags *are* the
/// format. Types that cannot be built without a configuration (caches,
/// SMs, the whole GPU) are not `Snap`: they use
/// [`snap_state!`](crate::snap_state), which restores in place.
pub trait Snap: Sized {
    /// Appends this value to `e`.
    fn save(&self, e: &mut Enc);

    /// Reads back a value written by [`Snap::save`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] past the end of the payload,
    /// [`SnapError::Malformed`] on an impossible value.
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError>;
}

impl SnapError {
    /// The error for an unknown variant tag of `T` (an `Option` presence
    /// byte, an enum discriminant); names the type so the message stays
    /// diagnosable.
    pub fn bad_tag<T>(tag: u8) -> SnapError {
        SnapError::Malformed(format!("{} tag {tag}", type_name::<T>()))
    }
}

macro_rules! snap_primitive {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            fn save(&self, e: &mut Enc) {
                e.$ty(*self);
            }
            fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
                d.$ty()
            }
        }
    )*};
}
snap_primitive!(u8, u16, u32, u64, i64, usize, f32, f64, bool);

impl Snap for () {
    fn save(&self, _: &mut Enc) {}
    fn load(_: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Snap for String {
    fn save(&self, e: &mut Enc) {
        e.str(self);
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.save(e);
            }
        }
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(d)?)),
            t => Err(SnapError::bad_tag::<Self>(t)),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, e: &mut Enc) {
        (**self).save(e);
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(d)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, e: &mut Enc) {
        self.iter().for_each(|v| v.save(e));
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::load(d)?);
        }
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements were pushed")))
    }
}

macro_rules! snap_tuple {
    ($($T:ident / $idx:tt),+) => {
        impl<$($T: Snap),+> Snap for ($($T,)+) {
            fn save(&self, e: &mut Enc) {
                $(self.$idx.save(e);)+
            }
            fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
                Ok(($($T::load(d)?,)+))
            }
        }
    };
}
snap_tuple!(A / 0, B / 1);
snap_tuple!(A / 0, B / 1, C / 2);
snap_tuple!(A / 0, B / 1, C / 2, D / 3);
snap_tuple!(A / 0, B / 1, C / 2, D / 3, E / 4);
snap_tuple!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Most elements a sequence decode reserves before it has decoded any.
/// [`Dec::seq`] bounds a count by the *bytes* remaining, so reserving
/// `count` multi-word elements up front would let one inflated length
/// allocate `size_of::<T>()` times the file size; past this the vector
/// grows by push, so memory tracks elements actually decoded.
const RESERVE_CAP: usize = 4096;

fn save_seq<'a, T: Snap + 'a>(e: &mut Enc, items: impl ExactSizeIterator<Item = &'a T>) {
    e.seq(items.len());
    items.for_each(|v| v.save(e));
}

/// Writes `items` sorted: the determinism rule for unordered containers.
fn save_sorted<T: Snap + Ord>(e: &mut Enc, mut items: Vec<&T>) {
    items.sort_unstable();
    save_seq(e, items.into_iter());
}

fn load_seq<T: Snap>(d: &mut Dec<'_>) -> Result<Vec<T>, SnapError> {
    let n = d.seq()?;
    let mut items = Vec::with_capacity(n.min(RESERVE_CAP));
    for _ in 0..n {
        items.push(T::load(d)?);
    }
    Ok(items)
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, e: &mut Enc) {
        save_seq(e, self.iter());
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        load_seq(d)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, e: &mut Enc) {
        save_seq(e, self.iter());
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        load_seq(d).map(VecDeque::from)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, e: &mut Enc) {
        e.seq(self.len());
        for (k, v) in self {
            k.save(e);
            v.save(e);
        }
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(load_seq::<(K, V)>(d)?.into_iter().collect())
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn save(&self, e: &mut Enc) {
        save_seq(e, self.iter());
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(load_seq(d)?.into_iter().collect())
    }
}

impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn save(&self, e: &mut Enc) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        e.seq(entries.len());
        for (k, v) in entries {
            k.save(e);
            v.save(e);
        }
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(load_seq::<(K, V)>(d)?.into_iter().collect())
    }
}

impl<T: Snap + Ord + Hash, S: BuildHasher + Default> Snap for HashSet<T, S> {
    fn save(&self, e: &mut Enc) {
        save_sorted(e, self.iter().collect());
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(load_seq(d)?.into_iter().collect())
    }
}

/// A min-heap is written as its contents in ascending order.
impl<T: Snap + Ord> Snap for BinaryHeap<Reverse<T>> {
    fn save(&self, e: &mut Enc) {
        save_sorted(e, self.iter().map(|r| &r.0).collect());
    }
    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(load_seq(d)?.into_iter().map(Reverse).collect())
    }
}

/// Writes a configuration-sized sequence whose elements save themselves
/// through `save` (usually an inherent `save` generated by
/// [`snap_state!`](crate::snap_state)): the count, then each element.
pub fn save_each<T>(items: &[T], e: &mut Enc, save: impl Fn(&T, &mut Enc)) {
    e.seq(items.len());
    items.iter().for_each(|item| save(item, e));
}

/// Restores, in place, a sequence written by [`save_each`] (or by the
/// `Vec<T>` impl) into elements the resuming configuration already built.
///
/// # Errors
///
/// A count that disagrees with `items.len()` is a snapshot of a different
/// machine: [`SnapError::Malformed`], naming the element type.
pub fn restore_each<T>(
    items: &mut [T],
    d: &mut Dec<'_>,
    mut restore: impl FnMut(&mut T, &mut Dec<'_>) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    let n = d.seq()?;
    if n != items.len() {
        return Err(SnapError::Malformed(format!(
            "snapshot has {n} {}, this configuration builds {}",
            type_name::<T>(),
            items.len()
        )));
    }
    items.iter_mut().try_for_each(|item| restore(item, d))
}

/// [`restore_each`] for plain [`Snap`] elements: a sequence whose length
/// the configuration fixes (cache sets, return credits, per-SM queues).
///
/// # Errors
///
/// As [`restore_each`], plus the elements' own decode errors.
pub fn load_fixed<T: Snap>(items: &mut [T], d: &mut Dec<'_>) -> Result<(), SnapError> {
    restore_each(items, d, |item, d| {
        *item = T::load(d)?;
        Ok(())
    })
}

/// Writes an optional component the configuration switches on or off: the
/// `Option` presence byte, then the component through `save`.
pub fn save_opt<T>(slot: &Option<T>, e: &mut Enc, save: impl FnOnce(&T, &mut Enc)) {
    slot.as_ref().map(|_| ()).save(e);
    if let Some(v) = slot {
        save(v, e);
    }
}

/// Restores, in place, a component written by [`save_opt`].
///
/// # Errors
///
/// A snapshot that carries the component where the resuming configuration
/// did not build one (or the reverse) is [`SnapError::Malformed`], naming
/// the component type.
pub fn restore_opt<T>(
    slot: &mut Option<T>,
    d: &mut Dec<'_>,
    restore: impl FnOnce(&mut T, &mut Dec<'_>) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    match (Option::<()>::load(d)?, slot) {
        (Some(()), Some(v)) => restore(v, d),
        (None, None) => Ok(()),
        (in_snapshot, _) => {
            let (snapshot, config) = if in_snapshot.is_some() {
                ("has", "builds none")
            } else {
                ("lacks", "builds one")
            };
            Err(SnapError::Malformed(format!(
                "{} presence mismatch: snapshot {snapshot} one, this configuration {config}",
                type_name::<T>()
            )))
        }
    }
}

/// Pins the argument types of a `with(..)` save closure so its body
/// type-checks. Not public API.
#[doc(hidden)]
pub fn __with_save<T>(field: &T, e: &mut Enc, save: impl FnOnce(&T, &mut Enc)) {
    save(field, e);
}

/// Pins the argument types of a `with(..)` restore closure. Not public
/// API.
#[doc(hidden)]
pub fn __with_restore<T>(
    field: &mut T,
    d: &mut Dec<'_>,
    restore: impl FnOnce(&mut T, &mut Dec<'_>) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    restore(field, d)
}

/// Implements [`Snap`] for a plain struct from its field list, in
/// serialization order.
///
/// Both directions go through an exhaustive form — `save` destructures
/// `Self` with no `..` rest pattern, `load` builds a struct literal — so a
/// field added to the struct and not to the list does not compile:
///
/// ```
/// struct Lane { next: usize, outstanding: u32 }
/// vksim_snapshot::snap_struct!(Lane { next, outstanding });
/// ```
///
/// ```compile_fail
/// struct Lane { next: usize, outstanding: u32 }
/// vksim_snapshot::snap_struct!(Lane { next }); // `outstanding` is forgotten
/// ```
///
/// A trailing `skip { .. }` lists derived fields: not written, `Default`
/// on load.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),* $(,)? } $(skip { $($skip:ident),* $(,)? })?) => {
        impl $crate::Snap for $ty {
            fn save(&self, e: &mut $crate::Enc) {
                let Self { $($field,)* $($($skip: _,)*)? } = self;
                $($crate::Snap::save($field, e);)*
            }
            fn load(d: &mut $crate::Dec<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $($field: $crate::Snap::load(d)?,)* $($($skip: Default::default(),)*)? })
            }
        }
    };
}

/// Generates `save(&self, &mut Enc)` and `restore(&mut self, &mut Dec)`
/// for a configuration-bound type: one that is first built from the
/// resuming configuration and then has its dynamic state restored in
/// place.
///
/// The first list names every serialized field in serialization order,
/// the `skip` list every field that is *not* written (configuration,
/// scene references, derived caches) and keeps what the constructor gave
/// it. Both functions destructure `Self` with no `..` rest pattern, so a
/// field in neither list does not compile. A listed field is one of:
///
/// * `name` — a [`Snap`](crate::Snap) value, replaced wholesale;
/// * `name: state` — itself configuration-bound: calls its own
///   `save` / `restore`;
/// * `name: with(save, restore)` — the explicit special cases.
///   `save: Fn(&T, &mut Enc)` and
///   `restore: Fn(&mut T, &mut Dec) -> Result<(), SnapError>` are paths or
///   closures; closures may use the other fields (skipped ones included)
///   by name.
///
/// A trailing `then method` names a `fn(&mut self) -> Result<(), SnapError>`
/// that `restore` calls last, to rebuild skipped derived state.
///
/// ```
/// use vksim_snapshot::{load_fixed, Dec, Enc, Snap};
/// struct Cache { line_bytes: u64, sets: Vec<u64>, stamp: u64 }
/// vksim_snapshot::snap_state!(Cache {
///     sets: with(Snap::save, |sets, d| load_fixed(sets, d)),
///     stamp,
/// } skip { line_bytes });
///
/// let mut e = Enc::new();
/// Cache { line_bytes: 128, sets: vec![7, 8], stamp: 3 }.save(&mut e);
/// let bytes = e.into_bytes();
/// let mut fresh = Cache { line_bytes: 128, sets: vec![0, 0], stamp: 0 };
/// fresh.restore(&mut Dec::new(&bytes)).unwrap();
/// assert_eq!((fresh.sets, fresh.stamp), (vec![7, 8], 3));
/// let mut other = Cache { line_bytes: 128, sets: vec![0; 4], stamp: 0 };
/// assert!(other.restore(&mut Dec::new(&bytes)).is_err()); // 2 sets vs 4
/// ```
#[macro_export]
macro_rules! snap_state {
    (
        $ty:ident {
            $($field:ident $(: $mode:ident $(($($arg:expr),+))?)?),* $(,)?
        } skip { $($skip:ident),* $(,)? } $(then $then:ident)?
    ) => {
        impl $ty {
            /// Serializes the dynamic state for a machine-state snapshot.
            /// Configuration-derived fields are not written; `restore`
            /// keeps the ones the resuming configuration built.
            pub fn save(&self, e: &mut $crate::Enc) {
                let Self { $($field,)* $($skip,)* } = self;
                let _ = ($(&$skip,)*);
                $($crate::snap_state!(@save e $field $($mode $(($($arg),+))?)?);)*
            }

            /// Restores state written by `save` into `self`, freshly
            /// built from the resuming configuration.
            ///
            /// # Errors
            ///
            /// Decoder errors, and `Malformed` when the snapshot's shape
            /// disagrees with what this configuration built.
            pub fn restore(
                &mut self,
                d: &mut $crate::Dec<'_>,
            ) -> Result<(), $crate::SnapError> {
                let Self { $($field,)* $($skip,)* } = self;
                let _ = ($(&$skip,)*);
                $($crate::snap_state!(@restore d $field $($mode $(($($arg),+))?)?);)*
                $(self.$then()?;)?
                Ok(())
            }
        }
    };
    (@save $e:ident $field:ident) => {
        $crate::Snap::save($field, $e)
    };
    (@save $e:ident $field:ident state) => {
        $field.save($e)
    };
    (@save $e:ident $field:ident with($save:expr, $restore:expr)) => {
        $crate::__with_save($field, $e, $save)
    };
    (@restore $d:ident $field:ident) => {
        *$field = $crate::Snap::load($d)?
    };
    (@restore $d:ident $field:ident state) => {
        $field.restore($d)?
    };
    (@restore $d:ident $field:ident with($save:expr, $restore:expr)) => {
        $crate::__with_restore($field, $d, $restore)?
    };
}

#[cfg(test)]
mod tests;

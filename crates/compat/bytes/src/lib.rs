//! Offline drop-in subset of the `bytes` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the small slice of the `bytes` API it actually uses: [`Bytes`] — a
//! cheaply cloneable, reference-counted, sliceable byte buffer. Slices
//! share the parent's backing allocation (zero copy), which some wire
//! tests assert on.

#![warn(missing_docs)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous slice of immutable bytes.
///
/// Clones and [`Bytes::slice`] views share one reference-counted backing
/// allocation; no data is copied.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[inline]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte slice (copied once into the shared allocation).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }

    /// Copy `s` into a new buffer: one allocation, one copy (none at all
    /// for an empty slice).
    pub fn copy_from_slice(s: &[u8]) -> Self {
        if s.is_empty() {
            return Bytes::new();
        }
        Bytes { data: Arc::from(s), start: 0, end: s.len() }
    }

    /// A buffer over the whole of `owner`, sharing it: no copy. Upstream
    /// takes any owner; the workspace only ever hands it a shared slice.
    pub fn from_owner(owner: Arc<[u8]>) -> Self {
        let end = owner.len();
        Bytes { data: owner, start: 0, end }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing this buffer's backing allocation.
    ///
    /// # Panics
    /// If the range is out of bounds or inverted.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of bounds of {}", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// The sub-view of this buffer that `subset` occupies, sharing the
    /// backing allocation — for handing out part of a buffer that was
    /// parsed through a borrowed `&[u8]`. An empty `subset` gives an
    /// empty buffer.
    ///
    /// # Panics
    /// If `subset` does not lie within this view.
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ptr() as usize;
        let at = subset.as_ptr() as usize;
        assert!(
            at >= base && at + subset.len() <= base + self.len(),
            "slice_ref: subset is not part of this buffer"
        );
        self.slice(at - base..at - base + subset.len())
    }

    /// Mutable access to this view's bytes, copy-on-write.
    ///
    /// If this `Bytes` is the sole owner of its backing allocation, the
    /// bytes are patched in place (zero copy — the relay path). If the
    /// allocation is shared with clones or sub-slices (e.g. a flood batch
    /// fanned out across ports), the view's range is first copied into a
    /// fresh private allocation so the other holders never observe the
    /// mutation.
    #[inline]
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.data).is_none() {
            let copy: Arc<[u8]> = self.data[self.start..self.end].into();
            self.data = copy;
            self.start = 0;
            self.end = self.data.len();
        }
        let (start, end) = (self.start, self.end);
        // The branch above guaranteed uniqueness; a concurrent clone is
        // impossible while we hold `&mut self`.
        match Arc::get_mut(&mut self.data) {
            Some(buf) => &mut buf[start..end],
            None => unreachable!("sole owner after copy-on-write"),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes { data, start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let base = b.as_ptr() as usize;
        let p = s.as_ptr() as usize;
        assert!(p >= base && p < base + b.len());
    }

    #[test]
    fn slice_ref_finds_the_borrowed_range() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]).slice(1..);
        let s = b.slice_ref(&b[1..3]);
        assert_eq!(&s[..], &[3, 4]);
        assert_eq!(s.as_ptr(), b[1..].as_ptr(), "shares the allocation");
        assert!(b.slice_ref(&b[2..2]).is_empty());
    }

    #[test]
    fn from_owner_shares_the_allocation() {
        let owner: Arc<[u8]> = Arc::from(&[1u8, 2, 3][..]);
        let b = Bytes::from_owner(Arc::clone(&owner));
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.as_ptr(), owner.as_ptr(), "no copy");
    }

    #[test]
    #[should_panic(expected = "not part of this buffer")]
    fn slice_ref_rejects_foreign_slices() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let other = [1u8, 2, 3];
        let _ = b.slice_ref(&other);
    }

    #[test]
    fn empty_and_equality() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
        assert_eq!(Bytes::from_static(b"abc"), *b"abc");
    }

    #[test]
    fn make_mut_unique_patches_in_place() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4]);
        let before = b.as_ptr();
        b.make_mut()[2] = 9;
        assert_eq!(&b[..], &[1, 2, 9, 4]);
        assert_eq!(b.as_ptr(), before, "sole owner must not reallocate");
    }

    #[test]
    fn make_mut_shared_copies_on_write() {
        let mut a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        a.make_mut()[0] = 9;
        assert_eq!(&a[..], &[9, 2, 3, 4]);
        assert_eq!(&b[..], &[1, 2, 3, 4], "clone must not see the write");
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn make_mut_on_slice_view_keeps_parent_intact() {
        let parent = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let mut view = parent.slice(2..5);
        view.make_mut()[0] = 9;
        assert_eq!(&view[..], &[9, 3, 4]);
        assert_eq!(&parent[..], &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn range_forms() {
        let b = Bytes::from(vec![0u8, 1, 2, 3]);
        assert_eq!(&b.slice(..)[..], &[0, 1, 2, 3]);
        assert_eq!(&b.slice(2..)[..], &[2, 3]);
        assert_eq!(&b.slice(..2)[..], &[0, 1]);
        assert_eq!(&b.slice(1..=2)[..], &[1, 2]);
    }
}

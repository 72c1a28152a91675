//! A bump-reset scratch arena for allocation-free compute hot paths.
//!
//! [`Scratch`] owns one flat `f32` slab and hands out [`ScratchSlot`]
//! handles — `(start, len)` ranges into the slab — from a bump cursor.
//! [`Scratch::reset`] rewinds the cursor without releasing the slab, so a
//! loop that allocates the same sequence of buffers every iteration (a
//! training step: batch input, per-layer activations, per-layer gradients)
//! touches the allocator only while the slab grows toward its high-water
//! mark; after the first full-sized iteration every `alloc` is a cursor
//! bump plus a `fill(0.0)`.
//!
//! # Why handles instead of borrows
//!
//! A training step needs many arena buffers alive at once (every layer's
//! activation survives until the backward pass), which rules out handing
//! out `&mut [f32]` directly from one owner. Slots are `Copy` indices;
//! callers materialise short-lived views with [`Scratch::slice`] /
//! [`Scratch::slice_mut`], and [`Scratch::ro_rw`] splits the slab to view
//! two *disjoint* slots at once (one read-only input, one mutable output —
//! the shape of every kernel call in a layer). Disjointness is asserted
//! and the split is `split_at_mut`, so the arena holds no `unsafe` code.
//!
//! # Invariants
//!
//! * `alloc` zero-fills the returned range — arena buffers behave exactly
//!   like freshly allocated `Tensor::zeros` storage, so a step never sees
//!   what the previous step left in the slab.
//! * Slots are only valid until the next [`Scratch::reset`]; the arena
//!   does not track liveness (that is the point — per-step lifetimes are
//!   enforced by the training loop's structure).
//! * Growing the slab never invalidates slots: handles are indices, not
//!   pointers.

/// A range handle into a [`Scratch`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchSlot {
    start: usize,
    len: usize,
}

impl ScratchSlot {
    /// Number of `f32` elements in the slot.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slot holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn end(&self) -> usize {
        self.start + self.len
    }

    #[inline]
    fn disjoint(&self, other: &ScratchSlot) -> bool {
        self.end() <= other.start || other.end() <= self.start
    }
}

/// Bump-allocating, reset-per-step `f32` arena (see the module docs).
#[derive(Debug, Default)]
pub struct Scratch {
    data: Vec<f32>,
    cursor: usize,
}

/// Cloning a model must not drag a step's transient buffers along: a clone
/// starts with an empty arena and re-grows on its own first step.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::new()
    }
}

impl Scratch {
    /// An empty arena (no slab until the first `alloc`).
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Rewind the bump cursor, invalidating all outstanding slots and
    /// keeping the slab for reuse.
    #[inline]
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Carve a zero-filled slot of `len` elements off the bump cursor.
    ///
    /// Grows the slab when the cursor passes its current size; steady
    /// state (cursor stays under the high-water mark) performs no heap
    /// allocation.
    pub fn alloc(&mut self, len: usize) -> ScratchSlot {
        let start = self.cursor;
        let end = start + len;
        if self.data.len() < end {
            self.data.resize(end, 0.0);
        }
        self.data[start..end].fill(0.0);
        self.cursor = end;
        ScratchSlot { start, len }
    }

    /// Read-only view of a slot.
    #[inline]
    pub fn slice(&self, slot: ScratchSlot) -> &[f32] {
        &self.data[slot.start..slot.end()]
    }

    /// Mutable view of a slot.
    #[inline]
    pub fn slice_mut(&mut self, slot: ScratchSlot) -> &mut [f32] {
        &mut self.data[slot.start..slot.end()]
    }

    /// Simultaneous `(read-only, mutable)` views of two disjoint slots —
    /// the kernel-call shape (`input`, `output`) every layer needs.
    ///
    /// # Panics
    /// Panics when the slots overlap.
    pub fn ro_rw(&mut self, ro: ScratchSlot, rw: ScratchSlot) -> (&[f32], &mut [f32]) {
        assert!(ro.disjoint(&rw), "ro_rw: slots alias ({ro:?} vs {rw:?})");
        if ro.start < rw.start {
            let (lo, hi) = self.data.split_at_mut(rw.start);
            (&lo[ro.start..ro.end()], &mut hi[..rw.len])
        } else {
            let (lo, hi) = self.data.split_at_mut(ro.start);
            (&hi[..ro.len], &mut lo[rw.start..rw.end()])
        }
    }

    /// Slab size — the high-water mark of any step so far.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// [`Scratch::capacity`] in **bytes** — the heap footprint the arena
    /// has grown to across all steps so far. Benchmarks report this so
    /// arena growth regressions (a layer carving more scratch than it
    /// used to) are visible in the recorded numbers, not just in RSS.
    #[inline]
    pub fn high_water_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zero_filled_and_bumping() {
        let mut s = Scratch::new();
        let a = s.alloc(4);
        s.slice_mut(a).copy_from_slice(&[1., 2., 3., 4.]);
        let b = s.alloc(2);
        assert_eq!(s.slice(b), &[0.0, 0.0]);
        assert_eq!(
            s.slice(a),
            &[1., 2., 3., 4.],
            "later allocs must not clobber"
        );
    }

    #[test]
    fn reset_reuses_the_slab_and_rezeroes() {
        let mut s = Scratch::new();
        let a = s.alloc(8);
        s.slice_mut(a).fill(7.0);
        let cap = s.capacity();
        let ptr = s.slice(a).as_ptr();
        s.reset();
        let b = s.alloc(8);
        assert_eq!(s.capacity(), cap, "reset must not shrink the slab");
        assert_eq!(s.slice(b).as_ptr(), ptr, "same storage reused");
        assert!(s.slice(b).iter().all(|&x| x == 0.0), "allocs re-zero");
    }

    #[test]
    fn ro_rw_gives_disjoint_views_in_both_orders() {
        let mut s = Scratch::new();
        let a = s.alloc(3);
        let b = s.alloc(3);
        s.slice_mut(a).copy_from_slice(&[1., 2., 3.]);
        {
            let (ro, rw) = s.ro_rw(a, b);
            rw.copy_from_slice(ro);
        }
        assert_eq!(s.slice(b), &[1., 2., 3.]);
        {
            let (ro, rw) = s.ro_rw(b, a);
            for (w, r) in rw.iter_mut().zip(ro) {
                *w += r;
            }
        }
        assert_eq!(s.slice(a), &[2., 4., 6.]);
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn aliasing_ro_rw_panics() {
        // A slot kept across `reset` overlaps what the next step carves.
        let mut s = Scratch::new();
        let _ = s.alloc(1);
        let stale = s.alloc(4);
        s.reset();
        let fresh = s.alloc(3);
        let _ = s.ro_rw(stale, fresh);
    }

    #[test]
    fn growth_keeps_existing_slots_valid() {
        let mut s = Scratch::new();
        let a = s.alloc(2);
        s.slice_mut(a).copy_from_slice(&[9., 8.]);
        let _big = s.alloc(1 << 16); // force slab reallocation
        assert_eq!(s.slice(a), &[9., 8.]);
    }

    #[test]
    fn clone_starts_empty() {
        let mut s = Scratch::new();
        let _ = s.alloc(16);
        let c = s.clone();
        assert_eq!(c.capacity(), 0);
    }
}

//! Arena-resident activation buffers.
//!
//! A step never materialises [`fedhisyn_tensor::Tensor`]s between layers:
//! activations, gradients and im2col workspaces all live in the model's
//! per-step [`Scratch`] arena, and what flows through
//! `Layer::forward_arena`/`backward_arena` is an [`ArenaBuf`] — a
//! `Copy` handle pairing a [`ScratchSlot`] with a stack-allocated shape
//! (rank ≤ 4, so no heap `Vec<usize>` per batch either).
//!
//! An `ArenaBuf` is only meaningful against the arena it was carved from
//! and only until that arena's next reset; the training loop's
//! one-reset-per-step structure enforces both.

use fedhisyn_tensor::{Scratch, ScratchSlot};

/// Maximum tensor rank an [`ArenaBuf`] carries (batch-first `[B, C, H, W]`).
pub const MAX_RANK: usize = 4;

/// A shaped handle to a buffer inside a [`Scratch`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaBuf {
    slot: ScratchSlot,
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl ArenaBuf {
    /// Wrap a slot with its logical shape.
    ///
    /// # Panics
    /// Panics when the rank exceeds [`MAX_RANK`] or the shape's element
    /// count disagrees with the slot length.
    pub fn new(slot: ScratchSlot, dims: &[usize]) -> Self {
        assert!(
            (1..=MAX_RANK).contains(&dims.len()),
            "ArenaBuf rank {} out of range",
            dims.len()
        );
        let elems: usize = dims.iter().product();
        assert_eq!(elems, slot.len(), "ArenaBuf shape/slot length mismatch");
        let mut d = [1usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        ArenaBuf {
            slot,
            dims: d,
            rank: dims.len(),
        }
    }

    /// The underlying arena slot.
    #[inline]
    pub fn slot(&self) -> ScratchSlot {
        self.slot
    }

    /// The logical shape.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Leading (batch) dimension.
    #[inline]
    pub fn batch(&self) -> usize {
        self.dims[0]
    }

    /// The same storage under a different shape (element count preserved —
    /// the arena counterpart of a zero-copy reshape).
    pub fn reshaped(&self, dims: &[usize]) -> ArenaBuf {
        ArenaBuf::new(self.slot, dims)
    }

    /// Read-only view into `scratch`.
    #[inline]
    pub fn read<'s>(&self, scratch: &'s Scratch) -> &'s [f32] {
        scratch.slice(self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_round_trips() {
        let mut s = Scratch::new();
        let slot = s.alloc(24);
        let b = ArenaBuf::new(slot, &[2, 3, 4]);
        assert_eq!(b.dims(), &[2, 3, 4]);
        assert_eq!(b.rank(), 3);
        assert_eq!(b.len(), 24);
        assert_eq!(b.batch(), 2);
    }

    #[test]
    fn reshape_preserves_storage() {
        let mut s = Scratch::new();
        let slot = s.alloc(12);
        s.slice_mut(slot)[0] = 5.0;
        let b = ArenaBuf::new(slot, &[1, 3, 2, 2]);
        let flat = b.reshaped(&[1, 12]);
        assert_eq!(flat.slot(), b.slot());
        assert_eq!(flat.read(&s)[0], 5.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_element_count_panics() {
        let mut s = Scratch::new();
        let slot = s.alloc(5);
        let _ = ArenaBuf::new(slot, &[2, 3]);
    }
}

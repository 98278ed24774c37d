//! Per-bin LIFO stacks of free slot indices, in one flat array.
//!
//! Every bucketed allocator keeps, for each bin, a stack of the slots it
//! has free. One `Vec` per bin costs a heap block and a 24-byte header
//! per bin and scatters the stacks over the heap; here bin `b`'s stack is
//! the prefix `stack[b·cap .. b·cap + len[b]]` of one array, so a pop or
//! push touches one length and one array cell. Pop order matches a
//! `Vec<u32>` per bin filled with `(base..base + cap).rev()`, so the
//! frames (and codes) an allocator hands out are unchanged.

/// `bins` LIFO stacks of slot indices, each holding at most `cap` slots.
#[derive(Clone, Debug)]
pub(crate) struct SlotStacks {
    stack: Box<[u32]>,
    len: Box<[u32]>,
    cap: u32,
}

impl SlotStacks {
    /// Creates `bins` full stacks, each holding `base .. base + cap` with
    /// `base` on top (popped first).
    pub(crate) fn full(bins: u64, base: u32, cap: u32) -> Self {
        let stack = (0..bins)
            .flat_map(|_| (base..base + cap).rev())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            stack,
            len: vec![cap; bins as usize].into_boxed_slice(),
            cap,
        }
    }

    /// Number of stacks (bins).
    #[inline]
    pub(crate) fn bins(&self) -> u64 {
        self.len.len() as u64
    }

    /// Free slots left in bin `b`.
    #[inline]
    pub(crate) fn len(&self, b: u64) -> u32 {
        self.len[b as usize]
    }

    /// Takes the most recently freed (or lowest initial) slot of bin `b`.
    #[inline]
    pub(crate) fn pop(&mut self, b: u64) -> Option<u32> {
        let len = &mut self.len[b as usize];
        if *len == 0 {
            return None;
        }
        *len -= 1;
        Some(self.stack[b as usize * self.cap as usize + *len as usize])
    }

    /// Returns `slot` to bin `b`.
    ///
    /// # Panics
    /// Panics if bin `b` already holds `cap` free slots (a double free).
    #[inline]
    pub(crate) fn push(&mut self, b: u64, slot: u32) {
        let len = &mut self.len[b as usize];
        assert!(*len < self.cap, "bin {b} slot stack overflow");
        self.stack[b as usize * self.cap as usize + *len as usize] = slot;
        *len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_match_a_vec_per_bin() {
        let mut s = SlotStacks::full(3, 4, 5);
        let mut model: Vec<Vec<u32>> = (0..3).map(|_| (4..9).rev().collect()).collect();
        let ops = [
            (0, None),
            (1, None),
            (0, None),
            (0, Some(5)),
            (2, None),
            (0, None),
        ];
        for (b, push) in ops {
            match push {
                Some(slot) => {
                    s.push(b, slot);
                    model[b as usize].push(slot);
                }
                None => assert_eq!(s.pop(b), model[b as usize].pop()),
            }
            assert_eq!(s.len(b) as usize, model[b as usize].len());
        }
        assert_eq!(s.bins(), 3);
    }

    #[test]
    fn empty_bin_pops_none() {
        let mut s = SlotStacks::full(1, 0, 1);
        assert_eq!(s.pop(0), Some(0));
        assert_eq!(s.pop(0), None);
        s.push(0, 0);
        assert_eq!(s.pop(0), Some(0));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_onto_a_full_bin_panics() {
        let mut s = SlotStacks::full(2, 0, 2);
        s.push(1, 0);
    }
}

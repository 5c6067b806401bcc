//! A monotone radix queue: the simulator's event list.
//!
//! Keys are `u64` picosecond times and never go below the last key popped,
//! which is all a discrete-event engine needs. An entry with key `k` lives
//! in bucket `b(k) = bit_length(k ^ last)`: bucket 0 holds exactly the keys
//! equal to `last`, and bucket `i > 0` the keys that first differ from
//! `last` at bit `i - 1`. Popping drains bucket 0 front to back; when it is
//! empty, the lowest nonempty bucket is redistributed around its smallest
//! key, which becomes the new `last`. Every entry moves to a strictly lower
//! bucket each time it is redistributed, so it moves at most 64 times, and
//! in practice once or twice.
//!
//! Equal keys pop in push order. Two entries with the same key always sit
//! in the same bucket (their bucket depends only on the key and `last`,
//! and raising `last` to the minimum of bucket `i` leaves every bucket
//! above `i` where it was), a push appends, and redistribution walks a
//! bucket in order into buckets that are all empty. So the pop order is
//! exactly that of a binary heap keyed `(key, push sequence number)`,
//! without the sequence number.

/// Buckets 1..=64; bucket 0 is `RadixQueue::front`.
const BUCKETS: usize = 64;

/// A FIFO-stable monotone priority queue of `(key, item)` pairs.
#[derive(Debug)]
pub(crate) struct RadixQueue<T> {
    /// The last key popped; no key below it may be pushed.
    last: u64,
    /// Bucket 0, the entries keyed `last`, still to pop from `head` on.
    front: Vec<T>,
    head: usize,
    /// `buckets[i - 1]` is bucket `i`.
    buckets: [Vec<(u64, T)>; BUCKETS],
    /// Bit `i - 1` is set iff bucket `i` is nonempty.
    occupied: u64,
}

impl<T: Copy> RadixQueue<T> {
    /// An empty queue whose first key may be any value.
    pub(crate) fn new() -> Self {
        RadixQueue {
            last: 0,
            front: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }

    /// Queues `item` at `key`.
    ///
    /// # Panics
    /// In debug builds, if `key` is below the last key popped.
    pub(crate) fn push(&mut self, key: u64, item: T) {
        debug_assert!(key >= self.last, "key {key} below {}", self.last);
        let diff = key ^ self.last;
        if diff == 0 {
            self.front.push(item);
        } else {
            let b = (u64::BITS - diff.leading_zeros()) as usize;
            self.buckets[b - 1].push((key, item));
            self.occupied |= 1 << (b - 1);
        }
    }

    /// Removes the entry with the smallest key, the earliest pushed among
    /// equal keys.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        if self.head == self.front.len() {
            self.front.clear();
            self.head = 0;
            if self.occupied == 0 {
                return None;
            }
            let i = self.occupied.trailing_zeros() as usize;
            let mut bucket = std::mem::take(&mut self.buckets[i]);
            self.occupied &= !(1 << i);
            self.last = bucket.iter().map(|&(k, _)| k).min().expect("occupied");
            // Every key here shares bits >= i with the new `last`, so each
            // lands in bucket 0 or a bucket below this one, all empty.
            for &(k, item) in &bucket {
                self.push(k, item);
            }
            bucket.clear();
            self.buckets[i] = bucket;
        }
        let item = self.front[self.head];
        self.head += 1;
        Some((self.last, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One step of a random workload: pop, or push at `last + delta`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Pop,
        Push(u64),
    }

    /// Time increments biased toward what breaks radix queues: bursts of
    /// equal keys (`0`), steps that land one below or on a power of two,
    /// and arbitrary jumps.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Push(0)),
            Just(Op::Push(0)),
            (0u32..63).prop_map(|k| Op::Push((1u64 << k) - 1)),
            (0u32..63).prop_map(|k| Op::Push(1u64 << k)),
            (0u64..16).prop_map(Op::Push),
            (0u64..1 << 40).prop_map(Op::Push),
        ]
    }

    /// Runs `ops` against the radix queue and a binary heap keyed
    /// `(key, push seq)`, pushes relative to the last key popped (or to a
    /// random base before the first pop), and compares every pop.
    fn check(base: u64, ops: &[Op]) {
        let mut radix = RadixQueue::new();
        let mut heap = BinaryHeap::new();
        let mut last = base;
        let mut seq = 0u64;
        let mut popped = 0;
        for &op in ops.iter().chain(std::iter::repeat_n(&Op::Pop, ops.len())) {
            match op {
                Op::Push(delta) => {
                    let key = last.saturating_add(delta);
                    radix.push(key, seq);
                    heap.push(Reverse((key, seq)));
                    seq += 1;
                }
                Op::Pop => {
                    let want = heap.pop().map(|Reverse(e)| e);
                    assert_eq!(radix.pop(), want, "pop {popped}");
                    if let Some((key, _)) = want {
                        last = key;
                        popped += 1;
                    }
                }
            }
        }
        assert_eq!(radix.pop(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of monotone pushes and pops come out in
        /// exactly the `(key, push order)` order of a binary heap.
        #[test]
        fn pops_match_heap_with_push_seq(
            base in prop_oneof![Just(0u64), 0u64..1 << 50, Just((1u64 << 32) - 1)],
            ops in prop::collection::vec(op(), 1..400),
        ) {
            check(base, &ops);
        }
    }

    #[test]
    fn equal_keys_across_power_of_two_boundaries() {
        // Keys 2^k - 1 and 2^k straddle a bucket boundary: push several of
        // each, interleaved, and drain.
        for k in [1u32, 8, 31, 32, 63] {
            let lo = (1u64 << k) - 1;
            let mut ops = Vec::new();
            for _ in 0..3 {
                ops.extend([
                    Op::Push(lo + 1),
                    Op::Push(lo),
                    Op::Push(lo + 1),
                    Op::Push(lo),
                ]);
            }
            ops.push(Op::Pop);
            ops.extend([Op::Push(0), Op::Push(1), Op::Push(0)]);
            check(0, &ops);
        }
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: RadixQueue<u32> = RadixQueue::new();
        assert_eq!(q.pop(), None);
        q.push(u64::MAX, 7);
        assert_eq!(q.pop(), Some((u64::MAX, 7)));
        assert_eq!(q.pop(), None);
    }
}

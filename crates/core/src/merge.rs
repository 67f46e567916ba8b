//! Ranked-stream merging.
//!
//! Both the star-query enumerator (Algorithm 5's `(m+1)`-way merge) and the
//! UCQ enumerator (Theorem 4) interleave several ranked answer streams into
//! one, through one `RankedMerge`. [`MergeEntry`] is its priority-queue
//! element: ordered by `(key, tuple, source)` so the merged stream is itself
//! sorted by `(key, tuple)` and equal tuples from different sources are
//! adjacent — which is how the merge drops them.

use crate::stats::EnumStats;
use re_ranking::Ranking;
use re_storage::{Attr, Tuple};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// One pending answer of a merged ranked stream. The derived order is
/// field order: key, then tuple, then source.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MergeEntry<K> {
    /// Rank key of the answer.
    pub key: K,
    /// The answer tuple (in output order).
    pub tuple: Tuple,
    /// Which source stream produced it.
    pub source: usize,
}

/// A ranked, deduplicating merge of numbered source streams, each sorted
/// by `(key, tuple)`: the one merge of the star and union enumerators.
pub(crate) struct RankedMerge<R: Ranking> {
    ranking: R,
    /// The ranking's plan over the output attributes, built once: keying
    /// an answer resolves no attribute.
    plan: R::Plan,
    /// Values per answer.
    arity: usize,
    /// Heap bytes the owner holds besides the merge and the sources, fixed
    /// after the build; counted with the merge's.
    owner_bytes: usize,
    heap: BinaryHeap<Reverse<MergeEntry<R::Key>>>,
    stats: EnumStats,
}

impl<R: Ranking> RankedMerge<R> {
    /// An empty merge of answers over `projection`.
    pub(crate) fn new(ranking: R, projection: &[Attr]) -> Self {
        let plan = ranking.plan(projection);
        RankedMerge {
            ranking,
            plan,
            arity: projection.len(),
            owner_bytes: 0,
            heap: BinaryHeap::new(),
            stats: EnumStats::new(),
        }
    }

    /// Add `source`'s first answer, if it has one. A seed is build-time
    /// work: it is counted as a push but stays out of the per-answer
    /// operation log, as the acyclic build's cells do.
    pub(crate) fn seed(&mut self, source: usize, first: Option<Tuple>) {
        if let Some(tuple) = first {
            self.insert(source, tuple);
            self.stats.pq_pushes += 1;
        }
    }

    /// The merge's own counters.
    pub(crate) fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Mutable counters, for build-time facts of the enumerator that owns
    /// the merge.
    pub(crate) fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    /// Count `owner_bytes` with the merge's own heap bytes from now on.
    pub(crate) fn hold(&mut self, owner_bytes: usize) {
        self.owner_bytes = owner_bytes;
        self.refresh_bytes();
    }

    /// Write the owner's, the queue's and the operation log's heap bytes
    /// into the counters. Every slot of the queue's capacity counts an
    /// answer's values, so the figure does not fall when a source runs
    /// dry; keys' own heap blocks are not counted.
    fn refresh_bytes(&mut self) {
        let slot = std::mem::size_of::<Reverse<MergeEntry<R::Key>>>()
            + self.arity * std::mem::size_of::<re_storage::Value>();
        let bytes = self.owner_bytes + self.heap.capacity() * slot + self.stats.heap_bytes();
        self.stats.set_frontier_bytes(bytes as u64);
    }

    /// Emit the best queued answer, once. Every popped entry's source is
    /// refilled through `pull(source)`; the entries equal to the best one
    /// are queued right behind it, so they are popped (and their sources
    /// refilled) before it is emitted.
    pub(crate) fn next(&mut self, mut pull: impl FnMut(usize) -> Option<Tuple>) -> Option<Tuple> {
        let best = self.pop(&mut pull)?;
        while self
            .heap
            .peek()
            .is_some_and(|Reverse(e)| e.tuple == best.tuple)
        {
            self.pop(&mut pull);
        }
        self.stats.record_answer();
        self.refresh_bytes();
        Some(best.tuple)
    }

    /// Pop the best entry and refill its source: the source's next answer
    /// takes the entry's place on top of the heap, one sift instead of a
    /// pop and a push; a source that ran dry gives its slot up.
    fn pop(&mut self, pull: &mut impl FnMut(usize) -> Option<Tuple>) -> Option<MergeEntry<R::Key>> {
        let mut top = self.heap.peek_mut()?;
        self.stats.record_pop();
        let source = top.0.source;
        let Some(tuple) = pull(source) else {
            return Some(PeekMut::pop(top).0);
        };
        let key = self.ranking.key(&self.plan, &tuple);
        self.stats.record_push();
        Some(std::mem::replace(
            &mut top.0,
            MergeEntry { key, tuple, source },
        ))
    }

    fn insert(&mut self, source: usize, tuple: Tuple) {
        let key = self.ranking.key(&self.plan, &tuple);
        self.heap.push(Reverse(MergeEntry { key, tuple, source }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;

    #[test]
    fn merge_entries_order_by_key_then_tuple() {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(MergeEntry {
            key: 5,
            tuple: vec![1],
            source: 0,
        }));
        heap.push(Reverse(MergeEntry {
            key: 3,
            tuple: vec![9],
            source: 1,
        }));
        heap.push(Reverse(MergeEntry {
            key: 3,
            tuple: vec![2],
            source: 2,
        }));
        let order: Vec<(i32, Vec<u64>)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.key, e.tuple))
            .collect();
        assert_eq!(order, vec![(3, vec![2]), (3, vec![9]), (5, vec![1])]);
    }

    #[test]
    fn equal_tuples_from_different_sources_are_adjacent() {
        let a = MergeEntry {
            key: 1,
            tuple: vec![4, 4],
            source: 0,
        };
        let b = MergeEntry {
            key: 1,
            tuple: vec![4, 4],
            source: 3,
        };
        assert!(a < b);
    }

    #[test]
    fn three_sources_emit_each_distinct_tuple_once_in_order() {
        // [3, 3] is in every source; source 2 runs dry after its second
        // answer, long before the others.
        let sources: [Vec<Tuple>; 3] = [
            vec![vec![1, 1], vec![3, 3], vec![2, 5], vec![4, 4]],
            vec![vec![1, 2], vec![3, 3], vec![4, 4], vec![5, 5]],
            vec![vec![0, 1], vec![3, 3]],
        ];
        let mut streams = sources.clone().map(Vec::into_iter);
        let mut merge = RankedMerge::new(SumRanking::value_sum(), &attrs(["x", "y"]));
        for (i, stream) in streams.iter_mut().enumerate() {
            merge.seed(i, stream.next());
        }
        assert_eq!(merge.stats().pq_pushes, 3, "the seeds are pushes");
        assert_eq!(merge.stats().ops_per_answer.len(), 0);
        let got: Vec<Tuple> = std::iter::from_fn(|| merge.next(|i| streams[i].next())).collect();
        let mut expected: Vec<Tuple> = sources.concat();
        expected.sort_by_key(|t| (t[0] + t[1], t.clone()));
        expected.dedup();
        assert_eq!(got, expected);
        let s = merge.stats();
        assert_eq!(s.answers, expected.len() as u64);
        assert_eq!((s.pq_pushes, s.pq_pops), (10, 10), "every tuple in and out");
    }
}

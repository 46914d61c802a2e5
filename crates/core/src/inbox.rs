//! The input queues of every node, pooled.
//!
//! Each AS of the paper's Fig. 2 has a FIFO input queue in front of its
//! processor. Here they are one pool: every queued message is an entry of
//! one `Vec`, carrying the index of the next entry of its queue, and each
//! node has a head, a tail and a length. A popped entry goes on a free
//! list and is the next one pushed, so the pool grows to the most
//! messages ever queued at once, network-wide — not to a buffer per node
//! — and a simulator's input queues are two heap blocks however many
//! nodes it has. An entry is sixteen bytes in an unobserved run, whose
//! messages carry no stamp; twenty-eight under a `Recorder`.
//!
//! A link failure discards the messages its sessions left queued
//! ([`InboxPool::discard`]): each stays in its queue, holding its turn at
//! the processor, and is handed out as discarded.

use bgpscale_bgp::Update;

/// No entry: the end of a queue or of the free list.
const NIL: u32 = u32::MAX;

/// The slot of a discarded entry: no session has it.
const DISCARDED: u32 = u32::MAX;

/// One queued message: the session slot it arrived over, the message,
/// and the next entry of its queue (or of the free list).
#[derive(Clone, Copy, Debug)]
struct Entry<S> {
    slot: u32,
    update: Update<S>,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Entry<()>>() == 16);

/// One node's queue: its first and last entries and its length.
#[derive(Clone, Copy, Debug)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The FIFO input queues of `n` nodes in one pool of entries, whose
/// messages carry stamps of type `S`.
#[derive(Clone, Debug)]
pub(crate) struct InboxPool<S = ()> {
    entries: Vec<Entry<S>>,
    /// The first free entry; free entries chain through `next`.
    free: u32,
    /// Per node.
    queues: Vec<Fifo>,
}

impl<S: Copy> InboxPool<S> {
    /// Empty queues for `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> InboxPool<S> {
        InboxPool {
            entries: Vec::new(),
            free: NIL,
            queues: vec![Fifo::EMPTY; nodes],
        }
    }

    /// Number of messages queued at `node`.
    pub(crate) fn len(&self, node: usize) -> u32 {
        self.queues.get(node).map_or(0, |q| q.len)
    }

    /// Appends the message `update`, arrived over `slot`, to `node`'s
    /// queue.
    #[expect(
        clippy::indexing_slicing,
        reason = "node is a graph node id and queues holds one queue per graph node by construction"
    )]
    pub(crate) fn push(&mut self, node: usize, slot: u32, update: Update<S>) {
        let entry = Entry {
            slot,
            update,
            next: NIL,
        };
        let at = match self.entries.get_mut(self.free as usize) {
            Some(reused) => {
                let at = self.free;
                self.free = reused.next;
                *reused = entry;
                at
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        let queue = &mut self.queues[node];
        match self.entries.get_mut(queue.tail as usize) {
            Some(last) => last.next = at,
            None => queue.head = at,
        }
        queue.tail = at;
        queue.len += 1;
    }

    /// Takes the entry at the front of `node`'s queue: the message with
    /// the slot it arrived over, or `None` for a discarded one. `None` if
    /// the queue is empty.
    pub(crate) fn pop(&mut self, node: usize) -> Option<Option<(u32, Update<S>)>> {
        let queue = self.queues.get_mut(node)?;
        let at = queue.head;
        let entry = self.entries.get_mut(at as usize)?;
        let taken = (entry.slot != DISCARDED).then_some((entry.slot, entry.update));
        queue.head = entry.next;
        queue.len -= 1;
        if queue.len == 0 {
            queue.tail = NIL;
        }
        entry.next = self.free;
        self.free = at;
        Some(taken)
    }

    /// Discards the messages queued at `node` that arrived over `slot`,
    /// leaving their entries in place, and returns how many there were.
    pub(crate) fn discard(&mut self, node: usize, slot: u32) -> u64 {
        let mut at = self.queues.get(node).map_or(NIL, |q| q.head);
        let mut discarded = 0;
        while let Some(entry) = self.entries.get_mut(at as usize) {
            if entry.slot == slot {
                entry.slot = DISCARDED;
                discarded += 1;
            }
            at = entry.next;
        }
        discarded
    }

    /// Empties every queue, keeping the pool's buffer.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.free = NIL;
        self.queues.fill(Fifo::EMPTY);
    }

    /// True if no message is queued anywhere.
    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.len == 0)
    }

    /// The node with the deepest queue and that depth, if any queue is
    /// non-empty; ties break toward the lowest node.
    pub(crate) fn busiest(&self) -> Option<(usize, u32)> {
        let deepest = self.queues.iter().enumerate().filter(|(_, q)| q.len > 0);
        deepest
            .max_by_key(|&(i, q)| (q.len, std::cmp::Reverse(i)))
            .map(|(i, q)| (i, q.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_bgp::Prefix;

    fn update(p: u32) -> Update {
        Update::withdraw(Prefix(p))
    }

    /// Interleaved queues stay FIFO each, popped entries are reused before
    /// the pool grows, and the busiest queue is the deepest, lowest first.
    #[test]
    fn queues_share_one_pool_and_each_stays_fifo() {
        let mut pool = InboxPool::new(3);
        pool.push(2, 0, update(20));
        pool.push(0, 1, update(1));
        pool.push(2, 1, update(21));
        pool.push(0, 2, update(2));
        assert_eq!((pool.len(0), pool.len(1), pool.len(2)), (2, 0, 2));
        assert_eq!(pool.busiest(), Some((0, 2)), "ties go to the lowest node");
        assert_eq!(pool.pop(0), Some(Some((1, update(1)))));
        assert_eq!(pool.pop(1), None);
        pool.push(1, 3, update(10));
        assert_eq!(pool.entries.len(), 4, "the popped entry was reused");
        assert_eq!(pool.pop(2), Some(Some((0, update(20)))));
        assert_eq!(pool.pop(2), Some(Some((1, update(21)))));
        assert_eq!(pool.pop(2), None);
        pool.push(2, 4, update(22));
        assert_eq!(pool.pop(0), Some(Some((2, update(2)))));
        assert_eq!(pool.pop(2), Some(Some((4, update(22)))));
        assert_eq!(pool.busiest(), Some((1, 1)));
        assert!(!pool.is_empty());
        assert_eq!(pool.pop(1), Some(Some((3, update(10)))));
        assert!(pool.is_empty() && pool.busiest().is_none());
        assert_eq!(pool.entries.len(), 4, "never more than four queued at once");

        // A discarded entry keeps its place in its queue; other slots and
        // other nodes' entries are untouched.
        pool.push(1, 7, update(30));
        pool.push(1, 8, update(31));
        pool.push(1, 7, update(32));
        pool.push(2, 7, update(33));
        assert_eq!(pool.discard(1, 7), 2);
        assert_eq!(pool.discard(1, 7), 0, "already discarded");
        assert_eq!(pool.len(1), 3);
        assert_eq!(pool.pop(1), Some(None));
        assert_eq!(pool.pop(1), Some(Some((8, update(31)))));
        assert_eq!(pool.pop(1), Some(None));
        assert_eq!(pool.pop(2), Some(Some((7, update(33)))));

        pool.push(1, 0, update(5));
        pool.clear();
        assert!(pool.is_empty() && pool.pop(1).is_none());
        assert!(pool.entries.capacity() >= 4, "clear keeps the buffer");
    }
}

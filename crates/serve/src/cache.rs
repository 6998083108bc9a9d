//! A sharded, thread-safe LRU cache for the advisory server's hot path.
//!
//! Requests hash to one of a fixed set of shards (so concurrent lookups
//! for different keys rarely contend on the same lock), and each shard
//! is a classic O(1) LRU: a `HashMap` from key to slot index over an
//! intrusive doubly-linked recency list in a slab. The server keeps two
//! kinds of instance: one *response cache* — canonical request (tenant
//! included) → encoded response body — and, per tenant, the *profile
//! cache* underneath it — `(kernel, scale)` → profiled sample — so a
//! warm repeat query touches neither the simulator nor the trace
//! rewriter.
//!
//! Hashing uses `std::collections::hash_map::DefaultHasher` with the
//! default (fixed) keys, so shard assignment is deterministic within and
//! across processes.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Index of the null slot (list terminator).
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

struct Shard<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Detach slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Push slot `i` at the head (most recently used).
    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slab[i].value.clone())
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            // Evict the least recently used entry.
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old = &self.slab[lru].key;
            self.map.remove(&old.clone());
            self.free.push(lru);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// The sharded cache. `Clone`-returning by design: values are handed out
/// by value (wrap big ones in `Arc`), never by reference into the shard.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache holding at most (about) `entries` values across `shards`
    /// shards; each shard gets an equal slice of the budget (at least 1).
    pub fn new(entries: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (entries / shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        // High bits pick the shard; HashMap inside consumes the same
        // hash from bit 0 up, so the two stay independent enough.
        let i = (h.finish() >> 57) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Look `key` up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("lru shard").get(key)
    }

    /// Insert (or refresh) `key`, evicting that shard's LRU entry if the
    /// shard is full.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key)
            .lock()
            .expect("lru shard")
            .insert(key, value)
    }

    /// Total entries currently cached (sums shard sizes; approximate
    /// under concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lru shard").map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_shard_evicts_lru_order() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(3, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Touch 1 so 2 becomes the LRU.
        assert_eq!(c.get(&1), Some(10));
        c.insert(4, 40);
        assert_eq!(c.get(&2), None, "LRU entry must be evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.get(&4), Some(40));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn insert_refreshes_existing_key() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh: 2 is now the LRU
        c.insert(3, 30);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn capacity_one_keeps_latest() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(1, 1);
        for i in 0..10 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&9), Some(9));
    }

    #[test]
    fn eviction_reuses_slots() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(4, 1);
        for i in 0..1000 {
            c.insert(i, i * 2);
        }
        let shard = c.shards[0].lock().unwrap();
        assert!(
            shard.slab.len() <= 5,
            "slab grew to {} slots for a 4-entry shard",
            shard.slab.len()
        );
    }

    #[test]
    fn sharding_spreads_keys() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(1024, 8);
        for i in 0..512u64 {
            c.insert(i, i);
        }
        let occupied = c
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(occupied >= 6, "only {occupied}/8 shards used");
        for i in 0..512u64 {
            assert_eq!(c.get(&i), Some(i));
        }
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        // 8 threads × 2k mixed ops on a small cache: every get must
        // return the value that key was inserted with (values encode
        // their key), len stays bounded, and nothing deadlocks.
        let c: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(64, 4));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        let key = (t * 7 + i) % 96;
                        if i % 3 == 0 {
                            c.insert(key, key * 1000);
                        } else if let Some(v) = c.get(&key) {
                            assert_eq!(v, key * 1000, "stale or torn value");
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 64 + 4, "len {} exceeds capacity slack", c.len());
    }

    #[test]
    fn arc_values_share_storage() {
        let c: ShardedLru<u32, Arc<String>> = ShardedLru::new(8, 2);
        let v = Arc::new("body".to_string());
        c.insert(1, Arc::clone(&v));
        let got = c.get(&1).unwrap();
        assert!(Arc::ptr_eq(&v, &got));
    }
}

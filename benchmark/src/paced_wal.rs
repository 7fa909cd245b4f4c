//! `PacedWal`: a benchmark-owned log device whose `sync` costs a fixed
//! time.
//!
//! Real `fsync` on the sandbox's shared disk swung between 4.7 k and
//! 7.8 k commits a second on identical runs, which would make the
//! durable workload measure the disk's neighbours. A fixed cost makes it
//! measure the commit protocol — who waits for whose sync — instead. The
//! wait is a busy loop on `Instant`, not a sleep: a sleep's wake-up
//! latency on this VM is larger than the pause itself. The loop yields,
//! as a thread blocked in `fsync` leaves its core to others: a loop that
//! did not would hold one of two cores and stall the other threads for
//! whole scheduler ticks.

use sevendim_durable::WalFile;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    bytes: Vec<u8>,
    synced_len: usize,
    syncs: u64,
}

/// Clones share one log: the benchmark keeps a handle while a
/// `DurableTable` writes through another.
#[derive(Clone)]
pub struct PacedWal {
    state: Arc<Mutex<State>>,
    sync_cost: Duration,
}

impl PacedWal {
    /// A log whose every `sync` takes `sync_cost`; zero is the free
    /// device the CPU-only rungs use.
    pub fn new(sync_cost: Duration) -> Self {
        Self { state: Arc::default(), sync_cost }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn appended_bytes(&self) -> usize {
        self.lock().bytes.len()
    }

    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    /// The bytes a crash now would leave behind.
    pub fn synced_prefix(&self) -> Vec<u8> {
        let s = self.lock();
        s.bytes[..s.synced_len].to_vec()
    }
}

impl WalFile for PacedWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.lock();
        s.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        // What becomes durable is what was appended when the sync began.
        let len = self.lock().bytes.len();
        let start = Instant::now();
        while start.elapsed() < self.sync_cost {
            std::thread::yield_now();
        }
        let mut s = self.lock();
        s.synced_len = s.synced_len.max(len);
        s.syncs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_counts_bytes_and_syncs() {
        let wal = PacedWal::new(Duration::ZERO);
        let mut dev = wal.clone();
        dev.append(b"abc").unwrap();
        dev.append(b"de").unwrap();
        assert_eq!((wal.appended_bytes(), wal.syncs()), (5, 0));
        assert!(wal.synced_prefix().is_empty(), "nothing is durable before a sync");
        dev.sync().unwrap();
        dev.append(b"f").unwrap();
        assert_eq!(wal.synced_prefix(), b"abcde");
        assert_eq!((wal.appended_bytes(), wal.syncs()), (6, 1));
        dev.sync().unwrap();
        assert_eq!(wal.synced_prefix(), b"abcdef");
        assert_eq!(wal.syncs(), 2);
    }

    #[test]
    fn a_sync_takes_at_least_its_cost() {
        let cost = Duration::from_micros(300);
        let mut dev = PacedWal::new(cost);
        let start = Instant::now();
        for _ in 0..5 {
            dev.sync().unwrap();
        }
        assert!(start.elapsed() >= cost * 5);
    }
}

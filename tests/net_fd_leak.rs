//! File-descriptor hygiene of the networked KV service, in a test binary
//! of its own: the check counts the process's open descriptors, so it can
//! share a process with no test that opens sockets while it counts (the
//! `net_oracle` suite does, on five threads).
//!
//! Runs only on Linux (the server is epoll-based, the count is procfs).

#![cfg(target_os = "linux")]

use seven_dim_hashing::net::{KvClient, KvServer};
use seven_dim_hashing::prelude::*;
use std::sync::Arc;

fn count_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn spawn_serve_shutdown_cycle_leaks_no_file_descriptors() {
    // Every fd the server opens (epoll instances, wake pipes, listeners,
    // accepted sockets) must be closed by shutdown.
    let before = count_fds();
    let table: Arc<dyn ConcurrentTable> =
        Arc::new(TableBuilder::new(TableScheme::LinearProbing).bits(8).shards(2).build_sharded());
    let server = KvServer::builder().threads(3).spawn("127.0.0.1:0", table).expect("spawn server");
    let mut client = KvClient::connect(server.addr()).expect("connect");
    assert!(client.put(1, 1).expect("put").is_ok());
    drop(client);
    server.shutdown().expect("shutdown");
    assert_eq!(count_fds(), before, "fd count changed across a spawn/shutdown cycle");
}

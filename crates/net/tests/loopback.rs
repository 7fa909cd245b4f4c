//! End-to-end tests over a real loopback socket: spawn the epoll
//! server on an OS-assigned port, talk to it with [`KvClient`] (and,
//! for the adversarial cases, a raw `TcpStream`).

#![cfg(target_os = "linux")]

use sevendim_core::{InsertOutcome, TableBuilder, TableScheme};
use sevendim_net::protocol::{
    encode_request, Op, OpResponse, ProtoError, Request, Response, HEADER_LEN, MAX_BATCH_OPS,
    MAX_PAYLOAD_LEN,
};
use sevendim_net::{KvClient, KvServer, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn spawn_server() -> ServerHandle {
    let table = TableBuilder::new(TableScheme::LinearProbing)
        .bits(16)
        .shards(2)
        .optimistic_reads(true)
        .build_sharded();
    KvServer::spawn("127.0.0.1:0", Arc::new(table)).expect("spawn server")
}

#[test]
fn point_ops_round_trip_through_the_socket() {
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    assert_eq!(client.get(7).expect("get"), None);
    assert_eq!(client.put(7, 70).expect("put"), Ok(InsertOutcome::Inserted));
    assert_eq!(client.get(7).expect("get"), Some(70));
    assert_eq!(client.put(7, 71).expect("put"), Ok(InsertOutcome::Replaced(70)));
    assert_eq!(client.del(7).expect("del"), Some(71));
    assert_eq!(client.del(7).expect("del"), None);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.frames, 6);
    assert_eq!(stats.ops, 6);
    assert_eq!(stats.protocol_closes, 0);
}

#[test]
fn batch_frames_execute_in_op_order() {
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    let results = client
        .batch(&[Op::Put(1, 10), Op::Get(1), Op::Put(1, 11), Op::Get(1), Op::Del(1), Op::Get(1)])
        .expect("batch");
    assert_eq!(
        results,
        vec![
            OpResponse::Put(Ok(InsertOutcome::Inserted)),
            OpResponse::Get(Some(10)),
            OpResponse::Put(Ok(InsertOutcome::Replaced(10))),
            OpResponse::Get(Some(11)),
            OpResponse::Del(Some(11)),
            OpResponse::Get(None),
        ]
    );
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.frames, 1, "one batch frame");
    assert_eq!(stats.ops, 6, "six ops inside it");
}

#[test]
fn pipelined_frames_and_one_batch_answer_the_same_sequence_identically() {
    // Both framings of an op stream go through one run executor; the
    // wire must not be able to tell them apart. The stream has runs of
    // every kind, duplicate keys inside a run, a PUT read back by the
    // next op, and a reserved key the table refuses.
    let ops = [
        Op::Get(1),
        Op::Put(1, 10),
        Op::Put(2, 20),
        Op::Put(1, 11),
        Op::Get(1),
        Op::Get(1),
        Op::Get(3),
        Op::Put(sevendim_core::EMPTY_KEY, 5),
        Op::Get(sevendim_core::EMPTY_KEY),
        Op::Del(2),
        Op::Del(2),
        Op::Del(sevendim_core::EMPTY_KEY),
        Op::Put(2, 21),
        Op::Get(2),
        Op::Del(1),
        Op::Get(1),
    ];
    let batched = {
        let server = spawn_server();
        let mut client = KvClient::connect(server.addr()).expect("connect");
        client.batch(&ops).expect("batch")
    };
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    for op in &ops {
        client.enqueue(&match *op {
            Op::Get(k) => Request::Get(k),
            Op::Put(k, v) => Request::Put(k, v),
            Op::Del(k) => Request::Del(k),
        });
    }
    client.flush().expect("flush");
    let pipelined: Vec<OpResponse> = ops
        .iter()
        .map(|_| match client.recv().expect("recv").1 {
            Response::Get(v) => OpResponse::Get(v),
            Response::Put(o) => OpResponse::Put(o),
            Response::Del(v) => OpResponse::Del(v),
            Response::Batch(_) => panic!("no BATCH frame was sent"),
        })
        .collect();
    assert_eq!(pipelined, batched);
    // And the shared answer is the right one, not merely the same one.
    assert_eq!(batched[4], OpResponse::Get(Some(11)), "a GET sees the PUT before it");
    assert_eq!(batched[7], OpResponse::Put(Err(sevendim_core::TableError::ReservedKey)));
    assert_eq!(batched[10], OpResponse::Del(None), "the second DEL of a key finds nothing");
    assert_eq!(batched[13], OpResponse::Get(Some(21)));
}

#[test]
fn pipelined_requests_answer_in_fifo_order() {
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    const N: u64 = 500;
    let mut put_ids = Vec::new();
    for k in 0..N {
        put_ids.push(client.enqueue(&Request::Put(k, k * 2)));
    }
    let mut get_ids = Vec::new();
    for k in 0..N {
        get_ids.push(client.enqueue(&Request::Get(k)));
    }
    client.flush().expect("flush");
    for (k, id) in put_ids.into_iter().enumerate() {
        let (got, resp) = client.recv().expect("recv put");
        assert_eq!(got, id, "puts answer in enqueue order");
        assert_eq!(resp, Response::Put(Ok(InsertOutcome::Inserted)), "put {k}");
    }
    for (k, id) in get_ids.into_iter().enumerate() {
        let (got, resp) = client.recv().expect("recv get");
        assert_eq!(got, id, "gets answer in enqueue order");
        assert_eq!(resp, Response::Get(Some(k as u64 * 2)));
    }
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.frames, 2 * N);
}

#[test]
fn malformed_frame_closes_only_that_connection() {
    let server = spawn_server();
    // A healthy connection inserts a key, then a hostile one sends a
    // valid frame followed by garbage.
    let mut healthy = KvClient::connect(server.addr()).expect("connect healthy");
    assert_eq!(healthy.put(1, 100).expect("put"), Ok(InsertOutcome::Inserted));
    let mut hostile = TcpStream::connect(server.addr()).expect("connect hostile");
    let mut bytes = Vec::new();
    encode_request(1, &Request::Get(1), &mut bytes);
    bytes.extend_from_slice(b"definitely not a 7DKV frame");
    hostile.write_all(&bytes).expect("write");
    // The valid frame before the poison is still answered...
    let mut resp = Vec::new();
    hostile.read_to_end(&mut resp).expect("read until close");
    let decoded = sevendim_net::protocol::decode_response(&resp).expect("valid response bytes");
    let (id, frame, _) = decoded.expect("one complete response");
    assert_eq!(id, 1);
    assert_eq!(frame, Response::Get(Some(100)));
    // ...then the connection closes (read_to_end returning proves EOF).
    // The healthy connection is untouched.
    assert_eq!(healthy.get(1).expect("get"), Some(100));
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.protocol_closes, 1);
    assert!(
        matches!(stats.last_protocol_error, Some(ProtoError::BadMagic(_))),
        "garbage starts with a bad magic: {:?}",
        stats.last_protocol_error
    );
}

#[test]
fn a_batch_whose_answer_would_overflow_a_frame_closes_only_that_connection() {
    // A GET is 9 bytes on the way in and, on a hit, 10 on the way out:
    // one op past MAX_BATCH_OPS is a legal-sized request whose answer
    // would not fit a frame. The server refuses it as a protocol error
    // instead of losing the worker.
    let server = spawn_server();
    let mut healthy = KvClient::connect(server.addr()).expect("connect healthy");
    assert_eq!(healthy.put(1, 10).expect("put"), Ok(InsertOutcome::Inserted));
    let mut hostile = TcpStream::connect(server.addr()).expect("connect hostile");
    let mut bytes = Vec::new();
    encode_request(1, &Request::Batch(vec![Op::Get(1); MAX_BATCH_OPS + 1]), &mut bytes);
    assert!(bytes.len() - HEADER_LEN <= MAX_PAYLOAD_LEN, "the request itself is legal");
    hostile.write_all(&bytes).expect("write");
    let mut resp = Vec::new();
    hostile.read_to_end(&mut resp).expect("read until close");
    assert!(resp.is_empty(), "nothing is answered, the connection closes");
    let mut second = KvClient::connect(server.addr()).expect("connect second");
    assert_eq!(second.get(1).expect("get"), Some(10));
    assert_eq!(healthy.get(1).expect("get"), Some(10));
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.protocol_closes, 1);
    assert_eq!(stats.last_protocol_error, Some(ProtoError::OversizedBatch(MAX_BATCH_OPS + 1)));
}

#[test]
fn a_batch_at_the_cap_is_answered_in_full() {
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    assert_eq!(client.put(1, 10).expect("put"), Ok(InsertOutcome::Inserted));
    let results = client.batch(&vec![Op::Get(1); MAX_BATCH_OPS]).expect("batch");
    assert_eq!(results.len(), MAX_BATCH_OPS);
    assert!(results.iter().all(|r| *r == OpResponse::Get(Some(10))));
    let stats = server.shutdown().expect("shutdown");
    assert_eq!((stats.protocol_closes, stats.ops), (0, 1 + MAX_BATCH_OPS as u64));
}

#[test]
fn the_client_refuses_a_batch_the_frame_cannot_carry_before_sending_it() {
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    // Too many ops (and too many bytes), and too many bytes alone:
    // 70,000 PUTs are under MAX_BATCH_OPS but 1,190,004 bytes long.
    for ops in [vec![Op::Put(1, 1); 110_000], vec![Op::Put(1, 1); 70_000]] {
        let err = client.batch(&ops).expect_err("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(client.queued_bytes(), 0, "nothing was encoded");
    }
    // The connection is still in step: the next round trip matches.
    assert_eq!(client.put(1, 1).expect("put"), Ok(InsertOutcome::Inserted));
    let stats = server.shutdown().expect("shutdown");
    assert_eq!((stats.frames, stats.protocol_closes), (1, 0));
}

#[test]
fn client_disconnect_is_a_clean_eof_for_the_server() {
    let server = spawn_server();
    for _ in 0..5 {
        let mut client = KvClient::connect(server.addr()).expect("connect");
        assert!(client.put(9, 9).expect("put").is_ok());
    }
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.protocol_closes, 0);
    assert_eq!(stats.io_closes, 0, "drops are EOFs, not errors: {:?}", stats.last_io_error);
}

#[test]
fn deep_pipelines_with_interleaved_recv_sustain_flow() {
    // Windowed pipelining: keep `DEPTH` requests in flight, receiving
    // one response per new request — the pattern the load generator
    // uses, and the one that exercises partial writes and `EPOLLOUT`
    // on the server when socket buffers fill.
    let server = spawn_server();
    let mut client = KvClient::connect(server.addr()).expect("connect");
    const DEPTH: usize = 256;
    const TOTAL: u64 = 20_000;
    let mut inflight = std::collections::VecDeque::new();
    for k in 0..TOTAL {
        let key = k % 1024;
        let id = if k % 4 == 0 {
            client.enqueue(&Request::Put(key, k))
        } else {
            client.enqueue(&Request::Get(key))
        };
        inflight.push_back(id);
        if inflight.len() >= DEPTH {
            client.flush().expect("flush");
            let (got, _) = client.recv().expect("recv");
            assert_eq!(got, inflight.pop_front().expect("inflight"), "FIFO under load");
        }
    }
    client.flush().expect("flush");
    while let Some(id) = inflight.pop_front() {
        let (got, _) = client.recv().expect("drain");
        assert_eq!(got, id);
    }
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.frames, TOTAL);
}

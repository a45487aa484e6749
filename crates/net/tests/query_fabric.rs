//! Integration tests for the sharded multi-trace query fabric: a batched
//! client against a catalog server answers **identically** to N
//! sequential single queries against per-trace single-trace servers and
//! to the local oracle, trace-id failures are recoverable, copy-on-write
//! republish is visible to live connections, a one-worker pool still
//! serves every connection, and the server refuses stale protocol
//! versions and retired frame types.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use synctime_core::{MessageTimestamps, VectorTime};
use synctime_net::query::{QUERY_CHAIN_OF, QUERY_CONCURRENT, QUERY_PRECEDES};
use synctime_net::{
    answer_query_into, serve_fabric, BatchEntry, BatchQuery, Frame, FrameReader, NetError,
    QueryClient, QueryFabric, DEFAULT_TRACE_NAME, MAX_BATCH, PROTOCOL_VERSION,
};

/// m0 < m1, m0 < m2, m1 ∥ m2, m1 < m3, m2 < m3.
fn diamond() -> MessageTimestamps {
    MessageTimestamps::new(vec![
        VectorTime::from(vec![1, 0]),
        VectorTime::from(vec![2, 0]),
        VectorTime::from(vec![1, 1]),
        VectorTime::from(vec![2, 2]),
    ])
}

/// A 5-message chain: m0 < m1 < m2 < m3 < m4.
fn chain() -> MessageTimestamps {
    MessageTimestamps::new(vec![
        VectorTime::from(vec![1]),
        VectorTime::from(vec![2]),
        VectorTime::from(vec![3]),
        VectorTime::from(vec![4]),
        VectorTime::from(vec![5]),
    ])
}

/// Two antichains: m0 ∥ m1, m2 ∥ m3, first pair below second.
fn lattice() -> MessageTimestamps {
    MessageTimestamps::new(vec![
        VectorTime::from(vec![1, 0]),
        VectorTime::from(vec![0, 1]),
        VectorTime::from(vec![2, 1]),
        VectorTime::from(vec![1, 2]),
    ])
}

fn fabric_server(fabric: QueryFabric, workers: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let fabric = Arc::new(fabric);
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, fabric, workers);
    });
    addr
}

/// A dedicated single-trace server, the way `serve-query --trace` runs.
fn single_trace_server(stamps: MessageTimestamps) -> SocketAddr {
    fabric_server(QueryFabric::single(DEFAULT_TRACE_NAME, stamps), 1)
}

/// The headline acceptance test: every query of every trace, asked (a) as
/// one big batch against the sharded fabric, (b) sequentially, one query
/// per round trip, against a dedicated single-trace server, and (c)
/// locally via `answer_query_into`, produces byte-identical answer
/// bodies.
#[test]
fn batched_answers_match_sequential_single_queries_across_shards() {
    let traces: Vec<(&str, MessageTimestamps)> = vec![
        ("diamond", diamond()),
        ("chain", chain()),
        ("lattice", lattice()),
    ];
    let fabric = QueryFabric::new(4);
    for (name, stamps) in &traces {
        fabric.publish(name, stamps.clone());
    }
    // The three traces land on more than one shard (determinism makes this
    // a fixed fact of the ring, asserted so the test title stays honest).
    let shards: std::collections::HashSet<usize> = traces
        .iter()
        .map(|(name, _)| fabric.shard_of(name))
        .collect();
    assert!(shards.len() > 1, "traces all hashed to one shard");
    let fabric_addr = fabric_server(fabric, 2);
    let mut batch_client = QueryClient::connect(&fabric_addr.to_string()).expect("connect");

    for (name, stamps) in &traces {
        // Every (kind, m1, m2) combination over the trace's messages.
        let mut queries = Vec::new();
        for kind in [QUERY_PRECEDES, QUERY_CONCURRENT, QUERY_CHAIN_OF] {
            for m1 in 0..stamps.len() as u32 {
                for m2 in 0..stamps.len() as u32 {
                    queries.push(BatchQuery { kind, m1, m2 });
                }
            }
        }
        let entries = batch_client.batch(name, &queries).expect("batch answers");
        assert_eq!(entries.len(), queries.len());

        // (c) local ground truth, byte for byte.
        for (q, entry) in queries.iter().zip(&entries) {
            let mut expected = Vec::new();
            answer_query_into(stamps, q.kind, q.m1, q.m2, &mut expected).expect("in-range query");
            assert_eq!(
                entry,
                &BatchEntry::Answer(expected),
                "query {q:?} on {name}"
            );
        }

        // (b) a single-trace server answers the same queries one batch of
        // one at a time, addressed by the empty (default) trace id; its
        // typed answers must agree with the batch bodies.
        let single_addr = single_trace_server(stamps.clone());
        let mut single = QueryClient::connect(&single_addr.to_string()).expect("connect single");
        let mut it = entries.iter();
        for kind in [QUERY_PRECEDES, QUERY_CONCURRENT, QUERY_CHAIN_OF] {
            for m1 in 0..stamps.len() as u32 {
                for m2 in 0..stamps.len() as u32 {
                    let entry = it.next().expect("positional entry");
                    match kind {
                        QUERY_PRECEDES => {
                            let sequential = single.precedes("", m1, m2).expect("precedes");
                            assert_eq!(entry, &BatchEntry::Answer(vec![u8::from(sequential)]));
                        }
                        QUERY_CONCURRENT => {
                            let sequential = single.concurrent("", m1, m2).expect("concurrent");
                            assert_eq!(entry, &BatchEntry::Answer(vec![u8::from(sequential)]));
                        }
                        _ => {
                            let sequential = single.chain_of("", m1).expect("chain");
                            let mut body = (sequential.len() as u32).to_le_bytes().to_vec();
                            for id in sequential {
                                body.extend_from_slice(&id.to_le_bytes());
                            }
                            assert_eq!(entry, &BatchEntry::Answer(body));
                        }
                    }
                }
            }
        }
    }
}

/// A bad trace id fails every entry of its batch and leaves the
/// connection usable; a bad message id fails only its own entry.
#[test]
fn trace_and_entry_failures_are_recoverable() {
    let fabric = QueryFabric::new(4);
    fabric.publish("a", diamond());
    fabric.publish("b", chain());
    let addr = fabric_server(fabric, 2);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");

    let q = BatchQuery {
        kind: QUERY_PRECEDES,
        m1: 0,
        m2: 1,
    };
    let entries = client.batch("missing", &[q, q]).expect("answered batch");
    assert_eq!(entries.len(), 2);
    for entry in &entries {
        assert!(
            matches!(entry, BatchEntry::Error(m) if m.contains("unknown trace")),
            "{entry:?}"
        );
    }
    let err = client.precedes("missing", 0, 1).unwrap_err();
    assert!(
        matches!(&err, NetError::Query(m) if m.contains("unknown trace")),
        "{err}"
    );
    // Same connection, valid trace: still answered.
    assert_eq!(
        client.batch("a", &[q]).unwrap(),
        vec![BatchEntry::Answer(vec![1])]
    );

    // Entry-level failure: out-of-range id poisons one entry, not the batch.
    let entries = client
        .batch(
            "b",
            &[
                q,
                BatchQuery {
                    kind: QUERY_PRECEDES,
                    m1: 0,
                    m2: 999,
                },
            ],
        )
        .unwrap();
    assert_eq!(entries[0], BatchEntry::Answer(vec![1]));
    assert!(matches!(&entries[1], BatchEntry::Error(m) if m.contains("out of range")));

    // The convenience wrappers route through the same trace ids.
    assert!(client.precedes("b", 0, 4).unwrap());
    assert!(client.concurrent("a", 1, 2).unwrap());
    assert_eq!(client.chain_of("a", 1).unwrap(), vec![0, 1, 3]);
    assert_eq!(
        client
            .precedes_many_pipelined("b", &[(0, 1), (1, 0), (2, 4)], MAX_BATCH, 1)
            .unwrap(),
        vec![true, false, true]
    );
}

/// A query on the empty (default) trace id is only answerable when the
/// catalog has exactly one trace; against a multi-trace catalog it is
/// refused with a diagnostic naming the trace count.
#[test]
fn default_trace_queries_need_an_unambiguous_catalog() {
    let fabric = QueryFabric::new(4);
    fabric.publish("a", diamond());
    fabric.publish("b", chain());
    let addr = fabric_server(fabric, 2);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let err = client.precedes("", 0, 1).unwrap_err();
    assert!(
        matches!(&err, NetError::Query(m) if m.contains("2 traces")),
        "{err}"
    );
    // Naming the trace works on the same connection.
    assert!(client.precedes("a", 0, 1).expect("named trace"));
}

/// Republishing a trace while the server is live (copy-on-write) changes
/// the answers new queries see, without restarting anything.
#[test]
fn republish_is_visible_to_live_connections() {
    let fabric = Arc::new(QueryFabric::new(2));
    fabric.publish("t", chain());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let serving = Arc::clone(&fabric);
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, serving, 2);
    });
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    // chain(): m0 < m1.
    assert!(client.precedes("t", 0, 1).unwrap());
    // Republish with lattice(): m0 ∥ m1 now.
    fabric.publish("t", lattice());
    assert!(!client.precedes("t", 0, 1).unwrap());
    assert!(client.concurrent("t", 0, 1).unwrap());
}

/// Resharding a live catalog re-homes every trace to its new ring owner
/// (same `Arc`, no copies) while reusing all previously hashed vnodes.
#[test]
fn reshard_rehomes_traces_and_reuses_vnode_hashes() {
    let mut fabric = QueryFabric::new(2);
    let before_hashes = fabric.vnode_hashes_computed();
    let snap = fabric.publish("diamond", diamond());
    fabric.publish("chain", chain());
    fabric.reshard(3);
    assert_eq!(fabric.shard_count(), 3);
    // Only the new shard's vnodes were hashed (half of the 2-shard cost).
    assert_eq!(fabric.vnode_hashes_computed(), before_hashes * 3 / 2);
    // Both traces still resolve, to the same shared snapshot.
    let after = fabric.snapshot("diamond").expect("rehomed");
    assert!(Arc::ptr_eq(&snap, &after), "reshard must move, not copy");
    assert_eq!(fabric.trace_names(), vec!["chain", "diamond"]);
    // Placement agrees with a fresh 3-shard ring.
    let fresh = QueryFabric::new(3);
    assert_eq!(fabric.shard_of("diamond"), fresh.shard_of("diamond"));
    // Shrinking back hashes nothing new.
    let hashed = fabric.vnode_hashes_computed();
    fabric.reshard(1);
    assert_eq!(fabric.vnode_hashes_computed(), hashed);
    assert_eq!(fabric.trace_count(), 2);
}

/// A one-worker pool serves connections to completion, one after another —
/// nothing deadlocks and nothing is dropped.
#[test]
fn single_worker_pool_serves_sequential_connections() {
    let fabric = QueryFabric::new(1);
    fabric.publish("t", diamond());
    let addr = fabric_server(fabric, 1);
    for _ in 0..3 {
        let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
        assert!(client.precedes("t", 0, 3).unwrap());
        // Dropping the client closes the socket and frees the worker.
    }
}

/// Dials `addr` and sends a HELLO speaking `version`; returns the stream
/// and the first frame the server sends back.
fn raw_hello(addr: SocketAddr, version: u16) -> (TcpStream, FrameReader, Frame) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Frame::Hello {
        version,
        topology_hash: 0,
        process: u32::MAX,
    };
    stream
        .write_all(&hello.encode().expect("HELLO encodes"))
        .expect("send HELLO");
    let mut reader = FrameReader::new();
    let frame = next_frame(&mut stream, &mut reader).expect("server reply");
    (stream, reader, frame)
}

/// Reads the next frame, or `None` once the server has closed.
fn next_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame().expect("well-formed frame") {
            return Some(frame);
        }
        let n = stream.read(&mut buf).expect("read");
        if n == 0 {
            return None;
        }
        reader.feed(&buf[..n]);
    }
}

/// The query port checks the protocol version exactly, like the mesh: a
/// client still speaking version 3 is refused at the handshake with a
/// version diagnostic, not served until its first retired frame.
#[test]
fn stale_protocol_version_is_refused_at_the_handshake() {
    let addr = single_trace_server(diamond());
    let (mut stream, mut reader, reply) = raw_hello(addr, 3);
    match reply {
        Frame::Error { message } => assert!(message.contains("version"), "{message}"),
        other => panic!("expected a version refusal, got {other:?}"),
    }
    assert_eq!(
        next_frame(&mut stream, &mut reader),
        None,
        "server kept the connection"
    );
}

/// The retired query frame types (4/5 single-query, 7/8 lock-step batch)
/// get a final ERROR frame from a live server, which then closes.
#[test]
fn retired_query_frame_types_get_an_error_and_close() {
    let addr = single_trace_server(diamond());
    for ty in [4u8, 5, 7, 8] {
        let (mut stream, mut reader, reply) = raw_hello(addr, PROTOCOL_VERSION);
        assert!(matches!(reply, Frame::Hello { .. }), "{reply:?}");
        // The retired single-query body layout: kind 0, m1 0, m2 1.
        let mut raw = 10u32.to_le_bytes().to_vec();
        raw.push(ty);
        raw.extend_from_slice(&[0, 0, 0, 0, 0, 1, 0, 0, 0]);
        stream.write_all(&raw).expect("send retired frame");
        match next_frame(&mut stream, &mut reader) {
            Some(Frame::Error { message }) => {
                assert!(message.contains(&format!("frame type {ty}")), "{message}")
            }
            other => panic!("type {ty}: expected a final ERROR, got {other:?}"),
        }
        assert_eq!(
            next_frame(&mut stream, &mut reader),
            None,
            "type {ty}: not closed"
        );
    }
}

// ------------------------------------------------------------ resharding

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Consistent-hash stability: growing the ring from `S` to `S + 1`
    /// shards moves at most `1/(S+1) + ε` of the keys (ε absorbs the
    /// finite-vnode arc skew plus sampling noise), and every key that
    /// moves lands on the *new* shard — no key ever shuffles between two
    /// surviving shards.
    #[test]
    fn adding_a_shard_moves_at_most_its_fair_share_of_keys(
        shards in 1usize..9,
        seeds in proptest::collection::vec(proptest::prelude::any::<u64>(), 400..800),
    ) {
        use synctime_net::{ShardRing, VnodeTable};

        // Structured trace-style ids, deduplicated: the fraction is over
        // distinct keys.
        let keys: std::collections::HashSet<String> =
            seeds.iter().map(|s| format!("trace-{s:x}")).collect();
        // Both rings share one vnode table: the rebuild must *reuse* the
        // surviving shards' hashes, paying only for the newcomer's.
        let mut table = VnodeTable::new();
        let before = ShardRing::with_table(shards, &mut table);
        let hashed_before = table.computed_hashes();
        let after = ShardRing::with_table(shards + 1, &mut table);
        let hashed_after = table.computed_hashes();
        let per_shard = hashed_before / shards as u64;
        proptest::prop_assert_eq!(
            hashed_after - hashed_before,
            per_shard,
            "growing {} -> {} shards should hash exactly one shard's vnodes, not rehash all",
            shards,
            shards + 1
        );
        // The cache is an optimisation, not a behaviour change: cached
        // rings place keys exactly as freshly hashed rings do.
        let fresh_after = ShardRing::new(shards + 1);
        let mut moved = 0usize;
        for key in &keys {
            let old = before.shard_of(key);
            let new = after.shard_of(key);
            proptest::prop_assert_eq!(new, fresh_after.shard_of(key));
            if old != new {
                moved += 1;
                // A reshard only ever donates keys to the newcomer.
                proptest::prop_assert_eq!(
                    new,
                    shards,
                    "key `{}` moved from shard {} to surviving shard {}",
                    key,
                    old,
                    new
                );
            }
        }
        let fair = 1.0 / (shards as f64 + 1.0);
        let fraction = moved as f64 / keys.len() as f64;
        proptest::prop_assert!(
            fraction <= fair + 0.15,
            "{} of {} keys moved ({:.3}); fair share is {:.3}",
            moved,
            keys.len(),
            fraction,
            fair
        );
    }
}

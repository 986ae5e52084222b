//! The thread budget, counted as threads actually live. Mini-rayon keeps a
//! process-wide high-water mark of threads running chunks of a parallel
//! operation, so this test has its own binary: no other test's fan-outs
//! run beside it. One P1 on a 600-node SBM with 64 worlds fans out while
//! sampling its worlds and again in round 0, whose BFS work bound is past
//! the fan-out threshold. At two threads, batch and listen mode alike, no
//! more than two threads may run at once, and two must.

use std::sync::Arc;
use std::thread;

use tcim_diffusion::ParallelismConfig;
use tcim_service::{Client, Json, Request, Server, ServerConfig, ServiceEngine};

fn sbm_p1(id: &str, dataset_seed: u64) -> Request {
    let line = format!(
        r#"{{"id":"{id}","op":"solve_budget","scenario":{{"family":"sbm","nodes":600,"p_within":0.05,"p_across":0.005,"majority_fraction":0.7,"weights":"uniform","edge_probability":0.1}},"dataset_seed":{dataset_seed},"deadline":5,"samples":64,"budget":3}}"#
    );
    Request::parse_line(&line).expect("the request parses")
}

fn assert_ok(response: &Json) {
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
}

#[test]
fn two_threads_run_at_most_and_at_least_two_chunks_at_once() {
    // Batch mode at `fixed(2)`: a one-request batch serves the request
    // under both threads.
    rayon::reset_peak_running_chunks();
    let engine = ServiceEngine::new(ParallelismConfig::fixed(2));
    for response in engine.serve_batch(&[sbm_p1("batch", 1)]) {
        assert_ok(&response);
    }
    assert_eq!(rayon::peak_running_chunks(), 2, "batch at fixed(2)");

    // Listen mode at `--threads 2`: the server's own threads (acceptor,
    // reader, worker) run no chunk; the request's fan-outs do.
    let engine = Arc::new(ServiceEngine::new(ParallelismConfig::fixed(2)));
    let server = Server::bind_tcp("127.0.0.1:0", engine, ServerConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.tcp_addr().expect("a TCP server knows its address");
    let shutdown = server.shutdown_handle();
    let join = thread::spawn(move || server.run().expect("server run"));
    rayon::reset_peak_running_chunks();
    let mut client = Client::connect_tcp(addr).expect("connect");
    assert_ok(&client.call(&sbm_p1("listen", 2)).expect("round trip"));
    assert_eq!(rayon::peak_running_chunks(), 2, "listen mode at --threads 2");
    shutdown.trigger();
    assert!(join.join().expect("server thread").drained);
}

//! Service round-trip latency: what one design request costs through the
//! full serving stack (frame encode → socket → connection handler → cache
//! hit → frame decode), and what the client's connection pool buys over the
//! old one-connection-per-attempt behaviour, on both transports.
//!
//! The measured request is always an artifact-cache *hit* — the first
//! request primes the cache — so the benchmark isolates transport and
//! protocol cost from design compute. The connection handler answers a hit
//! itself, so no worker thread takes part in the measured path. `reuse` keeps one pooled persistent
//! connection across iterations; `fresh` forces a connect/handshake per
//! request (the pre-pool client), making the pair a direct reuse-vs-fresh
//! comparison.

use cps_serve::{
    design_job, DesignClient, DesignServer, Endpoint, Job, Outcome, RequestOptions, ServerConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn nominal_job() -> Job {
    Job::Design(design_job(
        &cps_core::case_study::derived_fleet_specs(),
        &cps_sched::AllocatorConfig::default(),
        &cps_flexray::FlexRayConfig::paper_case_study(),
    ))
}

fn roundtrip(client: &mut DesignClient) {
    match client.request(nominal_job(), RequestOptions::default()).expect("request") {
        Outcome::Design(result) => assert!(result.certified_optimal),
        other => panic!("expected a design outcome: {other:?}"),
    }
}

fn bench(c: &mut Criterion) {
    let socket =
        std::env::temp_dir().join(format!("cps-serve-bench-{}.sock", std::process::id()));
    let mut config = ServerConfig::new(&socket);
    config.tcp_addr = Some("127.0.0.1:0".parse().expect("loopback"));
    let mut server = DesignServer::start(config).expect("server starts");
    let tcp = server.tcp_addr().expect("tcp bound");

    // Prime the artifact cache: every measured request is a cache hit.
    roundtrip(&mut DesignClient::new(&socket));

    let endpoints =
        [("unix", Endpoint::Unix(socket.clone())), ("tcp", Endpoint::Tcp(tcp))];

    println!("\n=== Service round-trip (cached design request) ===");
    for (label, endpoint) in &endpoints {
        for (mode, reuse) in [("reuse", true), ("fresh", false)] {
            let mut client = DesignClient::connect_to(endpoint.clone()).with_reuse(reuse);
            roundtrip(&mut client); // warm the pool / page in the path
            let rounds = 200u32;
            let start = Instant::now();
            for _ in 0..rounds {
                roundtrip(&mut client);
            }
            let elapsed = start.elapsed();
            println!(
                "{label:>5} {mode:<6} {:>8.1} req/s ({:>7.1} µs/request)",
                f64::from(rounds) / elapsed.as_secs_f64(),
                elapsed.as_secs_f64() * 1e6 / f64::from(rounds),
            );
        }
    }
    println!();

    let mut group = c.benchmark_group("service_roundtrip");
    group.sample_size(20);
    for (label, endpoint) in &endpoints {
        for (mode, reuse) in [("reuse", true), ("fresh", false)] {
            let mut client = DesignClient::connect_to(endpoint.clone()).with_reuse(reuse);
            roundtrip(&mut client);
            group.bench_function(format!("{label}_{mode}"), |b| {
                b.iter(|| roundtrip(&mut client))
            });
        }
    }
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Reference floor for `tcp_mux`: a raw `std::net` ping-pong over the
//! same loopback with the same payload sizes, no middleware at all.
//!
//!     pingpong [calls]
//!
//! One client thread sends a length-prefixed frame and waits for the
//! echo; one server thread echoes. Like the benchmark, both threads
//! share one CPU. Prints p50 and p99 round trips.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use perfbench::rng::Rng;
use perfbench::stats::quantile;

/// The `tcp_mux` payload sizes with their share, in percent.
const SIZES: [(usize, u64); 5] = [(0, 30), (16, 30), (256, 20), (4096, 15), (32768, 5)];

fn frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    buf.resize(u32::from_be_bytes(len) as usize, 0);
    stream.read_exact(buf)
}

fn send(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).expect("payloads are small");
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(payload)
}

fn main() -> std::io::Result<()> {
    let calls: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let cpu = perfbench::sys::pin_to_one_cpu();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = Vec::new();
        while frame(&mut s, &mut buf).is_ok() {
            send(&mut s, &buf)?;
        }
        Ok(())
    });
    let mut client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;
    let mut rng = Rng::new(1, 2);
    let pool: Vec<Vec<u8>> = SIZES
        .iter()
        .map(|&(size, _)| (0..size).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let mut lat = Vec::with_capacity(calls);
    let mut buf = Vec::new();
    for _ in 0..calls {
        let mut roll = rng.below(100);
        let class = SIZES
            .iter()
            .position(|&(_, share)| {
                let hit = roll < share;
                roll = roll.saturating_sub(share);
                hit
            })
            .unwrap_or(0);
        let started = Instant::now();
        send(&mut client, &pool[class])?;
        frame(&mut client, &mut buf)?;
        lat.push(started.elapsed().as_nanos() as u64);
        assert_eq!(buf, pool[class], "echo differs");
    }
    drop(client);
    server.join().expect("server thread panicked")?;
    lat.sort_unstable();
    println!(
        "raw loopback ping-pong, {calls} calls on CPU {cpu:?}: p50 {:.1} us, p99 {:.1} us",
        quantile(&lat, 0.5) as f64 / 1e3,
        quantile(&lat, 0.99) as f64 / 1e3
    );
    Ok(())
}

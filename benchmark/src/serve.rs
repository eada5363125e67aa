//! The serve workloads: closed-loop clients over the `LTSP` TCP front door
//! of a [`Server`] holding an f32 and an i8 plan of the Scenario-1 student.
//!
//! * `serve_latency`: one connection, one request in flight, so no batch
//!   can form and per-request costs set the time.
//! * `serve_throughput`: two connections, each keeping [`PIPELINE_DEPTH`]
//!   requests in flight, so the scheduler fuses batches.
//!
//! Both are closed loops; `run` takes the connection count and the
//! requests kept in flight per connection.

use crate::measure::{median, process_cpu_s, tail_percentile};
use crate::report::{Checks, Metrics};
use crate::Args;
use lightts_data::LabeledDataset;
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_serve::wire::Reply;
use lightts_serve::{
    ModelRegistry, NetClient, NetServer, PlanKind, ServeConfig, ServeStats, Server,
};
use lightts_tensor::rng::{derive_seed, seeded};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The two served plans: registry name and plan kind.
const PLANS: [(&str, PlanKind); 2] = [("student_f32", PlanKind::F32), ("student_i8", PlanKind::I8)];
/// Requests in flight per connection on `serve_throughput`.
pub const PIPELINE_DEPTH: usize = 32;
/// Requests per round: each connection sends whole rounds, cycling over
/// both plans.
const ROUND: usize = 64;
/// Unmeasured warm-up before the timed window.
const WARM_UP: Duration = Duration::from_millis(500);
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// The window is read in slices this long; throughput and CPU per request
/// are the medians over slices, so a burst of load from elsewhere on the
/// host moves a few slices rather than the result.
const SLICE: Duration = Duration::from_millis(250);

/// The request inputs and the packed student they are served with.
struct Inputs {
    packed: Vec<u8>,
    test: LabeledDataset,
    samples: Vec<Vec<f32>>,
}

/// Generates the inputs: the test-split series of the seeded FaceAll
/// analogue, and a seeded Scenario-1 student (3 blocks × 3 layers, 8-bit)
/// packed as a deployment export.
fn generate(seed: u64, layers: &mut Metrics) -> Inputs {
    let t0 = Instant::now();
    let splits = crate::pipeline::generate(seed);
    layers.add("data.generate_s", t0.elapsed().as_secs_f64());
    let test = splits.test;
    let samples =
        (0..test.len()).map(|i| test.series(i).expect("series").values().data().to_vec()).collect();
    let cfg = InceptionConfig::student(test.dims(), test.series_len(), test.num_classes(), 8, 8);
    let model = InceptionTime::new(cfg, &mut seeded(derive_seed(seed, 7))).expect("student");
    Inputs { packed: model.save_bytes().expect("pack student"), test, samples }
}

/// A running server with its front door.
struct Running {
    server: Server,
    door: NetServer,
}

impl Running {
    fn start(packed: &[u8]) -> Running {
        let mut registry = ModelRegistry::new();
        for (name, kind) in PLANS {
            registry.load_packed_as(name, packed, kind).expect("load packed student");
        }
        let server = Server::start(registry, ServeConfig::default());
        let door = server.serve_net("127.0.0.1:0").expect("bind the front door");
        Running { server, door }
    }

    fn stop(self) {
        self.server.shutdown();
        self.door.shutdown();
    }
}

/// Each plan's in-process forward of every sample alone (batch 1), the
/// reference every served reply must equal bit for bit.
fn expected_replies(packed: &[u8], samples: &[Vec<f32>]) -> Vec<Vec<Vec<f32>>> {
    let model = InceptionTime::load_bytes(packed).expect("load packed student");
    let mut f32_plan = model.compile().expect("compile f32");
    let mut i8_plan = model.compile_quantized().expect("compile i8");
    let mut forward = |kind: PlanKind, x: &[f32]| {
        let mut out = Vec::new();
        match kind {
            PlanKind::F32 => f32_plan.predict_proba_into(x, 1, &mut out),
            PlanKind::I8 => i8_plan.predict_proba_into(x, 1, &mut out),
        }
        .expect("reference forward");
        out
    };
    PLANS.iter().map(|&(_, kind)| samples.iter().map(|x| forward(kind, x)).collect()).collect()
}

/// Whether `p` is a finite probability distribution.
fn is_distribution(p: &[f32]) -> bool {
    let sum: f32 = p.iter().sum();
    !p.is_empty() && p.iter().all(|x| x.is_finite() && *x >= 0.0) && (sum - 1.0).abs() < 1e-4
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one client connection observed.
#[derive(Default)]
struct ClientOut {
    checks: Checks,
    /// Round-trip latencies of requests sent inside the window, µs.
    latencies_us: Vec<f64>,
}

/// The closed-loop load every connection applies.
struct Load<'a> {
    samples: &'a [Vec<f32>],
    expected: &'a [Vec<Vec<f32>>],
    /// Requests kept in flight per connection.
    depth: usize,
    /// Requests sent in `[begin, stop)` are timed.
    begin: Instant,
    stop: Instant,
    /// Replies received so far, over all connections.
    completed: AtomicU64,
}

impl Load<'_> {
    /// One connection: keeps `depth` requests in flight, sending whole
    /// rounds until `stop`, then drains. Request `i` of connection `conn`
    /// asks plan `i % 2` about sample `(conn * 7919 + i) % n`.
    fn client(&self, addr: SocketAddr, conn: usize) -> ClientOut {
        let mut out = ClientOut::default();
        let mut c = NetClient::connect(addr).expect("connect to the front door");
        let mut inflight: VecDeque<(u64, usize, usize, Instant)> =
            VecDeque::with_capacity(self.depth);
        let mut sent = 0usize;
        loop {
            let sending = !sent.is_multiple_of(ROUND) || Instant::now() < self.stop;
            if sending && inflight.len() < self.depth {
                let plan = sent % PLANS.len();
                let sample = (conn * 7919 + sent) % self.samples.len();
                let t = Instant::now();
                let id = c.send(PLANS[plan].0, &self.samples[sample], None).expect("send request");
                inflight.push_back((id, plan, sample, t));
                sent += 1;
                continue;
            }
            let Some((id, plan, sample, t)) = inflight.pop_front() else { break };
            let reply = c.recv();
            let done = Instant::now();
            self.completed.fetch_add(1, Ordering::Relaxed);
            out.checks.op("request", |op| match &reply {
                Ok(Reply::Ok { request_id, probs }) => {
                    op.check(*request_id == id, || format!("reply {request_id} for request {id}"));
                    op.check(is_distribution(probs), || format!("not a distribution: {probs:?}"));
                    op.check(bitwise_eq(probs, &self.expected[plan][sample]), || {
                        format!(
                            "{} sample {sample} differs from its batch-1 forward",
                            PLANS[plan].0
                        )
                    });
                }
                Ok(Reply::Err { error, .. }) => op.check(false, || format!("error reply: {error}")),
                Err(e) => op.check(false, || format!("transport: {e}")),
            });
            if reply.is_err() {
                break;
            }
            if t >= self.begin && t < self.stop {
                out.latencies_us.push((done - t).as_secs_f64() * 1e6);
            }
        }
        out
    }
}

/// Per-layer figures from the server's counters over the window.
fn server_layers(
    before: &ServeStats,
    after: &ServeStats,
    client_mean_us: f64,
    layers: &mut Metrics,
) {
    let requests = (after.requests - before.requests) as f64;
    let batches = (after.batches - before.batches) as f64;
    let service_us = (after.total_service - before.total_service).as_secs_f64() * 1e6;
    let latency_us = (after.total_latency - before.total_latency).as_secs_f64() * 1e6;
    let server_us = latency_us / requests;
    let service_per_batch = service_us / batches;
    layers.add("serve.batch_mean", requests / batches);
    layers.add("serve.service_us_per_batch", service_per_batch);
    layers.add("serve.server_latency_us", server_us);
    layers.add("serve.queue_wait_us", server_us - service_per_batch);
    layers.add("net.overhead_us", client_mean_us - server_us);
}

/// Median µs of one in-process `predict_proba_into` call per plan at batch
/// 1 and 16, on the model's f32 and i8 plans (`models.plan_*`).
pub fn time_plans(model: &InceptionTime, ds: &LabeledDataset, layers: &mut Metrics) {
    let idx: Vec<usize> = (0..16).map(|i| i % ds.len()).collect();
    let inputs = ds.batch(&idx).expect("plan inputs").inputs.into_vec();
    let mut f32_plan = model.compile().expect("compile f32");
    let mut i8_plan = model.compile_quantized().expect("compile i8");
    let per_sample = inputs.len() / 16;
    for (batch, reps) in [(1usize, 400usize), (16, 60)] {
        let x = &inputs[..batch * per_sample];
        let mut out = Vec::new();
        let mut time = |f: &mut dyn FnMut(&mut Vec<f32>)| {
            for _ in 0..reps / 10 {
                f(&mut out);
            }
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    f(&mut out);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        };
        let f32_us = time(&mut |o| f32_plan.predict_proba_into(x, batch, o).expect("f32 forward"));
        let i8_us = time(&mut |o| i8_plan.predict_proba_into(x, batch, o).expect("i8 forward"));
        layers.add(&format!("models.plan_f32_b{batch}_us"), f32_us);
        layers.add(&format!("models.plan_i8_b{batch}_us"), i8_us);
    }
}

/// Runs one serve workload: `conns` connections with `depth` requests in
/// flight each, for `args.seconds`; fills `e2e` and `layers`.
pub fn run(
    conns: usize,
    depth: usize,
    args: &Args,
    checks: &mut Checks,
    e2e: &mut Metrics,
    layers: &mut Metrics,
) {
    // Set-up: generate the inputs, load both plans, start the server and
    // its front door. Timed SETUPS times; all but the last are torn down.
    let mut running = None;
    let mut inputs = None;
    for _ in 0..SETUPS {
        if let Some(r) = running.take() {
            Running::stop(r);
        }
        let t0 = Instant::now();
        let gen = generate(args.seed, layers);
        running = Some(Running::start(&gen.packed));
        e2e.add("setup_s", t0.elapsed().as_secs_f64());
        inputs = Some(gen);
    }
    let (running, inputs) = (running.expect("set up"), inputs.expect("set up"));
    let expected = expected_replies(&inputs.packed, &inputs.samples);

    let addr = running.door.addr();
    let begin = Instant::now() + WARM_UP;
    let stop = begin + Duration::from_secs_f64(args.seconds);
    let load = Load {
        samples: &inputs.samples,
        expected: &expected,
        depth,
        begin,
        stop,
        completed: AtomicU64::new(0),
    };
    let (load, completed) = (&load, &load.completed);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let clients: Vec<_> =
            (0..conns).map(|conn| s.spawn(move || load.client(addr, conn))).collect();
        std::thread::sleep(begin.saturating_duration_since(Instant::now()));
        let stats0 = running.server.stats();
        let (mut rps, mut cpu_ms) = (Vec::new(), Vec::new());
        let mut last = (Instant::now(), process_cpu_s(), completed.load(Ordering::Relaxed));
        while last.0 + SLICE <= stop {
            std::thread::sleep((last.0 + SLICE).saturating_duration_since(Instant::now()));
            let now = (Instant::now(), process_cpu_s(), completed.load(Ordering::Relaxed));
            let n = (now.2 - last.2) as f64;
            rps.push(n / (now.0 - last.0).as_secs_f64());
            cpu_ms.push((now.1 - last.1) * 1e3 / n);
            last = now;
        }
        let stats1 = running.server.stats();
        let outs: Vec<ClientOut> =
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect();
        let mut lat: Vec<f64> = outs.iter().flat_map(|o| o.latencies_us.iter().copied()).collect();
        lat.sort_by(f64::total_cmp);
        e2e.add("op_ms", median(&lat) * 1e-3);
        e2e.add("cpu_ms_per_op", median(&cpu_ms));
        println!(
            "throughput: {:.1} requests/s (median of {} slices) on {} scheduler shards",
            median(&rps),
            rps.len(),
            running.server.shards()
        );
        match tail_percentile(&lat) {
            Some(t) => println!(
                "tail: p{} = {:.1} us over {} requests ({} beyond)",
                t.pct, t.value, t.n, t.beyond
            ),
            None => println!("tail: fewer than 20 requests, no percentile reported"),
        }
        let mean_us = lat.iter().sum::<f64>() / lat.len() as f64;
        server_layers(&stats0, &stats1, mean_us, layers);
        outs
    });
    for o in outs {
        checks.attempted += o.checks.attempted;
        checks.failed += o.checks.failed;
    }
    running.stop();
    if args.trace {
        let model = InceptionTime::load_bytes(&inputs.packed).expect("load packed student");
        time_plans(&model, &inputs.test, layers);
    }
}
